#include "fv/bc.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "common/half.hpp"
#include "common/precision.hpp"

namespace igr::fv {

namespace {

using common::kEnergy;
using common::kMomX;
using common::kMomY;
using common::kMomZ;
using common::kNumVars;
using common::kRho;

/// Momentum component normal to a face's axis.
int normal_mom(int axis) { return kMomX + axis; }

/// Does (t1, t2) fall inside any patch?  Returns the patch index or -1.
int find_patch(const std::vector<InflowPatch>& patches, double t1,
               double t2) {
  for (std::size_t p = 0; p < patches.size(); ++p) {
    const double d1 = t1 - patches[p].cx;
    const double d2 = t2 - patches[p].cy;
    if (d1 * d1 + d2 * d2 <= patches[p].radius * patches[p].radius)
      return static_cast<int>(p);
  }
  return -1;
}

/// One face's fill rule, resolved once per fill: a Dirichlet face with no
/// prescribed state extrapolates zero-gradient, and the prescribed/injected
/// conservative states are converted once (not per ghost cell).
struct FaceRule {
  BcKind kind = BcKind::kPeriodic;
  const std::vector<InflowPatch>* patches = nullptr;
  std::vector<common::Cons<double>> patch_cons;
  common::Cons<double> dirichlet_cons{};
};

using FaceRules = std::array<FaceRule, mesh::kNumFaces>;

FaceRules resolve_rules(const BcSpec& spec, const eos::IdealGas& eos) {
  FaceRules rules;
  for (int f = 0; f < mesh::kNumFaces; ++f) {
    const auto face = static_cast<mesh::Face>(f);
    const auto fi = static_cast<std::size_t>(f);
    FaceRule& r = rules[fi];
    r.kind = spec.face_kind(face);
    if (r.kind == BcKind::kDirichlet && !spec.dirichlet_set[fi])
      r.kind = BcKind::kOutflow;
    if (r.kind == BcKind::kDirichlet)
      r.dirichlet_cons = eos.to_cons(spec.dirichlet[fi]);
    if (r.kind == BcKind::kInflowPatches) {
      r.patches = &spec.patches[fi];
      for (const auto& p : *r.patches) r.patch_cons.push_back(eos.to_cons(p.state));
    }
  }
  return rules;
}

/// Source index along the face normal of ghost layer g (1-based) on `side`
/// of an axis with n interior cells.  For n < g a periodic wrap lands on a
/// ghost of the same side written at an earlier layer, so every fill below
/// walks a face's layers in ascending g, low side before high side.
int source_index(BcKind kind, int side, int g, int n) {
  if (kind == BcKind::kPeriodic) return (side == 0) ? n - g : g - 1;
  if (kind == BcKind::kOutflow) return (side == 0) ? 0 : n - 1;
  return (side == 0) ? g - 1 : n - g;  // reflective (and a patch face's plate)
}

int ghost_index(int side, int g, int n) { return (side == 0) ? -g : n + g - 1; }

/// `dst[i] = src[i]`, or the negated value for the normal momentum of a
/// reflective wall (negation is exact at every precision; the
/// double-negate-cast keeps the per-cell form's expression).
template <class T>
void copy_span(T* dst, const T* src, std::size_t len, bool negate) {
  if (negate) {
    for (std::size_t i = 0; i < len; ++i)
      dst[i] = static_cast<T>(-static_cast<double>(src[i]));
  } else {
    std::memcpy(dst, src, len * sizeof(T));
  }
}

/// Fill cell (i, j, k) of an inflow-patch face from patch `p`, or mirror it
/// as base-plate wall from (si, sj, sk) when p < 0.
template <class T>
void patch_cell(common::StateField3<T>& q, const FaceRule& r, int p, int nm,
                int i, int j, int k, int si, int sj, int sk) {
  if (p >= 0) {
    const auto& qc = r.patch_cons[static_cast<std::size_t>(p)];
    for (int c = 0; c < kNumVars; ++c) q[c](i, j, k) = static_cast<T>(qc[c]);
  } else {
    for (int c = 0; c < kNumVars; ++c) q[c](i, j, k) = q[c](si, sj, sk);
    q[nm](i, j, k) =
        static_cast<T>(-static_cast<double>(q[nm](si, sj, sk)));
  }
}

// The three axis passes, each restricted to a slab of its tangential range
// so a team can split it.  Ghost fills are hot (every RK stage refills ~0.6
// ghost cells per interior cell), so each pass visits a row (x), a
// (plane, side) (y) or a row of a ghost plane (z) once and writes all of its
// ghost layers there, copying contiguous spans wherever the layout allows.
// Every cell gets exactly the value of the straightforward per-cell form:
// the x pass sources only its own row, and the tangential extents widen
// over the axes filled before (x, then y, then z), so edge and corner
// ghosts are defined.

/// x ghost columns of interior rows j ∈ [j0, j1), every interior plane.
/// One pass per component over the rows, all layers of both sides per row;
/// a patch face goes per row instead, its patch test shared by the
/// components and layers.  Low side before high side per row, as every
/// fill orders them.
template <class T>
void fill_x(common::StateField3<T>& q, const FaceRules& rules,
            const mesh::Grid& grid, std::array<bool, 2> sides, int j0,
            int j1) {
  const int ng = q.ng(), nx = q.nx(), nz = q.nz();
  const int nm = normal_mom(0);
  auto patch_side = [&](int side) {
    const FaceRule& r = rules[static_cast<std::size_t>(side)];
    for (int k = 0; k < nz; ++k) {
      for (int j = j0; j < j1; ++j) {
        const int p = find_patch(*r.patches, grid.y(j), grid.z(k));
        for (int g = 1; g <= ng; ++g) {
          patch_cell(q, r, p, nm, ghost_index(side, g, nx), j, k,
                     source_index(BcKind::kReflective, side, g, nx), j, k);
        }
      }
    }
  };
  bool copy[2];
  for (int side = 0; side < 2; ++side) {
    copy[side] = sides[static_cast<std::size_t>(side)] &&
                 rules[static_cast<std::size_t>(side)].kind !=
                     BcKind::kInflowPatches;
  }
  if (sides[0] && !copy[0]) patch_side(0);
  if (copy[0] || copy[1]) {
    // Rows are one cold cache line at each end; the layer loop defeats the
    // stride prefetcher, so fetch both ends a few rows ahead explicitly.
    constexpr int kAhead = 8;
    const std::ptrdiff_t sy = q[0].stride(1);
    for (int c = 0; c < kNumVars; ++c) {
      for (int k = 0; k < nz; ++k) {
        for (int j = j0; j < j1; ++j) {
          T* row = q[c].row(j, k);
          if (j + kAhead < j1) {
            __builtin_prefetch(row + kAhead * sy - ng, 1);
            __builtin_prefetch(row + kAhead * sy + nx - 1, 1);
          }
          for (int side = 0; side < 2; ++side) {
            if (!copy[side]) continue;
            const FaceRule& r = rules[static_cast<std::size_t>(side)];
            if (r.kind == BcKind::kDirichlet) {
              const T dv = static_cast<T>(r.dirichlet_cons[c]);
              for (int g = 1; g <= ng; ++g) row[ghost_index(side, g, nx)] = dv;
              continue;
            }
            const bool negate = r.kind == BcKind::kReflective && c == nm;
            for (int g = 1; g <= ng; ++g) {
              const T v = row[source_index(r.kind, side, g, nx)];
              row[ghost_index(side, g, nx)] =
                  negate ? static_cast<T>(-static_cast<double>(v)) : v;
            }
          }
        }
      }
    }
  }
  if (sides[1] && !copy[1]) patch_side(1);
}

/// y ghost rows (x-extended) of interior planes k ∈ [k0, k1).
template <class T>
void fill_y(common::StateField3<T>& q, const FaceRules& rules,
            const mesh::Grid& grid, std::array<bool, 2> sides, int k0,
            int k1) {
  const int ng = q.ng(), nx = q.nx(), ny = q.ny();
  const int nm = normal_mom(1);
  const auto len = static_cast<std::size_t>(nx + 2 * ng);
  for (int k = k0; k < k1; ++k) {
    for (int side = 0; side < 2; ++side) {
      if (!sides[static_cast<std::size_t>(side)]) continue;
      const FaceRule& r = rules[2 + static_cast<std::size_t>(side)];
      for (int g = 1; g <= ng; ++g) {
        const int ghost = ghost_index(side, g, ny);
        if (r.kind == BcKind::kInflowPatches) {
          const int src = source_index(BcKind::kReflective, side, g, ny);
          for (int i = -ng; i < nx + ng; ++i) {
            const int p = find_patch(*r.patches, grid.x(i), grid.z(k));
            patch_cell(q, r, p, nm, i, ghost, k, i, src, k);
          }
          continue;
        }
        for (int c = 0; c < kNumVars; ++c) {
          T* dst = &q[c](-ng, ghost, k);
          if (r.kind == BcKind::kDirichlet) {
            std::fill_n(dst, len, static_cast<T>(r.dirichlet_cons[c]));
            continue;
          }
          copy_span(dst, &q[c](-ng, source_index(r.kind, side, g, ny), k),
                    len, r.kind == BcKind::kReflective && c == nm);
        }
      }
    }
  }
}

/// Rows j ∈ [j0, j1) (x-extended; j may run over the y ghosts) of the z
/// ghost planes.
template <class T>
void fill_z(common::StateField3<T>& q, const FaceRules& rules,
            const mesh::Grid& grid, std::array<bool, 2> sides, int j0,
            int j1) {
  const int ng = q.ng(), nx = q.nx(), nz = q.nz();
  const int nm = normal_mom(2);
  const auto len = static_cast<std::size_t>(nx + 2 * ng);
  if (j0 >= j1) return;
  std::vector<int> row_patch;
  for (int side = 0; side < 2; ++side) {
    if (!sides[static_cast<std::size_t>(side)]) continue;
    const FaceRule& r = rules[4 + static_cast<std::size_t>(side)];
    if (r.kind == BcKind::kInflowPatches) {
      for (int j = j0; j < j1; ++j) {
        // The patch test depends on (x, y) only: once per cell of the row,
        // shared by the ghost layers.
        row_patch.resize(len);
        for (int i = -ng; i < nx + ng; ++i)
          row_patch[static_cast<std::size_t>(i + ng)] =
              find_patch(*r.patches, grid.x(i), grid.y(j));
        for (int g = 1; g <= ng; ++g) {
          const int ghost = ghost_index(side, g, nz);
          const int src = source_index(BcKind::kReflective, side, g, nz);
          for (int i = -ng; i < nx + ng; ++i)
            patch_cell(q, r, row_patch[static_cast<std::size_t>(i + ng)], nm,
                       i, j, ghost, i, j, src);
        }
      }
      continue;
    }
    // Full x-extended rows are contiguous: rows [j0, j1) of a plane are one
    // span.
    const auto span = len * static_cast<std::size_t>(j1 - j0);
    for (int g = 1; g <= ng; ++g) {
      const int ghost = ghost_index(side, g, nz);
      for (int c = 0; c < kNumVars; ++c) {
        T* dst = &q[c](-ng, j0, ghost);
        if (r.kind == BcKind::kDirichlet) {
          std::fill_n(dst, span, static_cast<T>(r.dirichlet_cons[c]));
          continue;
        }
        copy_span(dst, &q[c](-ng, j0, source_index(r.kind, side, g, nz)),
                  span, r.kind == BcKind::kReflective && c == nm);
      }
    }
  }
}

}  // namespace

template <class T>
void apply_bc(common::StateField3<T>& q, const BcSpec& spec,
              const mesh::Grid& grid, const eos::IdealGas& eos,
              const common::ExecSpace::Team& team) {
  const FaceRules rules = resolve_rules(spec, eos);
  const std::array<bool, 2> both{true, true};
  long b, e;
  // x: the member's interior rows.  y: its share of the interior planes —
  // their ghost rows copy rows (and x ghosts) other members filled.  z: its
  // rows of the ghost planes, y-ghost rows on the edge members — the
  // partition the caller's later per-row passes (the Sigma pipeline) use.
  team.chunk(q.ny(), b, e);
  fill_x(q, rules, grid, both, static_cast<int>(b), static_cast<int>(e));
  team.barrier();
  team.chunk(q.nz(), b, e);
  fill_y(q, rules, grid, both, static_cast<int>(b), static_cast<int>(e));
  team.barrier();
  team.chunk_with_halo(q.ny(), q.ng(), b, e);
  fill_z(q, rules, grid, both, static_cast<int>(b), static_cast<int>(e));
}

template <class T>
void apply_bc(common::StateField3<T>& q, const BcSpec& spec,
              const mesh::Grid& grid, const eos::IdealGas& eos) {
  common::ExecSpace::serial().run_team(
      [&](const common::ExecSpace::Team& t) { apply_bc(q, spec, grid, eos, t); });
}

template <class T>
void apply_bc_axis(common::StateField3<T>& q, const BcSpec& spec,
                   const mesh::Grid& grid, const eos::IdealGas& eos, int axis,
                   std::array<bool, 2> sides) {
  const FaceRules rules = resolve_rules(spec, eos);
  if (axis == 0) fill_x(q, rules, grid, sides, 0, q.ny());
  if (axis == 1) fill_y(q, rules, grid, sides, 0, q.nz());
  if (axis == 2) fill_z(q, rules, grid, sides, -q.ng(), q.ny() + q.ng());
}

#define IGR_INSTANTIATE_BC(T)                                                  \
  template void apply_bc<T>(common::StateField3<T>&, const BcSpec&,           \
                            const mesh::Grid&, const eos::IdealGas&);          \
  template void apply_bc<T>(common::StateField3<T>&, const BcSpec&,           \
                            const mesh::Grid&, const eos::IdealGas&,           \
                            const common::ExecSpace::Team&);                   \
  template void apply_bc_axis<T>(common::StateField3<T>&, const BcSpec&,      \
                                 const mesh::Grid&, const eos::IdealGas&, int, \
                                 std::array<bool, 2>);

IGR_INSTANTIATE_BC(double)
IGR_INSTANTIATE_BC(float)
IGR_INSTANTIATE_BC(common::half)
IGR_INSTANTIATE_BC(common::bfloat16)
#undef IGR_INSTANTIATE_BC

}  // namespace igr::fv
