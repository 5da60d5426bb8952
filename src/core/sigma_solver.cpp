#include "core/sigma_solver.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/half.hpp"

namespace igr::core {

namespace {

/// The 7-point relaxation update at flat row offset `i`.  Face coefficients
/// are arithmetic means of the *reciprocal* densities — i.e. 1/rho_face
/// with rho_face the harmonic mean of the two cell densities (that is the
/// intended discretization: it is division-free given the precomputed
/// 1/rho field and keeps the operator symmetric; see sigma_solver.hpp).
/// One division per cell (the diagonal solve).
template <class C, class S>
inline C relax_cell(const S* pir, const S* psr, const S* ps, std::ptrdiff_t i,
                    std::ptrdiff_t sy, std::ptrdiff_t sz, C alpha, C inv_dx2,
                    C inv_dy2, C inv_dz2) {
  const C ir0 = static_cast<C>(pir[i]);
  const C cxm = C(0.5) * (ir0 + static_cast<C>(pir[i - 1]));
  const C cxp = C(0.5) * (ir0 + static_cast<C>(pir[i + 1]));
  const C cym = C(0.5) * (ir0 + static_cast<C>(pir[i - sy]));
  const C cyp = C(0.5) * (ir0 + static_cast<C>(pir[i + sy]));
  const C czm = C(0.5) * (ir0 + static_cast<C>(pir[i - sz]));
  const C czp = C(0.5) * (ir0 + static_cast<C>(pir[i + sz]));

  const C off = inv_dx2 * (static_cast<C>(ps[i + 1]) * cxp +
                           static_cast<C>(ps[i - 1]) * cxm) +
                inv_dy2 * (static_cast<C>(ps[i + sy]) * cyp +
                           static_cast<C>(ps[i - sy]) * cym) +
                inv_dz2 * (static_cast<C>(ps[i + sz]) * czp +
                           static_cast<C>(ps[i - sz]) * czm);
  const C diag = ir0 + alpha * (inv_dx2 * (cxp + cxm) +
                                inv_dy2 * (cyp + cym) +
                                inv_dz2 * (czp + czm));
  return (static_cast<C>(psr[i]) + alpha * off) / diag;
}

/// The eleven compute-precision rows one relax row consumes: sigma and
/// reciprocal density at (j, k), (j∓1, k), (j, k∓1), plus the source row.
/// Every row spans i in [-1, nx] (`row_len` = nx + 2), so the i∓1 taps of
/// the center rows are in-slab; neighbor rows only ever tap their center
/// element.
template <class C>
struct StencilRows {
  const C* sg_c;
  const C* sg_jm;
  const C* sg_jp;
  const C* sg_km;
  const C* sg_kp;
  const C* ir_c;
  const C* ir_jm;
  const C* ir_jp;
  const C* ir_km;
  const C* ir_kp;
  const C* src_c;
};

/// Per-plane conversion cache for the sweeps of a converting (FP16/32,
/// BF16/32) policy — the PR 4 velocity-row-ring pattern applied to the
/// sigma-sweep stencil gathers.  One get-or-convert slot per row of the
/// *current plane* (j ∈ [-1, ny]) holds the plane's sigma and
/// reciprocal-density rows at compute precision, so adjacent (j, k) visits
/// reuse the rows they share: a serial j walk converts each plane row once
/// instead of three times.  The single-use rows — sigma/inv_rho at the k∓1
/// planes and the source — stay direct per-visit loads, and so do the two
/// neighbour-owned rows next to a team member's range (owned_lanes_row).
/// The storage lives in the member's SigmaRowScratch: 2 fields × (ny + 2)
/// rows, of which only the stencil's three rows are hot at a time.
///
/// Red–black staleness note: the in-place color pass stores into rows this
/// cache has already converted, so a cached row can be stale in the
/// *updated* color's lanes relative to a fresh gather.  Those lanes are
/// never consumed:
/// every tap feeding a stored value reads the opposite parity ((i+j+k) of
/// each stencil neighbor flips), which the color pass does not write — so
/// the stored bits are identical to the per-visit-gather form (the
/// FP16/32 and BF16/32 fingerprint pins hold the end-to-end consequence
/// across team widths).  A cache must never survive into the *next* color or
/// sweep, whose taps do consume the previous pass's writes — every user
/// constructs/resets per color pass.
template <class Policy>
class PlaneRowCache {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;

 public:
  /// A view over a member's SigmaRowScratch: `ny` interior rows per plane;
  /// each cached row spans i ∈ [-1, nx].
  PlaneRowCache(SigmaRowScratch<Policy>& scratch, int ny, std::size_t row_len)
      : num_rows_(static_cast<std::size_t>(ny) + 2),
        row_len_(row_len),
        held_(scratch.held.data()),
        store_(scratch.rows.data()) {}

  /// Switch to plane `k`, forgetting every cached row.
  void reset(int k) {
    k_ = k;
    std::fill(held_, held_ + 2 * num_rows_, kEmpty);
  }

  const C* sigma_row(const common::Field3<S>& sigma, int j) {
    return row(sigma, 0, j);
  }
  const C* inv_rho_row(const common::Field3<S>& inv_rho, int j) {
    return row(inv_rho, 1, j);
  }

 private:
  static constexpr int kEmpty = INT_MIN;

  const C* row(const common::Field3<S>& f, int which, int j) {
    const std::size_t slot = static_cast<std::size_t>(which) * num_rows_ +
                             static_cast<std::size_t>(j + 1);
    C* dst = store_ + slot * row_len_;
    if (held_[slot] != j) {
      common::load_line<Policy>(&f(-1, j, k_), dst, row_len_);
      held_[slot] = j;
    }
    return dst;
  }

  std::size_t num_rows_;
  std::size_t row_len_;
  int k_ = 0;
  int* held_;
  C* store_;
};

/// Load the per-visit (single-use) rows into `aux` (5 consecutive rows) and
/// point the StencilRows slots at them.
template <class Policy>
inline void load_transverse_rows(
    const common::Field3<typename Policy::storage_t>& sig_in,
    const common::Field3<typename Policy::storage_t>& src,
    const common::Field3<typename Policy::storage_t>& inv_rho, int j, int k,
    std::size_t row_len, typename Policy::compute_t* aux,
    StencilRows<typename Policy::compute_t>& rows) {
  common::load_line<Policy>(&sig_in(-1, j, k - 1), aux, row_len);
  common::load_line<Policy>(&sig_in(-1, j, k + 1), aux + row_len, row_len);
  common::load_line<Policy>(&inv_rho(-1, j, k - 1), aux + 2 * row_len,
                            row_len);
  common::load_line<Policy>(&inv_rho(-1, j, k + 1), aux + 3 * row_len,
                            row_len);
  common::load_line<Policy>(&src(-1, j, k), aux + 4 * row_len, row_len);
  rows.sg_km = aux;
  rows.sg_kp = aux + row_len;
  rows.ir_km = aux + 2 * row_len;
  rows.ir_kp = aux + 3 * row_len;
  rows.src_c = aux + 4 * row_len;
}

/// Gather the full stencil for cell row (j, k): center-plane rows through
/// the rolling cache, transverse rows direct.  A non-null `sg_jm` / `sg_jp`
/// replaces the j∓1 sigma row (a neighbour-owned row, see
/// owned_lanes_row), which then never enters the cache.
template <class Policy>
inline StencilRows<typename Policy::compute_t> gather_rows(
    PlaneRowCache<Policy>& cache,
    const common::Field3<typename Policy::storage_t>& sig_in,
    const common::Field3<typename Policy::storage_t>& src,
    const common::Field3<typename Policy::storage_t>& inv_rho, int j, int k,
    std::size_t row_len, typename Policy::compute_t* aux,
    const typename Policy::compute_t* sg_jm = nullptr,
    const typename Policy::compute_t* sg_jp = nullptr) {
  StencilRows<typename Policy::compute_t> rows{};
  rows.sg_c = cache.sigma_row(sig_in, j);
  rows.sg_jm = sg_jm != nullptr ? sg_jm : cache.sigma_row(sig_in, j - 1);
  rows.sg_jp = sg_jp != nullptr ? sg_jp : cache.sigma_row(sig_in, j + 1);
  rows.ir_c = cache.inv_rho_row(inv_rho, j);
  rows.ir_jm = cache.inv_rho_row(inv_rho, j - 1);
  rows.ir_jp = cache.inv_rho_row(inv_rho, j + 1);
  load_transverse_rows<Policy>(sig_in, src, inv_rho, j, k, row_len, aux,
                               rows);
  return rows;
}

/// Tentative relax values for a whole row of gathered compute-precision
/// rows.  Contiguous in i, so the loop (and its diagonal divide)
/// vectorizes; the expression mirrors relax_cell exactly, so each lane is
/// the per-cell update of the converted values.  Red–black callers keep
/// only the updated color's lanes — bit-for-bit what the strided per-cell
/// evaluation would have stored.
template <class C>
inline void relax_row_gathered(const StencilRows<C>& b, int nx, C alpha,
                               C inv_dx2, C inv_dy2, C inv_dz2,
                               C* __restrict out) {
  // Eleven independent row pointers exceed the vectorizer's runtime
  // alias-versioning budget; the rows are distinct scratch buffers by
  // construction (cache slots + the per-visit aux block), so __restrict
  // locals let the loop — and its diagonal divide — vectorize, exactly the
  // treatment the PR 4 flux slices needed.  Offset by +1: rows start at
  // i = -1.
  const C* __restrict sgc = b.sg_c + 1;
  const C* __restrict sgjm = b.sg_jm + 1;
  const C* __restrict sgjp = b.sg_jp + 1;
  const C* __restrict sgkm = b.sg_km + 1;
  const C* __restrict sgkp = b.sg_kp + 1;
  const C* __restrict irc = b.ir_c + 1;
  const C* __restrict irjm = b.ir_jm + 1;
  const C* __restrict irjp = b.ir_jp + 1;
  const C* __restrict irkm = b.ir_km + 1;
  const C* __restrict irkp = b.ir_kp + 1;
  const C* __restrict srcc = b.src_c + 1;
  for (int i = 0; i < nx; ++i) {
    const C ir0 = irc[i];
    const C cxm = C(0.5) * (ir0 + irc[i - 1]);
    const C cxp = C(0.5) * (ir0 + irc[i + 1]);
    const C cym = C(0.5) * (ir0 + irjm[i]);
    const C cyp = C(0.5) * (ir0 + irjp[i]);
    const C czm = C(0.5) * (ir0 + irkm[i]);
    const C czp = C(0.5) * (ir0 + irkp[i]);

    const C off = inv_dx2 * (sgc[i + 1] * cxp + sgc[i - 1] * cxm) +
                  inv_dy2 * (sgjp[i] * cyp + sgjm[i] * cym) +
                  inv_dz2 * (sgkp[i] * czp + sgkm[i] * czm);
    const C diag = ir0 + alpha * (inv_dx2 * (cxp + cxm) +
                                  inv_dy2 * (cyp + cym) +
                                  inv_dz2 * (czp + czm));
    out[i] = (srcc[i] + alpha * off) / diag;
  }
}

/// Relax a gathered row and store the updated color's lanes of (j, k):
/// whole-row tentative values (vectorizes), compacted, batch-converted and
/// scattered back with stride 2.
template <class Policy>
inline void relax_store_color(
    const StencilRows<typename Policy::compute_t>& rows,
    common::Field3<typename Policy::storage_t>& sigma, int color, int j,
    int k, typename Policy::compute_t alpha,
    typename Policy::compute_t inv_dx2, typename Policy::compute_t inv_dy2,
    typename Policy::compute_t inv_dz2, SigmaRowScratch<Policy>& sc) {
  const int nx = sigma.nx();
  relax_row_gathered<typename Policy::compute_t>(rows, nx, alpha, inv_dx2,
                                                 inv_dy2, inv_dz2,
                                                 sc.tmp.data());
  const int i0 = (color + j + k) & 1;
  std::size_t m = 0;
  for (int i = i0; i < nx; i += 2) sc.vals[m++] = sc.tmp[i];
  if (m > 0) {
    common::store_line_strided<Policy>(sc.vals.data(), &sigma(i0, j, k), 2,
                                       m);
  }
}

/// Copy lanes i ∈ [0, nx) of a row another member owns into `dst` (indexed
/// like the row): those with i ≡ parity (mod 2), or all of them for
/// parity < 0.  Only lanes some kept value reads are touched — the owner
/// may be storing the rest, and its x ghosts, concurrently.
template <class S>
void copy_owned_lanes(const S* row, S* dst, int nx, int parity) {
  const int step = parity < 0 ? 1 : 2;
  for (int i = parity < 0 ? 0 : parity; i < nx; i += step) dst[i] = row[i];
}

/// The j∓1 sigma row `j` of plane k as a neighbour-owned row: its lanes
/// with i ≡ parity copied into edge slot `slot` (0 or 1), returned as the
/// storage row (identity storage, `raw`) or converted to compute precision
/// in the cache layout (i ∈ [-1, nx]).  The lanes not copied
/// hold stale values no kept lane reads.
template <class Policy>
const typename Policy::storage_t* owned_lanes_raw(
    const common::Field3<typename Policy::storage_t>& sigma, int j, int k,
    int parity, int slot, SigmaRowScratch<Policy>& sc) {
  const int nx = sigma.nx();
  auto* dst = sc.edge_raw.data() +
              static_cast<std::size_t>(slot) * (static_cast<std::size_t>(nx) + 2) + 1;
  copy_owned_lanes(&sigma(0, j, k), dst, nx, parity);
  return dst;
}

template <class Policy>
const typename Policy::compute_t* owned_lanes_row(
    const common::Field3<typename Policy::storage_t>& sigma, int j, int k,
    int parity, int slot, SigmaRowScratch<Policy>& sc) {
  const std::size_t row_len = static_cast<std::size_t>(sigma.nx()) + 2;
  const auto* raw = owned_lanes_raw(sigma, j, k, parity, slot, sc) - 1;
  auto* dst = sc.edge.data() + static_cast<std::size_t>(slot) * row_len;
  common::load_line<Policy>(raw, dst, row_len);
  return dst;
}

/// Tentative relax values for a whole row.  Contiguous in i, no
/// loop-carried dependence: the loop vectorizes, and in particular the
/// per-cell diagonal division becomes a pipelined vector divide.  Each lane
/// is the exact relax_cell expression, so a caller that keeps only some
/// lanes stores the same bits the strided per-cell update would have.
template <class C, class S>
inline void relax_row(const S* pir, const S* psr, const S* ps,
                      const S* sgj_m, const S* sgj_p, int nx,
                      std::ptrdiff_t sy, std::ptrdiff_t sz, C alpha, C inv_dx2,
                      C inv_dy2, C inv_dz2, C* __restrict out) {
  // relax_cell with the stencil taps hoisted into per-row pointers and the
  // expression inlined: the nine streams are then plain affine accesses the
  // vectorizer handles (the relax_cell call form defeats it), and `out` is
  // thread-private scratch, never an alias of the field rows.  Term order
  // matches relax_cell exactly — each lane's bits are the per-cell result.
  // The j∓1 sigma rows come in explicitly: the field rows (ps ∓ sy), or a
  // copy of a neighbour-owned row's opposite-parity lanes.
  const S* irj_m = pir - sy;
  const S* irj_p = pir + sy;
  const S* irk_m = pir - sz;
  const S* irk_p = pir + sz;
  const S* sgk_m = ps - sz;
  const S* sgk_p = ps + sz;
  for (int i = 0; i < nx; ++i) {
    const C ir0 = static_cast<C>(pir[i]);
    const C cxm = C(0.5) * (ir0 + static_cast<C>(pir[i - 1]));
    const C cxp = C(0.5) * (ir0 + static_cast<C>(pir[i + 1]));
    const C cym = C(0.5) * (ir0 + static_cast<C>(irj_m[i]));
    const C cyp = C(0.5) * (ir0 + static_cast<C>(irj_p[i]));
    const C czm = C(0.5) * (ir0 + static_cast<C>(irk_m[i]));
    const C czp = C(0.5) * (ir0 + static_cast<C>(irk_p[i]));

    const C off = inv_dx2 * (static_cast<C>(ps[i + 1]) * cxp +
                             static_cast<C>(ps[i - 1]) * cxm) +
                  inv_dy2 * (static_cast<C>(sgj_p[i]) * cyp +
                             static_cast<C>(sgj_m[i]) * cym) +
                  inv_dz2 * (static_cast<C>(sgk_p[i]) * czp +
                             static_cast<C>(sgk_m[i]) * czm);
    const C diag = ir0 + alpha * (inv_dx2 * (cxp + cxm) +
                                  inv_dy2 * (cyp + cym) +
                                  inv_dz2 * (czp + czm));
    out[i] = (static_cast<C>(psr[i]) + alpha * off) / diag;
  }
}

/// Fill depth: `layers` clamped to the field's ghost depth (< 0 = all).
template <class S>
int fill_depth(const common::Field3<S>& sigma, int layers) {
  return (layers < 0 || layers > sigma.ng()) ? sigma.ng() : layers;
}

/// Source index along an axis with n interior cells for ghost layer g
/// (1-based) of `side`.  For n < g a periodic wrap lands on a ghost of the
/// same side written at an earlier layer, so every fill walks a face's
/// layers in ascending g, low side first.
int sigma_source_index(SigmaBc bc, int side, int g, int n) {
  if (bc == SigmaBc::kPeriodic) return (side == 0) ? n - g : g - 1;
  return (side == 0) ? 0 : n - 1;
}

}  // namespace

template <class Policy>
SigmaRowScratch<Policy>::SigmaRowScratch(int nx, int ny) {
  const std::size_t row_len = static_cast<std::size_t>(nx) + 2;
  tmp.resize(static_cast<std::size_t>(nx));
  vals.resize(static_cast<std::size_t>(nx));
  edge_raw.resize(2 * row_len);
  if constexpr (common::converts_storage<Policy>) {
    edge.resize(2 * row_len);
    aux.resize(5 * row_len);
    held.resize(2 * (static_cast<std::size_t>(ny) + 2));
    rows.resize(held.size() * row_len);
  }
}

template <class Policy>
void sigma_relax_planes(common::Field3<typename Policy::storage_t>& sigma,
                        const common::Field3<typename Policy::storage_t>& src,
                        const common::Field3<typename Policy::storage_t>& inv_rho,
                        typename Policy::compute_t alpha,
                        typename Policy::compute_t dx,
                        typename Policy::compute_t dy,
                        typename Policy::compute_t dz, int color, int k0,
                        int k1, const common::ExecSpace::Team& team,
                        SigmaRowScratch<Policy>& sc) {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;
  const int nx = sigma.nx(), ny = sigma.ny();
  const C inv_dx2 = C(1) / (dx * dx);
  const C inv_dy2 = C(1) / (dy * dy);
  const C inv_dz2 = C(1) / (dz * dz);
  long b, e;
  team.chunk(ny, b, e);
  const int jb = static_cast<int>(b), je = static_cast<int>(e);
  if (jb == je) return;
  // Rows jb-1 / je belong to the neighbouring members, which update the
  // other parity of them concurrently: read through a copy of the lanes the
  // edge row keeps (its update parity), never the whole row.
  const bool lo_nbr = jb > 0, hi_nbr = je < ny;

  if constexpr (common::converts_storage<Policy>) {
    // One row cache per plane, shared by the member's serial j walk: every
    // center-plane row converts once per visit.  Valid within the color
    // pass by the parity argument at PlaneRowCache.
    const std::size_t row_len = static_cast<std::size_t>(nx) + 2;
    PlaneRowCache<Policy> cache(sc, ny, row_len);
    for (int k = k0; k < k1; ++k) {
      cache.reset(k);
      for (int j = jb; j < je; ++j) {
        const int keep = (color + j + k) & 1;
        const C* jm = (j == jb && lo_nbr)
                          ? owned_lanes_row(sigma, j - 1, k, keep, 0, sc)
                          : nullptr;
        const C* jp = (j == je - 1 && hi_nbr)
                          ? owned_lanes_row(sigma, j + 1, k, keep, 1, sc)
                          : nullptr;
        const auto rows = gather_rows<Policy>(cache, sigma, src, inv_rho, j, k,
                                              row_len, sc.aux.data(), jm, jp);
        relax_store_color<Policy>(rows, sigma, color, j, k, alpha, inv_dx2,
                                  inv_dy2, inv_dz2, sc);
      }
    }
  } else {
    const std::ptrdiff_t sy = inv_rho.stride(1);
    const std::ptrdiff_t sz = inv_rho.stride(2);
    for (int k = k0; k < k1; ++k) {
      for (int j = jb; j < je; ++j) {
        const int keep = (color + j + k) & 1;
        const S* pir = &inv_rho(0, j, k);
        const S* psr = &src(0, j, k);
        S* ps = &sigma(0, j, k);
        const S* jm = (j == jb && lo_nbr)
                          ? owned_lanes_raw(sigma, j - 1, k, keep, 0, sc)
                          : ps - sy;
        const S* jp = (j == je - 1 && hi_nbr)
                          ? owned_lanes_raw(sigma, j + 1, k, keep, 1, sc)
                          : ps + sy;
        relax_row<C>(pir, psr, ps, jm, jp, nx, sy, sz, alpha, inv_dx2,
                     inv_dy2, inv_dz2, sc.tmp.data());
        for (int i = keep; i < nx; i += 2) ps[i] = static_cast<S>(sc.tmp[i]);
      }
    }
  }
}

template <class Policy>
void sigma_jacobi_planes(common::Field3<typename Policy::storage_t>& out,
                         const common::Field3<typename Policy::storage_t>& in,
                         const common::Field3<typename Policy::storage_t>& src,
                         const common::Field3<typename Policy::storage_t>& inv_rho,
                         typename Policy::compute_t alpha,
                         typename Policy::compute_t dx,
                         typename Policy::compute_t dy,
                         typename Policy::compute_t dz, int k0, int k1,
                         const common::ExecSpace::Team& team,
                         SigmaRowScratch<Policy>& sc) {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;
  const int nx = out.nx(), ny = out.ny();
  const C inv_dx2 = C(1) / (dx * dx);
  const C inv_dy2 = C(1) / (dy * dy);
  const C inv_dz2 = C(1) / (dz * dz);
  long b, e;
  team.chunk(ny, b, e);
  const int jb = static_cast<int>(b), je = static_cast<int>(e);
  if (jb == je) return;

  if constexpr (common::converts_storage<Policy>) {
    // The cache would convert whole rows, x ghosts included; a
    // neighbour-owned row is copied over [0, nx) instead.
    const std::size_t row_len = static_cast<std::size_t>(nx) + 2;
    PlaneRowCache<Policy> cache(sc, ny, row_len);
    for (int k = k0; k < k1; ++k) {
      cache.reset(k);
      for (int j = jb; j < je; ++j) {
        const C* jm = (j == jb && jb > 0)
                          ? owned_lanes_row(in, j - 1, k, -1, 0, sc)
                          : nullptr;
        const C* jp = (j == je - 1 && je < ny)
                          ? owned_lanes_row(in, j + 1, k, -1, 1, sc)
                          : nullptr;
        const auto rows = gather_rows<Policy>(cache, in, src, inv_rho, j, k,
                                              row_len, sc.aux.data(), jm, jp);
        relax_row_gathered<C>(rows, nx, alpha, inv_dx2, inv_dy2, inv_dz2,
                              sc.tmp.data());
        common::store_line<Policy>(sc.tmp.data(), out.row(j, k),
                                   static_cast<std::size_t>(nx));
      }
    }
  } else {
    // The per-cell taps read rows j∓1 over [0, nx) only.
    const std::ptrdiff_t sy = inv_rho.stride(1);
    const std::ptrdiff_t sz = inv_rho.stride(2);
    for (int k = k0; k < k1; ++k) {
      for (int j = jb; j < je; ++j) {
        const S* pir = &inv_rho(0, j, k);
        const S* psr = &src(0, j, k);
        const S* ps = &in(0, j, k);
        S* po = &out(0, j, k);
        for (int i = 0; i < nx; ++i) {
          po[i] = static_cast<S>(relax_cell<C>(pir, psr, ps, i, sy, sz, alpha,
                                               inv_dx2, inv_dy2, inv_dz2));
        }
      }
    }
  }
}

template <class S>
void fill_sigma_xghosts(common::Field3<S>& sigma, SigmaBcSpec bc,
                        std::array<bool, 2> sides, int k, int j0, int j1,
                        int layers) {
  const int ng = fill_depth(sigma, layers);
  const int nx = sigma.nx();
  for (int j = j0; j < j1; ++j) {
    S* row = sigma.row(j, k);
    for (int side = 0; side < 2; ++side) {
      if (!sides[static_cast<std::size_t>(side)]) continue;
      const SigmaBc face = bc.side(0, side);
      for (int g = 1; g <= ng; ++g) {
        row[(side == 0) ? -g : nx + g - 1] =
            row[sigma_source_index(face, side, g, nx)];
      }
    }
  }
}

template <class S>
void fill_sigma_yghosts(common::Field3<S>& sigma, SigmaBcSpec bc, int side,
                        int k, int i0, int i1, int layers) {
  const int ng = fill_depth(sigma, layers);
  const int ny = sigma.ny();
  const SigmaBc face = bc.side(1, side);
  const auto len = static_cast<std::size_t>(i1 - i0);
  for (int g = 1; g <= ng; ++g) {
    const int ghost = (side == 0) ? -g : ny + g - 1;
    std::copy_n(&sigma(i0, sigma_source_index(face, side, g, ny), k), len,
                &sigma(i0, ghost, k));
  }
}

template <class S>
void fill_sigma_zghosts(common::Field3<S>& sigma, SigmaBcSpec bc, int side,
                        int j0, int j1, int layers) {
  const int ng = fill_depth(sigma, layers);
  const int nz = sigma.nz();
  const SigmaBc face = bc.side(2, side);
  const auto len = static_cast<std::size_t>(sigma.nx() + 2 * ng);
  for (int g = 1; g <= ng; ++g) {
    const int ghost = (side == 0) ? -g : nz + g - 1;
    const int src = sigma_source_index(face, side, g, nz);
    for (int j = j0; j < j1; ++j)
      std::copy_n(&sigma(-ng, j, src), len, &sigma(-ng, j, ghost));
  }
}

template <class S>
void fill_sigma_ghosts_axis(common::Field3<S>& sigma, SigmaBcSpec bc,
                            int axis, std::array<bool, 2> sides, int layers) {
  // Tangential extents widen over the axes filled before (x, then y, then
  // z), so edge and corner ghosts are defined.
  const int ng = fill_depth(sigma, layers);
  const int nx = sigma.nx(), ny = sigma.ny(), nz = sigma.nz();
  for (int side = 0; side < 2; ++side) {
    if (!sides[static_cast<std::size_t>(side)]) continue;
    if (axis == 0) {
      std::array<bool, 2> one{};
      one[static_cast<std::size_t>(side)] = true;
      for (int k = 0; k < nz; ++k) fill_sigma_xghosts(sigma, bc, one, k, 0, ny, ng);
    } else if (axis == 1) {
      for (int k = 0; k < nz; ++k)
        fill_sigma_yghosts(sigma, bc, side, k, -ng, nx + ng, ng);
    } else {
      fill_sigma_zghosts(sigma, bc, side, -ng, ny + ng, ng);
    }
  }
}

template <class S>
void fill_sigma_ghosts(common::Field3<S>& sigma, SigmaBcSpec bc, int layers) {
  for (int axis = 0; axis < 3; ++axis)
    fill_sigma_ghosts_axis(sigma, bc, axis, {true, true}, layers);
}

#define IGR_INSTANTIATE_SIGMA_GHOSTS(T)                                        \
  template void fill_sigma_ghosts<T>(common::Field3<T>&, SigmaBcSpec, int);    \
  template void fill_sigma_ghosts_axis<T>(common::Field3<T>&, SigmaBcSpec,     \
                                          int, std::array<bool, 2>, int);      \
  template void fill_sigma_xghosts<T>(common::Field3<T>&, SigmaBcSpec,         \
                                      std::array<bool, 2>, int, int, int,      \
                                      int);                                    \
  template void fill_sigma_yghosts<T>(common::Field3<T>&, SigmaBcSpec, int,    \
                                      int, int, int, int);                     \
  template void fill_sigma_zghosts<T>(common::Field3<T>&, SigmaBcSpec, int,    \
                                      int, int, int);

IGR_INSTANTIATE_SIGMA_GHOSTS(double)
IGR_INSTANTIATE_SIGMA_GHOSTS(float)
IGR_INSTANTIATE_SIGMA_GHOSTS(common::half)
IGR_INSTANTIATE_SIGMA_GHOSTS(common::bfloat16)
#undef IGR_INSTANTIATE_SIGMA_GHOSTS

template <class Policy>
void sigma_sweep_once(common::Field3<typename Policy::storage_t>& sigma,
                      common::Field3<typename Policy::storage_t>& scratch,
                      const common::Field3<typename Policy::storage_t>& src,
                      const common::Field3<typename Policy::storage_t>& inv_rho,
                      typename Policy::compute_t alpha,
                      typename Policy::compute_t dx,
                      typename Policy::compute_t dy,
                      typename Policy::compute_t dz, SweepKind kind,
                      const common::ExecSpace& exec) {
  const int nz = sigma.nz();
  exec.run_team([&](const common::ExecSpace::Team& team) {
    SigmaRowScratch<Policy> sc(sigma.nx(), sigma.ny());
    if (kind == SweepKind::kJacobi) {
      sigma_jacobi_planes<Policy>(scratch, sigma, src, inv_rho, alpha, dx, dy,
                                  dz, 0, nz, team, sc);
      return;
    }
    // Color 1 reads the color-0 values neighbour members stored in rows
    // next to their ranges: one barrier between the colors orders them.
    sigma_relax_planes<Policy>(sigma, src, inv_rho, alpha, dx, dy, dz,
                               /*color=*/0, 0, nz, team, sc);
    team.barrier();
    sigma_relax_planes<Policy>(sigma, src, inv_rho, alpha, dx, dy, dz,
                               /*color=*/1, 0, nz, team, sc);
  });
  if (kind == SweepKind::kJacobi) std::swap(sigma, scratch);
}

template <class Policy>
void sigma_solve(common::Field3<typename Policy::storage_t>& sigma,
                 common::Field3<typename Policy::storage_t>& scratch,
                 const common::Field3<typename Policy::storage_t>& src,
                 const common::Field3<typename Policy::storage_t>& inv_rho,
                 typename Policy::compute_t alpha,
                 typename Policy::compute_t dx,
                 typename Policy::compute_t dy,
                 typename Policy::compute_t dz,
                 int sweeps, SweepKind kind, SigmaBcSpec bc,
                 const common::ExecSpace& exec) {
  for (int s = 0; s < sweeps; ++s) {
    // Sweeps consume a single ghost layer.
    fill_sigma_ghosts(sigma, bc, 1);
    sigma_sweep_once<Policy>(sigma, scratch, src, inv_rho, alpha, dx, dy, dz,
                             kind, exec);
  }
  // Reconstruction downstream needs the full ghost depth.
  fill_sigma_ghosts(sigma, bc);
}

template <class Policy>
double sigma_residual(const common::Field3<typename Policy::storage_t>& sigma,
                      const common::Field3<typename Policy::storage_t>& src,
                      const common::Field3<typename Policy::storage_t>& inv_rho,
                      typename Policy::compute_t alpha,
                      typename Policy::compute_t dx,
                      typename Policy::compute_t dy,
                      typename Policy::compute_t dz) {
  using C = typename Policy::compute_t;
  using S = typename Policy::storage_t;
  const int nx = sigma.nx(), ny = sigma.ny(), nz = sigma.nz();
  const C inv_dx2 = C(1) / (dx * dx);
  const C inv_dy2 = C(1) / (dy * dy);
  const C inv_dz2 = C(1) / (dz * dz);
  auto at = [](const common::Field3<S>& f, int i, int j, int k) -> C {
    return static_cast<C>(f(i, j, k));
  };

  double res = 0.0;
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const C ir0 = at(inv_rho, i, j, k);
        const C cxm = C(0.5) * (ir0 + at(inv_rho, i - 1, j, k));
        const C cxp = C(0.5) * (ir0 + at(inv_rho, i + 1, j, k));
        const C cym = C(0.5) * (ir0 + at(inv_rho, i, j - 1, k));
        const C cyp = C(0.5) * (ir0 + at(inv_rho, i, j + 1, k));
        const C czm = C(0.5) * (ir0 + at(inv_rho, i, j, k - 1));
        const C czp = C(0.5) * (ir0 + at(inv_rho, i, j, k + 1));
        const C s0 = at(sigma, i, j, k);
        const C lap =
            inv_dx2 * ((at(sigma, i + 1, j, k) - s0) * cxp -
                       (s0 - at(sigma, i - 1, j, k)) * cxm) +
            inv_dy2 * ((at(sigma, i, j + 1, k) - s0) * cyp -
                       (s0 - at(sigma, i, j - 1, k)) * cym) +
            inv_dz2 * ((at(sigma, i, j, k + 1) - s0) * czp -
                       (s0 - at(sigma, i, j, k - 1)) * czm);
        const C r = s0 * ir0 - alpha * lap - at(src, i, j, k);
        res = std::max(res, static_cast<double>(std::abs(r)));
      }
    }
  }
  return res;
}

// Explicit instantiations for the four precision policies.
using common::Bf16x32;
using common::Fp16x32;
using common::Fp32;
using common::Fp64;

#define IGR_INSTANTIATE_SIGMA(P)                                               \
  template void sigma_sweep_once<P>(                                           \
      common::Field3<P::storage_t>&, common::Field3<P::storage_t>&,            \
      const common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,\
      P::compute_t, P::compute_t, P::compute_t, P::compute_t, SweepKind,       \
      const common::ExecSpace&);                                               \
  template void sigma_solve<P>(                                                \
      common::Field3<P::storage_t>&, common::Field3<P::storage_t>&,            \
      const common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,\
      P::compute_t, P::compute_t, P::compute_t, P::compute_t, int, SweepKind,  \
      SigmaBcSpec, const common::ExecSpace&);                                  \
  template double sigma_residual<P>(                                           \
      const common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,\
      const common::Field3<P::storage_t>&, P::compute_t, P::compute_t,         \
      P::compute_t, P::compute_t);                                             \
  template struct SigmaRowScratch<P>;                                          \
  template void sigma_relax_planes<P>(                                         \
      common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,      \
      const common::Field3<P::storage_t>&, P::compute_t, P::compute_t,         \
      P::compute_t, P::compute_t, int, int, int,                               \
      const common::ExecSpace::Team&, SigmaRowScratch<P>&);                    \
  template void sigma_jacobi_planes<P>(                                        \
      common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,      \
      const common::Field3<P::storage_t>&, const common::Field3<P::storage_t>&,\
      P::compute_t, P::compute_t, P::compute_t, P::compute_t, int, int,        \
      const common::ExecSpace::Team&, SigmaRowScratch<P>&);

IGR_INSTANTIATE_SIGMA(Fp64)
IGR_INSTANTIATE_SIGMA(Fp32)
IGR_INSTANTIATE_SIGMA(Fp16x32)
IGR_INSTANTIATE_SIGMA(Bf16x32)
#undef IGR_INSTANTIATE_SIGMA

}  // namespace igr::core
