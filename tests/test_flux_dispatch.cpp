/// The flux kernel against a face-at-a-time scalar reference.  The kernel
/// (IgrSolver3D::compute_fluxes) evaluates whole rows of faces with the
/// reconstruction scheme resolved at compile time; the reference below
/// walks one face at a time through the scalar building blocks the kernel's
/// row loops are written from.  Both run the same IEEE operations in the
/// same order on the same values (the build pins -ffp-contract=off), so the
/// two must agree *bitwise*: any divergence is a kernel bug, not roundoff.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "common/precision.hpp"
#include "core/igr_solver3d.hpp"
#include "fv/reconstruct.hpp"
#include "fv/riemann.hpp"
#include "fv/viscous.hpp"

namespace {

using igr::common::Cons;
using igr::common::Fp32;
using igr::common::Fp64;
using igr::common::kNumVars;
using igr::common::Prim;
using igr::common::SolverConfig;
using igr::common::StateField3;
using igr::core::IgrSolver3D;
using igr::fv::BcSpec;
using igr::fv::ReconScheme;
using igr::mesh::Grid;
using Cell = std::array<int, 3>;

/// One side of a face: primitives, energy, Sigma and the reciprocal density
/// taken before any floor (the kernel keeps that reciprocal).
template <class T>
struct Side {
  Prim<T> w;
  T e, sigma, ir;
};

/// One-division primitives of (rho, mx, my, mz, E, Sigma).
template <class T>
Side<T> to_side(const std::array<T, kNumVars + 1>& v, T gm1) {
  Side<T> s;
  s.ir = T(1) / v[0];
  s.w.rho = v[0];
  s.w.u = v[1] * s.ir;
  s.w.v = v[2] * s.ir;
  s.w.w = v[3] * s.ir;
  s.w.p = gm1 * (v[4] - T(0.5) * (v[1] * s.w.u + v[2] * s.w.v + v[3] * s.w.w));
  s.e = v[4];
  s.sigma = v[5];
  return s;
}

template <class T>
bool physical(const std::array<T, kNumVars + 1>& v) {
  const T ke = v[1] * v[1] + v[2] * v[2] + v[3] * v[3];
  return v[0] > T(0) && T(2) * v[0] * v[4] - ke > T(0);
}

/// compute_fluxes one face at a time.  Needs the ghosts of `q` and of
/// Sigma filled, as compute_rhs leaves them.
template <class Policy>
StateField3<typename Policy::storage_t> reference_fluxes(
    const IgrSolver3D<Policy>& s,
    const StateField3<typename Policy::storage_t>& q, ReconScheme scheme) {
  using T = typename Policy::storage_t;
  static_assert(std::is_same_v<T, typename Policy::compute_t>);
  const SolverConfig& cfg = s.config();
  const Grid& g = s.grid();
  const T gam = static_cast<T>(cfg.gamma), gm1 = gam - T(1);
  const T rho_floor = static_cast<T>(cfg.density_floor);
  const T p_floor = static_cast<T>(cfg.pressure_floor);
  const bool viscous = cfg.mu > 0.0 || cfg.zeta > 0.0;
  const std::array<T, 3> d{static_cast<T>(g.dx()), static_cast<T>(g.dy()),
                           static_cast<T>(g.dz())};
  const Cell n{g.nx(), g.ny(), g.nz()};

  // Variable c at x, c == kNumVars being Sigma; velocity component a at x.
  auto at = [&](int c, Cell x) -> T {
    return c < kNumVars ? q[c](x[0], x[1], x[2]) : s.sigma()(x[0], x[1], x[2]);
  };
  auto vel = [&](int a, Cell x) { return at(1 + a, x) * (T(1) / at(0, x)); };

  // The flux through the face between r - e_dir and r.
  auto face_flux = [&](int dir, Cell r) {
    Cell l = r;
    --l[dir];
    std::array<T, kNumVars + 1> vl, vr;
    for (int c = 0; c <= kNumVars; ++c) {
      std::array<T, 6> st;
      for (int t = 0; t < 6; ++t) {
        Cell x = r;
        x[dir] += t - 3;
        st[t] = at(c, x);
      }
      const auto f = igr::fv::reconstruct(scheme, st);
      vl[c] = f.left;
      vr[c] = f.right;
    }
    if (!physical(vl) || !physical(vr)) {  // cell-average fallback
      for (int c = 0; c <= kNumVars; ++c) {
        vl[c] = at(c, l);
        vr[c] = at(c, r);
      }
    }
    Side<T> L = to_side(vl, gm1), R = to_side(vr, gm1);
    if (rho_floor > T(0)) {
      L.w.rho = std::max(L.w.rho, rho_floor);
      R.w.rho = std::max(R.w.rho, rho_floor);
    }
    if (p_floor > T(0)) {
      L.w.p = std::max(L.w.p, p_floor);
      R.w.p = std::max(R.w.p, p_floor);
    }
    auto rusanov = [&](auto dc) {
      return igr::fv::rusanov_flux_d<decltype(dc)::value>(
          L.w, L.e, L.sigma, L.ir, R.w, R.e, R.sigma, R.ir, gam);
    };
    Cons<T> f = dir == 0   ? rusanov(std::integral_constant<int, 0>{})
                : dir == 1 ? rusanov(std::integral_constant<int, 1>{})
                           : rusanov(std::integral_constant<int, 2>{});
    if (viscous) {
      igr::fv::VelGrad<T> gr;
      T uf[3];
      for (int a = 0; a < 3; ++a) {
        uf[a] = T(0.5) * (vel(a, l) + vel(a, r));
        gr.g[a][dir] = (vel(a, r) - vel(a, l)) * (T(1) / d[dir]);
        for (int ax = 0; ax < 3; ++ax) {
          if (ax == dir) continue;
          auto dv = [&](Cell x) {
            Cell p = x, m = x;
            ++p[ax];
            --m[ax];
            return vel(a, p) - vel(a, m);
          };
          gr.g[a][ax] = T(0.5) * (dv(l) + dv(r)) * (T(0.5) / d[ax]);
        }
      }
      const auto fv = igr::fv::viscous_flux(gr, uf, static_cast<T>(cfg.mu),
                                            static_cast<T>(cfg.zeta), dir);
      for (int c = 0; c < kNumVars; ++c) f[c] += fv[c];
    }
    return f;
  };

  // Per cell: the x sweep's difference, then y's and z's added to it.
  StateField3<T> rhs(n[0], n[1], n[2], 3);
  for (int dir = 0; dir < 3; ++dir) {
    const T inv_d = T(1) / d[dir];
    for (int k = 0; k < n[2]; ++k)
      for (int j = 0; j < n[1]; ++j)
        for (int i = 0; i < n[0]; ++i) {
          Cell hi{i, j, k};
          ++hi[dir];
          const auto flo = face_flux(dir, {i, j, k});
          const auto fhi = face_flux(dir, hi);
          for (int c = 0; c < kNumVars; ++c) {
            const T diff = (flo[c] - fhi[c]) * inv_d;
            rhs[c](i, j, k) = dir == 0 ? diff : rhs[c](i, j, k) + diff;
          }
        }
  }
  return rhs;
}

/// A smooth 3-D vortex: swirl about the z axis with axial shear and a
/// density/pressure well — every flux term (all three sweeps, all five
/// variables) is exercised with nontrivial values.
Prim<double> vortex_ic(double x, double y, double z) {
  const double rx = x - 0.5, ry = y - 0.5;
  const double r2 = rx * rx + ry * ry;
  const double swirl = 0.8 * std::exp(-10.0 * r2);
  Prim<double> w;
  w.rho = 1.0 + 0.3 * std::exp(-8.0 * r2) * std::cos(2 * M_PI * z);
  w.u = -swirl * ry + 0.05 * std::sin(2 * M_PI * z);
  w.v = swirl * rx;
  w.w = 0.2 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
  w.p = 1.0 - 0.2 * std::exp(-10.0 * r2);
  return w;
}

/// Prepare ghosts and Sigma exactly as a real RHS evaluation would, then
/// evaluate the fluxes through the kernel and the reference on the same
/// inputs and compare every RHS value bitwise.
template <class Policy>
void expect_matches_reference(IgrSolver3D<Policy>& s, ReconScheme recon) {
  using S = typename Policy::storage_t;
  s.begin_step();
  auto& stage = s.stage_field();
  s.compute_rhs(stage, s.rhs_field());
  const Grid& g = s.grid();
  StateField3<S> rhs(g.nx(), g.ny(), g.nz(), 3);
  s.compute_fluxes(stage, rhs);
  const auto ref = reference_fluxes(s, stage, recon);
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny(); ++j)
        for (int i = 0; i < g.nx(); ++i)
          ASSERT_EQ(rhs[c](i, j, k), ref[c](i, j, k))
              << "var " << c << " at (" << i << "," << j << "," << k << ")";
}

/// The vortex marched a few fixed steps, so Sigma is developed and the state
/// is not a trivial function of the initial condition.
template <class Policy>
void expect_vortex_matches_reference(ReconScheme recon, SolverConfig cfg) {
  IgrSolver3D<Policy> s(Grid::cube(12), cfg, BcSpec::all_periodic(), recon);
  s.init(vortex_ic);
  for (int i = 0; i < 3; ++i) s.step_fixed(1e-3);
  expect_matches_reference(s, recon);
}

SolverConfig igr_cfg() {
  SolverConfig cfg;
  cfg.alpha_factor = 5.0;
  cfg.sigma_sweeps = 5;
  return cfg;
}

constexpr ReconScheme kSchemes[] = {ReconScheme::kFirst, ReconScheme::kThird,
                                    ReconScheme::kFifth, ReconScheme::kWeno5};

TEST(FluxReference, EverySchemeMatchesBitwiseFp64) {
  for (const auto recon : kSchemes) {
    SCOPED_TRACE(static_cast<int>(recon));
    expect_vortex_matches_reference<Fp64>(recon, igr_cfg());
  }
}

TEST(FluxReference, EverySchemeMatchesBitwiseFp32) {
  for (const auto recon : kSchemes) {
    SCOPED_TRACE(static_cast<int>(recon));
    expect_vortex_matches_reference<Fp32>(recon, igr_cfg());
  }
}

TEST(FluxReference, ViscousPathMatchesBitwise) {
  auto cfg = igr_cfg();
  cfg.mu = 0.02;
  cfg.zeta = 0.01;
  expect_vortex_matches_reference<Fp64>(ReconScheme::kFifth, cfg);
}

TEST(FluxReference, ViscousWithoutSigmaMatchesBitwise) {
  // Sigma disabled + viscosity on: compute_fluxes must refresh the
  // reciprocal-density field itself (nobody built the Sigma source).
  auto cfg = igr_cfg();
  cfg.alpha_factor = 0.0;
  cfg.sigma_sweeps = 0;
  cfg.mu = 0.02;
  expect_vortex_matches_reference<Fp64>(ReconScheme::kFifth, cfg);
}

TEST(FluxReference, FloorsAndFallbackOnShockTubeMatchBitwise) {
  // A hard start-up discontinuity exercises the nonphysical-reconstruction
  // fallback, and floors above the low state's density and pressure (0.01)
  // clamp every face on that side.
  auto cfg = igr_cfg();
  cfg.density_floor = 0.02;
  cfg.pressure_floor = 0.02;
  IgrSolver3D<Fp64> s(Grid::cube(12), cfg, BcSpec::all_outflow());
  s.init([](double x, double, double) {
    Prim<double> w;
    w.rho = x < 0.5 ? 1.0 : 0.01;
    w.p = x < 0.5 ? 10.0 : 0.01;
    return w;
  });
  expect_matches_reference(s, ReconScheme::kFifth);
}

TEST(FluxDispatch, SchemesActuallyDiffer) {
  // Guard against a dispatcher that quietly routes every scheme to the same
  // instantiation: first- and fifth-order fluxes must differ on a smooth
  // nonuniform state.
  const int n = 12;
  auto run = [&](ReconScheme r) {
    IgrSolver3D<Fp64> s(Grid::cube(n), igr_cfg(), BcSpec::all_periodic(), r);
    s.init(vortex_ic);
    s.begin_step();
    auto& stage = s.stage_field();
    s.compute_rhs(stage, s.rhs_field());
    StateField3<double> rhs(n, n, n, 3);
    s.compute_fluxes(stage, rhs);
    return rhs;
  };
  const auto a = run(ReconScheme::kFirst);
  const auto b = run(ReconScheme::kFifth);
  double max_diff = 0.0;
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        max_diff = std::max(max_diff,
                            std::abs(a[0](i, j, k) - b[0](i, j, k)));
  EXPECT_GT(max_diff, 1e-8);
}

}  // namespace
