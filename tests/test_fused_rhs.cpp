/// Fused-pipeline equivalence: the plane-streaming step (the solver's only
/// schedule) must be *bitwise identical* — state, Sigma, RHS, and dt — to
/// the phased composition of the public piecewise API (begin_step,
/// compute_rhs on the stage register, rk_update, finish_step, with dt from
/// the dedicated fv::compute_dt scan), built here as the test-local
/// reference phased_step().  Every slot of the fused wavefront reads exactly
/// the values the phased full-grid passes would show it (see the pipeline
/// notes in igr_solver3d.cpp); any divergence is a scheduling bug, not
/// roundoff.  Same discipline as the flux kernel's scalar-reference test
/// (tests/test_flux_dispatch.cpp), and it relies on the same
/// reproducibility flags pinned in CMakeLists.txt.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "app/jet_config.hpp"
#include "common/precision.hpp"
#include "core/igr_solver3d.hpp"
#include "fv/cfl.hpp"
#include "fv/rk3.hpp"
#include "mesh/grid.hpp"

namespace {

using igr::common::Fp16x32;
using igr::common::Fp32;
using igr::common::Fp64;
using igr::common::kNumVars;
using igr::core::IgrSolver3D;
using igr::fv::BcSpec;
using igr::fv::ReconScheme;
using igr::mesh::Grid;

template <class S>
bool bits_equal(const S& a, const S& b) {
  return std::memcmp(&a, &b, sizeof(S)) == 0;
}

/// The bench harness's Mach-10 jet at smoke size (outflow/inflow faces, so
/// the Sigma boundary handling is Neumann and the sweep wavefront engages).
template <class Policy>
IgrSolver3D<Policy> make_jet(ReconScheme recon, bool gauss_seidel = true,
                             int n = 12) {
  const auto jet = igr::app::single_engine();
  auto cfg = jet.solver_config();
  cfg.sigma_gauss_seidel = gauss_seidel;
  const Grid grid(n, n, n + n / 2, {0.0, 1.0}, {0.0, 1.0}, {0.0, 1.5});
  IgrSolver3D<Policy> s(grid, cfg, jet.make_bc(), recon);
  s.init(jet.initial_condition(0.005));
  return s;
}

/// All-periodic variant: exercises the periodic-z Sigma case (phased
/// sweeps inside the fused schedule) plus the streamed flux/RK/dt folds.
template <class Policy>
IgrSolver3D<Policy> make_periodic(ReconScheme recon, int n = 12) {
  const igr::common::SolverConfig cfg;
  const Grid grid = Grid::cube(n);
  IgrSolver3D<Policy> s(grid, cfg, BcSpec::all_periodic(), recon);
  s.init([](double x, double y, double z) {
    igr::common::Prim<double> w;
    w.rho = 1.0 + 0.3 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
    w.u = 0.4 * std::sin(2 * M_PI * y);
    w.v = -0.2 * std::cos(2 * M_PI * z);
    w.w = 0.1 * std::sin(2 * M_PI * (x + z));
    w.p = 1.0 + 0.2 * std::cos(2 * M_PI * x);
    return w;
  });
  return s;
}

/// The phased reference step at a caller-chosen dt: copy the state into the
/// stage register, then per RK stage one full-grid compute_rhs pass and the
/// convex update, then commit.
template <class Policy>
void phased_step(IgrSolver3D<Policy>& s, double dt) {
  s.begin_step();
  for (const auto& st : igr::fv::kRk3Stages) {
    s.compute_rhs(s.stage_field(), s.rhs_field());
    s.rk_update(st, dt);
  }
  s.finish_step(dt);
}

/// The phased reference of step(): dt from the dedicated CFL scan over the
/// state and the warm-start Sigma.
template <class Policy>
double phased_step(IgrSolver3D<Policy>& s) {
  const double dt = igr::fv::compute_dt(s.state(), s.grid(), s.eos(),
                                        s.config(), &s.sigma());
  phased_step(s, dt);
  return dt;
}

template <class Policy>
void expect_state_sigma_equal(const IgrSolver3D<Policy>& a,
                              const IgrSolver3D<Policy>& b) {
  const auto& g = a.grid();
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny(); ++j)
        for (int i = 0; i < g.nx(); ++i)
          ASSERT_TRUE(bits_equal(a.state()[c](i, j, k), b.state()[c](i, j, k)))
              << "var " << c << " at (" << i << "," << j << "," << k << ")";
  for (int k = 0; k < g.nz(); ++k)
    for (int j = 0; j < g.ny(); ++j)
      for (int i = 0; i < g.nx(); ++i)
        ASSERT_TRUE(bits_equal(a.sigma()(i, j, k), b.sigma()(i, j, k)))
            << "sigma at (" << i << "," << j << "," << k << ")";
}

template <class Policy>
void expect_rhs_equal(IgrSolver3D<Policy>& a, IgrSolver3D<Policy>& b) {
  const auto& g = a.grid();
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny(); ++j)
        for (int i = 0; i < g.nx(); ++i)
          ASSERT_TRUE(bits_equal(a.rhs_field()[c](i, j, k),
                                 b.rhs_field()[c](i, j, k)))
              << "rhs var " << c << " at (" << i << "," << j << "," << k
              << ")";
}

const ReconScheme kRecons[] = {ReconScheme::kFirst, ReconScheme::kThird,
                               ReconScheme::kFifth};

template <class Policy>
void run_compute_rhs_case() {
  for (auto recon : kRecons) {
    auto phased = make_jet<Policy>(recon);
    auto fused = make_jet<Policy>(recon);
    // Stir the state so Sigma and the fallback/floor paths are exercised.
    phased_step(phased, 1e-4);
    fused.step_fixed(1e-4);
    phased.begin_step();
    fused.begin_step();
    phased.compute_rhs(phased.stage_field(), phased.rhs_field());
    fused.compute_rhs_fused(fused.stage_field(), fused.rhs_field());
    expect_rhs_equal(phased, fused);
    expect_state_sigma_equal(phased, fused);
  }
}

template <class Policy>
void run_adaptive_steps_case(bool gauss_seidel) {
  for (auto recon : kRecons) {
    auto phased = make_jet<Policy>(recon, gauss_seidel);
    auto fused = make_jet<Policy>(recon, gauss_seidel);
    // Three adaptive steps: the first dt comes from the dedicated CFL scan
    // on both sides; the later fused dts come from the reduction folded
    // into the previous step's final RK stage.
    for (int s = 0; s < 3; ++s) {
      const double dt_p = phased_step(phased);
      const double dt_f = fused.step();
      ASSERT_EQ(dt_p, dt_f) << "step " << s;
    }
    expect_state_sigma_equal(phased, fused);
  }
}

TEST(FusedRhs, ComputeRhsBitwiseFp64) { run_compute_rhs_case<Fp64>(); }
TEST(FusedRhs, ComputeRhsBitwiseFp32) { run_compute_rhs_case<Fp32>(); }
TEST(FusedRhs, ComputeRhsBitwiseFp16x32) { run_compute_rhs_case<Fp16x32>(); }

TEST(FusedRhs, AdaptiveJetStepsBitwiseFp64) {
  run_adaptive_steps_case<Fp64>(/*gauss_seidel=*/true);
}
TEST(FusedRhs, AdaptiveJetStepsBitwiseFp32) {
  run_adaptive_steps_case<Fp32>(/*gauss_seidel=*/true);
}
TEST(FusedRhs, AdaptiveJetStepsBitwiseFp16x32) {
  run_adaptive_steps_case<Fp16x32>(/*gauss_seidel=*/true);
}

TEST(FusedRhs, AdaptiveJetStepsBitwiseJacobiFp64) {
  // The Jacobi wavefront alternates buffers per plane slot instead of
  // swapping whole fields per sweep; the final swap must land the same
  // bits in the same field object.
  run_adaptive_steps_case<Fp64>(/*gauss_seidel=*/false);
}
TEST(FusedRhs, AdaptiveJetStepsBitwiseJacobiFp16x32) {
  run_adaptive_steps_case<Fp16x32>(/*gauss_seidel=*/false);
}

TEST(FusedRhs, PeriodicFallbackStepsBitwiseFp64) {
  // All-periodic BCs: the sweep wavefront cannot cross the z wrap, so the
  // fused schedule keeps phased sweeps — but still streams source, fluxes,
  // RK, and the dt fold, which must stay bitwise.
  auto phased = make_periodic<Fp64>(ReconScheme::kFifth);
  auto fused = make_periodic<Fp64>(ReconScheme::kFifth);
  for (int s = 0; s < 3; ++s) ASSERT_EQ(phased_step(phased), fused.step());
  expect_state_sigma_equal(phased, fused);
}

TEST(FusedRhs, PeriodicFallbackStepsBitwiseFp16x32) {
  auto phased = make_periodic<Fp16x32>(ReconScheme::kFifth);
  auto fused = make_periodic<Fp16x32>(ReconScheme::kFifth);
  for (int s = 0; s < 3; ++s) ASSERT_EQ(phased_step(phased), fused.step());
  expect_state_sigma_equal(phased, fused);
}

TEST(FusedRhs, RegionRestrictedFluxesMatchPhased) {
  // The interior/boundary split DistributedIgr overlaps with halo traffic,
  // run through the k-block-streamed flux path, must still union to the
  // phased full-region sweep bitwise.
  for (auto recon : kRecons) {
    auto phased = make_jet<Fp64>(recon);
    auto fused = make_jet<Fp64>(recon);
    phased_step(phased, 1e-4);
    fused.step_fixed(1e-4);
    phased.begin_step();
    fused.begin_step();
    // Identical Sigma solve on both sides, then split vs whole fluxes.
    phased.compute_rhs(phased.stage_field(), phased.rhs_field());
    fused.apply_domain_bc(fused.stage_field());
    fused.build_sigma_source(fused.stage_field());
    for (int s = 0; s < fused.config().sigma_sweeps; ++s) {
      igr::core::fill_sigma_ghosts(fused.sigma_field(),
                                   igr::core::SigmaBc::kNeumann, 1);
      fused.sigma_sweep(fused.stage_field());
    }
    fused.fill_sigma_boundary();
    fused.compute_fluxes_interior(fused.stage_field(), fused.rhs_field(), 2);
    fused.compute_fluxes_boundary(fused.stage_field(), fused.rhs_field(), 2);
    expect_rhs_equal(phased, fused);
  }
}

TEST(FusedRhs, StepFixedThenAdaptiveUsesFreshDtCache) {
  // step_fixed refreshes the folded CFL cache too, so a mixed
  // step_fixed/step sequence sees the dt the dedicated scan would compute.
  auto phased = make_jet<Fp64>(ReconScheme::kFifth);
  auto fused = make_jet<Fp64>(ReconScheme::kFifth);
  phased_step(phased, 1e-4);
  fused.step_fixed(1e-4);
  ASSERT_EQ(phased_step(phased), fused.step());
  expect_state_sigma_equal(phased, fused);
}

}  // namespace
