/// Tests for the ghost-cell boundary conditions, including the jet inflow
/// patches the paper uses to model rocket engines.

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "common/exec.hpp"
#include "common/half.hpp"
#include "eos/ideal_gas.hpp"
#include "fv/bc.hpp"

namespace {

using igr::common::kEnergy;
using igr::common::kMomX;
using igr::common::kMomY;
using igr::common::kMomZ;
using igr::common::kNumVars;
using igr::common::kRho;
using igr::common::StateField3;
using igr::eos::IdealGas;
using igr::fv::apply_bc;
using igr::fv::BcKind;
using igr::fv::BcSpec;
using igr::fv::InflowPatch;
using igr::mesh::Face;
using igr::mesh::Grid;

constexpr int kN = 8;

StateField3<double> make_state() {
  StateField3<double> q(kN, kN, kN, 3);
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < kN; ++k)
      for (int j = 0; j < kN; ++j)
        for (int i = 0; i < kN; ++i)
          q[c](i, j, k) = 1000.0 * c + 100.0 * i + 10.0 * j + k + 1.0;
  return q;
}

TEST(Bc, PeriodicWrapsAllComponents) {
  auto q = make_state();
  const auto g = Grid::cube(kN);
  IdealGas eos(1.4);
  apply_bc(q, BcSpec::all_periodic(), g, eos);
  for (int c = 0; c < kNumVars; ++c) {
    EXPECT_EQ(q[c](-1, 3, 3), q[c](kN - 1, 3, 3));
    EXPECT_EQ(q[c](-3, 3, 3), q[c](kN - 3, 3, 3));
    EXPECT_EQ(q[c](kN, 3, 3), q[c](0, 3, 3));
    EXPECT_EQ(q[c](3, -2, 3), q[c](3, kN - 2, 3));
    EXPECT_EQ(q[c](3, 3, kN + 1), q[c](3, 3, 1));
  }
}

TEST(Bc, PeriodicFillsCornerGhosts) {
  auto q = make_state();
  const auto g = Grid::cube(kN);
  IdealGas eos(1.4);
  apply_bc(q, BcSpec::all_periodic(), g, eos);
  EXPECT_EQ(q[kRho](-1, -1, -1), q[kRho](kN - 1, kN - 1, kN - 1));
  EXPECT_EQ(q[kRho](kN + 2, -3, kN), q[kRho](2, kN - 3, 0));
}

TEST(Bc, OutflowExtrapolatesZeroGradient) {
  auto q = make_state();
  const auto g = Grid::cube(kN);
  IdealGas eos(1.4);
  apply_bc(q, BcSpec::all_outflow(), g, eos);
  for (int gl = 1; gl <= 3; ++gl) {
    EXPECT_EQ(q[kRho](-gl, 4, 4), q[kRho](0, 4, 4));
    EXPECT_EQ(q[kEnergy](kN - 1 + gl, 4, 4), q[kEnergy](kN - 1, 4, 4));
  }
}

TEST(Bc, ReflectiveMirrorsAndNegatesNormalMomentum) {
  auto q = make_state();
  const auto g = Grid::cube(kN);
  IdealGas eos(1.4);
  BcSpec spec;
  spec.kind.fill(BcKind::kReflective);
  apply_bc(q, spec, g, eos);
  // x-low: ghost -1 mirrors cell 0, ghost -2 mirrors cell 1.
  EXPECT_EQ(q[kRho](-1, 4, 4), q[kRho](0, 4, 4));
  EXPECT_EQ(q[kRho](-2, 4, 4), q[kRho](1, 4, 4));
  EXPECT_EQ(q[kMomX](-1, 4, 4), -q[kMomX](0, 4, 4));
  EXPECT_EQ(q[kMomY](-1, 4, 4), q[kMomY](0, 4, 4));  // tangential unchanged
  // z-high face: normal is z.
  EXPECT_EQ(q[kMomZ](4, 4, kN), -q[kMomZ](4, 4, kN - 1));
  EXPECT_EQ(q[kMomX](4, 4, kN), q[kMomX](4, 4, kN - 1));
}

TEST(Bc, ReflectiveWallHasZeroNormalMassFluxSymmetry) {
  // The mirrored state at the wall implies u_n(face) = 0 by symmetry.
  auto q = make_state();
  const auto g = Grid::cube(kN);
  IdealGas eos(1.4);
  BcSpec spec;
  spec.kind.fill(BcKind::kReflective);
  apply_bc(q, spec, g, eos);
  const double sum = q[kMomX](-1, 4, 4) + q[kMomX](0, 4, 4);
  EXPECT_NEAR(sum, 0.0, 1e-14);
}

TEST(Bc, InflowPatchInjectsJetState) {
  auto q = make_state();
  const auto g = Grid::cube(kN);
  IdealGas eos(1.4);
  BcSpec spec = BcSpec::all_outflow();
  spec.kind[static_cast<std::size_t>(Face::kZLo)] = BcKind::kInflowPatches;
  InflowPatch p;
  p.cx = 0.5;
  p.cy = 0.5;
  p.radius = 0.2;
  p.state = {1.0, 0.0, 0.0, 10.0, 1.0};  // fast jet along +z
  spec.patches[static_cast<std::size_t>(Face::kZLo)].push_back(p);
  apply_bc(q, spec, g, eos);

  // Center of the face (x=y=0.5 is between cells 3 and 4): inside patch.
  const auto qc = eos.to_cons(p.state);
  EXPECT_NEAR(q[kMomZ](4, 4, -1), qc.mz, 1e-12);
  EXPECT_NEAR(q[kRho](4, 4, -2), qc.rho, 1e-12);
  EXPECT_NEAR(q[kEnergy](4, 4, -3), qc.e, 1e-12);
}

TEST(Bc, OutsidePatchFallsBackToReflectiveBasePlate) {
  auto q = make_state();
  const auto g = Grid::cube(kN);
  IdealGas eos(1.4);
  BcSpec spec = BcSpec::all_outflow();
  spec.kind[static_cast<std::size_t>(Face::kZLo)] = BcKind::kInflowPatches;
  InflowPatch p;
  p.cx = 0.5;
  p.cy = 0.5;
  p.radius = 0.1;  // small: corner cells are outside
  p.state = {1.0, 0.0, 0.0, 10.0, 1.0};
  spec.patches[static_cast<std::size_t>(Face::kZLo)].push_back(p);
  apply_bc(q, spec, g, eos);
  // Corner cell (0,0): wall behavior (mirror, negate z-momentum).
  EXPECT_EQ(q[kRho](0, 0, -1), q[kRho](0, 0, 0));
  EXPECT_EQ(q[kMomZ](0, 0, -1), -q[kMomZ](0, 0, 0));
}

TEST(Bc, MixedFacesIndependent) {
  auto q = make_state();
  const auto g = Grid::cube(kN);
  IdealGas eos(1.4);
  BcSpec spec;
  spec.kind = {BcKind::kPeriodic, BcKind::kPeriodic, BcKind::kOutflow,
               BcKind::kOutflow, BcKind::kReflective, BcKind::kReflective};
  apply_bc(q, spec, g, eos);
  EXPECT_EQ(q[kRho](-1, 4, 4), q[kRho](kN - 1, 4, 4));      // periodic x
  EXPECT_EQ(q[kRho](4, -1, 4), q[kRho](4, 0, 4));           // outflow y
  EXPECT_EQ(q[kMomZ](4, 4, -1), -q[kMomZ](4, 4, 0));        // wall z
}

TEST(Bc, DirichletHoldsPrescribedStateOnEveryAxisForm) {
  // One Dirichlet face per axis exercises all three span-fill forms
  // (column elements, x-rows, whole planes).
  auto q = make_state();
  const auto g = Grid::cube(kN);
  IdealGas eos(1.4);
  BcSpec spec = BcSpec::all_outflow();
  const igr::common::Prim<double> wx{1.0, 0.5, 0.0, 0.0, 2.0};
  const igr::common::Prim<double> wy{0.5, 0.0, -1.0, 0.0, 1.0};
  const igr::common::Prim<double> wz{2.0, 0.0, 0.0, 3.0, 4.0};
  spec.set_dirichlet(Face::kXLo, wx);
  spec.set_dirichlet(Face::kYHi, wy);
  spec.set_dirichlet(Face::kZLo, wz);
  apply_bc(q, spec, g, eos);

  const auto cx = eos.to_cons(wx);
  const auto cy = eos.to_cons(wy);
  const auto cz = eos.to_cons(wz);
  for (int gl = 1; gl <= 3; ++gl) {
    for (int c = 0; c < kNumVars; ++c) {
      EXPECT_EQ(q[c](-gl, 2, 5), cx[c]) << "x-lo c=" << c;
      EXPECT_EQ(q[c](3, kN - 1 + gl, 5), cy[c]) << "y-hi c=" << c;
      EXPECT_EQ(q[c](6, 1, -gl), cz[c]) << "z-lo c=" << c;
    }
  }
  // Corner ghosts of later-filled axes take the later fill (z overwrites
  // the x/y ghost columns it widens over), matching the x->y->z ordering.
  EXPECT_EQ(q[kRho](-1, -1, -1), cz[kRho]);
  // Non-Dirichlet faces keep their own kind (outflow here).
  EXPECT_EQ(q[kRho](kN, 4, 4), q[kRho](kN - 1, 4, 4));
}

TEST(Bc, DirichletWithoutStateFallsBackToZeroGradient) {
  auto q = make_state();
  auto ref = make_state();
  const auto g = Grid::cube(kN);
  IdealGas eos(1.4);
  BcSpec spec = BcSpec::all_outflow();
  spec.kind[static_cast<std::size_t>(Face::kXLo)] = BcKind::kDirichlet;
  spec.kind[static_cast<std::size_t>(Face::kZHi)] = BcKind::kDirichlet;
  apply_bc(q, spec, g, eos);
  apply_bc(ref, BcSpec::all_outflow(), g, eos);
  for (int c = 0; c < kNumVars; ++c)
    for (int gl = 1; gl <= 3; ++gl) {
      EXPECT_EQ(q[c](-gl, 4, 4), ref[c](-gl, 4, 4));
      EXPECT_EQ(q[c](4, 4, kN - 1 + gl), ref[c](4, 4, kN - 1 + gl));
    }
}

TEST(Bc, FloatAndHalfInstantiations) {
  StateField3<float> qf(4, 4, 4, 3);
  StateField3<igr::common::half> qh(4, 4, 4, 3);
  for (int c = 0; c < kNumVars; ++c) {
    qf[c].fill(1.5f);
    qh[c].fill(igr::common::half(1.5f));
  }
  const auto g = Grid::cube(4);
  IdealGas eos(1.4);
  apply_bc(qf, BcSpec::all_periodic(), g, eos);
  apply_bc(qh, BcSpec::all_periodic(), g, eos);
  EXPECT_EQ(qf[kRho](-1, 0, 0), 1.5f);
  EXPECT_EQ(float(qh[kRho](-1, 0, 0)), 1.5f);
}

/// The straightforward per-cell fill — axes x, y, z in turn, low side then
/// high, layers ascending, tangential extents widened over the axes already
/// filled — whose values every apply_bc form must reproduce bit for bit.
void reference_bc(StateField3<double>& q, const BcSpec& spec, const Grid& g,
                  const IdealGas& eos) {
  const int ng = q.ng();
  const int n[3] = {q.nx(), q.ny(), q.nz()};
  for (int axis = 0; axis < 3; ++axis) {
    int lo[3], hi[3];
    for (int a = 0; a < 3; ++a) {
      lo[a] = a < axis ? -ng : 0;
      hi[a] = a < axis ? n[a] + ng : n[a];
    }
    const int nm = kMomX + axis;
    for (int side = 0; side < 2; ++side) {
      const auto f = static_cast<std::size_t>(2 * axis + side);
      BcKind kind = spec.kind[f];
      if (kind == BcKind::kDirichlet && !spec.dirichlet_set[f])
        kind = BcKind::kOutflow;
      for (int gl = 1; gl <= ng; ++gl) {
        const int ghost = side == 0 ? -gl : n[axis] + gl - 1;
        const int mirror = side == 0 ? gl - 1 : n[axis] - gl;
        const int src = kind == BcKind::kPeriodic
                            ? (side == 0 ? n[axis] - gl : gl - 1)
                        : kind == BcKind::kOutflow ? (side == 0 ? 0 : n[axis] - 1)
                                                   : mirror;
        int r0[3] = {lo[0], lo[1], lo[2]}, r1[3] = {hi[0], hi[1], hi[2]};
        r0[axis] = ghost;
        r1[axis] = ghost + 1;
        for (int k = r0[2]; k < r1[2]; ++k)
          for (int j = r0[1]; j < r1[1]; ++j)
            for (int i = r0[0]; i < r1[0]; ++i) {
              int s3[3] = {i, j, k};
              if (kind == BcKind::kDirichlet) {
                const auto qc = eos.to_cons(spec.dirichlet[f]);
                for (int c = 0; c < kNumVars; ++c) q[c](i, j, k) = qc[c];
                continue;
              }
              if (kind == BcKind::kInflowPatches) {
                const double x[3] = {g.x(i), g.y(j), g.z(k)};
                const double t1 = x[axis == 0 ? 1 : 0];
                const double t2 = x[axis == 2 ? 1 : 2];
                int hit = -1;
                for (std::size_t p = 0; p < spec.patches[f].size() && hit < 0;
                     ++p) {
                  const auto& pt = spec.patches[f][p];
                  const double d1 = t1 - pt.cx, d2 = t2 - pt.cy;
                  if (d1 * d1 + d2 * d2 <= pt.radius * pt.radius)
                    hit = static_cast<int>(p);
                }
                if (hit >= 0) {
                  const auto qc = eos.to_cons(
                      spec.patches[f][static_cast<std::size_t>(hit)].state);
                  for (int c = 0; c < kNumVars; ++c) q[c](i, j, k) = qc[c];
                  continue;
                }
                s3[axis] = mirror;
                for (int c = 0; c < kNumVars; ++c)
                  q[c](i, j, k) = q[c](s3[0], s3[1], s3[2]);
                q[nm](i, j, k) = -q[nm](s3[0], s3[1], s3[2]);
                continue;
              }
              s3[axis] = src;
              for (int c = 0; c < kNumVars; ++c) {
                const double v = q[c](s3[0], s3[1], s3[2]);
                q[c](i, j, k) =
                    (kind == BcKind::kReflective && c == nm) ? -v : v;
              }
            }
      }
    }
  }
}

StateField3<double> make_shaped(int nx, int ny, int nz) {
  StateField3<double> q(nx, ny, nz, 3);
  for (int c = 0; c < kNumVars; ++c)
    for (int k = -3; k < nz + 3; ++k)
      for (int j = -3; j < ny + 3; ++j)
        for (int i = -3; i < nx + 3; ++i)
          q[c](i, j, k) = 1000.0 * c + 100.0 * i + 10.0 * j + k + 0.5;
  return q;
}

TEST(Bc, EveryFormMatchesThePerCellFillAtEveryTeamWidth) {
  // Mixed kinds on every axis, patch faces on x, y and z, shapes down to
  // fewer cells than ghost layers (periodic wraps and mirrors then source
  // ghosts of earlier layers), team widths that leave members idle.
  BcSpec mixed = BcSpec::all_outflow();
  mixed.kind[static_cast<std::size_t>(Face::kXLo)] = BcKind::kReflective;
  mixed.kind[static_cast<std::size_t>(Face::kXHi)] = BcKind::kInflowPatches;
  mixed.patches[static_cast<std::size_t>(Face::kXHi)] = {
      InflowPatch{0.3, 0.3, 0.25, {1.0, -2.0, 0.0, 0.0, 5.0}}};
  mixed.kind[static_cast<std::size_t>(Face::kYLo)] = BcKind::kPeriodic;
  mixed.kind[static_cast<std::size_t>(Face::kYHi)] = BcKind::kPeriodic;
  mixed.set_dirichlet(Face::kZHi, {0.5, 0.0, 0.0, -1.0, 1.0});
  mixed.kind[static_cast<std::size_t>(Face::kZLo)] = BcKind::kInflowPatches;
  mixed.patches[static_cast<std::size_t>(Face::kZLo)] = {
      InflowPatch{0.5, 0.5, 0.2, {2.0, 0.0, 0.0, 3.0, 4.0}}};
  BcSpec walls = BcSpec::all_outflow();
  for (auto& k : walls.kind) k = BcKind::kReflective;
  walls.kind[static_cast<std::size_t>(Face::kYHi)] = BcKind::kInflowPatches;
  walls.patches[static_cast<std::size_t>(Face::kYHi)] = {
      InflowPatch{0.4, 0.6, 0.3, {1.5, 0.0, -1.0, 0.0, 2.0}}};
  walls.kind[static_cast<std::size_t>(Face::kZHi)] = BcKind::kDirichlet;
  const BcSpec specs[] = {BcSpec::all_periodic(), BcSpec::all_outflow(),
                          mixed, walls};
  const std::array<int, 3> shapes[] = {{8, 8, 8}, {5, 7, 4}, {2, 3, 1},
                                       {1, 2, 5}};
  IdealGas eos(1.4);
  for (const auto& sh : shapes) {
    const Grid g(sh[0], sh[1], sh[2], {0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0});
    for (std::size_t si = 0; si < std::size(specs); ++si) {
      auto ref = make_shaped(sh[0], sh[1], sh[2]);
      reference_bc(ref, specs[si], g, eos);
      auto serial = make_shaped(sh[0], sh[1], sh[2]);
      apply_bc(serial, specs[si], g, eos);
      for (int width : {0, 1, 2, 3, 4}) {
        auto q = make_shaped(sh[0], sh[1], sh[2]);
        auto* target = width == 0 ? &serial : &q;
        if (width > 0) {
          const igr::common::ExecSpace exec(igr::common::ExecBackend::kOpenMP,
                                            width);
          exec.run_team([&](const igr::common::ExecSpace::Team& t) {
            apply_bc(q, specs[si], g, eos, t);
          });
        }
        for (int c = 0; c < kNumVars; ++c)
          for (int k = -3; k < sh[2] + 3; ++k)
            for (int j = -3; j < sh[1] + 3; ++j)
              for (int i = -3; i < sh[0] + 3; ++i)
                ASSERT_EQ((*target)[c](i, j, k), ref[c](i, j, k))
                    << "spec " << si << " shape " << sh[0] << "x" << sh[1]
                    << "x" << sh[2] << " width " << width << " c=" << c
                    << " @ " << i << "," << j << "," << k;
      }
    }
  }
}

}  // namespace
