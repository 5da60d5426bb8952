/// \file super_heavy_33.cpp
/// The paper's flagship demonstration (Fig. 1): an array of 33 Mach-10
/// engines in the SpaceX Super-Heavy-inspired layout — 3 inner, 10
/// middle-ring, 20 outer-ring — with plume-plume interaction above the
/// base plate.  The production run used 3.3T cells on 9.2K GH200s; this
/// example runs the same configuration at laptop scale and reports the
/// base-heating proxy the study motivates: recirculating (upward) mass
/// flux near the base plate between nozzles.
///
///   $ ./super_heavy_33 [n=32] [steps=30]
///
/// n is capped at 512 (a laptop-scale example: n = 512 already stores
/// ~10 GB); larger runs go through `run_case --case jet-33 --n N`.

#include <cmath>
#include <cstdio>

#include "app/jet_config.hpp"
#include "app/simulation.hpp"
#include "common/cli.hpp"

namespace {

/// Upward mass flux integrated over near-base cells *outside* the nozzles —
/// exhaust reflected back toward the rocket base ("base heating", §3).
template <class Policy>
double base_recirculation(const igr::app::Simulation<Policy>& sim,
                          const igr::app::JetConfig& jet) {
  const auto& q = sim.state();
  const auto& g = sim.grid();
  double up_flux = 0.0;
  const int k0 = 1;  // one layer above the base plate
  for (int j = 0; j < g.ny(); ++j) {
    for (int i = 0; i < g.nx(); ++i) {
      const double x = g.x(i), y = g.y(j);
      bool inside_nozzle = false;
      for (const auto& c : jet.centers) {
        const double dx = x - c[0], dy = y - c[1];
        if (dx * dx + dy * dy < jet.nozzle_radius * jet.nozzle_radius) {
          inside_nozzle = true;
          break;
        }
      }
      if (inside_nozzle) continue;
      const double mz = static_cast<double>(q[3](i, j, k0));
      if (mz < 0.0) up_flux += -mz * g.dx() * g.dy();  // toward the base
    }
  }
  return up_flux;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace igr;
  namespace ccli = common::cli;

  const char* prog = "super_heavy_33";
  if (argc > 3) ccli::die(prog, "usage: super_heavy_33 [n] [steps]");
  const int n = argc > 1 ? static_cast<int>(ccli::parse_long(
                               prog, "n", argv[1], 1, 512))
                         : 32;
  const int steps = argc > 2 ? static_cast<int>(ccli::parse_long(
                                   prog, "steps", argv[2], 0, 1000000))
                             : 30;

  const auto jet = app::super_heavy_33();

  app::Simulation<common::Fp32>::Params params;
  params.grid = mesh::Grid(n, n, n, {0, 1}, {0, 1}, {0, 1});
  params.cfg = jet.solver_config();
  params.bc = jet.make_bc();
  params.scheme = app::SchemeKind::kIgr;

  app::Simulation<common::Fp32> sim(params);
  sim.init(jet.initial_condition(0.005));

  std::printf("super_heavy_33: %zu engines (3 + 10 + 20 rings), %d^3 cells\n",
              jet.centers.size(), n);
  std::printf("paper-scale equivalent: 3.3T cells, 600 cells across each "
              "nozzle, 16h on 9.2K GH200s\n\n");

  std::printf("%6s %10s %10s %14s\n", "step", "time", "max Mach",
              "base recirc.");
  for (int s = 0; s < steps; ++s) {
    sim.step();
    if (s % 5 == 4 || s == 0) {
      const auto d = sim.diagnostics();
      std::printf("%6d %10.5f %10.3f %14.5e\n", s + 1, sim.time(),
                  d.max_mach, base_recirculation(sim, jet));
    }
  }

  sim.write_vtk("super_heavy_33.vtk");
  std::printf("\nwrote super_heavy_33.vtk\n");

  const auto d = sim.diagnostics();
  std::printf("final: max Mach %.2f, min rho %.3e, %zu start-up transient "
              "cells\n",
              d.max_mach, d.min_density, d.nonpositive_pressure_cells);
  return (d.min_density > 0.0 && std::isfinite(d.kinetic_energy)) ? 0 : 1;
}
