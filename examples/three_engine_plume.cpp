/// \file three_engine_plume.cpp
/// The paper's Fig. 5 scenario: three Mach-10 engines in a row, plumes
/// interacting above a reflective base plate.  Runs the IGR solver with
/// FP16/32 mixed precision (the paper's headline configuration), tracks
/// plume diagnostics, and writes VTK snapshots for visualization.
///
///   $ ./three_engine_plume [n=24] [steps=40]
///
/// n is capped at 512 (a laptop-scale example: n = 512 already stores
/// ~7 GB); larger runs go through `run_case --case jet-three --n N`.

#include <cstdio>

#include "app/jet_config.hpp"
#include "app/simulation.hpp"
#include "common/cli.hpp"

int main(int argc, char** argv) {
  using namespace igr;
  namespace ccli = common::cli;

  const char* prog = "three_engine_plume";
  if (argc > 3) ccli::die(prog, "usage: three_engine_plume [n] [steps]");
  const int n = argc > 1 ? static_cast<int>(ccli::parse_long(
                               prog, "n", argv[1], 1, 512))
                         : 24;
  const int steps = argc > 2 ? static_cast<int>(ccli::parse_long(
                                   prog, "steps", argv[2], 0, 1000000))
                             : 40;

  const auto jet = app::three_engine_row();

  app::Simulation<common::Fp16x32>::Params params;
  params.grid = mesh::Grid(n, n, 3 * n / 2, {0, 1}, {0, 1}, {0, 1.5});
  params.cfg = jet.solver_config();
  params.bc = jet.make_bc();
  params.scheme = app::SchemeKind::kIgr;

  app::Simulation<common::Fp16x32> sim(params);
  sim.init(jet.initial_condition(0.01));

  std::printf("three_engine_plume: %d x %d x %d cells, FP16/32 storage, "
              "3 Mach-%.0f engines\n",
              n, n, 3 * n / 2, jet.mach);
  std::printf("memory: %.1f MB (%.0f values/cell at 2 B storage)\n",
              sim.memory_bytes() / 1.0e6,
              static_cast<double>(sim.memory_bytes()) / 2.0 /
                  static_cast<double>(params.grid.cells()));

  std::printf("\n%6s %10s %10s %12s %12s\n", "step", "time", "max Mach",
              "min rho", "kinetic E");
  for (int s = 0; s < steps; ++s) {
    sim.step();
    if (s % 10 == 9 || s == 0) {
      const auto d = sim.diagnostics();
      std::printf("%6d %10.5f %10.3f %12.3e %12.5f\n", s + 1, sim.time(),
                  d.max_mach, d.min_density, d.kinetic_energy);
    }
  }

  sim.write_vtk("three_engine_plume.vtk");
  std::printf("\nwrote three_engine_plume.vtk (density, pressure, |u|, "
              "entropic pressure)\n");
  std::printf("grind time on this machine: %.0f ns/cell/step\n",
              sim.grind_ns());

  const auto d = sim.diagnostics();
  return (d.min_density > 0.0 && std::isfinite(d.kinetic_energy)) ? 0 : 1;
}
