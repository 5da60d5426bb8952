#include "fv/cfl.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <mutex>
#include <vector>

#include "common/bfloat16.hpp"
#include "common/exec.hpp"
#include "common/half.hpp"
#include "common/precision.hpp"

namespace igr::fv {

template <class T>
void accumulate_cfl_rates(const common::StateField3<T>& q,
                          const mesh::Grid& grid, const eos::IdealGas& eos,
                          const common::SolverConfig& cfg,
                          const common::Field3<T>* sigma, int k0, int k1,
                          CflRates& r) {
  const int nx = q.nx(), ny = q.ny();

  // Storage with a conversion lane (binary16, bfloat16) pulls each row
  // through it once instead of 6 scalar conversions per cell.  The rate
  // math below stays in double either way: widening to float and then to
  // double is exact, so both row forms feed identical values.
  constexpr bool kLanes = common::has_conversion_lane<T>;
  const std::size_t nxs = static_cast<std::size_t>(nx);

  // Each team member folds its plane chunk into local extrema and merges
  // them under a mutex: max/min are exact and order-independent, so the
  // merged result is bitwise the serial fold (and bitwise what the old
  // `omp reduction(max/min)` produced) for every team width.
  const common::ExecSpace exec = cfg.exec();
  std::mutex merge_mutex;
  double merged_max_rate = r.max_rate;
  double merged_min_rho = r.min_rho;
  exec.run_team([&](const common::ExecSpace::Team& t) {
    std::vector<float> row_buf;
    if constexpr (kLanes) row_buf.resize((common::kNumVars + 1) * nxs);
    double max_rate = r.max_rate;
    double min_rho = r.min_rho;
    long cb, ce;
    t.chunk(k1 - k0, cb, ce);
    for (long kk = cb; kk < ce; ++kk) {
    const int k = k0 + static_cast<int>(kk);
    for (int j = 0; j < ny; ++j) {
      if constexpr (kLanes) {
        for (int c = 0; c < common::kNumVars; ++c)
          common::convert_to_float(q[c].row(j, k), row_buf.data() + c * nxs,
                                   nxs);
        if (sigma)
          common::convert_to_float(sigma->row(j, k),
                                   row_buf.data() + common::kNumVars * nxs,
                                   nxs);
      }
      // Variable c at cell i of this row; c == kNumVars is Sigma.
      auto at = [&](int c, int i) -> double {
        if constexpr (kLanes) {
          return row_buf[static_cast<std::size_t>(c) * nxs +
                         static_cast<std::size_t>(i)];
        } else {
          return c < common::kNumVars ? q[c](i, j, k) : (*sigma)(i, j, k);
        }
      };
      for (int i = 0; i < nx; ++i) {
        common::Cons<double> qc;
        for (int c = 0; c < common::kNumVars; ++c) qc[c] = at(c, i);
        const auto w = eos.to_prim(qc);
        const double sig =
            sigma ? std::max(at(common::kNumVars, i), 0.0) : 0.0;
        const double cs =
            eos.sound_speed(w.rho, std::max(w.p, 1e-300) + sig);
        const double rate = (std::abs(w.u) + cs) / grid.dx() +
                            (std::abs(w.v) + cs) / grid.dy() +
                            (std::abs(w.w) + cs) / grid.dz();
        max_rate = std::max(max_rate, rate);
        min_rho = std::min(min_rho, w.rho);
      }
    }
    }
    std::lock_guard<std::mutex> g(merge_mutex);
    merged_max_rate = std::max(merged_max_rate, max_rate);
    merged_min_rho = std::min(merged_min_rho, min_rho);
  });

  r.max_rate = merged_max_rate;
  r.min_rho = merged_min_rho;
}

double cfl_dt_from_rates(const CflRates& r, const mesh::Grid& grid,
                         const common::SolverConfig& cfg) {
  double dt = cfg.cfl / r.max_rate;

  // Explicit-diffusion stability when viscous terms are active.
  const double nu = std::max(cfg.mu, cfg.zeta) / std::max(r.min_rho, 1e-300);
  if (nu > 0.0) {
    const double inv2 = 1.0 / (grid.dx() * grid.dx()) +
                        1.0 / (grid.dy() * grid.dy()) +
                        1.0 / (grid.dz() * grid.dz());
    dt = std::min(dt, cfg.cfl / (2.0 * nu * inv2));
  }
  return dt;
}

template <class T>
double compute_dt(const common::StateField3<T>& q, const mesh::Grid& grid,
                  const eos::IdealGas& eos, const common::SolverConfig& cfg,
                  const common::Field3<T>* sigma) {
  CflRates r;
  accumulate_cfl_rates(q, grid, eos, cfg, sigma, 0, q.nz(), r);
  return cfl_dt_from_rates(r, grid, cfg);
}

#define IGR_INSTANTIATE_CFL(T)                                                 \
  template void accumulate_cfl_rates<T>(                                       \
      const common::StateField3<T>&, const mesh::Grid&, const eos::IdealGas&,  \
      const common::SolverConfig&, const common::Field3<T>*, int, int,         \
      CflRates&);                                                              \
  template double compute_dt<T>(const common::StateField3<T>&,                 \
                                const mesh::Grid&, const eos::IdealGas&,       \
                                const common::SolverConfig&,                   \
                                const common::Field3<T>*);

IGR_INSTANTIATE_CFL(double)
IGR_INSTANTIATE_CFL(float)
IGR_INSTANTIATE_CFL(common::half)
IGR_INSTANTIATE_CFL(common::bfloat16)
#undef IGR_INSTANTIATE_CFL

double compute_dt_1d(const double* rho, const double* mom, const double* e,
                     int n, double dx, double gamma, double cfl) {
  double smax = 1e-300;
  for (int i = 0; i < n; ++i) {
    const double u = mom[i] / rho[i];
    const double p =
        std::max((gamma - 1.0) * (e[i] - 0.5 * mom[i] * u), 1e-300);
    const double c = std::sqrt(gamma * p / rho[i]);
    smax = std::max(smax, std::abs(u) + c);
  }
  return cfl * dx / smax;
}

}  // namespace igr::fv
