/// The exec-space contract: every backend and every team width produces the
/// same bits.  Covers the ExecSpace primitive itself (partition coverage,
/// team launch, barrier phase ordering), then the solver-level guarantees —
/// Serial vs OpenMP bitwise on state fingerprints AND per-step dt for both
/// Sigma sweep paths (plane wavefront and periodic-z phased passes) and
/// every storage precision, thread-count invariance at
/// widths 1/2/4, and the distributed driver with a multi-threaded exec
/// space inside each rank worker (the configuration the TSan tree races).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "cases/runner.hpp"
#include "common/exec.hpp"

namespace {

using igr::common::ExecBackend;
using igr::common::ExecSpace;
using igr::common::Fp16x32;
using igr::common::Fp32;
using igr::common::Fp64;
using igr::common::kNumVars;
namespace cases = igr::cases;

// --- The primitive ------------------------------------------------------

TEST(ExecSpaceUnit, ChunkPartitionsExactlyOnce) {
  for (long n : {0L, 1L, 7L, 64L, 1000L, 1001L}) {
    for (int nth : {1, 2, 3, 4, 7, 16}) {
      std::vector<int> hits(static_cast<std::size_t>(n), 0);
      long prev_end = 0;
      for (int tid = 0; tid < nth; ++tid) {
        long b, e;
        ExecSpace::chunk(n, tid, nth, b, e);
        EXPECT_EQ(b, prev_end) << "gap/overlap at tid " << tid;
        EXPECT_LE(b, e);
        prev_end = e;
        for (long i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
      }
      EXPECT_EQ(prev_end, n) << "n=" << n << " nth=" << nth;
      for (long i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1)
            << "index " << i << " n=" << n << " nth=" << nth;
    }
  }
}

TEST(ExecSpaceUnit, SerialIsAOneMemberTeam) {
  const ExecSpace exec = ExecSpace::serial();
  EXPECT_EQ(exec.backend(), ExecBackend::kSerial);
  int launches = 0;
  exec.run_team([&](const ExecSpace::Team& t) {
    EXPECT_EQ(t.tid(), 0);
    EXPECT_EQ(t.size(), 1);
    t.barrier();  // must be a no-op, not a deadlock
    ++launches;
  });
  EXPECT_EQ(launches, 1);
}

TEST(ExecSpaceUnit, ForEachVisitsEveryIndexOnceAtEveryWidth) {
  const long n = 257;  // prime: exercises the remainder path
  for (int width : {0, 1, 2, 4}) {
    const ExecSpace exec(ExecBackend::kOpenMP, width);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    exec.for_each(n, [&](long i) {
      hits[static_cast<std::size_t>(i)].fetch_add(
          1, std::memory_order_relaxed);
    });
    for (long i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " width " << width;
  }
}

TEST(ExecSpaceUnit, BarrierOrdersPhasesAcrossTheTeam) {
  // Each member publishes its tid, barriers, then checks it can see every
  // other member's publication — exactly the ordering the parity-phased
  // relaxation kernels rely on.
  for (int width : {2, 4}) {
    const ExecSpace exec(ExecBackend::kOpenMP, width);
    std::vector<std::atomic<int>> slot(static_cast<std::size_t>(width));
    for (auto& s : slot) s.store(-1, std::memory_order_relaxed);
    std::atomic<int> violations{0};
    exec.run_team([&](const ExecSpace::Team& t) {
      // An OpenMP runtime may hand out fewer members than requested; the
      // contract is "a team", not "exactly width members".
      ASSERT_GE(t.size(), 1);
      ASSERT_LE(t.size(), width);
      if (t.size() < 2) return;  // degenerate team: nothing to order
      slot[static_cast<std::size_t>(t.tid())].store(
          t.tid(), std::memory_order_relaxed);
      t.barrier();
      for (int m = 0; m < t.size(); ++m)
        if (slot[static_cast<std::size_t>(m)].load(
                std::memory_order_relaxed) != m)
          violations.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(violations.load(), 0) << "width " << width;
  }
}

// --- Solver-level bitwise invariance ------------------------------------

/// State fingerprint plus the full dt sequence of a golden-size run under
/// the given exec configuration — the two observables the exec-space
/// refactor promises not to move.
template <class Policy>
std::pair<std::uint64_t, std::vector<double>> fingerprint(
    const cases::CaseSpec& spec, const cases::RunOptions& opts) {
  cases::CaseRun<Policy> run(spec, opts);
  std::vector<double> dts;
  dts.reserve(static_cast<std::size_t>(run.target_steps()));
  for (int s = 0; s < run.target_steps(); ++s) dts.push_back(run.step());
  return {run.result().state_fnv, dts};
}

template <class Policy>
void expect_bitwise_equal(const cases::CaseSpec& spec,
                          const cases::RunOptions& a,
                          const cases::RunOptions& b, const char* label) {
  SCOPED_TRACE(label);
  const auto [fnv_a, dts_a] = fingerprint<Policy>(spec, a);
  const auto [fnv_b, dts_b] = fingerprint<Policy>(spec, b);
  ASSERT_EQ(dts_a.size(), dts_b.size());
  for (std::size_t s = 0; s < dts_a.size(); ++s)
    EXPECT_EQ(dts_a[s], dts_b[s]) << "dt diverged at step " << s;
  EXPECT_EQ(fnv_a, fnv_b) << "state fingerprint diverged";
}

/// Serial vs the default OpenMP exec space on one case, one precision
/// policy.  The jet case covers the full kernel surface: inflow + outflow
/// BCs, the fused Sigma wavefront, the CFL fold.  taylor-green is
/// all-periodic, so its Sigma wraps along z and the sweeps run as phased
/// full-grid passes inside the fused step.
template <class Policy>
void serial_vs_default(const char* case_name) {
  const auto* spec = cases::find(case_name);
  ASSERT_NE(spec, nullptr);
  cases::RunOptions serial = cases::golden_options(*spec);
  serial.exec = ExecBackend::kSerial;
  cases::RunOptions ambient = serial;
  ambient.exec = ExecBackend::kOpenMP;
  ambient.threads = 0;  // the historical bare-pragma schedule
  expect_bitwise_equal<Policy>(*spec, serial, ambient, case_name);
}

TEST(ExecSpaceBitwise, SerialMatchesDefaultFusedFp64) {
  serial_vs_default<Fp64>("jet-single");
}
TEST(ExecSpaceBitwise, SerialMatchesDefaultFusedFp32) {
  serial_vs_default<Fp32>("jet-single");
}
TEST(ExecSpaceBitwise, SerialMatchesDefaultFusedFp16) {
  serial_vs_default<Fp16x32>("jet-single");
}
TEST(ExecSpaceBitwise, SerialMatchesDefaultPhasedFp64) {
  serial_vs_default<Fp64>("taylor-green");
}
TEST(ExecSpaceBitwise, SerialMatchesDefaultPhasedFp32) {
  serial_vs_default<Fp32>("taylor-green");
}
TEST(ExecSpaceBitwise, SerialMatchesDefaultPhasedFp16) {
  serial_vs_default<Fp16x32>("taylor-green");
}

TEST(ExecSpaceBitwise, ThreadCountCannotMoveABit) {
  const auto* spec = cases::find("jet-single");
  ASSERT_NE(spec, nullptr);
  cases::RunOptions base = cases::golden_options(*spec);
  base.exec = ExecBackend::kSerial;
  const auto [ref_fnv, ref_dts] = fingerprint<Fp64>(*spec, base);
  for (int width : {1, 2, 4}) {
    SCOPED_TRACE("width " + std::to_string(width));
    cases::RunOptions o = base;
    o.exec = ExecBackend::kOpenMP;
    o.threads = width;
    const auto [fnv, dts] = fingerprint<Fp64>(*spec, o);
    ASSERT_EQ(dts.size(), ref_dts.size());
    for (std::size_t s = 0; s < dts.size(); ++s)
      EXPECT_EQ(dts[s], ref_dts[s]) << "dt diverged at step " << s;
    EXPECT_EQ(fnv, ref_fnv);
  }
}

TEST(ExecSpaceBitwise, PeriodicPhasedSweepsSerialMatchesThreads) {
  // A second workload shape (all-periodic, so the Sigma sweeps run as
  // phased full-grid passes), Serial vs a 2-wide team.
  const auto* spec = cases::find("taylor-green");
  ASSERT_NE(spec, nullptr);
  cases::RunOptions serial = cases::golden_options(*spec);
  serial.exec = ExecBackend::kSerial;
  cases::RunOptions wide = serial;
  wide.exec = ExecBackend::kOpenMP;
  wide.threads = 2;
  expect_bitwise_equal<Fp64>(*spec, serial, wide, "taylor-green phased sweeps");
}

TEST(ExecSpaceDistributed, PerRankTeamsBitwiseEqualSerialSingleDomain) {
  // Rank workers × a 2-wide exec space per rank: the nested-concurrency
  // configuration.  Jacobi sweeps make the decomposition exact, so the
  // whole stack must reproduce the single-domain serial-exec bits.  Under
  // the TSan tree (OpenMP off) the per-rank teams are std::thread teams —
  // this is the race check of the kernel bodies.
  const auto* spec = cases::find("taylor-green");
  ASSERT_NE(spec, nullptr);
  cases::RunOptions ref;
  ref.n = 12;
  ref.steps = 4;
  ref.jacobi_sweeps = true;
  ref.exec = ExecBackend::kSerial;
  cases::RunOptions dist = ref;
  dist.exec = ExecBackend::kOpenMP;
  dist.ranks = {1, 2, 2};
  dist.threads = 2;  // lowered into each rank's SolverConfig::exec_threads
  cases::CaseRun<Fp64> a(*spec, ref);
  cases::CaseRun<Fp64> b(*spec, dist);
  for (int s = 0; s < 4; ++s) {
    const double dt_a = a.step();
    const double dt_b = b.step();
    ASSERT_EQ(dt_a, dt_b) << "step " << s;
  }
  const auto& qa = a.sim().state();
  const auto& qb = b.sim().state();
  for (int c = 0; c < kNumVars; ++c)
    for (int k = 0; k < 12; ++k)
      for (int j = 0; j < 12; ++j)
        for (int i = 0; i < 12; ++i)
          ASSERT_EQ(qa[c](i, j, k), qb[c](i, j, k))
              << "c=" << c << " @ " << i << "," << j << "," << k;
}

}  // namespace
