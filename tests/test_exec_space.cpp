/// The exec-space contract: every backend and every team width produces the
/// same bits.  Covers the ExecSpace primitive itself (partition coverage,
/// team launch, barrier phase ordering and metering), then the solver-level
/// guarantees — pinned fingerprints of the stage team (BC fill + Sigma
/// wavefront in one launch) at widths 1/2/3, Serial vs OpenMP bitwise on state fingerprints AND per-step dt for both
/// Sigma sweep paths (plane wavefront and periodic-z phased passes) and
/// every storage precision, thread-count invariance at
/// widths 1/2/4, and the distributed driver with a multi-threaded exec
/// space inside each rank worker (the configuration the TSan tree races).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cases/runner.hpp"
#include "common/exec.hpp"
#include "common/telemetry.hpp"

namespace {

using igr::common::Bf16x32;
using igr::common::ExecBackend;
using igr::common::ExecSpace;
using igr::common::Fp16x32;
using igr::common::Fp32;
using igr::common::Fp64;
using igr::common::kNumVars;
namespace cases = igr::cases;
namespace telemetry = igr::common::telemetry;

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

TEST(ExecSpaceUnit, ChunkWithHaloHandsGhostsToTheEdgeMembers) {
  // [-3, n + 3) is covered exactly once, and every interior index keeps
  // its chunk(n) owner (n < width leaves trailing members empty).
  for (long n : {1L, 2L, 5L, 16L}) {
    for (int width : {1, 2, 3, 4}) {
      const ExecSpace exec(ExecBackend::kOpenMP, width);
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n + 6));
      std::atomic<int> moved{0};
      exec.run_team([&](const ExecSpace::Team& t) {
        long b, e, cb, ce;
        t.chunk_with_halo(n, 3, b, e);
        t.chunk(n, cb, ce);
        for (long i = b; i < e; ++i) {
          hits[static_cast<std::size_t>(i + 3)].fetch_add(1);
          if (i >= 0 && i < n && (i < cb || i >= ce)) moved.fetch_add(1);
        }
      });
      for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1) << "n=" << n << " width=" << width;
      EXPECT_EQ(moved.load(), 0) << "n=" << n << " width=" << width;
    }
  }
}

TEST(ExecSpaceUnit, BarrierIsFreeForOneMemberAndMeteredOtherwise) {
  telemetry::set_enabled(true);
  telemetry::reset_metrics();
  auto& m0 = telemetry::barrier_wait(0);
  // A one-member team returns before the meter: nothing to wait for.
  ExecSpace(ExecBackend::kOpenMP, 1).run_team([](const ExecSpace::Team& t) {
    for (int i = 0; i < 8; ++i) t.barrier();
  });
  EXPECT_EQ(m0.count(), 0u);
  int members = 0;
  ExecSpace(ExecBackend::kOpenMP, 2).run_team([&](const ExecSpace::Team& t) {
    if (t.tid() == 0) members = t.size();
    for (int i = 0; i < 8; ++i) t.barrier();
  });
  if (members == 2) {
    EXPECT_EQ(m0.count(), 8u);
    EXPECT_EQ(telemetry::barrier_wait(1).count(), 8u);
  }
  telemetry::set_enabled(false);
  ExecSpace(ExecBackend::kOpenMP, 2).run_team([](const ExecSpace::Team& t) {
    t.barrier();
  });
  EXPECT_EQ(m0.count(), members == 2 ? 8u : 0u) << "metered while disabled";
  telemetry::reset_metrics();
}

TEST(ExecSpaceUnit, ThrowingMemberDropsOutOfTheBarrier) {
#ifdef _OPENMP
  GTEST_SKIP() << "an exception may not leave an OpenMP parallel region";
#else
  // The std::thread team: a member that throws before a barrier must not
  // leave the others waiting on it; the team rethrows after the join.
  std::atomic<int> passed{0};
  EXPECT_THROW(ExecSpace(ExecBackend::kOpenMP, 3)
                   .run_team([&](const ExecSpace::Team& t) {
                     if (t.tid() == 1) throw std::runtime_error("member 1");
                     for (int i = 0; i < 4; ++i) t.barrier();
                     passed.fetch_add(1);
                   }),
               std::runtime_error);
  EXPECT_EQ(passed.load(), 2);
#endif
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

/// The stage team: every RK stage runs the BC fill and the whole fused
/// Sigma pipeline in one launch, each member on a fixed range of rows, one
/// team barrier per wavefront front (two when Sigma wraps in y).  Its fingerprints are pinned — not merely compared across widths
/// — at widths 1, 2 and 3; width 3 splits the rows unevenly (16 = 6+5+5).
/// jet-single covers inflow/outflow BCs and the Neumann wavefront (FP64,
/// FP16/32 and BF16/32 batched lanes, Jacobi); sod-z the y-wrapped
/// wavefront; sod-x the phased branch (periodic z) behind the team BC fill,
/// with red–black and Jacobi sweeps at FP64 and red–black at FP16/32.  The
/// fp64 red–black values are the CaseGolden table's; the jet FP16/32 and
/// Jacobi ones were recorded with the per-plane-team schedule this one
/// replaced, the sod-x FP16/32 and Jacobi and the jet BF16/32 ones with the
/// full-field sweep kernels the phased branch used before its sweeps became
/// one row-partitioned team each (re-record: `run_case --case NAME --n 16
/// --steps S [--precision fp16x32|bf16x32 | --jacobi]`, S = 8 for
/// jet-single and 12 for sod-x, the cases' golden sizes).
template <class Policy>
void expect_stage_team_pins(const char* name, bool jacobi, std::uint64_t fnv,
                            std::uint64_t dt_fnv) {
  const auto* spec = cases::find(name);
  ASSERT_NE(spec, nullptr);
  for (int width : {1, 2, 3}) {
    SCOPED_TRACE(std::string(name) + (jacobi ? " jacobi" : "") + " width " +
                 std::to_string(width));
    cases::RunOptions o = cases::golden_options(*spec);
    o.exec = ExecBackend::kOpenMP;
    o.threads = width;
    o.jacobi_sweeps = jacobi;
    const auto r = cases::run_case<Policy>(*spec, o);
    EXPECT_EQ(r.state_fnv, fnv) << std::hex << "state 0x" << r.state_fnv;
    EXPECT_EQ(r.dt_fnv, dt_fnv) << std::hex << "dt 0x" << r.dt_fnv;
  }
}

TEST(ExecSpaceStageTeam, JetFp64PinnedAtWidthsOneTwoThree) {
  expect_stage_team_pins<Fp64>("jet-single", false, 0x709213cc98a6a1e8ull,
                               0xfec462599a1a3186ull);
}
TEST(ExecSpaceStageTeam, JetFp16PinnedAtWidthsOneTwoThree) {
  expect_stage_team_pins<Fp16x32>("jet-single", false, 0x24f71375cbcaf644ull,
                                  0x8c2046eeffcbc609ull);
}
TEST(ExecSpaceStageTeam, JetJacobiPinnedAtWidthsOneTwoThree) {
  expect_stage_team_pins<Fp64>("jet-single", true, 0x4ec697517c04116aull,
                               0x0309696cb2f3e0b9ull);
}
TEST(ExecSpaceStageTeam, SodZWrappedYPinnedAtWidthsOneTwoThree) {
  expect_stage_team_pins<Fp64>("sod-z", false, 0x64d99e1c63b9f210ull,
                               0xa91f285bdc2fe220ull);
}
TEST(ExecSpaceStageTeam, SodZWrappedYJacobiAndFp16MatchSerial) {
  // The y-wrapped wavefront's other kernels (Jacobi buffers, FP16/32 row
  // cache), against the serial schedule at the uneven and even widths.
  const auto* spec = cases::find("sod-z");
  ASSERT_NE(spec, nullptr);
  for (int width : {2, 3}) {
    cases::RunOptions serial = cases::golden_options(*spec);
    serial.exec = ExecBackend::kSerial;
    cases::RunOptions wide = serial;
    wide.exec = ExecBackend::kOpenMP;
    wide.threads = width;
    expect_bitwise_equal<Fp16x32>(*spec, serial, wide, "sod-z fp16x32");
    serial.jacobi_sweeps = wide.jacobi_sweeps = true;
    expect_bitwise_equal<Fp64>(*spec, serial, wide, "sod-z jacobi");
  }
}

TEST(ExecSpaceStageTeam, SodXPhasedPinnedAtWidthsOneTwoThree) {
  expect_stage_team_pins<Fp64>("sod-x", false, 0x1d91a79a50229f98ull,
                               0x0a6caab339577c5aull);
}
TEST(ExecSpaceStageTeam, SodXPhasedFp16PinnedAtWidthsOneTwoThree) {
  expect_stage_team_pins<Fp16x32>("sod-x", false, 0xe66d9671a098b1f1ull,
                                  0x5ba109eabcd3a80eull);
}
TEST(ExecSpaceStageTeam, SodXPhasedJacobiPinnedAtWidthsOneTwoThree) {
  expect_stage_team_pins<Fp64>("sod-x", true, 0x99619dbfcd5f2825ull,
                               0x2b0a5af4b21f1712ull);
}
TEST(ExecSpaceStageTeam, JetBf16PinnedAtWidthsOneTwoThree) {
  expect_stage_team_pins<Bf16x32>("jet-single", false, 0xcbd7d0f3b28f89bdull,
                                  0x71ec5de47b73fa6cull);
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
