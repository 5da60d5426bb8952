/// \file stepbench.cpp
/// One *solve* of the Mach-10 single jet (`jet-single`, the paper's §6.2
/// performance workload), stepped through the public cases::CaseRun API one
/// timed `step()` call at a time.
///
/// A solve is what a user of the solver waits for: build the case
/// (allocation, initial condition and, over TCP, the rank rendezvous), take
/// kWarmup untimed and kSteps timed steps — with a health scan and a
/// checkpoint every `ckpt-every` steps when asked — read back the state and
/// dt fingerprints, and tear down.  The fingerprints are checked against the
/// expected ones; a mismatch, an exception or a failed rank thread fails the
/// solve.  Each process runs exactly one solve, so every solve pays a fresh
/// run's set-up (page faults, allocator state, OpenMP pool) and reports its
/// own peak RSS; perfbench/run.py repeats processes for its time budget.
///
/// A rank layout of 1x1xR with R > 1 runs R TCP endpoints as R threads of
/// this process (rendezvous in a fresh directory), so the halo pipeline, the
/// TCP framing, the dt allreduce and the checkpoint gather do real work on
/// loopback sockets.
///
/// With `--trace FILE` the solve runs with the solver's phase timing on and
/// records spans around each public call this program makes into the
/// library, reads the comm/transport meters around every timed step, then
/// probes the layers the steps do not expose on their own (exec-space
/// barrier, half conversion lanes, allreduce, checkpoint read, simulation
/// set-up).  The spans are kept in memory and written to FILE as a Chrome
/// trace when the solve ends.
///
/// Output: one JSON object on the last line of stdout with the solve's raw
/// samples (perfbench/run.py turns those of many solves into the benchmark
/// result).

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <sched.h>

#include "app/jet_config.hpp"
#include "app/simulation.hpp"
#include "cases/case.hpp"
#include "cases/runner.hpp"
#include "common/cli.hpp"
#include "common/exec.hpp"
#include "common/half.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"

namespace {

namespace fs = std::filesystem;
namespace cli = igr::common::cli;
using namespace igr;
using Clock = std::chrono::steady_clock;
constexpr int kNumPhases = common::PhaseProfile::kNumPhases;

/// Every solve takes kWarmup untimed steps, then kSteps timed ones.
constexpr int kWarmup = 2;
constexpr int kSteps = 8;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  cases::Precision precision = cases::Precision::kFp64;
  int n = 96;
  int ranks = 1;       ///< 1x1xR layout; R > 1 runs R TCP endpoints.
  int threads = 1;     ///< Exec-space width of every rank.
  int ckpt_every = 0;  ///< Health scan + checkpoint cadence (0: none).
  double noise = 0.005;  ///< Initial-condition perturbation amplitude.
  fs::path dir;          ///< Scratch directory of the solve (must not exist).
  std::string trace;     ///< Chrome trace output; empty: untraced solve.
  std::optional<std::uint64_t> expect_state;
  std::optional<std::uint64_t> expect_dt;
};

// ------------------------------------------------------------- tracing ---

/// In-memory span recorder.  One thread records (rank 0's, or the main
/// thread around it).  Spans of one step share its id; every span names its
/// parent (-1 for a root).
///
/// common::telemetry's recorder does not serve here: it is process-wide with
/// one rank stamp, which the in-process rank threads of a TCP solve would
/// share; its spans carry no parent; and it hands them back only as
/// serialized Chrome events, not as data to take self times from.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t t0_ns;
    std::int64_t t1_ns;
    int parent;
    long id;
  };

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  int begin(std::string name, int parent, long id) {
    spans_.push_back({std::move(name), now(), -1, parent, id});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int s) { spans_[static_cast<std::size_t>(s)].t1_ns = now(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of it that its
  /// children cover (children of one parent never overlap here).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].t1_ns - spans_[i].t0_ns;
    for (const auto& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.t1_ns - s.t0_ns;
    return self;
  }

  /// Chrome trace_event fragment (one "X" event per span) for
  /// common::telemetry::write_trace.
  [[nodiscard]] std::string chrome_fragment() const {
    const auto self = self_ns();
    std::string out =
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
        "\"args\": {\"name\": \"igr_stepbench\"}}";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                    "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"span\": %zu, \"parent\": %d, \"id\": %ld, "
                    "\"self_us\": %.3f}}",
                    common::telemetry::json_escape(s.name).c_str(),
                    1e-3 * static_cast<double>(s.t0_ns),
                    1e-3 * static_cast<double>(s.t1_ns - s.t0_ns), i,
                    s.parent, s.id, 1e-3 * static_cast<double>(self[i]));
      out += buf;
    }
    return out;
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span on an optional tracer (no-op when null).
class Scope {
 public:
  Scope(Tracer* t, std::string name, int parent, long id)
      : t_(t), s_(t ? t->begin(std::move(name), parent, id) : -1) {}
  ~Scope() {
    if (t_) t_->end(s_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int index() const { return s_; }

 private:
  Tracer* t_;
  int s_;
};

// --------------------------------------------------------------- solve ---

/// Comm/transport meter deltas of one rank over the timed steps.
struct RankMeters {
  std::uint64_t wait_ns = 0;
  std::uint64_t wait_epochs = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t tcp_bytes = 0;
};

template <class Policy>
RankMeters read_meters(app::Simulation<Policy>& sim) {
  RankMeters m;
  if (!sim.distributed()) return m;
  const sim::Comm& comm = sim.dist().comm();
  m.wait_ns = comm.halo_wait_ns_total();
  m.wait_epochs = comm.halo_wait_epochs_total();
  m.wire_bytes = comm.bytes_exchanged();
  const sim::TransportStats ts = comm.transport().stats();
  m.frames = ts.frames_sent;
  m.tcp_bytes = ts.bytes_sent;
  return m;
}

void accumulate(RankMeters& acc, const RankMeters& before,
                const RankMeters& after) {
  acc.wait_ns += after.wait_ns - before.wait_ns;
  acc.wait_epochs += after.wait_epochs - before.wait_epochs;
  acc.wire_bytes += after.wire_bytes - before.wire_bytes;
  acc.frames += after.frames - before.frames;
  acc.tcp_bytes += after.tcp_bytes - before.tcp_bytes;
}

/// What the solve produced.  Rank 0 fills the timings; the traced-only
/// fields stay empty in an untraced solve.
struct Solve {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> step_s;
  std::uint64_t state_fnv = 0;
  std::vector<std::uint64_t> dt_fnv;    ///< One per rank.
  std::string unphysical;               ///< Why the final state is not
                                        ///< physical ("" if it is).
  std::vector<std::string> errors;      ///< One per rank; empty = clean.

  std::array<double, kNumPhases> phase_s{};  ///< Summed over timed steps.
  std::uint64_t sweeps = 0;                  ///< Over timed steps.
  std::vector<RankMeters> meters;            ///< One per rank.
  std::vector<double> health_s, save_s, load_s, allreduce_s;
  std::vector<double> widen_gbps, narrow_gbps;
  double ckpt_bytes = 0.0;
};

std::uintmax_t checkpoint_bytes(const fs::path& p) {
  std::error_code ec;
  const auto a = fs::file_size(p, ec);
  if (ec) return 0;
  const auto b = fs::file_size(fs::path(p.string() + ".sigma"), ec);
  return ec ? a : a + b;
}

void remove_checkpoint(const fs::path& p) {
  std::error_code ec;
  fs::remove(p, ec);
  fs::remove(fs::path(p.string() + ".sigma"), ec);
}

/// binary16 lane throughput over one state component (GB/s of bytes read
/// plus bytes written, one sample per pass).
void probe_half_lanes(const common::Field3<common::half>& comp, Solve& out) {
  const std::size_t n = comp.size_with_ghosts();
  std::vector<float> wide(n);
  std::vector<common::half> narrow(n);
  const double bytes = static_cast<double>(n) * (2.0 + 4.0);
  for (int pass = 0; pass < 5; ++pass) {
    auto t0 = Clock::now();
    common::convert_to_float(comp.data(), wide.data(), n);
    out.widen_gbps.push_back(bytes / seconds_since(t0) * 1e-9);
    t0 = Clock::now();
    common::convert_from_float(wide.data(), narrow.data(), n);
    out.narrow_gbps.push_back(bytes / seconds_since(t0) * 1e-9);
  }
}

/// The request every rank of the workload makes: explicit exec width and,
/// for R > 1, this rank's TCP endpoint rendezvousing in `dir`.
cases::RunOptions rank_options(const Config& cfg, int rank,
                               const fs::path& dir, bool phase_timing) {
  cases::RunOptions opts;
  opts.n = cfg.n;
  opts.exec = common::ExecBackend::kOpenMP;
  opts.threads = cfg.threads;
  opts.phase_timing = phase_timing;
  opts.comm_timeout_s = 30.0;
  if (cfg.ranks > 1) {
    opts.ranks = {1, 1, cfg.ranks};
    opts.transport.kind = sim::TransportSpec::Kind::kTcp;
    opts.transport.world = cfg.ranks;
    opts.transport.rank = rank;
    opts.transport.dir = (dir / "rendezvous").string();
  }
  return opts;
}

/// Run body(rank) for every rank: on the calling thread for one rank, else
/// one thread per rank.
template <class F>
void for_each_rank(int ranks, F&& body) {
  if (ranks == 1) {
    body(0);
    return;
  }
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) team.emplace_back(body, r);
  for (auto& t : team) t.join();
}

/// One rank's share of the solve.  `tr` is non-null on rank 0 of a traced
/// solve only; `traced` is set on every rank of a traced solve.
template <class Policy>
void solve_rank(const Config& cfg, const cases::CaseSpec& spec, int rank,
                const fs::path& dir, Clock::time_point t0, bool traced,
                Tracer* tr, int parent, Solve& out) {
  const cases::RunOptions opts = rank_options(cfg, rank, dir, traced);
  const bool root = rank == 0;

  std::unique_ptr<cases::CaseRun<Policy>> run;
  {
    Scope s(tr, "cases.CaseRun", parent, 0);
    run = std::make_unique<cases::CaseRun<Policy>>(spec, opts);
  }
  // The root's constructor returns only once every peer has joined the
  // fabric and contributed its block to the initial gather.
  if (root) out.setup_s = seconds_since(t0);

  auto& sim = run->sim();
  const common::PhaseProfile* prof = sim.local_phase_profile();
  RankMeters meters;
  fs::path last_ckpt;
  for (int s = 1; s <= kWarmup + kSteps; ++s) {
    const bool timed = s > kWarmup;
    if (traced && root && s == kWarmup + 1)
      out.sweeps = sim.sigma_sweeps_done();
    std::array<double, kNumPhases> ph0{};
    RankMeters m0;
    if (traced && timed) {
      if (prof)
        for (int p = 0; p < kNumPhases; ++p)
          ph0[static_cast<std::size_t>(p)] =
              prof->seconds(static_cast<common::PhaseProfile::Phase>(p));
      m0 = read_meters(sim);
    }
    {
      Scope span(tr, "cases.step", parent, s);
      const auto ts = Clock::now();
      run->step();
      if (root && timed) out.step_s.push_back(seconds_since(ts));
    }
    if (traced && timed) {
      accumulate(meters, m0, read_meters(sim));
      if (root && prof)
        for (int p = 0; p < kNumPhases; ++p)
          out.phase_s[static_cast<std::size_t>(p)] +=
              prof->seconds(static_cast<common::PhaseProfile::Phase>(p)) -
              ph0[static_cast<std::size_t>(p)];
    }
    if (cfg.ckpt_every > 0 && s % cfg.ckpt_every == 0) {
      // The guarded runner's order: scan health, then save (both are
      // collectives every rank enters).
      auto th = Clock::now();
      app::SolverHealth h;
      {
        Scope hs(tr, "app.health", parent, s);
        h = sim.health();
      }
      if (root && traced) out.health_s.push_back(seconds_since(th));
      if (!h.healthy(false))
        throw std::runtime_error("unhealthy state at step " +
                                 std::to_string(s) + ": " + h.describe());
      const fs::path path = dir / ("jet.ckpt" + std::to_string(s));
      th = Clock::now();
      {
        Scope cs(tr, "io.save_checkpoint", parent, s);
        run->save_checkpoint(path.string());
      }
      if (root) {
        if (traced) {
          out.save_s.push_back(seconds_since(th));
          out.ckpt_bytes = static_cast<double>(checkpoint_bytes(path));
        }
        // Keep only the newest checkpoint (the one a read-back needs).
        if (!last_ckpt.empty()) remove_checkpoint(last_ckpt);
        last_ckpt = path;
      }
    }
  }
  if (root && traced) out.sweeps = sim.sigma_sweeps_done() - out.sweeps;

  {
    Scope rs(tr, "cases.result", parent, 0);
    const cases::RunResult res = run->result();
    if (root) {
      out.state_fnv = res.state_fnv;
      const app::FlowDiagnostics& d = res.diag;
      // A diverged state has NaN energies and an empty density range.
      if (!(std::isfinite(d.kinetic_energy) && std::isfinite(d.max_density) &&
            d.min_density > 0.0 && d.min_density <= d.max_density)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "final state diverged (rho in [%g, %g], KE %g)",
                      d.min_density, d.max_density, d.kinetic_energy);
        out.unphysical = buf;
      }
    }
    out.dt_fnv[static_cast<std::size_t>(rank)] = res.dt_fnv;
  }

  if (traced) {
    if (!sim.distributed()) {
      const auto th = Clock::now();
      {
        Scope hs(tr, "app.health", parent, 0);
        (void)sim.health();
      }
      out.health_s.push_back(seconds_since(th));
      if constexpr (std::is_same_v<typename Policy::storage_t, common::half>) {
        Scope hs(tr, "common.half_lanes", parent, 0);
        probe_half_lanes(sim.state()[0], out);
      }
    } else {
      constexpr int kRounds = 200;
      const sim::Comm& comm = sim.dist().comm();
      const auto ta = Clock::now();
      {
        Scope as(tr, "sim.allreduce_min", parent, 0);
        for (int i = 0; i < kRounds; ++i)
          (void)comm.allreduce_min_global(static_cast<double>(rank + i));
      }
      if (root) out.allreduce_s.push_back(seconds_since(ta) / kRounds);
      if (root && !last_ckpt.empty()) {
        const auto tl = Clock::now();
        {
          Scope ls(tr, "io.load_checkpoint", parent, 0);
          run->load_checkpoint(last_ckpt.string());
        }
        out.load_s.push_back(seconds_since(tl));
      }
    }
  }

  {
    Scope ds(tr, "cases.~CaseRun", parent, 0);
    run.reset();
  }
  out.meters[static_cast<std::size_t>(rank)] = meters;
}

template <class Policy>
Solve run_solve(const Config& cfg, const cases::CaseSpec& spec, Tracer* tr) {
  const fs::path dir = cfg.dir / "solve";
  fs::create_directories(dir);
  const auto R = static_cast<std::size_t>(cfg.ranks);
  Solve out;
  out.dt_fnv.assign(R, 0);
  out.errors.assign(R, "");
  out.meters.assign(R, RankMeters{});
  const bool traced = tr != nullptr;

  const auto t0 = Clock::now();
  {
    Scope solve_span(tr, "solve", -1, 0);
    const int parent = solve_span.index();
    for_each_rank(cfg.ranks, [&](int r) {
      try {
        solve_rank<Policy>(cfg, spec, r, dir, t0, traced,
                           r == 0 ? tr : nullptr, parent, out);
      } catch (const std::exception& e) {
        out.errors[static_cast<std::size_t>(r)] = e.what();
      } catch (...) {
        out.errors[static_cast<std::size_t>(r)] = "unknown exception";
      }
    });
  }
  out.wall_s = seconds_since(t0);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return out;
}

/// Simulation construction + initial condition through the app layer
/// directly (the part of the case set-up the cases layer delegates).
template <class Policy>
double probe_app_init(const Config& cfg, const cases::CaseSpec& spec,
                      Tracer* tr) {
  const fs::path dir = cfg.dir / "init";
  fs::create_directories(dir);
  double root_s = 0.0;
  std::vector<std::string> errors(static_cast<std::size_t>(cfg.ranks));
  for_each_rank(cfg.ranks, [&](int r) {
    try {
      const cases::RunOptions opts = rank_options(cfg, r, dir, false);
      const auto t0 = Clock::now();
      std::unique_ptr<app::Simulation<Policy>> sim;
      {
        Scope s(r == 0 ? tr : nullptr, "app.Simulation+init", -1, 0);
        sim = std::make_unique<app::Simulation<Policy>>(
            opts.to_params<Policy>(spec));
        sim->init(spec.initial());
      }
      if (r == 0) root_s = seconds_since(t0);
    } catch (const std::exception& e) {
      errors[static_cast<std::size_t>(r)] = e.what();
    }
  });
  std::error_code ec;
  fs::remove_all(dir, ec);
  for (const auto& e : errors)
    if (!e.empty()) throw std::runtime_error("app init probe: " + e);
  return root_s;
}

/// One Team::barrier() round at the workload's width (median over batches).
double probe_barrier_us(int width, Tracer* tr) {
  constexpr int kRounds = 2000;
  const common::ExecSpace ex(common::ExecBackend::kOpenMP, width);
  std::vector<double> us;
  for (int b = 0; b < 7; ++b) {
    Scope s(tr, "common.exec_barrier", -1, b);
    const auto t0 = Clock::now();
    ex.run_team([&](const common::ExecSpace::Team& t) {
      for (int i = 0; i < kRounds; ++i) t.barrier();
    });
    us.push_back(seconds_since(t0) * 1e6 / kRounds);
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

// -------------------------------------------------------------- output ---

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string hex(std::uint64_t v) {
  char b[24];
  std::snprintf(b, sizeof(b), "0x%016" PRIx64, v);
  return b;
}

/// Failure reason of the solve ("" when it passed every check).
std::string check_solve(const Config& cfg, const Solve& s) {
  for (std::size_t r = 0; r < s.errors.size(); ++r)
    if (!s.errors[r].empty())
      return "rank " + std::to_string(r) + ": " + s.errors[r];
  if (!s.unphysical.empty()) return s.unphysical;
  for (std::size_t r = 1; r < s.dt_fnv.size(); ++r)
    if (s.dt_fnv[r] != s.dt_fnv[0])
      return "rank " + std::to_string(r) + " dt_fnv " + hex(s.dt_fnv[r]) +
             " != rank 0 " + hex(s.dt_fnv[0]);
  if (cfg.expect_state && s.state_fnv != *cfg.expect_state)
    return "state_fnv " + hex(s.state_fnv) + " != expected " +
           hex(*cfg.expect_state);
  if (cfg.expect_dt && s.dt_fnv[0] != *cfg.expect_dt)
    return "dt_fnv " + hex(s.dt_fnv[0]) + " != expected " +
           hex(*cfg.expect_dt);
  return {};
}

std::string number(double v) {
  char b[32];
  std::snprintf(b, sizeof(b), "%.12g", std::isfinite(v) ? v : 0.0);
  return b;
}
std::string string_value(const std::string& s) {
  return "\"" + common::telemetry::json_escape(s) + "\"";
}

/// Append `"key": value` to a JSON object body.
void put(std::string& o, const std::string& key, const std::string& value) {
  if (!o.empty() && o.back() != '{') o += ", ";
  o += "\"" + key + "\": " + value;
}
void put(std::string& o, const std::string& key, double v) {
  put(o, key, number(v));
}
void put(std::string& o, const std::string& key,
         const std::vector<double>& v) {
  std::string a = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    a += (i ? ", " : "") + number(v[i]);
  put(o, key, a + "]");
}

template <class Policy>
void run(const Config& cfg) {
  const cases::CaseSpec* registered = cases::find("jet-single");
  if (!registered) throw std::logic_error("case registry lost 'jet-single'");
  cases::CaseSpec spec = *registered;
  const double noise = cfg.noise;
  spec.initial = [noise]() -> core::PrimFn {
    return app::single_engine().initial_condition(noise);
  };

  Tracer tracer;
  Tracer* tr = cfg.trace.empty() ? nullptr : &tracer;
  const Solve s = run_solve<Policy>(cfg, spec, tr);
  const std::string failure = check_solve(cfg, s);
  if (!failure.empty())
    std::fprintf(stderr, "igr_stepbench: solve failed: %s\n", failure.c_str());

  std::string o = "{";
  put(o, "failure", string_value(failure));
  put(o, "state_fnv", string_value(hex(s.state_fnv)));
  put(o, "dt_fnv", string_value(hex(s.dt_fnv[0])));
  put(o, "cells", static_cast<double>(spec.grid(cfg.n).cells()));
  put(o, "warmup_steps", kWarmup);
  put(o, "timed_steps", kSteps);
  put(o, "setup_s", s.setup_s);
  put(o, "wall_s", s.wall_s);
  put(o, "step_s", s.step_s);
  // Before the probes, which allocate on their own.
  put(o, "peak_rss_mb", peak_rss_mb());

  if (tr) {
    RankMeters m;  // Summed over ranks.
    for (const RankMeters& r : s.meters) accumulate(m, {}, r);
    std::string t = "{";
    put(t, "phase_s",
        std::vector<double>(s.phase_s.begin(), s.phase_s.end()));
    put(t, "sigma_sweeps", static_cast<double>(s.sweeps));
    put(t, "halo_wait_s", 1e-9 * static_cast<double>(m.wait_ns));
    put(t, "halo_epochs", static_cast<double>(m.wait_epochs));
    put(t, "wire_bytes", static_cast<double>(m.wire_bytes));
    put(t, "frames", static_cast<double>(m.frames));
    put(t, "tcp_bytes", static_cast<double>(m.tcp_bytes));
    put(t, "health_s", s.health_s);
    put(t, "ckpt_write_s", s.save_s);
    put(t, "ckpt_read_s", s.load_s);
    put(t, "ckpt_bytes", s.ckpt_bytes);
    put(t, "allreduce_s", s.allreduce_s);
    put(t, "half_widen_gbps", s.widen_gbps);
    put(t, "half_narrow_gbps", s.narrow_gbps);
    put(t, "app_init_s", probe_app_init<Policy>(cfg, spec, tr));
    put(t, "exec_barrier_us", probe_barrier_us(cfg.threads, tr));

    if (!common::telemetry::write_trace(cfg.trace, {tracer.chrome_fragment()}))
      throw std::runtime_error("cannot write trace " + cfg.trace);
    // Self time per span name.
    std::map<std::string, double> self_ms;
    const auto self = tracer.self_ns();
    for (std::size_t i = 0; i < self.size(); ++i)
      self_ms[tracer.spans()[i].name] += 1e-6 * static_cast<double>(self[i]);
    std::string st = "{";
    for (const auto& [name, ms] : self_ms) put(st, name, ms);
    put(t, "self_ms", st + "}");
    put(o, "traced", t + "}");
  }

  std::string b = "{";
  put(b, "compiler", string_value(IGR_BENCH_COMPILER));
  put(b, "build_type", string_value(IGR_BENCH_BUILD_TYPE));
  put(b, "flags", string_value(IGR_BENCH_FLAGS));
  put(o, "build", b + "}");
  std::printf("%s}\n", o.c_str());
}

std::uint64_t parse_hex(cli::Args& args) {
  const char* f = args.flag();
  const char* s = args.value();
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 16);
  if (end == s || *end != '\0' || errno == ERANGE)
    args.die(std::string("bad ") + f + " '" + s + "' (not a hex fingerprint)");
  return static_cast<std::uint64_t>(v);
}

/// Cores this process may run on.
int usable_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cli::Args args("igr_stepbench", argc, argv);
  while (args.next()) {
    if (args.is("--precision")) {
      cfg.precision = args.choice_value({"fp64", "fp16x32"}) == 0
                          ? cases::Precision::kFp64
                          : cases::Precision::kFp16x32;
    } else if (args.is("--n")) {
      cfg.n = args.int_value(8, 512);
    } else if (args.is("--ranks")) {
      cfg.ranks = args.int_value(1, 64);
    } else if (args.is("--threads")) {
      cfg.threads = args.int_value(1, 256);
    } else if (args.is("--ckpt-every")) {
      cfg.ckpt_every = args.int_value(0, 100000);
    } else if (args.is("--noise")) {
      cfg.noise = args.double_value();
    } else if (args.is("--dir")) {
      cfg.dir = args.value();
    } else if (args.is("--trace")) {
      cfg.trace = args.value();
    } else if (args.is("--expect-state")) {
      cfg.expect_state = parse_hex(args);
    } else if (args.is("--expect-dt")) {
      cfg.expect_dt = parse_hex(args);
    } else {
      args.die(std::string("unknown flag ") + args.flag());
    }
  }
  if (cfg.dir.empty()) args.die("--dir is required");

  // Fixed core budget: every rank's exec team is explicit, the OpenMP
  // runtime agrees with it, and the compute threads fit the cores.
  const int compute = cfg.ranks * cfg.threads;
  if (compute > usable_cores())
    args.die("workload needs " + std::to_string(compute) +
             " compute threads but only " + std::to_string(usable_cores()) +
             " cores are usable");
#ifdef _OPENMP
  if (omp_get_max_threads() != cfg.threads)
    args.die("OMP_NUM_THREADS must equal --threads (" +
             std::to_string(cfg.threads) + "), the runtime reports " +
             std::to_string(omp_get_max_threads()));
#endif

  std::error_code ec;
  if (fs::exists(cfg.dir, ec)) args.die("--dir must not exist yet");
  fs::create_directories(cfg.dir);
  int rc = 0;
  try {
    if (cfg.precision == cases::Precision::kFp64)
      run<common::Fp64>(cfg);
    else
      run<common::Fp16x32>(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "igr_stepbench: %s\n", e.what());
    rc = 1;
  }
  fs::remove_all(cfg.dir, ec);
  return rc;
}
