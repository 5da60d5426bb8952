/// \file telemetry.hpp
/// Run-telemetry subsystem: a process-wide metrics registry (counters,
/// gauges, time histograms) plus a span/event recorder feeding the two
/// observability sinks — the per-step JSONL stream (`run_case --telemetry`)
/// and the Chrome trace_event export (`run_case --trace`, one pid row per
/// rank; open in Perfetto or chrome://tracing).
///
/// Design contract (mirrors common::PhaseProfile):
///   - **Zero overhead when disabled.**  Every recording call is gated on
///     one relaxed atomic-bool load; disabled sites cost a predicted branch
///     and touch no other state.  The gate defaults to off and is flipped
///     once at run setup (cases::CaseRun arms it when a sink is requested),
///     never on a hot path.
///   - **Lock-free fast path when enabled.**  Counter/gauge/histogram
///     updates are relaxed atomics; the registry mutex is taken only at
///     name lookup (call sites cache the returned reference).  Span/event
///     recording takes a mutex, but spans are recorded at step granularity
///     (a handful per step), never per cell or per plane.
///   - **Provably inert.**  Telemetry only *reads* simulation state and the
///     wall clock; it never touches floating-point fields or scheduling, so
///     state and dt fingerprints are bitwise-identical with it on or off
///     (test-enforced in tests/test_telemetry.cpp).
///
/// Cross-process merging: timestamps are steady_clock ns relative to a
/// process-local epoch, and the system_clock time of that epoch is recorded
/// alongside — Chrome `ts` fields are emitted on the wall clock, so traces
/// serialized by different rank processes (gathered to the IO root over
/// `Transport::send_blob`) land on one common timeline.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace igr::common::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The process-wide gate.  One relaxed load; safe from any thread.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// ----------------------------------------------------------------- metrics --

/// Monotonic event count.  add() is one relaxed fetch_add when enabled and
/// a predicted branch when not.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    if (enabled()) v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written sample (stored as the double's bit pattern).
class Gauge {
 public:
  void set(double v);
  [[nodiscard]] double value() const;
  void reset() { bits_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> bits_{0};
};

/// Duration accumulator: count / sum / min / max in nanoseconds.  Enough to
/// answer "how many, how long, how spiky" without bucket bookkeeping.
class Histogram {
 public:
  void record(std::uint64_t ns);
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// 0 when empty.
  [[nodiscard]] std::uint64_t min() const;
  [[nodiscard]] std::uint64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Find-or-create a named metric.  References stay valid for the process
/// lifetime (node-based storage) — look up once, cache, then update
/// lock-free.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Per-member exec-space wait time (`exec.barrier_wait.m<member>`): what
/// ExecSpace::Team::barrier records.  Members past
/// the 63rd share the last histogram.  Registered on first use; the lookup
/// after that is lock-free.
Histogram& barrier_wait(int member);

struct HistogramRow {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
};

/// A point-in-time copy of every registered metric (names sorted).
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramRow> histograms;
};
Snapshot snapshot();

/// Zero every registered metric (registrations are kept).
void reset_metrics();

// ---------------------------------------------------------------- recorder --

/// The rank identity stamped into exported trace rows (Chrome `pid`).
/// Defaults to 0; cases::CaseRun sets the transport rank for TCP teams.
void set_rank(int rank);
int rank();

/// Steady-clock nanoseconds since the process telemetry epoch (captured on
/// first use), and the system_clock ns-since-Unix-epoch of that instant —
/// the pair that puts every process on one trace timeline.
std::int64_t now_ns();
std::int64_t wall_epoch_ns();

/// Record a completed span / an instant event.  `args_json` is the literal
/// body of the Chrome `args` object (no braces), e.g. `"step": 4` — empty
/// for none.  No-ops when disabled.
void record_span(std::string_view name, std::int64_t t0_ns,
                 std::int64_t dur_ns, std::string args_json = {});
void record_instant(std::string_view name, std::string args_json = {});

/// Drop all recorded spans/instants (metrics untouched).
void clear_events();
std::size_t event_count();

/// RAII span: samples the clock only when telemetry is enabled at entry.
class SpanScope {
 public:
  explicit SpanScope(const char* name)
      : name_(name), t0_(enabled() ? now_ns() : -1) {}
  ~SpanScope() {
    if (t0_ >= 0) record_span(name_, t0_, now_ns() - t0_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  std::int64_t t0_;
};

// ------------------------------------------------------------------- sinks --

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(std::string_view s);

/// Serialize this process's recorded spans/instants as comma-separated
/// Chrome trace_event objects (no enclosing brackets), stamped with `pid`
/// and a `process_name` metadata row — the per-rank fragment gathered to
/// the IO root.  Timestamps are wall-clock microseconds.
std::string chrome_events(int pid);

/// Write a Chrome trace_event file: a bare JSON array joining the non-empty
/// fragments (the format chrome://tracing and Perfetto load directly, and
/// whose trailing `]` igr_launch rewrites to append supervisor lifecycle
/// events).  Returns false if the file cannot be written.
bool write_trace(const std::string& path,
                 const std::vector<std::string>& fragments);

}  // namespace igr::common::telemetry
