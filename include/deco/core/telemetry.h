// Runtime telemetry: a global metrics registry plus scoped tracing.
//
// Three primitives, all safe to call from any thread:
//
//   * Counters / gauges / histograms — named metrics registered once (the
//     registration interns the name and assigns shard slots under a mutex)
//     and updated lock-free afterwards: every update is ONE relaxed atomic
//     add into the calling thread's private shard, so instrumented hot loops
//     never contend. `snapshot()` merges the live shards plus the folded
//     totals of already-exited threads.
//
//   * Scoped spans — `DECO_TRACE_SCOPE("condense/match")` times the enclosing
//     block. Each completed span bumps the site's count/total-ns aggregate
//     (shard slots, same as counters) and appends one event to the calling
//     thread's fixed-size ring buffer. The rings export as Chrome
//     `trace_event` JSON (load in chrome://tracing or Perfetto); the
//     aggregates export as flat JSON alongside every other metric.
//
//   * Exporters — `snapshot()` (structured), `aggregate_json()` /
//     `write_chrome_trace()` (serialized), and an at-exit hook: set
//     `DECO_TELEMETRY_JSON=<path>` (aggregate) and/or
//     `DECO_TELEMETRY_TRACE=<path>` (Chrome trace) in the environment and the
//     process writes the files when it exits.
//
// Telemetry must never perturb the numerics it observes. Instrumentation only
// reads clocks and bumps integers — it never touches tensor data, rng
// streams, chunking decisions, or allocation order of the instrumented code —
// and tests/telemetry_determinism_test.cpp proves byte-identical learner
// results with telemetry on vs off at 1/2/4 threads. Two kill switches exist:
// `DECO_TELEMETRY=0` in the environment (or `set_enabled(false)`) makes every
// record call take one predicted-false branch and return; building with
// -DDECO_TELEMETRY_COMPILED=0 (CMake: -DDECO_TELEMETRY=OFF) folds `enabled()`
// to a compile-time constant so the optimizer deletes the record calls
// entirely. Registration still happens in both cases — handles stay valid,
// they just count nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "deco/core/clock.h"
#include "deco/core/workspace.h"

#ifndef DECO_TELEMETRY_COMPILED
#define DECO_TELEMETRY_COMPILED 1
#endif

namespace deco::core::telemetry {

namespace detail {

// Runtime master switch. Initialized from DECO_TELEMETRY before main (static
// initializer in telemetry.cpp); relaxed reads are enough because toggling is
// a test/benchmark affordance, not a synchronization point.
extern std::atomic<bool> g_enabled;

/// Registry-owned immutable histogram layout (stable address for the
/// lifetime of the process).
struct HistInfo {
  std::vector<int64_t> upper_edges;  ///< ascending; bucket i is v <= edge[i]
  uint32_t first_slot = 0;           ///< edges.size()+1 bucket-count slots
  uint32_t sum_slot = 0;             ///< running sum of observed values
};

void shard_add(uint32_t slot, int64_t delta);
void hist_observe(const HistInfo& info, int64_t value);
int32_t span_enter();  ///< bumps the thread's nesting depth, returns the old one

}  // namespace detail

/// True when telemetry is recording. Compiled out to a constant false when
/// DECO_TELEMETRY_COMPILED is 0.
inline bool enabled() {
#if DECO_TELEMETRY_COMPILED
  return detail::g_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Runtime toggle (tests, overhead measurement). Updates made while disabled
/// are dropped, not buffered.
void set_enabled(bool on);

// ---- metric handles ---------------------------------------------------------

/// Monotonic counter. `add` is the hot-path operation: one branch + one
/// relaxed atomic add into the calling thread's shard.
class Counter {
 public:
  explicit Counter(uint32_t slot) : slot_(slot) {}
  void add(int64_t n = 1) {
    if (!enabled()) return;
    detail::shard_add(slot_, n);
  }

 private:
  uint32_t slot_;
};

/// Last-write-wins instantaneous value, plus a monotonic-max flavor for
/// high-water marks. Gauges are process-global (not sharded): a "current
/// value" has no meaningful per-thread merge.
class Gauge {
 public:
  explicit Gauge(std::atomic<int64_t>* cell) : cell_(cell) {}
  void set(int64_t v) {
    if (!enabled()) return;
    cell_->store(v, std::memory_order_relaxed);
  }
  void note_max(int64_t v) {
    if (!enabled()) return;
    int64_t cur = cell_->load(std::memory_order_relaxed);
    while (v > cur &&
           !cell_->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<int64_t>* cell_;
};

/// Fixed-bucket histogram of int64 values (nanoseconds, bytes, counts).
/// Bucket i counts v <= upper_edges[i] (first match); the final implicit
/// bucket counts everything above the last edge.
class Histogram {
 public:
  explicit Histogram(const detail::HistInfo* info) : info_(info) {}
  void observe(int64_t v) {
    if (!enabled()) return;
    detail::hist_observe(*info_, v);
  }

 private:
  const detail::HistInfo* info_;
};

/// Registers (or finds) a metric by name. Registration takes a mutex — call
/// once and keep the handle (function-local static at the instrumentation
/// site, or a cached member). Returned references live for the process.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
/// `upper_edges` must be ascending and non-empty; on re-registration of an
/// existing name the original edges win and the argument is ignored.
Histogram& histogram(std::string_view name, std::vector<int64_t> upper_edges);

// ---- scoped spans -----------------------------------------------------------

/// One instrumentation site: interned name plus its two aggregate slots.
struct SpanSite {
  const char* name = nullptr;  ///< interned, stable for the process lifetime
  uint32_t count_slot = 0;
  uint32_t ns_slot = 0;
};

/// Registers (or finds) a span site by name. Same cost model as counter().
SpanSite& span_site(std::string_view name);

/// RAII timer for one span. Captures the enabled state at construction so a
/// mid-span toggle cannot produce a half-recorded event.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanSite& site) {
    if (!enabled()) return;
    site_ = &site;
    depth_ = detail::span_enter();
    start_ns_ = now_ns();
  }
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSite* site_ = nullptr;
  int64_t start_ns_ = 0;
  int32_t depth_ = 0;
};

#define DECO_TELEM_CAT2(a, b) a##b
#define DECO_TELEM_CAT(a, b) DECO_TELEM_CAT2(a, b)

/// Times the rest of the enclosing block under `name` (a string literal or
/// other expression yielding a stable name). The site lookup runs once per
/// call site (function-local static); each execution costs two clock reads
/// and three shard adds when telemetry is on, one branch when it is off.
#define DECO_TRACE_SCOPE(name)                                        \
  static ::deco::core::telemetry::SpanSite& DECO_TELEM_CAT(           \
      deco_telem_site_, __LINE__) =                                   \
      ::deco::core::telemetry::span_site(name);                       \
  ::deco::core::telemetry::ScopedSpan DECO_TELEM_CAT(deco_telem_span_,\
                                                     __LINE__)(       \
      DECO_TELEM_CAT(deco_telem_site_, __LINE__))

// ---- snapshot & export ------------------------------------------------------

struct CounterValue {
  std::string name;
  int64_t value = 0;
};

struct GaugeValue {
  std::string name;
  int64_t value = 0;
};

struct HistogramValue {
  std::string name;
  std::vector<int64_t> upper_edges;
  std::vector<int64_t> counts;  ///< upper_edges.size()+1 entries (last = overflow)
  int64_t sum = 0;
  int64_t count() const {
    int64_t n = 0;
    for (int64_t c : counts) n += c;
    return n;
  }
};

struct SpanAggregate {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
};

/// One completed span occurrence, for the Chrome trace export.
struct TraceEvent {
  const char* name = nullptr;
  int64_t ts_ns = 0;   ///< start, steady-clock ns since process start
  int64_t dur_ns = 0;
  int32_t tid = 0;     ///< telemetry thread id (registration order)
  int32_t depth = 0;   ///< span nesting depth at entry (0 = outermost)
};

/// Point-in-time merge of every shard (live and retired). Values observed
/// with relaxed loads: exact once the writers are quiescent, momentarily
/// approximate while they are not.
struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  std::vector<SpanAggregate> spans;
  MemStatsSnapshot memstats;   ///< mirrored from core::memstats()
  WorkspaceStats workspace;    ///< mirrored from Workspace::aggregate()

  /// Value of a counter by name, 0 when absent (test convenience).
  int64_t counter_value(std::string_view name) const;
  /// Span aggregate by name, nullptr when absent.
  const SpanAggregate* span(std::string_view name) const;
};

Snapshot snapshot();

/// Completed span events from every ring buffer (live threads plus events
/// folded from exited threads), sorted by start time. Rings are fixed-size:
/// each thread keeps its most recent events and the export counts what was
/// overwritten (see dropped_events()).
std::vector<TraceEvent> trace_events();

/// Span events discarded so far because a thread's ring wrapped.
int64_t dropped_events();

/// Zeroes every metric, span aggregate and ring buffer. Registrations and
/// handles stay valid. Call only while instrumented code is quiescent —
/// concurrent updates may be lost, which is the point of a reset.
void reset();

/// Flat aggregate JSON of a snapshot: {"counters": {...}, "gauges": {...},
/// "histograms": {...}, "spans": {...}, "memstats": {...}, "workspace": ...}.
std::string aggregate_json(const Snapshot& snap);

/// snapshot() + aggregate_json() to a file. Throws deco::Error on I/O failure.
void write_aggregate_json(const std::string& path);

/// Chrome trace_event JSON ("X" complete events) of trace_events(). Throws
/// deco::Error on I/O failure.
void write_chrome_trace(const std::string& path);

}  // namespace deco::core::telemetry
