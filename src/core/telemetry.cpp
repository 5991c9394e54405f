#include "deco/core/telemetry.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "deco/tensor/check.h"

namespace deco::core::telemetry {

namespace detail {

std::atomic<bool> g_enabled{true};

namespace {

// Slot budget per shard. Each counter takes one slot, each span site two,
// each histogram edges+2. Exhaustion is a programming error (metrics are
// registered by code, not by user input) and fails loudly.
constexpr uint32_t kMaxSlots = 1024;
// Per-thread span ring capacity. 24 B/event -> ~192 KiB per tracing thread.
constexpr size_t kRingCap = 8192;
// Events preserved from exited threads (pool rebuilds in tests would
// otherwise grow this without bound). Oldest retired events drop first.
constexpr size_t kRetiredEventCap = 1 << 16;

struct Event {
  const char* name;
  int64_t ts_ns;
  int64_t dur_ns;
  int32_t tid;
  int32_t depth;
};

struct Shard;

// Global mutable state behind one mutex (registration, shard lifecycle,
// snapshot/reset). Leaky singleton: never destroyed, so at-exit exporters and
// late TLS destructors can always use it.
struct Global {
  std::mutex mu;

  // ---- registry (append-only; deques keep handle addresses stable) ----
  uint32_t next_slot = 0;
  std::deque<Counter> counters;
  std::deque<std::string> counter_names;
  std::deque<uint32_t> counter_slots;
  std::unordered_map<std::string, Counter*> counter_by_name;

  std::deque<std::atomic<int64_t>> gauge_cells;
  std::deque<Gauge> gauges;
  std::deque<std::string> gauge_names;
  std::unordered_map<std::string, Gauge*> gauge_by_name;

  std::deque<HistInfo> hist_infos;
  std::deque<Histogram> histograms;
  std::deque<std::string> hist_names;
  std::unordered_map<std::string, Histogram*> hist_by_name;

  std::deque<std::string> interned;  // span-site (and dynamic) name storage
  std::deque<SpanSite> span_sites;
  std::unordered_map<std::string, SpanSite*> span_by_name;

  // ---- shard lifecycle ----
  std::vector<Shard*> shards;         // live per-thread shards
  int64_t retired[kMaxSlots] = {};    // folded totals of exited threads
  std::deque<Event> retired_events;   // ring contents of exited threads
  int64_t dropped_events = 0;         // ring overwrites, process-wide
  int32_t next_tid = 0;

  uint32_t alloc_slots(uint32_t n) {
    DECO_CHECK(next_slot + n <= kMaxSlots,
               "telemetry: metric slot budget exhausted");
    const uint32_t first = next_slot;
    next_slot += n;
    return first;
  }
};

Global& global() {
  static Global* g = new Global();
  return *g;
}

// Per-thread metric shard + span ring. Registered with the global list on
// construction, folded into the retired totals on thread exit.
struct Shard {
  std::atomic<int64_t> slots[kMaxSlots];
  std::vector<Event> ring;  // allocated lazily on the first span
  size_t ring_next = 0;
  int64_t ring_total = 0;   // events ever pushed (>= ring.size())
  std::atomic<int64_t> dropped{0};  // ring overwrites (read by exporters)
  int32_t tid = 0;
  int32_t depth = 0;        // live span nesting depth on this thread

  Shard() {
    for (auto& s : slots) s.store(0, std::memory_order_relaxed);
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    tid = g.next_tid++;
    g.shards.push_back(this);
  }

  ~Shard() {
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    for (uint32_t i = 0; i < kMaxSlots; ++i)
      g.retired[i] += slots[i].load(std::memory_order_relaxed);
    g.dropped_events += dropped.load(std::memory_order_relaxed);
    const size_t n = std::min(ring.size(), static_cast<size_t>(ring_total));
    for (size_t i = 0; i < n; ++i)
      g.retired_events.push_back(ring[i]);
    while (g.retired_events.size() > kRetiredEventCap) {
      g.retired_events.pop_front();
      ++g.dropped_events;
    }
    g.shards.erase(std::remove(g.shards.begin(), g.shards.end(), this),
                   g.shards.end());
  }

  void push_event(const char* name, int64_t ts, int64_t dur, int32_t d) {
    if (ring.empty()) ring.resize(kRingCap);
    if (ring_total >= static_cast<int64_t>(kRingCap))
      dropped.fetch_add(1, std::memory_order_relaxed);  // overwrites oldest
    ring[ring_next] = Event{name, ts, dur, tid, d};
    ring_next = (ring_next + 1) % kRingCap;
    ++ring_total;
  }
};

Shard& tls_shard() {
  thread_local Shard shard;
  return shard;
}

// Reads the env switches and registers the at-exit exporters. Runs during
// static initialization of this translation unit, i.e. before main.
struct EnvInit {
  EnvInit() {
    if (const char* e = std::getenv("DECO_TELEMETRY");
        e != nullptr &&
        (std::strcmp(e, "0") == 0 || std::strcmp(e, "off") == 0 ||
         std::strcmp(e, "false") == 0)) {
      g_enabled.store(false, std::memory_order_relaxed);
    }
    if (std::getenv("DECO_TELEMETRY_JSON") != nullptr) {
      std::atexit([] {
        const char* path = std::getenv("DECO_TELEMETRY_JSON");
        if (path != nullptr && *path != '\0') write_aggregate_json(path);
      });
    }
    if (std::getenv("DECO_TELEMETRY_TRACE") != nullptr) {
      std::atexit([] {
        const char* path = std::getenv("DECO_TELEMETRY_TRACE");
        if (path != nullptr && *path != '\0') write_chrome_trace(path);
      });
    }
  }
};
EnvInit g_env_init;

// Sums a slot over every live shard plus the retired totals. Caller holds mu.
int64_t merged_slot(Global& g, uint32_t slot) {
  int64_t v = g.retired[slot];
  for (const Shard* s : g.shards)
    v += s->slots[slot].load(std::memory_order_relaxed);
  return v;
}

void json_escape(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xF]
             << "0123456789abcdef"[c & 0xF];
        else
          os << c;
    }
  }
}

}  // namespace

void shard_add(uint32_t slot, int64_t delta) {
  tls_shard().slots[slot].fetch_add(delta, std::memory_order_relaxed);
}

void hist_observe(const HistInfo& info, int64_t value) {
  const auto& edges = info.upper_edges;
  uint32_t bucket = 0;
  while (bucket < edges.size() && value > edges[bucket]) ++bucket;
  Shard& s = tls_shard();
  s.slots[info.first_slot + bucket].fetch_add(1, std::memory_order_relaxed);
  s.slots[info.sum_slot].fetch_add(value, std::memory_order_relaxed);
}

int32_t span_enter() { return tls_shard().depth++; }

}  // namespace detail

using detail::global;
using detail::Global;
using detail::merged_slot;
using detail::Shard;
using detail::tls_shard;

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Counter& counter(std::string_view name) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  const std::string key(name);
  if (auto it = g.counter_by_name.find(key); it != g.counter_by_name.end())
    return *it->second;
  const uint32_t slot = g.alloc_slots(1);
  g.counter_names.push_back(key);
  g.counter_slots.push_back(slot);
  g.counters.emplace_back(slot);
  g.counter_by_name.emplace(key, &g.counters.back());
  return g.counters.back();
}

Gauge& gauge(std::string_view name) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  const std::string key(name);
  if (auto it = g.gauge_by_name.find(key); it != g.gauge_by_name.end())
    return *it->second;
  g.gauge_names.push_back(key);
  g.gauge_cells.emplace_back(0);
  g.gauges.emplace_back(&g.gauge_cells.back());
  g.gauge_by_name.emplace(key, &g.gauges.back());
  return g.gauges.back();
}

Histogram& histogram(std::string_view name, std::vector<int64_t> upper_edges) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  const std::string key(name);
  if (auto it = g.hist_by_name.find(key); it != g.hist_by_name.end())
    return *it->second;
  DECO_CHECK(!upper_edges.empty(), "telemetry: histogram needs edges");
  DECO_CHECK(std::is_sorted(upper_edges.begin(), upper_edges.end()),
             "telemetry: histogram edges must ascend");
  detail::HistInfo info;
  info.upper_edges = std::move(upper_edges);
  info.first_slot =
      g.alloc_slots(static_cast<uint32_t>(info.upper_edges.size()) + 2);
  info.sum_slot =
      info.first_slot + static_cast<uint32_t>(info.upper_edges.size()) + 1;
  g.hist_infos.push_back(std::move(info));
  g.hist_names.push_back(key);
  g.histograms.emplace_back(&g.hist_infos.back());
  g.hist_by_name.emplace(key, &g.histograms.back());
  return g.histograms.back();
}

SpanSite& span_site(std::string_view name) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  const std::string key(name);
  if (auto it = g.span_by_name.find(key); it != g.span_by_name.end())
    return *it->second;
  g.interned.push_back(key);
  SpanSite site;
  site.name = g.interned.back().c_str();
  site.count_slot = g.alloc_slots(2);
  site.ns_slot = site.count_slot + 1;
  g.span_sites.push_back(site);
  g.span_by_name.emplace(key, &g.span_sites.back());
  return g.span_sites.back();
}

ScopedSpan::~ScopedSpan() {
  if (site_ == nullptr) return;
  const int64_t dur = now_ns() - start_ns_;
  Shard& s = tls_shard();
  s.depth = depth_;  // unwind to the entry depth (robust to toggles mid-span)
  s.slots[site_->count_slot].fetch_add(1, std::memory_order_relaxed);
  s.slots[site_->ns_slot].fetch_add(dur, std::memory_order_relaxed);
  s.push_event(site_->name, start_ns_, dur, depth_);
}

int64_t Snapshot::counter_value(std::string_view name) const {
  for (const CounterValue& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

const SpanAggregate* Snapshot::span(std::string_view name) const {
  for (const SpanAggregate& s : spans)
    if (s.name == name) return &s;
  return nullptr;
}

Snapshot snapshot() {
  Snapshot out;
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);

  out.counters.reserve(g.counters.size());
  for (size_t i = 0; i < g.counter_names.size(); ++i)
    out.counters.push_back(
        {g.counter_names[i], merged_slot(g, g.counter_slots[i])});

  out.gauges.reserve(g.gauges.size());
  {
    size_t i = 0;
    for (const auto& cell : g.gauge_cells) {
      out.gauges.push_back(
          {g.gauge_names[i], cell.load(std::memory_order_relaxed)});
      ++i;
    }
  }

  out.histograms.reserve(g.hist_infos.size());
  {
    size_t i = 0;
    for (const detail::HistInfo& info : g.hist_infos) {
      HistogramValue hv;
      hv.name = g.hist_names[i++];
      hv.upper_edges = info.upper_edges;
      hv.counts.resize(info.upper_edges.size() + 1);
      for (size_t b = 0; b < hv.counts.size(); ++b)
        hv.counts[b] = merged_slot(g, info.first_slot + static_cast<uint32_t>(b));
      hv.sum = merged_slot(g, info.sum_slot);
      out.histograms.push_back(std::move(hv));
    }
  }

  out.spans.reserve(g.span_sites.size());
  for (const SpanSite& site : g.span_sites) {
    SpanAggregate agg;
    agg.name = site.name;
    agg.count = merged_slot(g, site.count_slot);
    agg.total_ns = merged_slot(g, site.ns_slot);
    out.spans.push_back(std::move(agg));
  }

  out.memstats = memstats();
  out.workspace = Workspace::aggregate();
  return out;
}

std::vector<TraceEvent> trace_events() {
  std::vector<TraceEvent> out;
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  for (const detail::Event& e : g.retired_events)
    out.push_back({e.name, e.ts_ns, e.dur_ns, e.tid, e.depth});
  for (const Shard* s : g.shards) {
    const size_t n =
        std::min(s->ring.size(), static_cast<size_t>(s->ring_total));
    for (size_t i = 0; i < n; ++i) {
      const detail::Event& e = s->ring[i];
      out.push_back({e.name, e.ts_ns, e.dur_ns, e.tid, e.depth});
    }
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.ts_ns < b.ts_ns;
  });
  return out;
}

int64_t dropped_events() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  int64_t n = g.dropped_events;
  for (const Shard* s : g.shards)
    n += s->dropped.load(std::memory_order_relaxed);
  return n;
}

void reset() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  std::fill(g.retired, g.retired + detail::kMaxSlots, int64_t{0});
  g.retired_events.clear();
  g.dropped_events = 0;
  for (Shard* s : g.shards) {
    for (auto& slot : s->slots) slot.store(0, std::memory_order_relaxed);
    s->ring_next = 0;
    s->ring_total = 0;
    s->dropped.store(0, std::memory_order_relaxed);
  }
  for (auto& cell : g.gauge_cells) cell.store(0, std::memory_order_relaxed);
}

std::string aggregate_json(const Snapshot& snap) {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i ? ", " : "") << "\n    \"";
    detail::json_escape(os, snap.counters[i].name);
    os << "\": " << snap.counters[i].value;
  }
  os << "\n  },\n  \"gauges\": {";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    os << (i ? ", " : "") << "\n    \"";
    detail::json_escape(os, snap.gauges[i].name);
    os << "\": " << snap.gauges[i].value;
  }
  os << "\n  },\n  \"histograms\": {";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramValue& h = snap.histograms[i];
    os << (i ? ", " : "") << "\n    \"";
    detail::json_escape(os, h.name);
    os << "\": {\"upper_edges\": [";
    for (size_t b = 0; b < h.upper_edges.size(); ++b)
      os << (b ? ", " : "") << h.upper_edges[b];
    os << "], \"counts\": [";
    for (size_t b = 0; b < h.counts.size(); ++b)
      os << (b ? ", " : "") << h.counts[b];
    os << "], \"sum\": " << h.sum << ", \"count\": " << h.count() << "}";
  }
  os << "\n  },\n  \"spans\": {";
  for (size_t i = 0; i < snap.spans.size(); ++i) {
    const SpanAggregate& s = snap.spans[i];
    os << (i ? ", " : "") << "\n    \"";
    detail::json_escape(os, s.name);
    os << "\": {\"count\": " << s.count << ", \"total_ns\": " << s.total_ns
       << "}";
  }
  os << "\n  },\n  \"memstats\": {"
     << "\"tensor_heap_allocs\": " << snap.memstats.tensor_heap_allocs
     << ", \"tensor_heap_bytes\": " << snap.memstats.tensor_heap_bytes
     << ", \"tensor_pool_hits\": " << snap.memstats.tensor_pool_hits
     << ", \"workspace_blocks\": " << snap.memstats.workspace_blocks
     << ", \"workspace_bytes\": " << snap.memstats.workspace_bytes
     << ", \"hot_allocs\": " << snap.memstats.hot_allocs() << "},\n"
     << "  \"workspace\": {"
     << "\"arenas\": " << snap.workspace.arenas
     << ", \"bytes_reserved\": " << snap.workspace.bytes_reserved
     << ", \"high_water_bytes\": " << snap.workspace.high_water_bytes << "}\n"
     << "}\n";
  return os.str();
}

void write_aggregate_json(const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  DECO_CHECK(os.is_open(), "telemetry: cannot open " + path);
  os << aggregate_json(snapshot());
  os.flush();
  DECO_CHECK(static_cast<bool>(os), "telemetry: write failed: " + path);
}

void write_chrome_trace(const std::string& path) {
  const std::vector<TraceEvent> events = trace_events();
  std::ofstream os(path, std::ios::trunc);
  DECO_CHECK(os.is_open(), "telemetry: cannot open " + path);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    os << (i ? ",\n" : "\n") << "  {\"name\": \"";
    detail::json_escape(os, e.name);
    // Chrome trace timestamps are microseconds (double).
    os << "\", \"cat\": \"deco\", \"ph\": \"X\", \"ts\": "
       << static_cast<double>(e.ts_ns) / 1e3
       << ", \"dur\": " << static_cast<double>(e.dur_ns) / 1e3
       << ", \"pid\": 1, \"tid\": " << e.tid
       << ", \"args\": {\"depth\": " << e.depth << "}}";
  }
  os << "\n]}\n";
  os.flush();
  DECO_CHECK(static_cast<bool>(os), "telemetry: write failed: " + path);
}

}  // namespace deco::core::telemetry
