#include "trace.h"

#include <atomic>
#include <chrono>

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

std::atomic<int32_t> g_next_tid{0};
thread_local const int32_t t_tid = g_next_tid.fetch_add(1);
thread_local std::vector<int32_t> t_open;  // indices of this thread's open spans
}  // namespace

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::vector<Span> Tracer::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

Tracer::Scope::Scope(const char* name, Request request) {
  Tracer& t = tracer();
  if (!t.enabled_.load(std::memory_order_relaxed)) return;
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.tid = t_tid;
  s.request = request;
  std::lock_guard<std::mutex> lock(t.mutex_);
  if (s.request.session < 0 && s.parent >= 0)
    s.request = t.spans_[static_cast<size_t>(s.parent)].request;
  index_ = static_cast<int32_t>(t.spans_.size());
  s.start_ns = now_ns();
  t.spans_.push_back(s);
  t_open.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  const int64_t end = now_ns();
  Tracer& t = tracer();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(t.mutex_);
  t.spans_[static_cast<size_t>(index_)].end_ns = end;
}

}  // namespace perfbench
