// Benchmark-side tracing: spans recorded around calls into the library's
// public API, kept in memory and written out when the run ends.
//
// Each span has a name, a start and an end (steady-clock nanoseconds), the
// span that was open on the same thread when it began (its parent), the
// recording thread and a request id (session, segment index). A span without
// an explicit request id inherits its parent's. Recording is off unless
// enabled, and then costs one branch per span.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds since the first call in the process.
int64_t now_ns();

struct Request {
  int32_t session = -1;
  int64_t seq = -1;
};

struct Span {
  const char* name = nullptr;  ///< string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 at top level
  int32_t tid = 0;
  Request request;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  /// Removes and returns every span recorded so far. Call only while no
  /// span is open.
  std::vector<Span> take();

  /// Times the rest of the enclosing block.
  class Scope {
   public:
    explicit Scope(const char* name, Request request = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    int32_t index_ = -1;
  };

 private:
  friend class Scope;
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

Tracer& tracer();

}  // namespace perfbench
