#include "deco/core/clock.h"

#include <chrono>

namespace deco::core {

int64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
      .count();
}

double now_seconds() { return 1e-9 * static_cast<double>(now_ns()); }

}  // namespace deco::core
