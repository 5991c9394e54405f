// The library's one monotonic clock.
//
// Every duration the library reports — spans, queue waits, condense_seconds(),
// the runners' wall times — reads this clock. It is steady_clock, so a
// measurement is immune to wall-clock steps, and it does not depend on
// telemetry: it keeps working when telemetry is compiled out, because some of
// those durations (Table II's condensation time) are results, not
// instrumentation.
#pragma once

#include <cstdint>

namespace deco::core {

/// Monotonic nanoseconds since the clock's first reading in this process.
int64_t now_ns();

/// now_ns() in seconds.
double now_seconds();

}  // namespace deco::core
