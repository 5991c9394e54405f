"""Statistics helpers of the DECO benchmark: percentiles, spreads, span self
times and open-loop latency accounting. perfbench/test_stats.py tests them."""

import math
import statistics
from fractions import Fraction

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer would make it the reading of one or two outliers.
MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n, p):
    # Exact arithmetic: 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def tail(values, candidates=TAIL_CANDIDATES):
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it, as (p, value); None when no candidate qualifies."""
    for p in sorted(candidates, reverse=True):
        if beyond(len(values), p) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) computes them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span self time: duration minus the time its children cover.

    `spans` is a list of (name, start, end, parent_index, ...) records, with
    parent_index -1 for top-level spans."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - union_length(children[i]) for i, s in enumerate(spans)]


def span_table(spans):
    """Aggregates spans by name: {name: {"count", "total", "self"}}."""
    table = {}
    for s, self_ns in zip(spans, self_times(spans)):
        row = table.setdefault(s[0], {"count": 0, "total": 0, "self": 0})
        row["count"] += 1
        row["total"] += s[2] - s[1]
        row["self"] += self_ns
    return table


def top_level_union(spans):
    return union_length([(s[1], s[2]) for s in spans if s[3] < 0])


def due_latencies(due, end):
    """Open-loop latency of each request: completion minus the time it was
    due, so a stall also charges the requests queued behind it."""
    return [e - d for d, e in zip(due, end)]


def dispatch_waits(submitted, start, end):
    """Per-request wait from 'input ready and its session idle' to service
    start, for requests of one session in service order."""
    waits = []
    prev_end = None
    for sub, st, en in zip(submitted, start, end):
        ready = sub if prev_end is None else max(sub, prev_end)
        waits.append(st - ready)
        prev_end = en
    return waits


def backlog(due, end, t):
    """Requests due at or before t and not yet completed at t."""
    return sum(1 for d, e in zip(due, end) if d <= t < e)
