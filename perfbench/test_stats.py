#!/usr/bin/env python3
"""Self-tests of the benchmark's helpers: python3 perfbench/test_stats.py"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import stats  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0

    def now(self):
        return self.t

    def sleep_until(self, t):
        self.t = max(self.t, t)


def simulate_session(clock, due, service, depth):
    """One session fed open loop: a generator submits each request at its due
    time (or later, when a full queue of `depth` blocks it) and one server
    handles requests in order. Returns (submitted, start, end) per request."""
    submitted, start, end = [], [], []
    server_free = 0
    for i, d in enumerate(due):
        clock.sleep_until(d)
        # kBlock: the generator waits until the request `depth` places ahead
        # has left the queue (started service).
        if i >= depth:
            clock.sleep_until(start[i - depth])
        submitted.append(clock.now())
        st = max(submitted[-1], server_free)
        start.append(st)
        server_free = st + service[i]
        end.append(server_free)
    return submitted, start, end


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.beyond(1000, 99.0), 10)
        self.assertEqual(stats.tail(list(range(1000))), (99.0, 989))
        # 999 samples leave only 9 beyond p99, so p95 is the reported tail.
        self.assertEqual(stats.tail(list(range(999)))[0], 95.0)
        self.assertEqual(stats.tail(list(range(200)))[0], 95.0)
        self.assertEqual(stats.tail(list(range(100)))[0], 90.0)
        self.assertEqual(stats.tail(list(range(10000)))[0], 99.9)

    def test_tail_omitted_when_too_few_samples(self):
        self.assertIsNone(stats.tail(list(range(39))))
        self.assertIsNone(stats.tail(list(range(1000)), candidates=(99.9,)))


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [10.0] * 4 + [11.0, 9.0] + [10.0] * 4
        self.assertEqual(stats.spread(values), 0.0)
        q1, q2, q3 = statistics.quantiles(list(range(1, 11)), n=4)
        self.assertAlmostEqual(stats.spread(list(range(1, 11))), (q3 - q1) / q2)

    def test_spread_needs_two_values(self):
        with self.assertRaises(ValueError):
            stats.spread([1.0])


class OpenLoopTest(unittest.TestCase):
    def test_stall_makes_later_requests_of_the_session_late(self):
        clock = FakeClock()
        due = [10 * i for i in range(10)]
        service = [5] * 10
        service[3] = 100  # one stalled request
        submitted, start, end = simulate_session(clock, due, service, depth=2)
        lat = stats.due_latencies(due, end)
        self.assertEqual(lat[:3], [5, 5, 5])
        self.assertEqual(lat[3], 100 + 5 - 5)
        # Every later request waits behind the stall.
        for i in range(4, 10):
            self.assertGreater(lat[i], service[i], i)
        # The generator was blocked, so its submit times slid; latency from
        # submission would hide part of the wait that due-time latency shows.
        self.assertGreater(submitted[6], due[6])
        from_submit = [e - s for s, e in zip(submitted, end)]
        self.assertLess(from_submit[6], lat[6])
        # Dispatch wait: ready (submitted, previous done) to start is zero for
        # a serial server with no round barrier.
        self.assertEqual(stats.dispatch_waits(submitted, start, end), [0] * 10)

    def test_backlog(self):
        due = [0, 10, 20, 30]
        end = [5, 40, 45, 50]
        self.assertEqual(stats.backlog(due, end, 0), 1)
        self.assertEqual(stats.backlog(due, end, 35), 3)
        self.assertEqual(stats.backlog(due, end, 60), 0)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        spans = [
            ("segment", 0, 100, -1),
            ("condense", 10, 60, 0),
            ("update", 50, 80, 0),  # overlaps condense: covered once
            ("segment", 100, 150, -1),
        ]
        self.assertEqual(stats.self_times(spans), [30, 50, 30, 50])
        table = stats.span_table(spans)
        self.assertEqual(table["segment"], {"count": 2, "total": 150, "self": 80})
        self.assertEqual(stats.top_level_union(spans), 150)

    def test_union_of_overlapping_intervals(self):
        self.assertEqual(stats.union_length([(0, 10), (5, 15), (20, 30)]), 25)
        self.assertEqual(stats.union_length([]), 0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_run_py(self):
        import run
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
        self.assertEqual(e2e, run.END_TO_END)
        layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]), sorted(run.WORKLOADS))

    def test_every_layer_metric_has_a_rationale(self):
        import run
        with open(os.path.join(HERE, "rationale.json")) as f:
            rationale = json.load(f)
        for name, _, _ in run.PER_LAYER:
            base = name.split(".", 1)[1] if name.split(".", 1)[0] in rationale["parts"] else name
            self.assertIn(base, rationale["per_layer"], name)


if __name__ == "__main__":
    unittest.main()
