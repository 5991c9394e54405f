#!/usr/bin/env python3
"""DECO benchmark: builds the library from this checkout, runs the three
benchmark parts (deco_stream, condense_table2, fleet) on one workload and
prints their metrics.

    python3 perfbench/run.py --workload ipc10 --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run (the library's
telemetry switched off). --trace 1 runs every part untraced and then traced
and reports the per-layer metrics of the traced pass, the tracing overhead
and where the timed wall time went. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Build output, raw measurements and span files go to .bench_build/ at the
root of the checkout.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "perfbench_deco")

sys.dont_write_bytecode = True  # leave nothing behind in the source tree
sys.path.insert(0, HERE)
import stats  # noqa: E402

# Workload -> images per class of the deco_stream learner and of the Table II
# condense calls. The fleet part is the same on every workload.
WORKLOADS = {"ipc10": 10, "ipc1": 1}
THREADS = min(4, os.cpu_count() or 1)
RUN_TIMEOUT_S = 165
NS_PER_MS = 1e6
MB = 1024.0 * 1024.0
TABLE2_METHODS = ("dc", "dsa", "dm", "deco")

# (name, unit, better) of every metric; BENCHMARK.json lists the same.
# Gated end-to-end metrics are costs a shared machine cannot double: CPU time,
# memory and accuracy. On a shared 4-vCPU Xeon VM the wall-clock figures of
# the fork-join parts doubled for minutes at a time while their CPU time held
# (idle vCPUs woke slowly), so those are printed beside every result
# (WALL_CLOCK) but not gated.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("deco_stream.cpu_ms_per_seg", "ms", "lower"),
    ("deco_stream.acc_pct", "%", "higher"),
    ("condense_ms.dc", "ms", "lower"),
    ("condense_ms.dsa", "ms", "lower"),
    ("condense_ms.dm", "ms", "lower"),
    ("condense_ms.deco", "ms", "lower"),
    ("fleet.cpu_ms_per_seg", "ms", "lower"),
    ("fleet.acc_pct", "%", "higher"),
]
_STREAM_WALL = [("seg_per_s", "1/s", "higher"), ("lat_ms_p50", "ms", "lower")]
_FLEET_WALL = _STREAM_WALL + [("lat_ms_p99", "ms", "lower")]

_LEARNER = [
    ("learner.condense_ms", "ms", "lower"),
    ("learner.update_ms", "ms", "lower"),
    ("learner.rest_ms", "ms", "lower"),
    ("learner.updates", "count", "lower"),
    ("learner.retained_frac", "ratio", "higher"),
]
_CONDENSE = [
    ("condense.iterations", "count", "lower"),
    ("condense.matcher_passes", "count", "lower"),
    ("condense.ms_per_iter", "ms", "lower"),
    ("condense.rollbacks", "count", "lower"),
]
_KERNELS = [
    ("nn.forward_ms", "ms", "lower"),
    ("nn.forward_calls", "count", "lower"),
    ("nn.backward_ms", "ms", "lower"),
    ("nn.backward_calls", "count", "lower"),
    ("nn.embed_ms", "ms", "lower"),
    ("nn.embed_calls", "count", "lower"),
    ("gemm.calls", "count", "lower"),
    ("gemm.gflop", "GFLOP", "lower"),
    ("gemm.ms", "ms", "lower"),
    ("gemm.gflops", "GFLOP/s", "higher"),
    ("gemm.share", "ratio", "lower"),
    ("gemm.pack_mb", "MB", "lower"),
    ("mem.hot_allocs", "count", "lower"),
    ("mem.pool_cached_mb", "MB", "lower"),
    ("pool.jobs", "count", "lower"),
    ("pool.chunks", "count", "lower"),
    ("pool.chunks_per_job", "ratio", "lower"),
    ("proc.cpu_per_wall", "ratio", "lower"),
    ("proc.sys_share", "ratio", "lower"),
    ("trace_overhead_pct", "%", "lower"),
    ("trace.uncovered_share", "ratio", "lower"),
]
_RUNTIME = [
    ("runtime.queue_wait_ms_p50", "ms", "lower"),
    ("runtime.queue_wait_ms_p99", "ms", "lower"),
    ("runtime.dispatch_wait_ms_p50", "ms", "lower"),
    ("runtime.dispatch_wait_ms_p99", "ms", "lower"),
    ("runtime.service_ms_p50", "ms", "lower"),
    ("runtime.rounds", "count", "lower"),
    ("runtime.segments_per_round", "count", "higher"),
    ("runtime.checkpoint_ms", "ms", "lower"),
    ("runtime.checkpoints", "count", "lower"),
    ("queue.max_depth", "count", "lower"),
    ("queue.block_wait_ms", "ms", "lower"),
    ("gen.late_ms_max", "ms", "lower"),
    ("gen.backlog_start", "count", "lower"),
    ("gen.backlog_end", "count", "lower"),
]


def _prefixed(part, metrics):
    return [(part + "." + n, u, b) for n, u, b in metrics]


WALL_CLOCK = _prefixed("deco_stream", _STREAM_WALL) + _prefixed("fleet", _FLEET_WALL)
PER_LAYER = (
    _prefixed("deco_stream", _STREAM_WALL + _LEARNER + _CONDENSE + _KERNELS)
    + _prefixed("condense_table2", _CONDENSE + [("augment.ms", "ms", "lower")] + _KERNELS)
    + _prefixed("fleet", _FLEET_WALL + _LEARNER + _RUNTIME + _KERNELS)
    + [("setup.render_s", "s", "lower"), ("setup.pretrain_s", "s", "lower")]
)


class BenchError(Exception):
    pass


# ---- build and run -------------------------------------------------------------


def work_env(**extra):
    """Environment of child processes: temporary files stay in the checkout."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, **extra)


def build():
    os.makedirs(BUILD, exist_ok=True)
    env = work_env()
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(THREADS), "--target", "perfbench_deco"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                raise BenchError("build failed: %s (see %s)" % (" ".join(cmd), log.name))


def run_harness(workload, seed, seconds, trace):
    out_dir = os.path.join(WORK, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    out = os.path.join(out_dir, tag + ".json")
    scratch = os.path.join(WORK, "scratch", "%s-%d" % (tag, os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    env = work_env(DECO_TELEMETRY="0", DECO_NUM_THREADS=str(THREADS))
    for var in ("DECO_TELEMETRY_JSON", "DECO_TELEMETRY_TRACE"):
        env.pop(var, None)
    cmd = [BINARY, "--out", out, "--scratch", scratch, "--ipc", str(WORKLOADS[workload]),
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(THREADS),
           # setup_s, the median of three set-ups, is reported by untraced runs only.
           "--setups", "1" if trace else "3"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("harness did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("harness exited %d: %s" % (proc.returncode, proc.stderr.strip()))
    with open(out) as f:
        return json.load(f), out


# ---- metrics -------------------------------------------------------------------


def _untraced(passes):
    return [p for p in passes if not p["traced"]]


def _traced(passes):
    found = [p for p in passes if p["traced"]]
    if len(found) != 1:
        raise BenchError("expected one traced pass, found %d" % len(found))
    return found[0]


def _ms(ns):
    return ns / NS_PER_MS


def _p99(values):
    found = stats.tail(values, candidates=(99.0,))
    if found is None:
        raise BenchError("%d samples are too few for a p99" % len(values))
    return found[1]


def fleet_steady(p):
    """Per-session steady-phase records of one fleet pass:
    [(due, submit_begin, submit_end, start, end)] in service order."""
    sessions = p["sessions"]
    per = p["steady_per_session"] + p["burst_per_session"]
    if len(p["start_ns"]) != sessions * per:
        raise BenchError("fleet: %d of %d segments processed" % (len(p["start_ns"]), sessions * per))
    out = []
    for s in range(sessions):
        rows = []
        for k in range(p["steady_per_session"]):
            i = s * per + k
            rows.append((p["due_ns"][i], p["submit_begin_ns"][i], p["submit_end_ns"][i],
                         p["start_ns"][i], p["end_ns"][i]))
        out.append(rows)
    return out


def fleet_burst_rate(p):
    per = p["steady_per_session"] + p["burst_per_session"]
    ends = [p["end_ns"][s * per + k] for s in range(p["sessions"])
            for k in range(p["steady_per_session"], per)]
    return len(ends) / ((max(ends) - p["burst_t0_ns"]) / 1e9)


def _cpu_ms(p):
    return (p["cpu_user_us"] + p["cpu_sys_us"]) / 1e3


def stream_wall(passes):
    lat = [x for p in passes for x in p["lat_ns"]]
    m = {"seg_per_s": len(lat) / (sum(p["wall_ns"] for p in passes) / 1e9),
         "lat_ms_p50": _ms(stats.median(lat))}
    return m, {"seg_per_s": len(passes), "lat_ms_p50": len(lat)}


def fleet_wall(p):
    steady = [row for rows in fleet_steady(p) for row in rows]
    lat = stats.due_latencies([r[0] for r in steady], [r[4] for r in steady])
    m = {"seg_per_s": fleet_burst_rate(p), "lat_ms_p50": _ms(stats.median(lat)),
         "lat_ms_p99": _ms(_p99(lat))}
    return m, {"seg_per_s": p["sessions"] * p["burst_per_session"], "lat_ms_p50": len(lat),
               "lat_ms_p99": len(lat)}


def end_to_end(raw):
    """Gated metrics plus the WALL_CLOCK figures, and their sample counts."""
    parts = raw["parts"]
    m = {"setup_s": stats.median(raw["setup"]["cpu_s"]),
         "peak_rss_mb": raw["peak_rss_kb"] / 1024.0}
    counts = {"setup_s": len(raw["setup"]["cpu_s"]), "peak_rss_mb": 1}

    ds = _untraced(parts["deco_stream"]["passes"])
    segments = sum(len(p["lat_ns"]) for p in ds)
    m["deco_stream.cpu_ms_per_seg"] = sum(_cpu_ms(p) for p in ds) / segments
    m["deco_stream.acc_pct"] = parts["deco_stream"]["acc_pct"]
    counts.update({"deco_stream.cpu_ms_per_seg": segments, "deco_stream.acc_pct": 1})
    wall, n = stream_wall(ds)
    m.update({"deco_stream." + k: v for k, v in wall.items()})
    counts.update({"deco_stream." + k: v for k, v in n.items()})

    # Per-call thread CPU time: the calls run on one thread each, and unlike
    # wall time it leaves out the time a busy host takes the vCPU away.
    phases = _untraced(parts["condense_table2"]["phases"])
    for i, method in enumerate(TABLE2_METHODS):
        calls = [c for p in phases for c in p["call_cpu_ns"][i]]
        m["condense_ms." + method] = _ms(stats.median(calls))
        counts["condense_ms." + method] = len(calls)

    fp = _untraced(parts["fleet"]["passes"])[0]
    m["fleet.cpu_ms_per_seg"] = _cpu_ms(fp) / len(fp["start_ns"])
    m["fleet.acc_pct"] = fp["acc_pct"]
    counts.update({"fleet.cpu_ms_per_seg": len(fp["start_ns"]), "fleet.acc_pct": fp["sessions"]})
    wall, n = fleet_wall(fp)
    m.update({"fleet." + k: v for k, v in wall.items()})
    counts.update({"fleet." + k: v for k, v in n.items()})
    return m, counts


def kernel_layers(p, overhead_pct):
    """nn / tensor / core figures of one traced pass, plus the tracing
    overhead measured against its untraced twin."""
    t = p["telemetry"]
    c, spans = t["counters"], t["spans"]
    span = lambda name: spans.get(name, {"count": 0, "total_ns": 0})  # noqa: E731
    busy = sum(s[2] - s[1] for s in p["spans"] if s[3] < 0)
    gemm_ns = span("tensor/gemm")["total_ns"]
    flops = c.get("gemm/flops", 0)
    cpu = p["cpu_user_us"] + p["cpu_sys_us"]
    jobs = c.get("pool/jobs", 0)
    return {
        "nn.forward_ms": _ms(span("nn/forward")["total_ns"]),
        "nn.forward_calls": span("nn/forward")["count"],
        "nn.backward_ms": _ms(span("nn/backward")["total_ns"]),
        "nn.backward_calls": span("nn/backward")["count"],
        "nn.embed_ms": _ms(span("nn/embed")["total_ns"]),
        "nn.embed_calls": span("nn/embed")["count"],
        "gemm.calls": c.get("gemm/calls", 0),
        "gemm.gflop": flops / 1e9,
        "gemm.ms": _ms(gemm_ns),
        "gemm.gflops": flops / gemm_ns if gemm_ns else 0.0,
        "gemm.share": gemm_ns / busy if busy else 0.0,
        "gemm.pack_mb": c.get("gemm/pack_bytes", 0) / MB,
        "mem.hot_allocs": p["hot_allocs"],
        "mem.pool_cached_mb": p["pool_cached_bytes"] / MB,
        "pool.jobs": jobs,
        "pool.chunks": c.get("pool/chunks", 0),
        "pool.chunks_per_job": c.get("pool/chunks", 0) / jobs if jobs else 0.0,
        "proc.cpu_per_wall": cpu * 1e3 / p["wall_ns"],
        "proc.sys_share": p["cpu_sys_us"] / cpu if cpu else 0.0,
        "trace_overhead_pct": overhead_pct,
        "trace.uncovered_share": 1.0 - stats.top_level_union(p["spans"]) / p["wall_ns"],
    }


def overhead_pct(traced, untraced):
    return 100.0 * (traced / untraced - 1.0)


def learner_layers(p, segments):
    """deco-layer figures of one traced pass over `segments` segments."""
    update_ns = p["update_ns"]
    rest_ns = stats.span_table(p["spans"])["learner.segment"]["self"]
    return {
        "learner.condense_ms": _ms(sum(p["condense_ns"])) / segments,
        "learner.update_ms": _ms(sum(update_ns)) / len(update_ns) if update_ns else 0.0,
        "learner.rest_ms": _ms(rest_ns) / segments,
        "learner.updates": len(update_ns),
        "learner.retained_frac": p["retained"] / p["frames"],
    }


def per_layer(raw):
    parts = raw["parts"]
    m = {}

    ds_passes = parts["deco_stream"]["passes"]
    p, ref = _traced(ds_passes), _untraced(ds_passes)[0]
    tc = p["telemetry"]["counters"]
    iters = tc.get("condense/iterations", 0)
    layer = stream_wall([p])[0]
    layer.update(learner_layers(p, len(p["lat_ns"])))
    layer.update({
        "condense.iterations": iters,
        "condense.matcher_passes": tc.get("condense/matcher_passes", 0),
        "condense.ms_per_iter": _ms(sum(p["condense_ns"])) / iters if iters else 0.0,
        "condense.rollbacks": p["rollbacks"],
    })
    layer.update(kernel_layers(p, overhead_pct(p["wall_ns"], ref["wall_ns"])))
    m.update({"deco_stream." + k: v for k, v in layer.items()})

    phases = parts["condense_table2"]["phases"]
    p, ref = _traced(phases), _untraced(phases)[0]
    tc = p["telemetry"]["counters"]
    iters = tc.get("condense/iterations", 0)
    method = lambda q, name: q["call_ns"][TABLE2_METHODS.index(name)]  # noqa: E731
    layer = {
        "condense.iterations": iters,
        "condense.matcher_passes": tc.get("condense/matcher_passes", 0),
        "condense.ms_per_iter": _ms(sum(method(p, "deco"))) / iters if iters else 0.0,
        "condense.rollbacks": p["rollbacks"],
        "augment.ms": _ms(stats.median(method(ref, "dsa")) - stats.median(method(ref, "dc"))),
    }
    layer.update(kernel_layers(p, overhead_pct(p["wall_ns"], ref["wall_ns"])))
    m.update({"condense_table2." + k: v for k, v in layer.items()})

    fl_passes = parts["fleet"]["passes"]
    p, ref = _traced(fl_passes), _untraced(fl_passes)[0]
    sessions = fleet_steady(p)
    steady = [row for rows in sessions for row in rows]
    queue_wait = [st - due for due, _, _, st, _ in steady]
    dispatch = [w for rows in sessions
                for w in stats.dispatch_waits([r[2] for r in rows], [r[3] for r in rows],
                                              [r[4] for r in rows])]
    service = [en - st for _, _, _, st, en in steady]
    due = [r[0] for r in steady]
    end = [r[4] for r in steady]
    period_ns = 1e9 * p["sessions"] / p["steady_rate"]
    rounds_n = p["telemetry"]["counters"].get("runtime/rounds", 0)
    total_segments = len(p["start_ns"])
    layer = fleet_wall(p)[0]
    layer.update(learner_layers(p, total_segments))
    layer.update({
        "runtime.queue_wait_ms_p50": _ms(stats.median(queue_wait)),
        "runtime.queue_wait_ms_p99": _ms(_p99(queue_wait)),
        "runtime.dispatch_wait_ms_p50": _ms(stats.median(dispatch)),
        "runtime.dispatch_wait_ms_p99": _ms(_p99(dispatch)),
        "runtime.service_ms_p50": _ms(stats.median(service)),
        "runtime.rounds": rounds_n,
        "runtime.segments_per_round": total_segments / rounds_n if rounds_n else 0.0,
        "runtime.checkpoint_ms": _ms(stats.median(p["checkpoint_ns"])) if p["checkpoint_ns"] else 0.0,
        "runtime.checkpoints": p["checkpoints"],
        "queue.max_depth": max(p["queue_max_depth_%d" % s] for s in range(p["sessions"])),
        "queue.block_wait_ms": _ms(sum(p["queue_block_wait_ns_%d" % s] for s in range(p["sessions"]))),
        "gen.late_ms_max": _ms(max(sb - d for d, sb, _, _, _ in steady)),
        # Backlog one period into the steady phase and at its last arrival: a
        # rate below capacity keeps the second no larger than the first.
        "gen.backlog_start": stats.backlog(due, end, p["steady_t0_ns"] + period_ns),
        "gen.backlog_end": stats.backlog(due, end, max(due)),
    })
    # The open-loop schedule fixes the fleet's wall time; tracing shows in the
    # time the sessions spend processing.
    busy = lambda q: sum(b - a for a, b in zip(q["start_ns"], q["end_ns"]))  # noqa: E731
    layer.update(kernel_layers(p, overhead_pct(busy(p), busy(ref))))
    m.update({"fleet." + k: v for k, v in layer.items()})

    m["setup.render_s"] = stats.median(raw["setup"]["render_s"])
    m["setup.pretrain_s"] = stats.median(raw["setup"]["pretrain_s"])
    return m


def span_report(raw):
    """Lines showing where each part's traced wall time went, by span."""
    lines = []
    for part, key in (("deco_stream", "passes"), ("condense_table2", "phases"), ("fleet", "passes")):
        p = _traced(raw["parts"][part][key])
        wall = p["wall_ns"]
        covered = stats.top_level_union(p["spans"])
        threads = len({s[4] for s in p["spans"]})
        lines.append("  %s: wall %.1f ms, top-level spans (on %d threads) cover %.1f%%, uncovered %.1f%%"
                     % (part, _ms(wall), threads, 100.0 * covered / wall, 100.0 * (1 - covered / wall)))
        for name, row in sorted(stats.span_table(p["spans"]).items(), key=lambda kv: -kv[1]["self"]):
            lines.append("    %-20s n=%-5d total %10.1f ms  self %10.1f ms  self/wall %6.1f%%"
                         % (name, row["count"], _ms(row["total"]), _ms(row["self"]),
                            100.0 * row["self"] / wall))
    return lines


# ---- entry point ---------------------------------------------------------------


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    result = unittest.TextTestRunner(stream=open(os.devnull, "w"), verbosity=0).run(suite)
    if not result.wasSuccessful():
        raise BenchError("benchmark self-tests failed: run python3 perfbench/test_stats.py")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        self_test()
        build()
        raw, raw_path = run_harness(args.workload, args.seed, args.seconds, args.trace)
        if args.trace:
            values, counts = per_layer(raw), {}
            spec = PER_LAYER
        else:
            values, counts = end_to_end(raw)
            spec = END_TO_END
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    failures = list(raw["failures"])
    for name, _, _ in spec:
        v = values.get(name)
        if v is None or not math.isfinite(v):
            failures.append("metric %s is missing or not finite" % name)
    fp = raw["fingerprint"]
    print("perfbench %s seed=%d trace=%d: %s, nproc=%d, %s, flags '%s', telemetry compiled=%s"
          % (args.workload, args.seed, args.trace, fp["cpu_model"], fp["nproc"], fp["compiler"],
             fp["cmake_cxx_flags_release"], fp["telemetry_compiled"]))
    print("  threads: deco_stream=%d condense_table2=%d fleet=%d; raw results: %s"
          % (fp["deco_num_threads_deco_stream"], fp["deco_num_threads_condense_table2"],
             fp["deco_num_threads_fleet"], os.path.relpath(raw_path, ROOT)))
    for name, unit, _ in spec:
        n = counts.get(name)
        print("  %-45s %14.4f %-8s%s" % (name, values.get(name, float("nan")), unit,
                                          "" if n is None else " n=%d" % n))
    if not args.trace:
        for name, unit, _ in WALL_CLOCK:
            print("  %-45s %14.4f %-8s n=%d (wall clock, not gated)"
                  % (name, values[name], unit, counts[name]))
    if args.trace:
        print("  (trace_overhead_pct is set beside the <= 5% telemetry overhead gate)")
        for line in span_report(raw):
            print(line)
    for f in failures:
        print("  CHECK FAILED: %s" % f)
    result = {
        "correct": not failures and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in spec if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
