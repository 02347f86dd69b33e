"""One workload process: set up, run the query loop, print one JSON line.

Started by run.py in a fresh interpreter, one at a time.  Modes:

  setup   set up and report the set-up time only
  run     set up, then run slices of queries for --seconds (untraced),
          timing a fixed reference block between slices
  trace   run a fixed prefix of the queries with spans and counts,
          alternating with an untraced copy to measure the overhead

Set-up time runs from --spawned-at, the parent's CLOCK_MONOTONIC reading
just before it started this process, to the end of set-up; one reference
block follows before the first timed query, and set-up time is scaled by
it like the query times.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from tracing import Tracer, make_api

QUERY_LIMIT_S = 30.0  # per-call limit for in-process queries
REFERENCE_NOMINAL_NS = 125_000_000  # reference block time at the nominal core speed
TRACE_SLICES = 8  # slices in the traced prefix, each also run untraced


class CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallTimeout()


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


_M = tuple(tuple((i * 7 + j * 3) % 5 - 2 for j in range(6)) for i in range(6))


def reference_ns():
    """Time a fixed block of pure-Python work that never touches the library.

    Small integer matrix products kept in a dict, the same kind of work
    the library does.  The core's speed drifts by tens of percent over
    seconds to minutes on a shared machine; timing this block next to the
    queries measures that drift so that it can be divided out.  The
    garbage collector is off during the block, because a collection would
    walk the workload's heap and tie the block's time to its size.
    """
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        a, seen = _M, {}
        for step in range(3000):
            a = tuple(tuple(sum(row[k] * _M[k][j] for k in range(6)) % 97 for j in range(6)) for row in a)
            seen[a] = step
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


def run_queries(queries, tracer):
    """Closed loop with one client: time each query once, then check it.

    Checks run outside the per-query clock.  Returns the latencies (ns),
    the failure messages and the check time (ns).
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    latencies, failures = [], []
    check_ns = 0
    for n, (kind, run, check) in enumerate(queries):
        qid = tracer.begin(f"bench.query.{kind}") if tracer else None
        signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
        t0 = time.perf_counter_ns()
        try:
            out, err = run(), None
        except CallTimeout:
            out, err = None, f"exceeded the {QUERY_LIMIT_S:g} s per-call limit"
        except Exception as e:  # any unexpected raise is a failed query
            out, err = None, f"raised {e!r}"
        t1 = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer:
            tracer.end(qid)
        latencies.append(t1 - t0)
        if err is None:
            err = check(out)
        check_ns += time.perf_counter_ns() - t1
        if err is not None:
            failures.append(f"({kind}): {err}")
    return latencies, failures, check_ns


def slice_of(queries, first, size):
    """``size`` queries from position ``first`` of the pool, wrapping around."""
    return [queries[(first + i) % len(queries)] for i in range(size)]


def scaled_latencies(slices, refs):
    """Latencies scaled to the nominal core speed, ascending.

    Slice k ran between reference blocks k and k + 1; its latencies are
    multiplied by the nominal block time over the mean of those two.
    """
    return sorted(
        lat * REFERENCE_NOMINAL_NS * 2 / (refs[k] + refs[k + 1])
        for k, lats in enumerate(slices) for lat in lats
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    sys.path.insert(0, args.src)
    import weylgroupoid

    here = os.path.realpath(os.path.dirname(weylgroupoid.__file__))
    if not here.startswith(os.path.realpath(args.src) + os.sep):
        print(f"weylgroupoid was imported from {here}, not from {args.src}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(args.workdir, sys.executable, args.src)
    os.makedirs(args.workdir)
    try:
        if args.mode == "trace":
            result = traced_run(wl, args.seed, ctx)
        else:
            result = timed_run(wl, args, ctx)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def timed_run(wl, args, ctx):
    """Set up; unless only timing set-up, run slices of queries for --seconds.

    A reference block runs right after set-up and after every slice.  The
    last slice starts before the deadline and runs to its end.
    """
    queries = wl.setup(args.seed, make_api(None), ctx)
    raw_setup_s = time.monotonic() - args.spawned_at
    refs = [reference_ns()]
    result = {"setup_s": raw_setup_s * REFERENCE_NOMINAL_NS / refs[0], "raw_setup_s": raw_setup_s}
    if args.mode == "setup":
        return result
    slices, failures, check_ns = [], [], 0
    deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
    while time.perf_counter_ns() < deadline:
        lats, fails, chk = run_queries(slice_of(queries, len(slices) * wl.slice_queries, wl.slice_queries), None)
        refs.append(reference_ns())
        slices.append(lats)
        failures += fails
        check_ns += chk
    usage = resource.RUSAGE_CHILDREN if wl is workloads.CliOneshot else resource.RUSAGE_SELF
    lat = scaled_latencies(slices, refs)
    raw = [x for lats in slices for x in lats]
    result.update(
        attempted=len(raw),
        failed=len(failures),
        failures=failures[:10],
        check_s=check_ns / 1e9,
        slices=len(slices),
        reference_ms=statistics.median(refs) / 1e6,
        raw_ops_per_s=len(raw) / (sum(raw) / 1e9),
        raw_op_p50_ms=statistics.median(raw) / 1e6,
        ops_per_s=len(lat) / (sum(lat) / 1e9),
        op_p50_ms=statistics.median(lat) / 1e6,
        op_p90_ms=percentile(lat, 90) / 1e6,
        peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024,
    )
    if wl is workloads.CliOneshot:
        result["cli"] = cli_extras(wl, ctx, None)
    return result


def traced_run(wl, seed, ctx):
    """A fixed prefix of the query stream, traced, with untraced twins.

    The traced queries and an untraced copy of the same queries run in
    alternating slices, so that the speed drift of a shared core cancels
    out of the tracing overhead, the median over slice pairs of traced
    over untraced time.  Spans and counts come from the traced half only.
    Count-only counters of the set-up go under ``bench.setup.``, so that
    the others cover the queries alone.
    """
    tracer = Tracer()
    tracer.counting(True, prefix="bench.setup.")
    setup_span = tracer.begin("bench.setup")
    traced = wl.setup(seed, make_api(tracer), ctx)
    tracer.end(setup_span)
    tracer.counting(False)
    plain = wl.setup(seed, make_api(None), ctx)

    attempted, failures, check_ns, ratios = 0, [], 0, []
    size = wl.slice_queries
    for first in range(0, TRACE_SLICES * size, size):
        tracer.counting(True)
        lat_t, fail_t, check_t = run_queries(slice_of(traced, first, size), tracer)
        tracer.counting(False)
        lat_p, fail_p, _ = run_queries(slice_of(plain, first, size), None)
        ratios.append(sum(lat_t) / sum(lat_p))
        attempted += 2 * size
        failures += fail_t + fail_p
        check_ns += check_t
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "traced_queries": TRACE_SLICES * size,
        "check_s": check_ns / 1e9,
        "trace_overhead_ratio": statistics.median(ratios) - 1,
        "layers": tracer.layer_totals(),
        "counts": dict(tracer.counts),
        "spans": tracer.dump(),
    }
    if wl is workloads.CliOneshot:
        result["cli"] = cli_extras(wl, ctx, tracer)
    return result


def cli_extras(wl, ctx, tracer):
    """Known-defect probes, and (traced) interpreter and import start-up."""
    probes = {name: check(workloads.cli_runner(ctx, argv, wl.probe_limit_s)())
              for name, argv, check in wl.probes(ctx)}
    extras = {"known_defects": probes}
    if tracer:
        def median_wall(cmd, reps=5):
            walls = []
            for _ in range(reps):
                t0 = time.perf_counter()
                subprocess.run(cmd, env=workloads.cli_env(ctx), check=True)
                walls.append(time.perf_counter() - t0)
            return statistics.median(walls) * 1e3

        bare = median_wall([ctx.python, "-c", "pass"])
        imported = median_wall([ctx.python, "-c", "import weylgroupoid.cli"])
        extras.update(interpreter_ms=bare, import_ms=imported - bare)
    return extras


if __name__ == "__main__":
    sys.exit(main())
