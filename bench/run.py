"""Benchmark of the weylgroupoid library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src, never from an installed copy.  Each workload runs in its own fresh
interpreter, one process at a time, with no threads.

--trace 0 starts four set-up-only processes and one measured process and
reports the end-to-end metrics named in BENCHMARK.json: throughput,
median and 90th-percentile query latency, set-up time (median of the
five set-ups), and peak RSS.  The timed phase runs in slices of whole
schedule cycles with a fixed reference block of pure-Python work timed
between them.  Every time is scaled to the core speed at which that block
takes child.REFERENCE_NOMINAL_NS (see child.scaled_latencies), because
the speed of a shared core drifts by tens of percent from one minute to
the next; the unscaled figures are printed too.

--trace 1 runs a fixed prefix of the same query stream traced,
alternating slice by slice with an untraced copy, and reports the
per-layer metrics; its spans go to bench/out/trace-<workload>-seed<N>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric
with its unit, the failure ratio and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from child import REFERENCE_NOMINAL_NS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORK = os.path.join(HERE, "_work")
WORKLOADS = ("element-queries", "braid-rewriting", "classify-scan", "cli-oneshot")
SETUP_REPEATS = 5
TOTAL_BUDGET_S = 170.0
CLI_COMMANDS = ("validate", "roots", "reduce", "eq", "braid", "longest", "enumerate",
                "act", "from-cartan", "from-bichar")


class ChildFailed(RuntimeError):
    pass


def environment() -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "profiler": "none: no machine-wide profiler is available; timings are "
                    "in-process clocks and spans recorded by this benchmark",
    }


def _commit() -> str:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "weylgroupoid")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def spawn(mode: str, args, deadline: float, tag: str) -> dict:
    """Run one workload process to completion and return its JSON result."""
    workdir = os.path.join(WORK, f"{args.workload}-{mode}-{os.getpid()}-{tag}")
    started = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--spawned-at", repr(started), "--src", SRC, "--workdir", workdir]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process exceeded the time budget") from None
    if p.returncode != 0 or not p.stdout.strip():
        raise ChildFailed(f"{mode} process exited {p.returncode}: {p.stderr.strip()[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def timed_run(args, deadline):
    setups = [spawn("setup", args, deadline, str(k)) for k in range(SETUP_REPEATS - 1)]
    res = spawn("run", args, deadline, "run")
    setups.append(res)
    metrics = {
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_p90_ms": (res["op_p90_ms"], "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    n = res["attempted"]
    notes = [
        f"samples = {n} queries in {res['slices']} slices, {n - -(-n * 9 // 10)} beyond p90",
        f"failed_ratio = {res['failed'] / n!r} ({res['failed']} of {n})",
        f"reference block = {res['reference_ms']!r} ms median (nominal {REFERENCE_NOMINAL_NS / 1e6:g} ms); unscaled "
        f"ops_per_s {res['raw_ops_per_s']!r}, op_p50_ms {res['raw_op_p50_ms']!r}",
        f"setup_s samples = {[s['setup_s'] for s in setups]!r}, unscaled {[s['raw_setup_s'] for s in setups]!r}",
        f"check_s = {res['check_s']!r} (oracle checks, outside the timed queries)",
    ]
    notes += _defect_notes(res)
    return res, metrics, notes


def trace_run(args, deadline):
    traced = spawn("trace", args, deadline, "trace")
    layers, counts, spans = traced["layers"], traced["counts"], traced["spans"]

    def share(num, calls):
        return num / layers[calls] if layers.get(calls) else 0.0

    bichar_calls = layers.get("constructors.from_bicharacter.calls", 0)
    not_arithmetic = counts.get("constructors.from_bicharacter.raised.NotArithmeticError", 0)
    values = dict(layers)
    values.update(counts)
    values.update({
        "roots.generate_roots.finite_ratio":
            share(counts.get("roots.generate_roots.finite", 0), "roots.generate_roots.calls"),
        "constructors.from_bicharacter.arithmetic_ratio":
            share(bichar_calls - not_arithmetic, "constructors.from_bicharacter.calls"),
        "bench.check_ms": traced["check_s"] * 1e3,
        "bench.trace_overhead_ratio": traced["trace_overhead_ratio"],
        "bench.spans": len(spans),
        "bench.known_defects_open": 0,
    })
    for cmd in CLI_COMMANDS:
        durs = [s["dur_us"] for s in spans if s["name"] == f"cli.{cmd}"]
        values[f"cli.{cmd}.wall_ms"] = statistics.median(durs) / 1e3 if durs else 0.0
    cli = traced.get("cli")
    if cli:
        values["cli.interpreter_ms"] = cli["interpreter_ms"]
        values["cli.import_ms"] = cli["import_ms"]
        values["bench.known_defects_open"] = sum(v is not None for v in cli["known_defects"].values())

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = json.load(fh)["per_layer"]
    metrics = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in wanted}

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"environment": environment(), "workload": args.workload, "seed": args.seed,
                   "queries": traced["traced_queries"], "metrics": {k: v[0] for k, v in metrics.items()},
                   "counts": counts, "spans": spans}, fh)
    notes = [
        f"traced prefix = {traced['traced_queries']} queries, each also run untraced in alternating "
        f"slices; spans written to {os.path.relpath(path, ROOT)}",
        f"tracing overhead = {traced['trace_overhead_ratio']!r} (median over slice pairs of traced "
        "over untraced query time)",
    ]
    notes += _defect_notes(traced)
    return traced, metrics, notes


def _defect_notes(res):
    cli = res.get("cli")
    if not cli:
        return []
    probes = cli["known_defects"]
    open_ = {k: v for k, v in probes.items() if v is not None}
    lines = [f"known_defects_open = {len(open_)} of {len(probes)} probes on the affine A1 scheme "
             "that fails axiom 5 (run after the timed phase, not counted as queries)"]
    lines += [f"  {k}: {v}" for k, v in open_.items()]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "weylgroupoid", "__init__.py")):
        print(f"error: no library source at {SRC}/weylgroupoid; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = started + TOTAL_BUDGET_S
    try:
        res, metrics, notes = (trace_run if args.trace else timed_run)(args, deadline)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    print("# environment " + json.dumps(environment()))
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for line in notes:
        print(line)
    for line in res["failures"]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
