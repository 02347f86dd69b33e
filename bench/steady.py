"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/steady.py [--seed0 N] [--against bench/out/steady-....json]

Runs bench/run.py --trace 0 ten times on each workload in BENCHMARK.json,
one run at a time, for its run_seconds, with seeds seed0, seed0+1, ...
For every end-to-end metric it reports the median, the quartiles
(statistics.quantiles(n=4)) and the spread, the distance between the
quartiles as a share of the median.  The verdict fails when a spread is
above the metric's bound in BENCHMARK.json; a spread below a third of
the bound is marked "steady".  With --against, the medians are also
compared with an earlier result file, and the verdict fails when a
median got worse by more than its bound.  Results go to
bench/out/steady-<time>.json, with the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run as bench_run

RUNS = 10


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    with open(os.path.join(bench_run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--against", help="earlier steady-*.json to compare medians with")
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["workloads"]

    report = {"environment": bench_run.environment(), "runs": RUNS, "seconds": seconds,
              "seed0": args.seed0, "workloads": {}}
    verdict = True
    for wl in (w["name"] for w in spec["workloads"]):
        samples = {name: [] for name in bounds}
        for k in range(RUNS):
            cmd = [sys.executable, os.path.join(bench_run.HERE, "run.py"), "--workload", wl,
                   "--seed", str(args.seed0 + k), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.monotonic()
            p_ = subprocess.run(cmd, capture_output=True, text=True, cwd=bench_run.ROOT)
            if p_.returncode != 0:
                print(f"{wl} seed {args.seed0 + k}: exit {p_.returncode}\n{p_.stderr}", file=sys.stderr)
                return 1
            res = json.loads(p_.stdout.strip().splitlines()[-1])
            verdict &= res["correct"]
            for name in bounds:
                samples[name].append(res["metrics"][name]["value"])
            print(f"{wl} seed {args.seed0 + k}: correct={res['correct']} attempted={res['attempted']} "
                  f"({time.monotonic() - t0:.0f} s)", file=sys.stderr)
        out = {}
        for name, values in samples.items():
            s = summarize(values)
            bound = bounds[name]["bound"]
            s["bound"] = bound
            s["steady"] = s["spread"] < bound / 3
            verdict &= s["spread"] <= bound
            if earlier and wl in earlier:
                before = earlier[wl][name]["median"]
                worse = (before - s["median"]) / before if bounds[name]["better"] == "higher" \
                    else (s["median"] - before) / before
                s["worse_than_earlier"] = worse
                verdict &= worse <= bound
            out[name] = s
            flag = "steady" if s["steady"] else ("ok" if s["spread"] <= bound else "TOO WIDE")
            extra = f"  vs earlier {s['worse_than_earlier']:+.3f}" if "worse_than_earlier" in s else ""
            print(f"{wl:16s} {name:12s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bound}) {flag}{extra}")
        report["workloads"][wl] = out

    os.makedirs(bench_run.OUT, exist_ok=True)
    path = os.path.join(bench_run.OUT, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"written {os.path.relpath(path, bench_run.ROOT)}; verdict {'PASS' if verdict else 'FAIL'}")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
