#!/usr/bin/env python3
"""Steadiness check: repeats each workload over several seeds and prints, for
every end-to-end metric, the run-to-run spread against its bound.

    python3 perfbench/steady.py           # seeds 1-10 on every workload
    python3 perfbench/steady.py --smoke   # one 2-second run each

The spread is the distance between the first and third quartile of the
per-seed values (statistics.quantiles(values, n=4)) as a share of their
median. A metric is "steady" when its spread is below a third of its bound
from BENCHMARK.json, and "over bound" when the spread exceeds the bound.
--smoke only checks that every run is correct and reports every metric.
Exits nonzero if any run fails, any result is incorrect, or any spread is
over its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seconds, seeds = spec["run_seconds"], SEEDS
    if args.smoke:
        seconds, seeds = 2, [1]

    ok = True
    for w in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            for trace in ((0, 1) if args.smoke else (0,)):
                try:
                    res = run_once(w, seed, seconds, trace)
                except (RuntimeError, ValueError) as e:
                    print(f"FAIL {e}")
                    ok = False
                    continue
                want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
                missing = [m for m in want if m not in res["metrics"]]
                if not res["correct"] or missing:
                    print(f"FAIL {w} seed {seed} trace {trace}: correct={res['correct']} "
                          f"failed={res['failed']}/{res['attempted']} missing={missing}")
                    ok = False
                if not trace:
                    for m in values:
                        if m in res["metrics"]:
                            values[m].append(res["metrics"][m]["value"])
        if args.smoke:
            print(f"{w}: smoke {'ok' if ok else 'FAILED'}")
            continue
        print(f"{w} ({len(seeds)} seeds, {seconds:g} s each)")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            verdict = ("steady" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "OVER BOUND")
            if spread > m["bound"]:
                ok = False
            print(f"  {m['name']:<16} median {med:<12.6g} {m['unit']:<5} "
                  f"spread {spread:6.3f}  bound {m['bound']:.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
