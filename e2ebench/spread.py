#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py --workload <name> [--seeds 1-10] [--seconds 20]

Runs the benchmark once per seed (sequentially, untraced) and prints, per
metric, the median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)) next to a third of its bound from
BENCHMARK.json. Exits non-zero if a run fails or a spread, setup_s aside,
reaches a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values[name]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        gated = name != "setup_s"
        ok = not gated or spread < bound / 3
        steady &= ok
        verdict = "not gated" if not gated else "ok" if ok else "TOO NOISY"
        print(f"{name:22s} median {med:12.6g}  spread {spread:7.2%}  bound/3 {bound / 3:6.2%}"
              f"  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
