#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs `run.py --trace 0` once per seed for each workload, then prints, per
metric, the median and the quartile spread (statistics.quantiles(n=4), Q3 -
Q1 as a share of the median) next to the metric's bound. A metric is steady
when its spread stays below a third of its bound (setup_s is exempt from the
spread rule). Exits 1 when a run fails or a spread is out of bounds.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*",
                        default=[w["name"] for w in declared["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workload:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(declared["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({args.runs} runs)")
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sample = values.get(name, [])
            if len(sample) < 2:
                continue
            spread = benchstats.quartile_spread(sample)
            steady = name == "setup_s" or spread < bound / 3
            ok = ok and (name == "setup_s" or spread <= bound)
            print(f"  {name:12s} median {benchstats.median(sample):12.6g} "
                  f"spread {spread:7.4f} bound {bound:5.3f} {'' if steady else 'UNSTEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
