"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 cosmosbench/spread.py --workload replay_joins --seeds 1-10

Runs ``cosmosbench/run.py`` once per seed, one run at a time, and prints
each end-to-end metric's median and its interquartile range as a share
of the median (``statistics.quantiles(values, n=4)``), next to the bound
``BENCHMARK.json`` fixes for it.  ``--json`` also writes the raw values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from cosmosbench.run import spread  # noqa: E402


def seed_list(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=600
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}",
              flush=True)
    worst = 0.0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        share = spread(values)
        worst = max(worst, share / metric["bound"])
        print(f"{name:26s} median {statistics.median(values):12.4f} "
              f"{metric['unit']:10s} spread {share:6.3f}  bound {metric['bound']}")
    print(f"largest spread / bound: {worst:.2f}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(runs, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
