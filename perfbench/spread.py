"""Run one workload on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload study_dense --seeds 1 2 3 4 5

For every metric it prints the median of the runs and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median, next to the metric's bound from
``BENCHMARK.json``.  A benchmark is steady when each spread, except that
of ``setup_s``, stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {elapsed:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        median = statistics.median(series)
        spread = float("nan")
        if len(series) > 1 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:<32} median {median:12.6g}  spread {spread:7.2%}"
              f"  bound {bound if bound is not None else '-'}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
