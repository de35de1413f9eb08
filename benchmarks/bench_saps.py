"""Benchmark: SAPS annealing kernels and execution backends.

Runs both kernels on the same random complete closures with the same
seed at several sizes, at the shipped ``SAPSConfig()`` schedule, and
writes ``BENCH_saps.json`` at the repo root: proposals/sec and wall
time per kernel, the speedup, and hard equality checks (same best
ranking, same cost to 1e-9, serial == parallel restarts) — so later PRs
can track kernel performance and catch any divergence between the two
implementations.

A second sweep runs one heavy 4-restart workload per size on each
execution backend (serial / process) and records the process-vs-serial
speedup: the annealing kernel is pure Python, so the process backend is
where parallel restarts actually scale.  Rankings must stay
bit-identical across backends.

Production picks the kernel from the input (incremental on complete
closures), so the reference runs go through the tests-only switch in
``tests/oracles/saps_reference.py``.

``--smoke`` runs tiny configurations with the drift check on (the
incremental kernel asserts running-cost == full re-sum after every
accepted move) and exits non-zero if the kernels disagree or the
incremental kernel is slower than 1.5x the reference — suitable for CI.
Besides a short warm schedule it runs a cold one (``temperature=1e-3``),
where long runs of rejected proposals make the incremental kernel
screen whole windows in numpy, so CI checks the screen too.

Not collected by pytest (no ``test_`` prefix) — run directly:

    PYTHONPATH=src python benchmarks/bench_saps.py [--sizes 200 400 1000]
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import platform
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.config import SAPSConfig
from repro.inference.saps import saps_search_report

REPO_ROOT = Path(__file__).resolve().parents[1]
# The kernel switches are test oracles; make ``tests`` importable when
# this file runs as a script.
sys.path.insert(0, str(REPO_ROOT))

from tests.oracles.saps_reference import (  # noqa: E402
    drift_checks,
    reference_kernel,
)


def random_closure(n: int, seed: int) -> np.ndarray:
    """A random complete closure: w_ij + w_ji = 1, weights in (0, 1)."""
    rng = np.random.default_rng(seed)
    upper = rng.uniform(0.05, 0.95, size=(n, n))
    matrix = np.triu(upper, 1)
    matrix = matrix + np.tril(1.0 - matrix.T, -1)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def run_kernel(matrix: np.ndarray, config: SAPSConfig,
               seed: int) -> Dict[str, object]:
    start = time.perf_counter()
    report = saps_search_report(matrix, config, rng=seed)
    elapsed = time.perf_counter() - start
    return {
        "seconds": round(elapsed, 4),
        "proposals_per_s": round(report.proposed_moves / elapsed, 1),
        "proposed_moves": report.proposed_moves,
        "accepted_moves": report.accepted_moves,
        "log_preference": report.log_preference,
        "ranking": list(report.ranking.order),
    }


def bench_size(n: int, config: SAPSConfig, schedule: str, seed: int,
               drift_check: bool) -> Dict[str, object]:
    matrix = random_closure(n, seed=n)
    checks = drift_checks() if drift_check else nullcontext()
    with checks:
        incremental = run_kernel(matrix, config, seed)
        parallel = run_kernel(
            matrix, dataclasses.replace(config, parallel_restarts=4), seed
        )
    with reference_kernel():
        reference = run_kernel(matrix, config, seed)
    same_ranking = incremental["ranking"] == reference["ranking"]
    cost_gap = abs(incremental["log_preference"]
                   - reference["log_preference"])
    parallel_identical = (
        parallel["ranking"] == incremental["ranking"]
        and parallel["log_preference"] == incremental["log_preference"]
    )
    speedup = (incremental["proposals_per_s"]
               / reference["proposals_per_s"])
    return {
        "n": n,
        "schedule": schedule,
        "iterations": config.iterations,
        "scale_with_objects": config.scale_with_objects,
        "temperature": config.temperature,
        "restarts": config.restarts,
        "incremental": {k: v for k, v in incremental.items()
                        if k != "ranking"},
        "reference": {k: v for k, v in reference.items() if k != "ranking"},
        "parallel_restarts_4": {k: v for k, v in parallel.items()
                                if k != "ranking"},
        "speedup": round(speedup, 2),
        "same_ranking": same_ranking,
        "cost_gap": cost_gap,
        "serial_equals_parallel": parallel_identical,
    }


def backend_sweep(n: int, iterations: int, seed: int) -> Dict[str, object]:
    """One annealing workload (4 restarts) on each execution backend.

    The annealing kernel is pure Python, so the process backend is
    where the multi-core speedup lives; ``process_vs_serial_speedup``
    records it.  Rankings must be bit-identical on both — the backends
    are a performance knob, never a results knob.
    """
    matrix = random_closure(n, seed=n)
    runs = {}
    for backend in ("serial", "process"):
        config = SAPSConfig(
            iterations=iterations, restarts=4, scale_with_objects=False,
            parallel_restarts=4, backend=backend,
        )
        runs[backend] = run_kernel(matrix, config, seed)
    identical = (
        runs["process"]["ranking"] == runs["serial"]["ranking"]
        and runs["process"]["log_preference"]
        == runs["serial"]["log_preference"]
    )
    return {
        "n": n,
        "iterations": iterations,
        "restarts": 4,
        "parallel_restarts": 4,
        "backends": {
            backend: {"seconds": run["seconds"],
                      "proposals_per_s": run["proposals_per_s"]}
            for backend, run in runs.items()
        },
        "process_vs_serial_speedup": round(
            runs["serial"]["seconds"] / runs["process"]["seconds"], 2),
        "identical_rankings": identical,
        # The speedup is bounded by physical parallelism: on a 1-core
        # host process == serial (both pay the same CPU), and
        # the number only becomes a multi-core scaling signal when
        # cpu_count > 1.
        "cpu_count": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[200, 400, 1000],
                        help="closure sizes to benchmark at the shipped "
                             "SAPSConfig() schedule")
    parser.add_argument("--sweep-iterations", type=int, default=400000,
                        help="anneal iterations per restart in the "
                             "execution-backend sweep (default 400000; "
                             "heavy on purpose so pool overhead is "
                             "amortised)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI mode: drift check on, a warm and a "
                             "cold schedule, asserts equality and no "
                             "slowdown > 1.5x")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_saps.json"),
                        help="output path (default <repo>/BENCH_saps.json)")
    args = parser.parse_args()

    if args.smoke:
        sizes: List[int] = [20, 40]
        warm = SAPSConfig(iterations=500, restarts=2,
                          scale_with_objects=False)
        cold = SAPSConfig(iterations=2000, restarts=2, temperature=1e-3,
                          scale_with_objects=False)
        cases = ([(n, warm, "smoke") for n in sizes]
                 + [(sizes[-1], cold, "cold")])
    else:
        sizes = args.sizes
        cases = [(n, SAPSConfig(), "shipped") for n in sizes]

    results = []
    failures = []
    for n, config, schedule in cases:
        summary = bench_size(n, config, schedule, args.seed,
                             drift_check=args.smoke)
        results.append(summary)
        print(f"n={n} ({schedule}): incremental "
              f"{summary['incremental']['proposals_per_s']:,.0f} p/s, "
              f"reference "
              f"{summary['reference']['proposals_per_s']:,.0f} p/s, "
              f"speedup {summary['speedup']}x, "
              f"same_ranking={summary['same_ranking']}, "
              f"cost_gap={summary['cost_gap']:.2e}, "
              f"serial==parallel {summary['serial_equals_parallel']}")
        if not summary["same_ranking"] or summary["cost_gap"] > 1e-9:
            failures.append(f"n={n} ({schedule}): kernels disagree")
        if not summary["serial_equals_parallel"]:
            failures.append(f"n={n} ({schedule}): parallel restarts "
                            "changed the result")
        if args.smoke and summary["speedup"] < 1.0 / 1.5:
            failures.append(
                f"n={n} ({schedule}): incremental kernel slower than "
                f"1.5x reference (speedup {summary['speedup']}x)"
            )

    # The backend sweep needs enough work per restart that pool
    # overhead (fork + pickling the closure) is amortised — that is the
    # regime parallel restarts exist for.  The kernel comparison above
    # deliberately stays small; this deliberately does not.
    sweep_iterations = 2000 if args.smoke else args.sweep_iterations
    sweeps = []
    for n in sizes:
        sweep = backend_sweep(n, sweep_iterations, args.seed)
        sweeps.append(sweep)
        backends = sweep["backends"]
        print(f"n={n} backends: "
              + ", ".join(f"{name} {info['seconds']}s"
                          for name, info in backends.items())
              + f" -> process {sweep['process_vs_serial_speedup']}x "
                f"vs serial, identical={sweep['identical_rankings']}")
        if not sweep["identical_rankings"]:
            failures.append(f"n={n}: backends disagree on the ranking")

    payload = {
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "workload": {
            "sizes": sizes,
            "seed": args.seed,
            "sweep_iterations": sweep_iterations,
        },
        "results": results,
        "backend_sweep": sweeps,
    }
    if not args.smoke:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
