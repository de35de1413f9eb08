"""Benchmark entry point: one workload, one seed, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study_dense --seed 1 --seconds 25 --trace 0

Workloads (rationale in ``perfbench/README.md``):

* ``study_dense``  - ``rank_with_crowd`` at n=400 with the default
  ``crh_saps`` pipeline (``study.py``);
* ``study_sparse`` - ``rank_with_crowd`` at n=2000 with
  ``LARGE_N_PIPELINE`` (HodgeRank) (``study.py``);
* ``serve_mixed``  - ``/v1/rank`` and ``/v1/sessions`` traffic against a
  ``RankingServer`` child (``serve.py``).

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` a traced run gives its per-layer
metrics (0 for a layer the workload does not run).  The last stdout line
is the JSON result; a copy with the host record and the raw detail is
written to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
STUDY_WORKLOADS = ("study_dense", "study_sparse")
WORKLOADS = STUDY_WORKLOADS + ("serve_mixed",)
SETUP_SAMPLES = 3


def host_record() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": commit,
    }


def child_env() -> dict:
    """The program runs with its shipped defaults: no backend override."""
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_study(args, env: dict, trace_out: Path) -> dict:
    """Set-up samples, then one measured child; peak RSS is the largest
    child's, read from ``getrusage(RUSAGE_CHILDREN)``."""
    base = [sys.executable, str(HERE / "study.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups, report = [], None
    for sample in range(SETUP_SAMPLES):
        measured = sample == SETUP_SAMPLES - 1
        command = base + (["--trace-out", str(trace_out)] if measured
                          else ["--setup-only"])
        start = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                                 text=True)
        try:
            line = child.stdout.readline()
            setups.append(time.perf_counter() - start)
            out, _ = child.communicate(timeout=args.seconds + 150)
        except BaseException:
            child.kill()
            child.wait()
            raise
        if line.strip() != "READY" or child.returncode != 0:
            raise RuntimeError(f"study child failed (exit {child.returncode})")
        if measured:
            report = json.loads(out.strip().splitlines()[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    sessions = report["sessions"]
    untraced = [s["seconds"] for s in sessions if not s["traced"]]
    traced = [s["seconds"] for s in sessions if s["traced"]]
    accuracy = {s["seed"]: s["accuracy"] for s in sessions}
    layers = dict(report.get("layers", {}))
    if traced and untraced:
        layers["trace.overhead_s"] = (statistics.median(traced)
                                      - statistics.median(untraced))
    failed = len(report["errors"])
    return {
        "attempted": report["attempted"],
        "failed": failed,
        "correct": failed == 0 and bool(untraced),
        "end_to_end": {
            "latency_ms": (1000 * statistics.fmean(untraced), "ms"),
            "accuracy": (statistics.fmean(accuracy.values()), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        },
        "layers": layers,
        "detail": {"sessions": sessions, "errors": report["errors"],
                   "setups_s": setups,
                   "missing_targets": report.get("missing_targets", [])},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/repro package or BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    host = host_record()
    # Byte-compile once so every set-up sample imports the same way.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    env = child_env()
    os.environ.pop("REPRO_BACKEND", None)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_out = OUT / f"{stem}.spans.json"

    if args.workload in STUDY_WORKLOADS:
        result = run_study(args, env, trace_out)
    else:
        sys.path.insert(0, str(ROOT / "src"))
        import serve

        result = serve.run(env, args.seed, args.seconds, bool(args.trace),
                           trace_out if args.trace else None)

    if args.trace:
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: result["layers"].get(name, 0.0) for name in names}
    else:
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: result["end_to_end"][name][0] for name in names}
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in names.items()}
    summary = {"correct": bool(result["correct"]),
               "attempted": int(result["attempted"]),
               "failed": int(result["failed"]),
               "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"host": host, "args": vars(args), "result": summary,
         "layers": result["layers"], "detail": result["detail"]},
        indent=1, default=str))
    print(f"host: {json.dumps(host)}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
