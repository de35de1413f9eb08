"""Study workloads: seeded ``rank_with_crowd`` sessions in a child process.

``run.py`` starts this script once per set-up sample.  It imports the
program from ``src/``, warms it up on a small instance, prints ``READY``
and, unless ``--setup-only`` is given, runs sessions one after another
for about ``--seconds`` and until every session seed has run at least
once.  Session seeds are derived from ``--seed`` and cycled, so a seed
that runs twice in one process must give the same ranking both times.

With ``--trace 1`` every session runs twice, once traced and once not,
in alternating order.  The traced run wraps the public calls
``rank_with_crowd`` makes (see ``STUDY_TARGETS``) and must give the
untraced ranking; the difference of the two runs' medians is the
tracing overhead.

The last stdout line is one JSON object with the raw samples; ``run.py``
turns it into metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import rank_with_crowd  # noqa: E402
from repro.config import LARGE_N_PIPELINE, PipelineConfig  # noqa: E402
from repro.types import Ranking  # noqa: E402
from repro.workers import QualityLevel, WorkerPool, gaussian_preset  # noqa: E402
from spans import Tracer, count, median_over_traces  # noqa: E402

#: n objects, selection ratio r, workers per task w, distinct session
#: seeds per run, warm-up size, and the shipped pipeline preset.
WORKLOADS = {
    "study_dense": dict(n=400, ratio=0.2, w=3, seeds=3, warmup_n=60,
                        config=lambda: PipelineConfig()),
    "study_sparse": dict(n=2000, ratio=0.05, w=3, seeds=2, warmup_n=200,
                         config=lambda: LARGE_N_PIPELINE),
}


def _platform_counts(run):
    return {"votes": float(len(run.votes)), "events": float(len(run.events))}


#: The public calls ``rank_with_crowd`` makes, wrapped where it looks
#: them up.  Span names match the per-layer metric names.
STUDY_TARGETS = [
    ("repro.session", "plan_for_selection_ratio", "budget.plan", None),
    ("repro.session", "generate_assignment", "assignment.generate",
     lambda a: {"hits": count(a, "n_hits")}),
    ("repro.session", "assign_hits", "assignment.assign_hits", None),
    ("repro.session", "NonInteractivePlatform.run", "platform.run",
     _platform_counts),
    ("repro.session", "RankingPipeline.run", "inference.pipeline", None),
    ("repro.types", "VoteSet.arrays", "types.arrays", None),
    ("repro.inference.pipeline", "discover_truth", "truth.discover",
     lambda t: {"iterations": count(t, "iterations")}),
    ("repro.inference.engines", "discover_truth", "truth.discover",
     lambda t: {"iterations": count(t, "iterations")}),
    ("repro.inference.pipeline", "direct_preference_matrix",
     "inference.smoothing", None),
    ("repro.inference.pipeline", "smooth_matrix", "inference.smoothing",
     lambda s: {"one_edges": count(s, "n_one_edges")}),
    ("repro.inference.pipeline", "propagate_matrix", "inference.propagation",
     None),
    ("repro.inference.pipeline", "saps_search_report", "inference.search",
     lambda r: {"proposed": count(r, "proposed_moves"),
                "accepted": count(r, "accepted_moves")}),
    ("repro.inference.engines", "build_incidence", "inference.incidence",
     lambda i: {"components": count(i, "n_components")}),
    ("repro.inference.engines", "solve_sparse_engine", "inference.solve",
     None),
]


def session_seeds(seed: int, count: int):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def make_inputs(spec, session_seed: int):
    """Ground truth and a Gaussian-medium pool of n/8 workers.  Built
    fresh for every session: workers consume their own random streams."""
    truth = Ranking.random(spec["n"], rng=session_seed)
    pool = WorkerPool.from_distribution(
        spec["n"] // 8, gaussian_preset(QualityLevel.MEDIUM),
        rng=session_seed + 1,
    )
    return truth, pool


def run_session(spec, config, session_seed: int, tracer=None, trace_id=None):
    truth, pool = make_inputs(spec, session_seed)
    call = lambda: rank_with_crowd(  # noqa: E731
        truth, pool, selection_ratio=spec["ratio"],
        workers_per_task=spec["w"], config=config, rng=session_seed,
    )
    start = time.perf_counter()
    if tracer is None:
        outcome = call()
    else:
        tracer.trace_id = trace_id
        outcome = tracer.span("session", call)
    seconds = time.perf_counter() - start
    return seconds, list(outcome.ranking.order), float(outcome.accuracy)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics: medians over traced sessions of each layer's
    self time (its span minus its child spans) and of its counts."""
    summary = tracer.by_trace()
    med = lambda name, field: median_over_traces(summary, name, field)  # noqa: E731
    ratios = [s["inference.search"]["accepted"] / s["inference.search"]["proposed"]
              for s in summary.values()
              if s.get("inference.search", {}).get("proposed")]
    # Share of each session's wall time covered by its direct children.
    by_id = {span["id"]: span for span in tracer.spans}
    covered = {}
    for span in tracer.spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["name"] == "session":
            covered[parent["id"]] = (covered.get(parent["id"], 0.0)
                                     + span["end"] - span["start"])
    coverage = [covered.get(s["id"], 0.0) / (s["end"] - s["start"])
                for s in tracer.spans if s["name"] == "session"]
    return {
        "inference.search_s": med("inference.search", "self_s"),
        "inference.saps_proposed": med("inference.search", "proposed"),
        "inference.saps_accepted": med("inference.search", "accepted"),
        "inference.saps_accept_ratio": (statistics.median(ratios)
                                        if ratios else 0.0),
        "platform.run_s": med("platform.run", "self_s"),
        "platform.votes": med("platform.run", "votes"),
        "platform.events": med("platform.run", "events"),
        "assignment.generate_s": med("assignment.generate", "self_s"),
        "assignment.assign_hits_s": med("assignment.assign_hits", "self_s"),
        "assignment.hits": med("assignment.generate", "hits"),
        "types.arrays_s": med("types.arrays", "self_s"),
        "truth.discover_s": med("truth.discover", "self_s"),
        "truth.iterations": med("truth.discover", "iterations"),
        "inference.smoothing_s": med("inference.smoothing", "self_s"),
        "inference.one_edges": med("inference.smoothing", "one_edges"),
        "inference.propagation_s": med("inference.propagation", "self_s"),
        "inference.incidence_s": med("inference.incidence", "self_s"),
        "inference.solve_s": med("inference.solve", "self_s"),
        "inference.components": med("inference.incidence", "components"),
        "trace.coverage": statistics.median(coverage) if coverage else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {ROOT / 'src'}")
    spec = WORKLOADS[args.workload]
    config = spec["config"]()
    warm = dict(spec, n=spec["warmup_n"])
    run_session(warm, config, 0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    seeds = session_seeds(args.seed, spec["seeds"])
    sessions, errors = [], []
    attempted = 0
    rankings = {}
    deadline = time.perf_counter() + args.seconds
    rounds = []
    index = 0
    # Every seed runs once; after that a round (one seed, traced and
    # untraced) starts only while it should end by the deadline, half a
    # typical round late at most, so a run measures about --seconds.
    while index < len(seeds) or (
            time.perf_counter() + statistics.median(rounds) / 2 < deadline):
        round_start = time.perf_counter()
        seed = seeds[index % len(seeds)]
        modes = [False]
        if tracer is not None:
            modes = [True, False] if index % 2 == 0 else [False, True]
        for traced in modes:
            attempted += 1
            try:
                if traced:
                    tracer.install(STUDY_TARGETS)
                    try:
                        seconds, order, accuracy = run_session(
                            spec, config, seed, tracer, f"{seed}/{index}")
                    finally:
                        tracer.uninstall()
                else:
                    seconds, order, accuracy = run_session(spec, config, seed)
            except Exception as error:  # noqa: BLE001 — counted as failed
                errors.append(f"seed {seed}: {type(error).__name__}: {error}")
                continue
            if seed in rankings:
                if rankings[seed] != (order, accuracy):
                    errors.append(f"seed {seed}: ranking or accuracy differs "
                                  f"between runs (traced={traced})")
            else:
                rankings[seed] = (order, accuracy)
            sessions.append({"seed": seed, "seconds": seconds,
                             "accuracy": accuracy, "traced": traced})
        rounds.append(time.perf_counter() - round_start)
        index += 1

    result = {"sessions": sessions, "errors": errors, "attempted": attempted}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        result["missing_targets"] = sorted(set(tracer.missing))
        if args.trace_out:
            tracer.dump(Path(args.trace_out))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
