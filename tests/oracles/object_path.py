"""Steps 1-4 through the graph-object API: the pipeline's oracle.

:class:`~repro.inference.RankingPipeline` runs Steps 1-3 on dense
matrices (``direct_preference_matrix`` -> ``smooth_matrix`` ->
``propagate_matrix``).  :func:`run_object_pipeline` runs the same steps
through the per-edge objects instead —
``discover_truth`` / ``discover_truth_em`` ->
:meth:`PreferenceGraph.from_direct_preferences` ->
:func:`smooth_preferences` -> :func:`propagate_matrix` on the smoothed
graph — and hands the closure to the pipeline's own Step-4 search.  For
every vote set, config and seed the two must agree bit for bit: same
ranking, ``log_preference`` float, worker qualities, direct
preferences and metadata (``tests/test_pipeline_fastpath.py``,
``benchmarks/bench_pipeline.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.config import PipelineConfig
from repro.graphs import PreferenceGraph
from repro.inference.pipeline import _search_closure
from repro.inference.propagation import propagate_matrix
from repro.inference.smoothing import SmoothingResult, smooth_preferences
from repro.rng import SeedLike, ensure_rng
from repro.truth.crh import TruthDiscoveryResult, discover_truth
from repro.truth.dawid_skene import discover_truth_em
from repro.types import InferenceResult, VoteSet


@dataclass(frozen=True)
class ObjectSteps:
    """Steps 1-3 of the object path, with each step's wall time."""

    closure: np.ndarray
    truth: TruthDiscoveryResult
    smoothing: SmoothingResult
    step_seconds: Dict[str, float]


def object_closure(votes: VoteSet, config: PipelineConfig,
                   generator: np.random.Generator) -> ObjectSteps:
    """Steps 1-3 through ``PreferenceGraph`` and ``smooth_preferences``."""
    step_seconds: Dict[str, float] = {}

    start = time.perf_counter()
    discover = (discover_truth_em if config.truth_engine == "em"
                else discover_truth)
    truth = discover(votes, config.truth)
    direct = PreferenceGraph.from_direct_preferences(
        votes.n_objects, truth.preferences
    )
    step_seconds["truth_discovery"] = time.perf_counter() - start

    start = time.perf_counter()
    smoothing = smooth_preferences(
        direct, votes, truth.worker_quality, config.smoothing, generator,
    )
    step_seconds["smoothing"] = time.perf_counter() - start

    start = time.perf_counter()
    closure = propagate_matrix(smoothing.graph, config.propagation)
    step_seconds["propagation"] = time.perf_counter() - start
    return ObjectSteps(closure, truth, smoothing, step_seconds)


def run_object_pipeline(votes: VoteSet,
                        config: Optional[PipelineConfig] = None,
                        rng: SeedLike = None) -> InferenceResult:
    """The dense ``crh_saps`` pipeline with Steps 1-3 on graph objects."""
    config = config if config is not None else PipelineConfig()
    generator = ensure_rng(rng)
    steps = object_closure(votes, config, generator)

    start = time.perf_counter()
    ranking, log_pref, search_meta = _search_closure(
        steps.closure, config, generator
    )
    step_seconds = {**steps.step_seconds,
                    "search": time.perf_counter() - start}
    return InferenceResult(
        ranking=ranking,
        log_preference=log_pref,
        worker_quality=steps.truth.worker_quality,
        direct_preferences=steps.truth.preferences,
        step_seconds=step_seconds,
        metadata={
            "truth_iterations": steps.truth.iterations,
            "truth_converged": steps.truth.trace.converged,
            "n_one_edges": steps.smoothing.n_one_edges,
            "search_algorithm": config.search,
            **search_meta,
        },
    )
