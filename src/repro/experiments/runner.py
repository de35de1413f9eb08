"""Execution of experiment arms.

Each runner takes a :class:`~repro.datasets.synthetic.SimulationScenario`
and returns a flat :class:`ExperimentRecord` with the accuracy, timing and
diagnostic fields the benchmarks print.  The same vote set is reused for
every non-interactive algorithm of one arm (pipeline, RC, QS, Borda, ...),
so algorithm comparisons are paired; CrowdBT gets its own interactive
platform with the *same money budget*.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..assignment import assign_hits, generate_assignment
from ..baselines import (
    borda_count,
    bradley_terry_mle,
    copeland_ranking,
    crowd_bt_rank,
    kemeny_local_search,
    quicksort_ranking,
    rank_centrality,
    repeat_choice,
)
from ..budget import plan_for_selection_ratio
from ..config import PipelineConfig
from ..datasets.synthetic import SimulationScenario
from ..exceptions import ConfigurationError
from ..inference import RankingPipeline
from ..metrics import ranking_accuracy
from ..platform import InteractivePlatform, NonInteractivePlatform
from ..rng import SeedLike, ensure_rng
from ..types import VoteSet


@dataclass(frozen=True)
class ExperimentRecord:
    """One experiment arm's outcome — a flat printable row."""

    algorithm: str
    n_objects: int
    selection_ratio: float
    workers_per_task: int
    quality: str
    accuracy: float
    seconds: float
    extras: Dict[str, object] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """Flatten into an ordered dict for the reporting layer."""
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "n": self.n_objects,
            "r": round(self.selection_ratio, 3),
            "w": self.workers_per_task,
            "quality": self.quality,
            "accuracy": round(self.accuracy, 4),
            "seconds": round(self.seconds, 4),
        }
        row.update(self.extras)
        return row


def collect_votes(scenario: SimulationScenario, rng: SeedLike = None) -> VoteSet:
    """Run the non-interactive crowdsourcing round for a scenario.

    The round is a pure function of ``(scenario, rng)``: every worker
    is reseeded with a per-worker child stream derived from ``rng`` (by
    worker id), so repeated calls with the same seed return identical
    votes even though the pool is stateful, and one worker's vote noise
    never depends on how other workers' draws interleave — the property
    the adversarial behaviour models (drift clocks, clique defections)
    rely on for order-independent reproducibility.
    """
    generator = ensure_rng(rng)
    plan = plan_for_selection_ratio(
        scenario.n_objects,
        scenario.selection_ratio,
        workers_per_task=scenario.workers_per_task,
    )
    assignment = generate_assignment(plan, generator)
    worker_assignment = assign_hits(
        assignment, n_workers=len(scenario.pool),
        workers_per_hit=scenario.workers_per_task, rng=generator,
    )
    scenario.pool.reseed(generator)
    platform = NonInteractivePlatform(scenario.pool, scenario.ground_truth)
    return platform.run(worker_assignment).votes


def run_pipeline_arm(
    scenario: SimulationScenario,
    config: Optional[PipelineConfig] = None,
    rng: SeedLike = None,
    votes: Optional[VoteSet] = None,
) -> ExperimentRecord:
    """Run our Steps 1-4 pipeline on a scenario."""
    generator = ensure_rng(rng)
    if votes is None:
        votes = collect_votes(scenario, generator)
    pipeline = RankingPipeline(config or PipelineConfig())
    start = time.perf_counter()
    result = pipeline.run(votes, generator)
    seconds = time.perf_counter() - start
    cfg = pipeline.config
    return ExperimentRecord(
        # Sparse engines replace the Step-4 search entirely; report the
        # engine name so arms stay distinguishable in exports.
        algorithm=cfg.search if cfg.engine == "crh_saps" else cfg.engine,
        n_objects=scenario.n_objects,
        selection_ratio=scenario.selection_ratio,
        workers_per_task=scenario.workers_per_task,
        quality=scenario.quality_name,
        accuracy=ranking_accuracy(result.ranking, scenario.ground_truth),
        seconds=seconds,
        extras={
            **{f"t_{k}": round(v, 4) for k, v in result.step_seconds.items()},
            "truth_iterations": result.metadata.get("truth_iterations"),
            "n_one_edges": result.metadata.get("n_one_edges"),
        },
    )


#: Non-interactive baseline dispatch table.
_BASELINES = {
    "rc": repeat_choice,
    "qs": quicksort_ranking,
    "borda": borda_count,
    "copeland": copeland_ranking,
    "rank_centrality": lambda votes, rng: rank_centrality(votes)[0],
    "kemeny": lambda votes, rng: kemeny_local_search(votes, rng)[0],
}


def run_baseline_arm(
    scenario: SimulationScenario,
    algorithm: str,
    rng: SeedLike = None,
    votes: Optional[VoteSet] = None,
) -> ExperimentRecord:
    """Run one baseline on a scenario.

    ``algorithm`` is one of ``rc``, ``qs``, ``borda``, ``copeland``,
    ``btl`` (non-interactive; reuse ``votes`` for paired comparisons) or
    ``crowdbt`` (interactive; spends the same budget through its own
    platform, so ``votes`` is ignored).
    """
    generator = ensure_rng(rng)
    if algorithm == "crowdbt":
        plan = plan_for_selection_ratio(
            scenario.n_objects,
            scenario.selection_ratio,
            workers_per_task=scenario.workers_per_task,
        )
        platform = InteractivePlatform(
            scenario.pool,
            scenario.ground_truth,
            budget=plan.budget.total,
            reward=plan.budget.reward,
            rng=generator,
        )
        affordable = platform.remaining_queries()
        start = time.perf_counter()
        ranking = crowd_bt_rank(
            platform, n_workers=len(scenario.pool), rng=generator
        )
        seconds = time.perf_counter() - start
        # Each query pays exactly one comparison.
        extras: Dict[str, object] = {
            "queries": affordable - platform.remaining_queries()
        }
    else:
        if votes is None:
            votes = collect_votes(scenario, generator)
        start = time.perf_counter()
        if algorithm == "btl":
            ranking, _ = bradley_terry_mle(votes)
        elif algorithm in _BASELINES:
            ranking = _BASELINES[algorithm](votes, generator)
        else:
            raise ConfigurationError(f"unknown baseline {algorithm!r}")
        seconds = time.perf_counter() - start
        extras = {}
    return ExperimentRecord(
        algorithm=algorithm,
        n_objects=scenario.n_objects,
        selection_ratio=scenario.selection_ratio,
        workers_per_task=scenario.workers_per_task,
        quality=scenario.quality_name,
        accuracy=ranking_accuracy(ranking, scenario.ground_truth),
        seconds=seconds,
        extras=extras,
    )
