"""High-level facade: one call from ground truth to inferred ranking.

:func:`rank_with_crowd` wires the whole paper pipeline together for the
simulated setting — budget plan, Algorithm-1 task assignment, worker
assignment, the single non-interactive crowdsourcing round, and Steps 1-4
of result inference — and scores the outcome against the ground truth.
Examples and benchmarks build on this; applications with real vote data
use :func:`repro.inference.infer_ranking` directly instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .assignment import assign_hits, generate_assignment
from .assignment.generator import TaskAssignment
from .budget import BudgetPlan, plan_for_selection_ratio
from .config import PipelineConfig
from .diagnostics import get_logger
from .inference import RankingPipeline
from .metrics import ranking_accuracy
from .platform import CrowdsourcingRun, NonInteractivePlatform
from .rng import SeedLike, ensure_rng
from .types import InferenceResult, Ranking
from .workers import WorkerPool

_log = get_logger("session")


@dataclass(frozen=True)
class CrowdRankingOutcome:
    """Everything produced by one simulated crowd-ranking session.

    Attributes
    ----------
    result:
        The inference output (ranking, per-step timing, diagnostics).
    accuracy:
        The paper's ``1 - d`` Kendall accuracy against the ground truth.
    plan:
        The resolved budget plan.
    assignment:
        The generated task assignment (graph + HITs).
    run:
        The platform round (votes and ledger).
    """

    result: InferenceResult
    accuracy: float
    plan: BudgetPlan
    assignment: TaskAssignment
    run: CrowdsourcingRun

    @property
    def ranking(self) -> Ranking:
        return self.result.ranking


def rank_with_crowd(
    ground_truth: Ranking,
    pool: WorkerPool,
    *,
    selection_ratio: float,
    workers_per_task: int,
    reward: float = 0.025,
    comparisons_per_hit: int = 1,
    config: Optional[PipelineConfig] = None,
    rng: SeedLike = None,
) -> CrowdRankingOutcome:
    """Run the full non-interactive pipeline in simulation.

    Parameters
    ----------
    ground_truth:
        The latent true ranking the simulated workers answer against.
    pool:
        The simulated crowd.
    selection_ratio:
        The paper's ``r``: fraction of all pairs to crowdsource.
    workers_per_task:
        ``w``: how many distinct workers answer each comparison.
    reward:
        Payment per single comparison (default: the paper's $0.025).
    comparisons_per_hit:
        ``c``: comparisons bundled per HIT.
    config:
        Inference configuration (defaults to :class:`PipelineConfig`).
    rng:
        Seed-like randomness shared by assignment and inference (worker
        noise uses each worker's own stream).
    """
    generator = ensure_rng(rng)
    plan = plan_for_selection_ratio(
        len(ground_truth),
        selection_ratio,
        workers_per_task=workers_per_task,
        reward=reward,
    )
    assignment = generate_assignment(
        plan, generator, comparisons_per_hit=comparisons_per_hit
    )
    worker_assignment = assign_hits(
        assignment, n_workers=len(pool), workers_per_hit=workers_per_task,
        rng=generator,
    )
    platform = NonInteractivePlatform(pool, ground_truth)
    run = platform.run(worker_assignment)
    pipeline = RankingPipeline(config or PipelineConfig())
    result = pipeline.run(run.votes, generator)
    accuracy = ranking_accuracy(result.ranking, ground_truth)
    _log.debug(
        "session done: n=%d r=%.3f w=%d votes=%d accuracy=%.4f",
        len(ground_truth), plan.selection_ratio, workers_per_task,
        len(run.votes), accuracy,
    )
    return CrowdRankingOutcome(
        result=result,
        accuracy=accuracy,
        plan=plan,
        assignment=assignment,
        run=run,
    )
