"""The non-interactive crowd platform (the paper's core setting).

One call to :meth:`NonInteractivePlatform.run` performs the entire
crowdsourcing round: publish every HIT, route each to its assigned
workers, collect their (noisy) votes, pay them, and close.  After the run
the platform refuses further task submission — that refusal *is* the
non-interactive constraint, and the CrowdBT baseline's need for an
:class:`~repro.platform.interactive.InteractivePlatform` instead is
exactly the paper's Table-I time story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..assignment.assigner import WorkerAssignment
from ..exceptions import AssignmentError
from ..rng import SeedLike, ensure_rng
from ..types import Ranking, Vote, VoteSet
from ..workers.pool import WorkerPool
from .pricing import PaymentLedger


@dataclass(frozen=True)
class CrowdsourcingRun:
    """Everything that came back from one non-interactive round.

    Attributes
    ----------
    votes:
        All collected votes.
    ledger:
        The final payment ledger.  Only answered comparisons are paid,
        so it has paid for exactly ``len(votes)`` comparisons.
    """

    votes: VoteSet
    ledger: PaymentLedger


class NonInteractivePlatform:
    """A single-round crowd marketplace over a simulated worker pool."""

    def __init__(self, pool: WorkerPool, ground_truth: Ranking):
        if len(ground_truth) < 2:
            raise AssignmentError("ground truth must rank at least 2 objects")
        self._pool = pool
        self._truth = ground_truth
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def run(
        self,
        assignment: WorkerAssignment,
        *,
        dropout: float = 0.0,
        rng: SeedLike = None,
    ) -> CrowdsourcingRun:
        """Execute the one allowed crowdsourcing round.

        Parameters
        ----------
        assignment:
            The HITs and their assigned workers.
        dropout:
            Probability in ``[0, 1)`` that an assigned worker abandons a
            HIT without answering (a pervasive real-AMT failure mode).
            Abandoned HIT copies are not paid; the requester simply gets
            fewer votes back — exactly what the non-interactive setting
            must tolerate, since there is no second round to re-post.
        rng:
            Randomness for the dropout draws.

        Raises
        ------
        AssignmentError
            On a second call (non-interactive means *once*), when the
            assignment references workers outside the pool, when the
            assignment's objects do not match the ground-truth universe,
            or for an out-of-range dropout.
        """
        if not 0.0 <= dropout < 1.0:
            raise AssignmentError(
                f"dropout must be in [0, 1), got {dropout}"
            )
        generator = ensure_rng(rng)
        if self._closed:
            raise AssignmentError(
                "non-interactive platform already ran its single round"
            )
        task_assignment = assignment.task_assignment
        if task_assignment.plan.n_objects != len(self._truth):
            raise AssignmentError(
                f"assignment ranks {task_assignment.plan.n_objects} objects "
                f"but the platform universe has {len(self._truth)}"
            )

        ledger = PaymentLedger(
            budget=task_assignment.plan.budget.total,
            reward_per_comparison=task_assignment.plan.budget.reward,
        )
        votes: List[Vote] = []
        for hit, worker_ids in zip(task_assignment.hits, assignment.hit_workers):
            for worker_id in worker_ids:
                if worker_id >= len(self._pool):
                    raise AssignmentError(
                        f"HIT {hit.hit_id} assigned to unknown worker "
                        f"{worker_id} (pool size {len(self._pool)})"
                    )
                if dropout > 0.0 and generator.random() < dropout:
                    continue
                worker = self._pool[worker_id]
                for i, j in hit.pairs:
                    votes.append(worker.vote(i, j, self._truth))
                ledger.pay(n_comparisons=len(hit))
        self._closed = True
        return CrowdsourcingRun(
            votes=VoteSet.from_votes(len(self._truth), votes),
            ledger=ledger,
        )
