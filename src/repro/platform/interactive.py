"""The interactive crowd platform (the baselines' setting).

Interactive crowdsourced ranking (e.g. CrowdBT) works in rounds: the
requester picks the next comparison based on everything seen so far,
submits it, receives one worker's vote, updates its model, and repeats
until the budget runs out.  This platform exposes exactly that query
interface, paying per answer from the same :class:`PaymentLedger` so
budget parity with the non-interactive setting is enforced, not assumed.
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import AssignmentError, BudgetError
from ..rng import SeedLike, ensure_rng
from ..types import Ranking, Vote
from ..workers.pool import WorkerPool
from .pricing import PaymentLedger


class InteractivePlatform:
    """Round-based comparison oracle over a simulated worker pool."""

    def __init__(
        self,
        pool: WorkerPool,
        ground_truth: Ranking,
        budget: float,
        reward: float = 0.025,
        rng: SeedLike = None,
    ):
        if len(ground_truth) < 2:
            raise AssignmentError("ground truth must rank at least 2 objects")
        self._pool = pool
        self._truth = ground_truth
        self._ledger = PaymentLedger(budget=budget, reward_per_comparison=reward)
        self._rng = ensure_rng(rng)

    @property
    def ledger(self) -> PaymentLedger:
        return self._ledger

    @property
    def n_objects(self) -> int:
        return len(self._truth)

    def remaining_queries(self) -> int:
        """How many more single comparisons the budget affords."""
        return int(self._ledger.remaining / self._ledger.reward + 1e-9)

    def can_query(self) -> bool:
        return self._ledger.can_pay(1)

    def query(
        self, i: int, j: int, worker_id: Optional[int] = None
    ) -> Vote:
        """Ask one (random or chosen) worker to compare ``(O_i, O_j)``.

        Charges one reward.  Raises :class:`BudgetError` when the budget
        is exhausted — interactive algorithms use :meth:`can_query` as
        their loop condition.
        """
        if not self._ledger.can_pay(1):
            raise BudgetError("interactive budget exhausted")
        if worker_id is None:
            worker_id = int(self._rng.integers(len(self._pool)))
        worker = self._pool[worker_id]
        vote = worker.vote(i, j, self._truth)
        self._ledger.pay()
        return vote
