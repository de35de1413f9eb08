"""Payment ledger: tracks the requester's spend against the budget.

Each pairwise comparison answered earns the worker the fixed reward ``r``
(Sec. II: "each pairwise comparison receives a reward r, which is the same
for all workers").  Because the reward is the same for everyone, the
ledger keeps one total, not per-worker accounts.  It rejects payments
that would overdraw the requester's budget, which is how the simulator
*enforces* (rather than merely assumes) the paper's budget constraint.

Bookkeeping is integral: the ledger counts paid comparisons and derives
money amounts as ``count * reward``, so a hundred thousand 2.5-cent
payments cannot drift past the budget through float accumulation.
"""

from __future__ import annotations

from ..exceptions import BudgetError


class PaymentLedger:
    """Tracks spend against a fixed budget (unit-count bookkeeping)."""

    def __init__(self, budget: float, reward_per_comparison: float):
        if budget < 0:
            raise BudgetError(f"budget must be non-negative, got {budget}")
        if reward_per_comparison <= 0:
            raise BudgetError(
                f"reward must be positive, got {reward_per_comparison}"
            )
        self._budget = float(budget)
        self._reward = float(reward_per_comparison)
        #: Budget expressed in whole comparisons (floor, as in Sec. II).
        self._budget_units = int(self._budget / self._reward + 1e-9)
        self._units_paid = 0

    @property
    def budget(self) -> float:
        return self._budget

    @property
    def reward(self) -> float:
        """Reward paid per single answered comparison."""
        return self._reward

    @property
    def spent(self) -> float:
        return self._units_paid * self._reward

    @property
    def remaining(self) -> float:
        return self._budget - self.spent

    def can_pay(self, n_comparisons: int = 1) -> bool:
        """Whether ``n_comparisons`` more single-answer payments fit."""
        return self._units_paid + n_comparisons <= self._budget_units

    def pay(self, n_comparisons: int = 1) -> float:
        """Pay for ``n_comparisons`` answered comparisons.

        Raises
        ------
        BudgetError
            If the payment would overdraw the budget — the simulator
            treats this as a programming error in the caller's plan, not
            a recoverable condition.
        """
        if n_comparisons < 1:
            raise BudgetError(f"n_comparisons must be >= 1, got {n_comparisons}")
        if not self.can_pay(n_comparisons):
            raise BudgetError(
                f"payment of {n_comparisons * self._reward:.4f} would "
                f"overdraw budget (spent {self.spent:.4f} of "
                f"{self._budget:.4f})"
            )
        self._units_paid += n_comparisons
        return n_comparisons * self._reward

    def __repr__(self) -> str:
        return (
            f"PaymentLedger(spent={self.spent:.4f}, "
            f"budget={self._budget:.4f})"
        )
