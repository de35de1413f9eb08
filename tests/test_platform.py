"""Unit tests for repro.platform (pricing, simulators)."""

import pytest

from repro.assignment import assign_hits, generate_assignment
from repro.budget import plan_for_selection_ratio
from repro.exceptions import AssignmentError, BudgetError
from repro.platform import (
    InteractivePlatform,
    NonInteractivePlatform,
    PaymentLedger,
)
from repro.types import Ranking
from repro.workers import QualityLevel, WorkerPool, gaussian_preset


class TestPaymentLedger:
    def test_pay_accumulates(self):
        ledger = PaymentLedger(budget=1.0, reward_per_comparison=0.1)
        ledger.pay(n_comparisons=3)
        ledger.pay()
        assert ledger.spent == pytest.approx(0.4)
        assert ledger.remaining == pytest.approx(0.6)

    def test_overdraw_rejected(self):
        ledger = PaymentLedger(budget=0.25, reward_per_comparison=0.1)
        ledger.pay(n_comparisons=2)
        with pytest.raises(BudgetError):
            ledger.pay()

    def test_can_pay(self):
        ledger = PaymentLedger(budget=0.2, reward_per_comparison=0.1)
        assert ledger.can_pay(2)
        assert not ledger.can_pay(3)

    def test_validation(self):
        with pytest.raises(BudgetError):
            PaymentLedger(budget=-1, reward_per_comparison=0.1)
        with pytest.raises(BudgetError):
            PaymentLedger(budget=1, reward_per_comparison=0)
        ledger = PaymentLedger(budget=1, reward_per_comparison=0.1)
        with pytest.raises(BudgetError):
            ledger.pay(n_comparisons=0)


@pytest.fixture
def run_inputs():
    truth = Ranking.random(8, rng=4)
    pool = WorkerPool.from_distribution(
        6, gaussian_preset(QualityLevel.HIGH), rng=4
    )
    plan = plan_for_selection_ratio(8, 0.5, workers_per_task=3)
    assignment = generate_assignment(plan, rng=4)
    worker_assignment = assign_hits(assignment, n_workers=6,
                                    workers_per_hit=3, rng=4)
    return truth, pool, worker_assignment


class TestNonInteractivePlatform:
    def test_collects_expected_vote_count(self, run_inputs):
        truth, pool, worker_assignment = run_inputs
        run = NonInteractivePlatform(pool, truth).run(worker_assignment)
        assert len(run.votes) == worker_assignment.total_votes

    def test_votes_reference_assigned_pairs_only(self, run_inputs):
        truth, pool, worker_assignment = run_inputs
        run = NonInteractivePlatform(pool, truth).run(worker_assignment)
        planned = set(worker_assignment.task_assignment.all_pairs())
        assert {vote.pair for vote in run.votes} <= planned

    def test_spend_matches_plan(self, run_inputs):
        truth, pool, worker_assignment = run_inputs
        run = NonInteractivePlatform(pool, truth).run(worker_assignment)
        plan = worker_assignment.task_assignment.plan
        assert run.ledger.spent == pytest.approx(plan.spend)

    def test_second_round_refused(self, run_inputs):
        """The defining non-interactive property."""
        truth, pool, worker_assignment = run_inputs
        platform = NonInteractivePlatform(pool, truth)
        platform.run(worker_assignment)
        assert platform.closed
        with pytest.raises(AssignmentError):
            platform.run(worker_assignment)

    def test_object_universe_mismatch_rejected(self, run_inputs):
        _, pool, worker_assignment = run_inputs
        platform = NonInteractivePlatform(pool, Ranking.random(9, rng=1))
        with pytest.raises(AssignmentError):
            platform.run(worker_assignment)

    def test_high_quality_pool_votes_mostly_truthful(self, run_inputs):
        truth, pool, worker_assignment = run_inputs
        run = NonInteractivePlatform(pool, truth).run(worker_assignment)
        correct = sum(
            1 for vote in run.votes if truth.prefers(vote.winner, vote.loser)
        )
        assert correct / len(run.votes) > 0.9


class TestInteractivePlatform:
    def test_query_charges_budget(self):
        truth = Ranking.random(5, rng=0)
        pool = WorkerPool.from_distribution(
            4, gaussian_preset(QualityLevel.HIGH), rng=0
        )
        platform = InteractivePlatform(pool, truth, budget=0.1, reward=0.025)
        assert platform.remaining_queries() == 4
        platform.query(0, 1)
        assert platform.remaining_queries() == 3

    def test_budget_exhaustion(self):
        truth = Ranking.random(5, rng=0)
        pool = WorkerPool.from_distribution(
            4, gaussian_preset(QualityLevel.HIGH), rng=0
        )
        platform = InteractivePlatform(pool, truth, budget=0.05, reward=0.025)
        platform.query(0, 1)
        platform.query(1, 2)
        assert not platform.can_query()
        with pytest.raises(BudgetError):
            platform.query(2, 3)

    def test_chosen_worker_respected(self):
        truth = Ranking.random(5, rng=0)
        pool = WorkerPool.from_distribution(
            4, gaussian_preset(QualityLevel.HIGH), rng=0
        )
        platform = InteractivePlatform(pool, truth, budget=1.0, rng=0)
        vote = platform.query(0, 1, worker_id=2)
        assert vote.worker == 2
