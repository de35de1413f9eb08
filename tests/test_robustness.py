"""Failure-injection tests: the pipeline under degraded crowd conditions.

Non-interactive crowdsourcing cannot re-post tasks, so the inference must
tolerate whatever came back: abandoned HITs (missing votes), adversarial
workers, spammers, and lopsided coverage.
"""

import numpy as np
import pytest

from repro.assignment import assign_hits, generate_assignment
from repro.budget import plan_for_selection_ratio
from repro.config import FAST_PIPELINE
from repro.exceptions import AssignmentError
from repro.inference import infer_ranking
from repro.metrics import ranking_accuracy
from repro.platform import NonInteractivePlatform
from repro.rng import spawn_rngs
from repro.types import Ranking, Vote, VoteSet
from repro.workers import (
    QualityLevel,
    SimulatedWorker,
    WorkerPool,
    gaussian_preset,
)


def run_round(truth, pool, ratio=0.4, w=5, dropout=0.0, seed=13):
    plan = plan_for_selection_ratio(len(truth), ratio, workers_per_task=w)
    assignment = generate_assignment(plan, rng=seed)
    worker_assignment = assign_hits(assignment, n_workers=len(pool),
                                    workers_per_hit=w, rng=seed)
    platform = NonInteractivePlatform(pool, truth)
    return platform.run(worker_assignment, dropout=dropout, rng=seed)


@pytest.fixture
def truth():
    return Ranking.random(20, rng=61)


@pytest.fixture
def pool():
    return WorkerPool.from_distribution(
        15, gaussian_preset(QualityLevel.MEDIUM), rng=61
    )


class TestDropout:
    def test_dropout_reduces_votes_and_spend(self, truth, pool):
        full = run_round(truth, pool, dropout=0.0)
        degraded = run_round(truth, pool, dropout=0.4)
        assert len(degraded.votes) < len(full.votes)
        assert degraded.ledger.spent < full.ledger.spent

    def test_abandoned_copies_are_not_paid(self, truth, pool):
        # Without dropout every assigned comparison is answered.
        assigned = len(run_round(truth, pool, dropout=0.0).votes)
        degraded = run_round(truth, pool, dropout=0.4)
        paid = round(degraded.ledger.spent / degraded.ledger.reward)
        assert paid == len(degraded.votes) < assigned
        # The round keeps totals, not a per-vote record.
        assert not hasattr(degraded, "events")

    def test_pipeline_survives_moderate_dropout(self, truth, pool):
        degraded = run_round(truth, pool, dropout=0.3)
        result = infer_ranking(degraded.votes, FAST_PIPELINE, rng=1)
        assert ranking_accuracy(result.ranking, truth) > 0.75

    def test_pipeline_survives_severe_dropout(self, truth, pool):
        degraded = run_round(truth, pool, dropout=0.8, seed=17)
        result = infer_ranking(degraded.votes, FAST_PIPELINE, rng=1)
        # Severely degraded but must still return a full permutation and
        # beat a coin flip.
        assert sorted(result.ranking.order) == list(range(20))
        assert ranking_accuracy(result.ranking, truth) > 0.5

    def test_invalid_dropout_rejected(self, truth, pool):
        with pytest.raises(AssignmentError):
            run_round(truth, pool, dropout=1.0)
        with pytest.raises(AssignmentError):
            run_round(truth, pool, dropout=-0.1)

    def test_dropout_reproducible(self, truth, pool):
        a = run_round(truth, pool, dropout=0.3, seed=5)
        pool_b = WorkerPool.from_distribution(
            15, gaussian_preset(QualityLevel.MEDIUM), rng=61
        )
        b = run_round(truth, pool_b, dropout=0.3, seed=5)
        assert len(a.votes) == len(b.votes)


class TestAdversarialWorkers:
    def _mixed_pool(self, n_honest, n_adversarial, seed=71):
        streams = spawn_rngs(seed, n_honest + n_adversarial)
        workers = []
        for k in range(n_honest):
            workers.append(SimulatedWorker(worker_id=k, sigma=0.02,
                                           rng=streams[k]))
        for k in range(n_honest, n_honest + n_adversarial):
            # sigma so large the error probability saturates toward 1:
            # a systematically *inverting* worker.
            workers.append(SimulatedWorker(worker_id=k, sigma=30.0,
                                           rng=streams[k]))
        return WorkerPool(workers)

    def test_minority_adversaries_are_downweighted(self, truth):
        pool = self._mixed_pool(10, 4)
        run = run_round(truth, pool, w=7, seed=19)
        result = infer_ranking(run.votes, FAST_PIPELINE, rng=2)
        quality = result.worker_quality
        honest = np.mean([quality[k] for k in range(10) if k in quality])
        adversarial = np.mean([quality[k] for k in range(10, 14)
                               if k in quality])
        assert honest > adversarial
        assert ranking_accuracy(result.ranking, truth) > 0.85

    def test_coin_flip_spammers_tolerated(self, truth):
        streams = spawn_rngs(73, 12)
        workers = [
            SimulatedWorker(worker_id=k, sigma=0.02, rng=streams[k])
            for k in range(8)
        ]
        # sigma ~ 0.63 gives eps ~ |N(0, 0.4)| -> frequent random errors.
        workers += [
            SimulatedWorker(worker_id=k, sigma=0.63, rng=streams[k])
            for k in range(8, 12)
        ]
        pool = WorkerPool(workers)
        run = run_round(truth, pool, w=6, seed=23)
        result = infer_ranking(run.votes, FAST_PIPELINE, rng=3)
        assert ranking_accuracy(result.ranking, truth) > 0.85


class TestSparseAndLopsidedCoverage:
    def test_single_worker_per_pair(self, truth, pool):
        run = run_round(truth, pool, w=1, seed=29)
        result = infer_ranking(run.votes, FAST_PIPELINE, rng=4)
        assert sorted(result.ranking.order) == list(range(20))

    def test_spanning_minimum_budget(self, truth, pool):
        """r at the n-1 floor: the plan is a bare Hamiltonian path."""
        run = run_round(truth, pool, ratio=0.01, w=5, seed=31)
        result = infer_ranking(run.votes, FAST_PIPELINE, rng=5)
        assert sorted(result.ranking.order) == list(range(20))
        assert ranking_accuracy(result.ranking, truth) > 0.6

    def test_object_with_no_votes_still_ranked(self):
        """Votes that never mention object 3 (e.g. total dropout on its
        pairs) must not crash inference; the object lands somewhere."""
        votes = []
        pairs = [(0, 1), (1, 2), (0, 2), (0, 4), (2, 4)]
        for worker in range(3):
            for i, j in pairs:
                votes.append(Vote(worker=worker, winner=i, loser=j))
        result = infer_ranking(VoteSet.from_votes(5, votes), FAST_PIPELINE,
                               rng=6)
        assert sorted(result.ranking.order) == list(range(5))

    def test_duplicate_votes_by_same_worker(self):
        """A worker answering the same pair twice (platform glitch) is
        absorbed, not fatal."""
        votes = [
            Vote(worker=0, winner=0, loser=1),
            Vote(worker=0, winner=0, loser=1),
            Vote(worker=0, winner=1, loser=0),
            Vote(worker=1, winner=0, loser=1),
            Vote(worker=1, winner=1, loser=2),
            Vote(worker=0, winner=1, loser=2),
            Vote(worker=1, winner=0, loser=2),
            Vote(worker=0, winner=0, loser=2),
        ]
        result = infer_ranking(VoteSet.from_votes(3, votes), FAST_PIPELINE,
                               rng=7)
        assert result.ranking == Ranking([0, 1, 2])
