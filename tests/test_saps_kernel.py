"""Equivalence and unit tests for the incremental SAPS kernel.

The contract under test: the incremental kernel (delta evaluation,
in-place moves, pre-fetched RNG blocks) is *observationally identical*
to the reference kernel (full re-sum per proposal, scalar RNG draws)
for any seed — same accepted moves, same best ranking, same cost to
float precision — while being several times faster (benchmarked by
``benchmarks/bench_saps.py``, not here).
"""

import math

import numpy as np
import pytest

from repro.config import SAPSConfig
from repro.exceptions import ConfigurationError, InferenceError
from repro.inference import saps
from repro.inference.delta import (
    apply_rotate,
    apply_swap,
    cost_rows,
    path_cost,
    reverse_delta,
    reverse_diff_matrix,
    rotate_delta,
    swap_delta,
)
from repro.inference.saps import saps_search, saps_search_report
from repro.workers import parallel_map
from tests.oracles.saps_reference import drift_checks, reference_kernel


def random_closure(n, seed):
    rng = np.random.default_rng(seed)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            p = rng.uniform(0.05, 0.95)
            matrix[i, j] = p
            matrix[j, i] = 1.0 - p
    return matrix


def random_cost(n, seed):
    rng = np.random.default_rng(seed)
    cost = -np.log(rng.uniform(0.05, 0.95, (n, n)))
    np.fill_diagonal(cost, np.inf)
    return cost


class TestDeltas:
    """Each delta must equal the brute-force cost difference."""

    @pytest.mark.parametrize("n", [2, 3, 4, 10, 30])
    def test_rotate_delta_matches_resum(self, n):
        cost = random_cost(n, seed=n)
        rows = cost_rows(cost)
        rng = np.random.default_rng(n + 1)
        for _ in range(200):
            path = list(rng.permutation(n))
            first = int(rng.integers(0, n - 1))
            last = int(rng.integers(first + 2, n + 1))
            middle = int(rng.integers(first + 1, last))
            before = path_cost(cost, path)
            delta = rotate_delta(rows, path, first, middle, last)
            apply_rotate(path, first, middle, last)
            assert delta == pytest.approx(path_cost(cost, path) - before,
                                          abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 10, 30])
    def test_reverse_delta_matches_resum(self, n):
        cost = random_cost(n, seed=n)
        rows = cost_rows(cost)
        diff = reverse_diff_matrix(cost).tolist()
        rng = np.random.default_rng(n + 2)
        for _ in range(200):
            path = list(rng.permutation(n))
            first = int(rng.integers(0, n - 1))
            last = int(rng.integers(first + 2, n + 1))
            before = path_cost(cost, path)
            delta = reverse_delta(rows, diff, path, first, last)
            path[first:last] = path[first:last][::-1]
            assert delta == pytest.approx(path_cost(cost, path) - before,
                                          abs=1e-9)

    def test_reverse_delta_vectorised_path_agrees(self):
        """Above the segment-length threshold the numpy gather must give
        the same delta as the scalar loop."""
        n = 300
        cost = random_cost(n, seed=0)
        rows = cost_rows(cost)
        diff_matrix = reverse_diff_matrix(cost)
        diff = diff_matrix.tolist()
        rng = np.random.default_rng(1)
        path = list(rng.permutation(n))
        for first, last in [(0, n), (3, n - 2), (10, 280)]:
            scalar = reverse_delta(rows, diff, path, first, last)
            vector = reverse_delta(rows, diff, path, first, last,
                                   diff_matrix=diff_matrix)
            assert vector == pytest.approx(scalar, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 10, 30])
    def test_swap_delta_matches_resum(self, n):
        cost = random_cost(n, seed=n)
        rows = cost_rows(cost)
        rng = np.random.default_rng(n + 3)
        for _ in range(200):
            path = list(rng.permutation(n))
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            before = path_cost(cost, path)
            delta = swap_delta(rows, path, i, j)
            apply_swap(path, i, j)
            assert delta == pytest.approx(path_cost(cost, path) - before,
                                          abs=1e-9)

    def test_diff_matrix_no_nan_with_inf_diagonal(self):
        cost = random_cost(6, seed=9)  # diagonal is +inf
        diff = reverse_diff_matrix(cost)
        assert not np.isnan(diff).any()


class TestKernelEquivalence:
    """Incremental and reference kernels are seed-for-seed identical."""

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_kernels_agree(self, n):
        matrix = random_closure(n, seed=n)
        config = SAPSConfig(iterations=400, restarts=2)
        with drift_checks(resync_every=64):
            inc = saps_search_report(matrix, config, rng=7)
        with reference_kernel():
            ref = saps_search_report(matrix, config, rng=7)
        assert inc.ranking == ref.ranking
        assert inc.log_preference == pytest.approx(ref.log_preference,
                                                   abs=1e-9)
        assert inc.accepted_moves == ref.accepted_moves
        assert inc.proposed_moves == ref.proposed_moves

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_incremental_cost_never_drifts(self, n):
        """The drift check asserts running == re-summed after *every*
        accepted move; a huge resync interval means the check alone
        guards the drift across the whole run."""
        matrix = random_closure(n, seed=n + 100)
        with drift_checks(resync_every=10**9):
            report = saps_search_report(
                matrix, SAPSConfig(iterations=600, restarts=1), rng=3,
            )
        assert report.proposed_moves == 600 * 3

    def test_drift_check_catches_a_wrong_delta(self, monkeypatch):
        """The drift check is live: a swap delta that is off by 1e-3
        trips it on the first accepted swap."""
        real = saps.swap_delta
        monkeypatch.setattr(saps, "swap_delta",
                            lambda *args: real(*args) + 1e-3)
        matrix = random_closure(10, seed=4)
        with drift_checks(), pytest.raises(AssertionError, match="drifted"):
            saps_search_report(
                matrix, SAPSConfig(iterations=400, restarts=1), rng=3,
            )

    def test_complete_closure_runs_incremental(self):
        cost = -np.log(random_closure(6, seed=1) + np.eye(6))
        np.fill_diagonal(cost, np.inf)
        assert saps._select_kernel(cost) == "incremental"
        cost[2, 4] = np.inf
        assert saps._select_kernel(cost) == "reference"

    def test_incomplete_closure_falls_back_to_reference(self):
        """Any missing edge selects the reference kernel (inf-safe); the
        result must match a run forced onto the reference oracle."""
        matrix = random_closure(8, seed=5)
        matrix[2, 6] = 0.0  # knock out one direction
        config = SAPSConfig(iterations=300, restarts=2)
        chosen = saps_search_report(matrix, config, rng=11)
        with reference_kernel():
            ref = saps_search_report(matrix, config, rng=11)
        assert chosen.ranking == ref.ranking
        assert chosen.log_preference == ref.log_preference
        assert math.isfinite(chosen.log_preference)

    def test_incomplete_graph_still_raises_without_path(self):
        matrix = np.zeros((4, 4))
        matrix[0, 1] = 0.9
        with pytest.raises(InferenceError):
            saps_search(matrix, SAPSConfig(iterations=50, restarts=1), rng=0)


class TestParallelRestarts:
    @pytest.mark.parametrize("n", [5, 12, 30])
    def test_serial_equals_parallel(self, n):
        """Same seed, same best ranking and cost, any thread count."""
        matrix = random_closure(n, seed=n + 40)
        base = dict(iterations=200, restarts=None)  # every-vertex restarts
        serial = saps_search_report(
            matrix, SAPSConfig(**base, parallel_restarts=1), rng=13
        )
        parallel = saps_search_report(
            matrix, SAPSConfig(**base, parallel_restarts=4), rng=13
        )
        assert serial.ranking == parallel.ranking
        assert serial.log_preference == parallel.log_preference
        assert serial.accepted_moves == parallel.accepted_moves
        assert serial.proposed_moves == parallel.proposed_moves

    def test_serial_equals_parallel_reference_kernel(self):
        matrix = random_closure(10, seed=77)
        base = dict(iterations=150, restarts=3)
        with reference_kernel():
            serial = saps_search_report(
                matrix, SAPSConfig(**base, parallel_restarts=1), rng=5
            )
            parallel = saps_search_report(
                matrix, SAPSConfig(**base, parallel_restarts=3), rng=5
            )
        assert serial.ranking == parallel.ranking
        assert serial.log_preference == parallel.log_preference


class TestParallelMap:
    def test_preserves_order(self):
        out = parallel_map(lambda x: x * x, list(range(20)), max_workers=4)
        assert out == [x * x for x in range(20)]

    def test_serial_path(self):
        out = parallel_map(lambda x: x + 1, [1, 2, 3], max_workers=1)
        assert out == [2, 3, 4]

    def test_propagates_exceptions(self):
        def boom(x):
            raise ValueError(f"bad {x}")

        with pytest.raises(ValueError):
            parallel_map(boom, [1, 2], max_workers=2)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            parallel_map(lambda x: x, [1], max_workers=0)
