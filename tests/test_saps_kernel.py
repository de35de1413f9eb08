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
from hypothesis import given, settings, strategies as st

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


def reverse_draws(n, first, last):
    """The ten draws of one iteration whose Reverse is (first, last)."""
    draws = np.full(10, 0.5)
    draws[4] = (first + 0.5) / (n - 1)
    draws[5] = (last - first - 2 + 0.5) / (n - first - 1)
    return draws


def scalar_deltas(tables, path, block, iterations):
    """The exact check's delta of every proposal, in proposal order."""
    out = []
    for t in range(iterations):
        out.append(rotate_delta(tables.rows, path, block.rf[t],
                                block.rm[t], block.rl[t]))
        out.append(reverse_delta(tables.rows, tables.diff, path,
                                 block.vf[t], block.vl[t]))
        out.append(swap_delta(tables.rows, path, block.si[t], block.sj[t]))
    return out


class TestScreen:
    """The vectorised screen: O(1) Reverse via the path prefix sum, and
    a *surely rejected* verdict the scalar test always agrees with."""

    @pytest.mark.parametrize("first, last", [
        (0, 300), (0, 250), (50, 300), (3, 298), (10, 280),
    ])
    def test_prefix_sum_reverse_delta_matches_resum(self, first, last):
        """Segments longer than 192 edges, touching either path end:
        ``F[last-1] - F[first]`` plus the boundary terms equals the
        re-summed cost change and the scalar delta."""
        n = 300
        cost = random_cost(n, seed=0)
        tables = saps._KernelTables(cost)
        screen = saps._Screen(tables, n)
        path = [int(v) for v in np.random.default_rng(1).permutation(n)]
        screen.refresh(path)
        block = saps._Block(reverse_draws(n, first, last), n, 0.2, 0.9995)
        assert (block.vf[0], block.vl[0]) == (first, last)
        screened = float(screen.deltas(block, 0, 1)[0, 1])
        scalar = reverse_delta(tables.rows, tables.diff, path, first, last)
        before = path_cost(cost, path)
        path[first:last] = path[first:last][::-1]
        assert screened == pytest.approx(path_cost(cost, path) - before,
                                         abs=1e-9)
        assert abs(screened - scalar) <= tables.tol

    @pytest.mark.parametrize("n", [2, 3, 4, 10, 30])
    def test_screened_deltas_match_scalar(self, n):
        """Every move type, including path ends, adjacent and identity
        swaps, is within ``tol`` of the scalar delta."""
        cost = random_cost(n, seed=n)
        tables = saps._KernelTables(cost)
        rng = np.random.default_rng(n + 4)
        for _ in range(20):
            path = [int(v) for v in rng.permutation(n)]
            block = saps._Block(rng.random(10 * 64), n, 0.2, 0.9995)
            screen = saps._Screen(tables, n)
            screen.refresh(path)
            screened = screen.deltas(block, 0, 64).ravel()
            scalar = np.array(scalar_deltas(tables, path, block, 64))
            assert np.abs(screened - scalar).max() <= tables.tol

    def test_moves_mirror_into_the_screen(self):
        """An accepted move applied to the list path and mirrored into
        the screen leaves both on the same permutation and prefix sum."""
        n = 25
        tables = saps._KernelTables(random_cost(n, seed=2))
        rng = np.random.default_rng(3)
        block = saps._Block(rng.random(10 * 40), n, 0.2, 0.9995)
        path = list(range(n))
        screen = saps._Screen(tables, n)
        screen.refresh(path)
        for k in range(3 * 40):
            t, kind = divmod(k, 3)
            if kind == 0:
                apply_rotate(path, block.rf[t], block.rm[t], block.rl[t])
            elif kind == 1:
                first, last = block.vf[t], block.vl[t]
                path[first:last] = path[first:last][::-1]
            else:
                apply_swap(path, block.si[t], block.sj[t])
            screen.mirror(block, k)
            screen.refresh(path)
            assert screen.padded[1:n + 1].tolist() == path
        fresh = saps._Screen(tables, n)
        fresh.refresh(path)
        assert np.array_equal(screen.prefix, fresh.prefix)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           tied=st.booleans(),
           regime=st.sampled_from(["warm", "cold", "clamp"]),
           ulps=st.integers(-3, 3))
    def test_surely_rejected_is_rejected(self, seed, n, tied, regime, ulps):
        """With ``u`` pinned to ``exp(-delta/T)`` give or take a few
        ulps, on closures whose exact deltas are often 0 and at the
        ``1e-300`` temperature clamp, a proposal the screen skips is
        always one the scalar test rejects."""
        rng = np.random.default_rng(seed)
        if tied:
            upper = rng.choice([0.3, 0.5, 0.7], size=(n, n))
        else:
            upper = rng.uniform(0.05, 0.95, size=(n, n))
        matrix = np.triu(upper, 1) + np.tril(1.0 - np.triu(upper, 1).T, -1)
        np.fill_diagonal(matrix, 0.0)
        cost = -np.log(matrix + np.eye(n))
        np.fill_diagonal(cost, np.inf)
        tables = saps._KernelTables(cost)
        temperature = {"warm": 0.2, "cold": 1e-3, "clamp": 1e-300}[regime]
        iterations = 64
        path = [int(v) for v in rng.permutation(n)]
        draws = rng.random(10 * iterations)
        block = saps._Block(draws, n, temperature, 0.999)
        deltas = scalar_deltas(tables, path, block, iterations)
        # Pin half the acceptance draws a few ulps from the exact
        # threshold; the rest stay uniform, so the screen skips some.
        pinned = []
        for k, delta in enumerate(deltas):
            if rng.random() < 0.5:
                pinned.append(block.u[k])
                continue
            u = math.exp(-max(delta, 0.0) / block.temps[k // 3])
            for _ in range(abs(ulps)):
                u = float(np.nextafter(u, math.inf if ulps > 0 else 0.0))
            pinned.append(min(u, float(np.nextafter(1.0, 0.0))))
        draws.reshape(iterations, 10)[:, 3::3] = \
            np.array(pinned).reshape(iterations, 3)
        block = saps._Block(draws, n, temperature, 0.999)
        assert block.u == pinned
        screen = saps._Screen(tables, n)
        screen.refresh(path)
        candidates = set(screen.candidates(block, 0, iterations))
        for k, delta in enumerate(deltas):
            u, temperature = block.u[k], block.temps[k // 3]
            if delta < 0.0 or u < math.exp(-delta / temperature):
                assert k in candidates, (k, delta, u, temperature)


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

    @pytest.mark.parametrize("n", [10, 60, 150])
    def test_kernels_agree_on_a_cold_schedule(self, n, monkeypatch):
        """A cold schedule leaves long runs of rejected proposals, so
        screened windows really run: fewer proposals reach the scalar
        check than are proposed, and the result is still the
        reference kernel's."""
        matrix = random_closure(n, seed=n + 7)
        config = SAPSConfig(iterations=3000, restarts=2, temperature=1e-3)
        checked = []
        for name in ("rotate_delta", "reverse_delta", "swap_delta"):
            real = getattr(saps, name)
            monkeypatch.setattr(
                saps, name,
                lambda *args, real=real: checked.append(1) or real(*args))
        with drift_checks(resync_every=64):
            inc = saps_search_report(matrix, config, rng=9)
        monkeypatch.undo()
        with reference_kernel():
            ref = saps_search_report(matrix, config, rng=9)
        assert inc.ranking == ref.ranking
        assert inc.log_preference == pytest.approx(ref.log_preference,
                                                   abs=1e-9)
        assert inc.accepted_moves == ref.accepted_moves
        assert inc.proposed_moves == ref.proposed_moves
        assert inc.accepted_moves <= len(checked) < inc.proposed_moves / 4

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
