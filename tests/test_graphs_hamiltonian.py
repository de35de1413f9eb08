"""Unit tests for repro.graphs.hamiltonian."""

import math

import numpy as np
import pytest

from repro.config import SAPSConfig
from repro.exceptions import GraphError, InferenceError
from repro.graphs import WeightedDigraph
from repro.graphs.hamiltonian import (
    has_hamiltonian_path,
    hamiltonian_path_log_probability,
    path_log_preference,
)
from repro.inference.saps import _initial_path
from repro.types import Ranking
from tests.oracles.hamiltonian import (
    best_hamiltonian_path_dp,
    greedy_hamiltonian_path,
    weight_difference_order,
)


def complete_graph(weights):
    n = weights.shape[0]
    graph = WeightedDigraph(n)
    for i in range(n):
        for j in range(n):
            if i != j and weights[i, j] > 0:
                graph.add_edge(i, j, weights[i, j])
    return graph


@pytest.fixture
def sharp_graph():
    """Complete 4-vertex graph strongly favouring the order 0,1,2,3."""
    n = 4
    weights = np.full((n, n), 0.1)
    for i in range(n):
        for j in range(n):
            if i < j:
                weights[i, j] = 0.9
    np.fill_diagonal(weights, 0.0)
    return complete_graph(weights)


class TestPathLogPreference:
    def test_product_in_log_space(self, sharp_graph):
        log_pref = path_log_preference(sharp_graph, [0, 1, 2, 3])
        assert log_pref == pytest.approx(3 * math.log(0.9))

    def test_missing_edge_gives_neg_inf(self):
        graph = WeightedDigraph(3)
        graph.add_edge(0, 1, 0.5)
        assert path_log_preference(graph, [0, 1, 2]) == float("-inf")

    def test_ranking_wrapper_checks_size(self, sharp_graph):
        with pytest.raises(GraphError):
            hamiltonian_path_log_probability(sharp_graph, Ranking([0, 1]))

    def test_ranking_wrapper_value(self, sharp_graph):
        value = hamiltonian_path_log_probability(sharp_graph, Ranking([0, 1, 2, 3]))
        assert value == pytest.approx(3 * math.log(0.9))


class TestHasHamiltonianPath:
    def test_complete_graph_shortcut(self, sharp_graph):
        assert has_hamiltonian_path(sharp_graph)

    def test_theorem_4_3_two_in_nodes(self):
        """Two in-nodes -> no HP (Theorem 4.3)."""
        graph = WeightedDigraph(4)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(0, 3, 1.0)
        graph.add_edge(1, 3, 1.0)
        assert not has_hamiltonian_path(graph)

    def test_chain_has_hp(self):
        graph = WeightedDigraph(4)
        for i in range(3):
            graph.add_edge(i, i + 1, 0.5)
        assert has_hamiltonian_path(graph)

    def test_single_vertex(self):
        assert has_hamiltonian_path(WeightedDigraph(1))

    def test_dp_negative_case(self):
        """A 'Y' shape: one in-node fed by a path plus a dangling source.

        in/out-node counts alone don't decide it; the DP must."""
        graph = WeightedDigraph(4)
        graph.add_edge(0, 1, 0.5)
        graph.add_edge(1, 0, 0.5)
        graph.add_edge(2, 3, 0.5)
        graph.add_edge(3, 2, 0.5)
        assert not has_hamiltonian_path(graph)

    def test_size_guard(self):
        graph = WeightedDigraph(25)
        for i in range(24):
            graph.add_edge(i, i + 1, 0.5)
            graph.add_edge(i + 1, i, 0.5)
        with pytest.raises(GraphError):
            has_hamiltonian_path(graph)


class TestBestHamiltonianPathDP:
    def test_finds_sharp_optimum(self, sharp_graph):
        assert best_hamiltonian_path_dp(sharp_graph) == Ranking([0, 1, 2, 3])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        n = 5
        weights = rng.uniform(0.1, 0.9, size=(n, n))
        np.fill_diagonal(weights, 0.0)
        graph = complete_graph(weights)
        best = best_hamiltonian_path_dp(graph)

        import itertools

        def brute():
            top, top_path = -math.inf, None
            for perm in itertools.permutations(range(n)):
                value = path_log_preference(graph, perm)
                if value > top:
                    top, top_path = value, perm
            return top_path, top

        brute_path, brute_value = brute()
        assert hamiltonian_path_log_probability(graph, best) == pytest.approx(
            brute_value
        )

    def test_no_hp_raises(self):
        graph = WeightedDigraph(3)
        graph.add_edge(0, 1, 0.5)  # vertex 2 unreachable
        with pytest.raises(InferenceError):
            best_hamiltonian_path_dp(graph)

    def test_single_vertex(self):
        assert best_hamiltonian_path_dp(WeightedDigraph(1)) == Ranking([0])


class TestGreedyPath:
    def test_follows_heaviest_edges(self, sharp_graph):
        assert greedy_hamiltonian_path(sharp_graph, 0) == [0, 1, 2, 3]

    def test_dead_end_returns_none(self):
        graph = WeightedDigraph(3)
        graph.add_edge(0, 1, 0.9)
        assert greedy_hamiltonian_path(graph, 0) is None


class TestWeightDifferenceOrder:
    def test_winner_floats_to_front(self, sharp_graph):
        assert weight_difference_order(sharp_graph) == [0, 1, 2, 3]


def random_closure(n, rng):
    """A complete Step-3-shaped closure: ``w_ij + w_ji = 1``."""
    upper = rng.uniform(0.02, 0.98, size=(n, n))
    weights = np.triu(upper, k=1)
    weights = weights + np.tril(1.0 - upper.T, k=-1)
    np.fill_diagonal(weights, 0.0)
    return weights


class TestSAPSInitialPathOracles:
    """The graph-object oracles agree with SAPS's matrix initial paths."""

    @pytest.mark.parametrize("seed", range(8))
    def test_greedy_and_degree_branches(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        weights = random_closure(n, rng)
        graph = complete_graph(weights)
        with np.errstate(divide="ignore"):
            cost = -np.log(weights)
        np.fill_diagonal(cost, np.inf)
        degree_order = weight_difference_order(graph)
        for start in range(n):
            greedy = _initial_path(weights, cost, start,
                                   SAPSConfig(init="greedy"), rng)
            assert greedy.tolist() == greedy_hamiltonian_path(graph, start)
            degree = _initial_path(weights, cost, start,
                                   SAPSConfig(init="degree"), rng)
            expected = [start] + [v for v in degree_order if v != start]
            assert degree.tolist() == expected
