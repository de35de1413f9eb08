"""Hamiltonian-path searches kept only as test oracles.

:func:`best_hamiltonian_path_dp` is an exact Held-Karp reference for the
Step-4 searches.  :func:`greedy_hamiltonian_path` and
:func:`weight_difference_order` re-implement, on a
:class:`~repro.graphs.WeightedDigraph`, the ``"greedy"`` and
``"degree"`` branches of SAPS's initial path
(``repro.inference.saps._initial_path``); ``tests/test_graphs_hamiltonian.py``
differences the two forms on random complete closures.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.exceptions import GraphError, InferenceError
from repro.graphs import WeightedDigraph
from repro.graphs.hamiltonian import _DP_LIMIT
from repro.types import Ranking


def best_hamiltonian_path_dp(graph: WeightedDigraph) -> Ranking:
    """Exact max-probability HP by Held-Karp DP (O(2^n * n^2)).

    The third exact reference next to TAPS and branch-and-bound;
    practical to roughly ``n = 16``.

    Raises
    ------
    InferenceError
        If no Hamiltonian path exists.
    GraphError
        If ``n`` exceeds the DP limit.
    """
    n = graph.n_vertices
    if n > _DP_LIMIT:
        raise GraphError(f"DP search infeasible for n={n} (> {_DP_LIMIT})")
    if n == 1:
        return Ranking([0])

    neg_inf = float("-inf")
    size = 1 << n
    best = np.full((size, n), neg_inf, dtype=np.float64)
    parent = np.full((size, n), -1, dtype=np.int32)
    for v in range(n):
        best[1 << v][v] = 0.0

    log_w = np.full((n, n), neg_inf)
    for u, v, w in graph.edges():
        log_w[u, v] = math.log(w)

    for mask in range(size):
        row = best[mask]
        for v in range(n):
            score = row[v]
            if score == neg_inf:
                continue
            for w_vertex in graph.successors(v):
                bit = 1 << w_vertex
                if mask & bit:
                    continue
                cand = score + log_w[v, w_vertex]
                nxt = mask | bit
                if cand > best[nxt][w_vertex]:
                    best[nxt][w_vertex] = cand
                    parent[nxt][w_vertex] = v

    full = size - 1
    end = int(np.argmax(best[full]))
    if best[full][end] == neg_inf:
        raise InferenceError("graph has no Hamiltonian path")
    order: List[int] = []
    mask, vertex = full, end
    while vertex != -1:
        order.append(vertex)
        prev = int(parent[mask][vertex])
        mask ^= 1 << vertex
        vertex = prev
    order.reverse()
    return Ranking(order)


def greedy_hamiltonian_path(
    graph: WeightedDigraph, start: int
) -> Optional[List[int]]:
    """Nearest-neighbour HP construction from ``start``.

    Follows the heaviest outgoing edge to an unvisited vertex; on a
    complete graph (the post-Step-3 state) this always succeeds.  Returns
    ``None`` if it dead-ends on an incomplete graph.  Graph-object form
    of SAPS's ``init="greedy"`` ("selecting the nearest neighbors",
    Algorithm 2 line 3).
    """
    n = graph.n_vertices
    visited = [False] * n
    visited[start] = True
    path = [start]
    current = start
    for _ in range(n - 1):
        best_v, best_w = -1, -1.0
        for v, w in graph.out_edges(current):
            if not visited[v] and w > best_w:
                best_v, best_w = v, w
        if best_v < 0:
            return None
        visited[best_v] = True
        path.append(best_v)
        current = best_v
    return path


def weight_difference_order(graph: WeightedDigraph) -> List[int]:
    """Rank vertices by total out-weight minus in-weight, descending.

    Graph-object form of SAPS's ``init="degree"`` (Algorithm 2 line 3:
    "ranking the nodes based on the difference of their out-/in- edge
    weights").  A vertex that mostly wins comparisons floats to the
    front.
    """
    n = graph.n_vertices
    score = np.zeros(n)
    for u, v, w in graph.edges():
        score[u] += w
        score[v] -= w
    return sorted(range(n), key=lambda v: -score[v])
