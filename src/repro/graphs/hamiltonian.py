"""Hamiltonian-path utilities (Sec. III: HP <=> full ranking).

A full ranking of the objects is exactly a Hamiltonian path of the
transitive closure of the (smoothed) preference graph; its *preference
probability* is the product of its edge weights.  All search code works in
log space (``log Pr[P] = sum log w``) to avoid underflow at large ``n``.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..exceptions import GraphError
from ..types import Ranking
from .digraph import WeightedDigraph

#: DP-based existence checking is exponential in memory (O(2^n * n)).
_DP_LIMIT = 20


def path_log_preference(
    graph: WeightedDigraph, path: Sequence[int]
) -> float:
    """``log Pr[P] = sum over consecutive pairs of log w_ij``.

    Returns ``-inf`` when some consecutive pair has no edge.
    """
    total = 0.0
    for u, v in zip(path, path[1:]):
        w = graph.weight_or(u, v, 0.0)
        if w <= 0.0:
            return float("-inf")
        total += math.log(w)
    return total


def hamiltonian_path_log_probability(
    graph: WeightedDigraph, ranking: Ranking
) -> float:
    """Log preference probability of the HP induced by a full ranking."""
    if len(ranking) != graph.n_vertices:
        raise GraphError(
            f"ranking covers {len(ranking)} objects, graph has "
            f"{graph.n_vertices}"
        )
    return path_log_preference(graph, ranking.order)


def has_hamiltonian_path(graph: WeightedDigraph) -> bool:
    """Whether a directed Hamiltonian path exists.

    Fast paths first (complete graph -> always, by the standard
    tournament/complete-graph argument of Theorem 5.1; more than one
    in-/out-node -> never, by Theorem 4.3), then an exact Held-Karp
    bitmask DP for ``n <= 20``.

    Raises
    ------
    GraphError
        When no fast path applies and ``n`` exceeds the DP limit.
    """
    n = graph.n_vertices
    if n == 1:
        return True
    if graph.is_complete():
        return True
    if len(graph.in_nodes()) > 1 or len(graph.out_nodes()) > 1:
        return False  # Theorem 4.3
    if n > _DP_LIMIT:
        raise GraphError(
            f"exact HP existence on n={n} exceeds the DP limit "
            f"{_DP_LIMIT}; complete the graph (Steps 2-3) first"
        )
    return _held_karp_exists(graph)


def _held_karp_exists(graph: WeightedDigraph) -> bool:
    """Bitmask DP: reachable[mask][v] = can a path over `mask` end at v."""
    n = graph.n_vertices
    reachable = [[False] * n for _ in range(1 << n)]
    for v in range(n):
        reachable[1 << v][v] = True
    for mask in range(1 << n):
        for v in range(n):
            if not reachable[mask][v]:
                continue
            for w in graph.successors(v):
                next_mask = mask | (1 << w)
                if next_mask != mask:
                    reachable[next_mask][w] = True
    full = (1 << n) - 1
    return any(reachable[full])
