"""Step 2: preference smoothing of unanimous edges (Sec. V-B).

A *1-edge* ``(i, j)`` means every worker who answered the pair voted
``i ≺ j`` in this round; the opposite preference is unobserved, and these
unanimous edges are exactly what creates in-/out-nodes and breaks the
Hamiltonian-path traversal (Theorem 4.3).  Smoothing estimates the unseen
reverse preference from the quality of the workers who answered:

    ``w_ij <- w_ij - mean_k(err_k)``,  ``w_ji <- w_ji + mean_k(err_k)``

with ``err_k`` the error of worker ``k`` under ``N(0, sigma_k^2)`` and
``sigma_k = -log(q_k)``.  Two readings of "the error" are supported: the
deterministic expectation ``E|eps| = sigma_k * sqrt(2/pi)`` (default) and
a sampled draw (the paper's stochastic phrasing).  Only 1-edges are
touched — the paper smooths nothing else, "aiming to minimize the amounts
of errors introduced by estimation".

Two implementations are provided:

* :func:`smooth_preferences` — the object path over a
  :class:`~repro.graphs.preference_graph.PreferenceGraph`; the public
  graph-object API, and the oracle the pipeline's kernel is differenced
  against (``tests/oracles/object_path.py``);
* :func:`smooth_matrix` — the columnar fast path the pipeline runs:
  identifies 1-edges from the Step-1 truth vector, computes
  ``sigma_k`` once per distinct worker, and applies every shift with
  ``np.bincount`` over the pre-flattened vote arrays
  (:class:`~repro.types.VoteArrays`).

**Sampled-mode RNG draw-order contract.**  Both implementations consume
exactly one ``|N(0, sigma_k^2)|`` draw per (1-edge, vote) in the same
order: 1-edges in lexicographic ``(source, target)`` order, and votes
within an edge in original vote-set order.  ``numpy``'s vectorized
``Generator.normal(0, sigma_array)`` draws element-wise from the same
bit stream as the equivalent sequence of scalar calls, so for a fixed
seed the two paths produce bit-identical shifts.  (The object path
iterates ``graph.one_edges()``, which for Step-1 graphs built by
:meth:`PreferenceGraph.from_direct_preferences` over the sorted pair
table is exactly lexicographic ``(source, target)`` order — pinned by a
regression test.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..config import SmoothingConfig
from ..exceptions import InferenceError
from ..graphs.preference_graph import ONE_EDGE_TOLERANCE, PreferenceGraph
from ..rng import SeedLike, ensure_rng
from ..types import VoteArrays, VoteSet, WorkerId, canonical_pair


@dataclass(frozen=True)
class SmoothingResult:
    """Output of Step 2 (object path).

    Attributes
    ----------
    graph:
        The smoothed preference graph (both directions present for every
        compared pair, weights summing to 1 per pair).
    n_one_edges:
        How many unanimous edges were smoothed (the quantity the paper's
        Fig. 4 discussion ties to the Gaussian-vs-Uniform runtime gap).
    adjustments:
        Per smoothed directed edge, the amount moved to the reverse
        direction.
    """

    graph: PreferenceGraph
    n_one_edges: int
    adjustments: Dict[Tuple[int, int], float]


@dataclass(frozen=True)
class MatrixSmoothingResult:
    """Output of Step 2 (columnar fast path).

    Same information as :class:`SmoothingResult` with the graph replaced
    by its dense weight matrix — the representation Steps 3-4 consume
    directly.
    """

    matrix: np.ndarray
    n_one_edges: int
    adjustments: Dict[Tuple[int, int], float]


def worker_sigma(quality: float, config: SmoothingConfig) -> float:
    """The paper's ``sigma_k = -log(q_k)``, clipped into a sane band.

    ``q_k = 1`` would give sigma 0 (no smoothing at all) and ``q_k -> 0``
    would give an unbounded sigma; both ends are clipped so smoothed
    weights stay strictly inside (0, 1).
    """
    if not 0.0 < quality <= 1.0:
        raise InferenceError(f"worker quality {quality} outside (0, 1]")
    sigma = -math.log(quality) if quality < 1.0 else 0.0
    return float(min(max(sigma, config.sigma_floor), config.sigma_cap))


def _worker_error(
    sigma: float, config: SmoothingConfig, rng: np.random.Generator
) -> float:
    """One worker's estimated error mass ``err_k`` on a unanimous edge."""
    if config.mode == "expected":
        return sigma * math.sqrt(2.0 / math.pi)
    return float(abs(rng.normal(0.0, sigma)))


def smooth_preferences(
    graph: PreferenceGraph,
    votes: VoteSet,
    worker_quality: Mapping[WorkerId, float],
    config: Optional[SmoothingConfig] = None,
    rng: SeedLike = None,
) -> SmoothingResult:
    """Smooth every 1-edge of ``graph`` using the answering workers' quality.

    Parameters
    ----------
    graph:
        The direct preference graph from Step 1
        (:meth:`PreferenceGraph.from_direct_preferences`).
    votes:
        The raw votes — needed to find *which* workers answered each
        unanimous pair.
    worker_quality:
        Step 1's estimated ``q_k``.
    config:
        Smoothing configuration.
    rng:
        Only used in ``mode="sampled"``.

    Raises
    ------
    InferenceError
        If a 1-edge has no recorded votes (inconsistent inputs) or a
        quality is missing for an answering worker.
    """
    config = config if config is not None else SmoothingConfig()
    generator = ensure_rng(rng)
    votes_by_pair = votes.by_pair()
    smoothed = graph.copy()
    adjustments: Dict[Tuple[int, int], float] = {}
    # sigma_k is a pure function of the worker's quality — compute it
    # once per distinct worker, not once per (edge, vote).
    sigma_cache: Dict[WorkerId, float] = {}

    one_edges = graph.one_edges()
    for u, v in one_edges:
        pair = canonical_pair(u, v)
        pair_votes = votes_by_pair.get(pair)
        if not pair_votes:
            raise InferenceError(
                f"1-edge ({u} -> {v}) has no recorded votes; the vote set "
                "does not match the preference graph"
            )
        errors: List[float] = []
        for vote in pair_votes:
            sigma = sigma_cache.get(vote.worker)
            if sigma is None:
                if vote.worker not in worker_quality:
                    raise InferenceError(
                        f"no quality estimate for worker {vote.worker} "
                        f"answering pair {pair}"
                    )
                sigma = worker_sigma(worker_quality[vote.worker], config)
                sigma_cache[vote.worker] = sigma
            errors.append(_worker_error(sigma, config, generator))
        shift = float(np.mean(errors))
        # A unanimous edge may become uninformative (0.5/0.5) under very
        # unreliable workers but must never *invert*: the crowd said
        # i ≺ j, so the smoothed w_ij stays >= 0.5.  The lower clip keeps
        # both directions strictly positive (strong connectivity).
        shift = min(max(shift, config.min_weight), 0.5)

        smoothed.remove_edge(u, v)
        smoothed.add_edge(u, v, 1.0 - shift)
        if smoothed.has_edge(v, u):  # pragma: no cover - 1-edge => absent
            smoothed.remove_edge(v, u)
        smoothed.add_edge(v, u, shift)
        adjustments[(u, v)] = shift

    return SmoothingResult(
        graph=smoothed,
        n_one_edges=len(one_edges),
        adjustments=adjustments,
    )


def direct_preference_matrix(
    arrays: VoteArrays, truth_vector: np.ndarray
) -> np.ndarray:
    """Step-1 output as a dense weight matrix (fast-path ``G_P``).

    The matrix analogue of
    :meth:`PreferenceGraph.from_direct_preferences`: for each compared
    pair ``(i, j)`` (canonical ``i < j``) with estimated preference
    ``x_ij``, entry ``[i, j] = x_ij`` when positive and
    ``[j, i] = 1 - x_ij`` when ``x_ij < 1``; absent edges stay 0.
    """
    x = np.asarray(truth_vector, dtype=np.float64)
    if x.shape != (arrays.n_pairs,):
        raise InferenceError(
            f"truth vector of shape {x.shape} does not match the "
            f"{arrays.n_pairs}-pair vote table"
        )
    if arrays.n_pairs and (float(x.min()) < 0.0 or float(x.max()) > 1.0):
        raise InferenceError("truth vector entries outside [0, 1]")
    n = arrays.n_objects
    matrix = np.zeros((n, n), dtype=np.float64)
    forward = x > 0.0
    matrix[arrays.pair_lo[forward], arrays.pair_hi[forward]] = x[forward]
    reverse = x < 1.0
    matrix[arrays.pair_hi[reverse], arrays.pair_lo[reverse]] = \
        1.0 - x[reverse]
    return matrix


def smooth_matrix(
    direct: np.ndarray,
    truth_vector: np.ndarray,
    arrays: VoteArrays,
    worker_quality: Union[Mapping[WorkerId, float], np.ndarray],
    config: Optional[SmoothingConfig] = None,
    rng: SeedLike = None,
) -> MatrixSmoothingResult:
    """Vectorized Step 2 over the columnar vote arrays.

    Numerically identical to running :func:`smooth_preferences` on the
    graph built from the same truth vector (see the module docstring for
    the sampled-mode draw-order contract; per-edge means via
    ``np.bincount`` accumulate in the same sequential order as the
    object path's ``np.mean`` for the realistic <= 8 votes per pair).

    Parameters
    ----------
    direct:
        Dense Step-1 weight matrix (:func:`direct_preference_matrix`);
        not mutated.
    truth_vector:
        Step-1 preference estimates aligned with ``arrays``' pair table
        — 1-edges are identified directly from it (``x >= 1 - tol`` is
        a unanimous ``lo -> hi`` edge, ``x <= tol`` a unanimous
        ``hi -> lo`` edge).
    arrays:
        Columnar vote view; every pair in the table carries at least one
        vote by construction, so the object path's "1-edge without
        votes" failure mode cannot occur here.
    worker_quality:
        Either a quality vector aligned with ``arrays.worker_ids`` or a
        mapping that must cover every voting worker (the object path
        only requires quality for workers on unanimous pairs; the fast
        path checks all of them up front).
    """
    config = config if config is not None else SmoothingConfig()
    generator = ensure_rng(rng)
    x = np.asarray(truth_vector, dtype=np.float64)
    sigma = _sigma_vector(arrays, worker_quality, config)
    src, dst, pair_of_edge = _one_edge_table(x, arrays)
    n_edges = int(src.shape[0])

    smoothed = np.array(direct, dtype=np.float64, copy=True)
    if n_edges == 0:
        return MatrixSmoothingResult(matrix=smoothed, n_one_edges=0,
                                     adjustments={})

    shift = _edge_shifts(arrays, sigma, pair_of_edge, config, generator)
    smoothed[src, dst] = 1.0 - shift
    smoothed[dst, src] = shift
    adjustments = {
        (u, v): s
        for u, v, s in zip(src.tolist(), dst.tolist(), shift.tolist())
    }
    return MatrixSmoothingResult(
        matrix=smoothed,
        n_one_edges=n_edges,
        adjustments=adjustments,
    )


def resmooth_pairs(
    previous: np.ndarray,
    truth_vector: np.ndarray,
    arrays: VoteArrays,
    worker_quality: Union[Mapping[WorkerId, float], np.ndarray],
    pair_mask: np.ndarray,
    config: Optional[SmoothingConfig] = None,
    rng: SeedLike = None,
) -> MatrixSmoothingResult:
    """Steps 1-2 applied to a *subset* of pairs over a previous matrix.

    The streaming session's incremental update: given the last smoothed
    matrix, refresh only the entries of pairs flagged in ``pair_mask``
    (a boolean vector over the columnar pair table — the pairs that
    received new votes, plus every pair answered by a worker who did).
    For each flagged pair the entry is rebuilt exactly as the full path
    would: the direct weight from the current truth vector, then the
    1-edge smoothing shift where the pair is unanimous.  Entries of
    unflagged pairs are carried over untouched — the incremental
    approximation that makes per-vote updates cheap; a periodic full
    :func:`smooth_matrix` rebuild (and the batch-equivalence guarantee
    of a session's full recompute) bounds the drift.

    With ``pair_mask`` all-true and ``previous`` the direct matrix of
    the same truth vector, the result is identical to
    :func:`smooth_matrix` (pinned by a regression test).
    """
    config = config if config is not None else SmoothingConfig()
    generator = ensure_rng(rng)
    x = np.asarray(truth_vector, dtype=np.float64)
    mask = np.asarray(pair_mask, dtype=bool)
    if x.shape != (arrays.n_pairs,) or mask.shape != (arrays.n_pairs,):
        raise InferenceError(
            f"truth vector {x.shape} / pair mask {mask.shape} do not "
            f"match the {arrays.n_pairs}-pair vote table"
        )
    smoothed = np.array(previous, dtype=np.float64, copy=True)
    if not mask.any():
        return MatrixSmoothingResult(matrix=smoothed, n_one_edges=0,
                                     adjustments={})

    # Direct weights for the flagged pairs (same zero-for-absent rule
    # as direct_preference_matrix, both directions rewritten).
    lo, hi, xm = arrays.pair_lo[mask], arrays.pair_hi[mask], x[mask]
    smoothed[lo, hi] = np.where(xm > 0.0, xm, 0.0)
    smoothed[hi, lo] = np.where(xm < 1.0, 1.0 - xm, 0.0)

    sigma = _sigma_vector(arrays, worker_quality, config)
    src, dst, pair_of_edge = _one_edge_table(x, arrays, mask)
    n_edges = int(src.shape[0])
    if n_edges == 0:
        return MatrixSmoothingResult(matrix=smoothed, n_one_edges=0,
                                     adjustments={})
    shift = _edge_shifts(arrays, sigma, pair_of_edge, config, generator)
    smoothed[src, dst] = 1.0 - shift
    smoothed[dst, src] = shift
    adjustments = {
        (u, v): s
        for u, v, s in zip(src.tolist(), dst.tolist(), shift.tolist())
    }
    return MatrixSmoothingResult(
        matrix=smoothed,
        n_one_edges=n_edges,
        adjustments=adjustments,
    )


def _sigma_vector(
    arrays: VoteArrays,
    worker_quality: Union[Mapping[WorkerId, float], np.ndarray],
    config: SmoothingConfig,
) -> np.ndarray:
    """Per-distinct-worker sigma, through the same scalar
    :func:`worker_sigma` as the object path (bit-identical clipping and
    log)."""
    if isinstance(worker_quality, np.ndarray):
        qualities = worker_quality.tolist()
    else:
        workers = arrays.workers()
        missing = [w for w in workers if w not in worker_quality]
        if missing:
            raise InferenceError(
                f"no quality estimate for worker {missing[0]}"
            )
        qualities = [worker_quality[w] for w in workers]
    if len(qualities) != arrays.n_workers:
        raise InferenceError(
            f"{len(qualities)} worker qualities for {arrays.n_workers} "
            "voting workers"
        )
    return np.array([worker_sigma(q, config) for q in qualities],
                    dtype=np.float64)


def _one_edge_table(
    x: np.ndarray,
    arrays: VoteArrays,
    pair_mask: Optional[np.ndarray] = None,
) -> tuple:
    """1-edges from the truth vector, in the object path's draw order:
    lexicographic ``(source, target)``.  ``pair_mask`` restricts the
    table to a subset of pairs (the incremental path)."""
    one_forward = x >= 1.0 - ONE_EDGE_TOLERANCE
    one_reverse = (1.0 - x) >= 1.0 - ONE_EDGE_TOLERANCE
    if pair_mask is not None:
        one_forward = one_forward & pair_mask
        one_reverse = one_reverse & pair_mask
    src = np.concatenate([arrays.pair_lo[one_forward],
                          arrays.pair_hi[one_reverse]])
    dst = np.concatenate([arrays.pair_hi[one_forward],
                          arrays.pair_lo[one_reverse]])
    pair_of_edge = np.concatenate([np.nonzero(one_forward)[0],
                                   np.nonzero(one_reverse)[0]])
    order = np.lexsort((dst, src))
    return src[order], dst[order], pair_of_edge[order]


def _edge_shifts(
    arrays: VoteArrays,
    sigma: np.ndarray,
    pair_of_edge: np.ndarray,
    config: SmoothingConfig,
    generator: np.random.Generator,
) -> np.ndarray:
    """Per-1-edge smoothing shift: the mean worker error over the
    edge's votes, clipped into ``[min_weight, 0.5]``.

    Gathers each edge's votes edge-major, original order within edge:
    votes stably sorted by pair give contiguous per-pair blocks.
    """
    n_edges = int(pair_of_edge.shape[0])
    by_pair_order = np.argsort(arrays.pair_idx, kind="stable")
    counts = np.bincount(arrays.pair_idx, minlength=arrays.n_pairs)
    block_start = np.concatenate(([0], np.cumsum(counts)))[:-1]
    lengths = counts[pair_of_edge]
    out_start = np.cumsum(lengths) - lengths
    flat = np.arange(int(lengths.sum()))
    within = flat - np.repeat(out_start, lengths)
    vote_rows = by_pair_order[np.repeat(block_start[pair_of_edge], lengths)
                              + within]

    per_vote_sigma = sigma[arrays.worker_idx[vote_rows]]
    if config.mode == "expected":
        errors = per_vote_sigma * math.sqrt(2.0 / math.pi)
    else:
        errors = np.abs(generator.normal(0.0, per_vote_sigma))

    edge_of_vote = np.repeat(np.arange(n_edges), lengths)
    shift = (np.bincount(edge_of_vote, weights=errors, minlength=n_edges)
             / lengths)
    return np.clip(shift, config.min_weight, 0.5)
