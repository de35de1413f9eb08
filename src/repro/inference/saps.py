"""Step 4 heuristic: simulated-annealing path search (Sec. V-D2).

Faithful implementation of Algorithms 2 and 3.  The objective is the
negative-log form: find the Hamiltonian path ``P`` minimising
``d(P) = sum_{(u,v) in P} -log w_uv`` (equivalently maximising
``Pr[P] = prod w_uv``).  Each iteration proposes three permutations of the
current path — Rotate, Reverse, RandomSwap — and accepts each through the
Boltzmann rule of Algorithm 3 (better always; worse with probability
``exp(-(d_next - d_i) / T)``), then cools ``T <- T * c``.

Algorithm 2 restarts the anneal from every vertex with a greedy initial
path ("selecting the nearest neighbors, or by ranking the nodes based on
the difference of their out-/in- edge weights"); the config can cap the
restart count, since on large complete closures a handful of restarts
already reaches the plateau the paper reports.

Two move-evaluation kernels share the proposal machinery, and the input
picks between them (there is no option):

* the **incremental** kernel runs on complete closures — every closure
  the pipeline and streaming sessions build, since Step 3 clips each
  weight to at least ``1e-9``.  It screens windows of upcoming
  proposals in numpy against the current path — Rotate and RandomSwap
  from their few boundary edges, Reverse in O(1) from a prefix sum
  ``F`` of the reverse-diff along the path — and skips every proposal
  the screen proves rejected.  Only the remaining candidates (about the
  accepted ones, plus every proposal of the hot start, where accepts
  come too often for a screen to pay) run the scalar ``d(P') - d(P)``
  of :mod:`repro.inference.delta` and the exact acceptance test, so it
  accepts the same moves as the reference kernel.  It applies accepted
  moves in place and re-syncs the running cost against a full re-sum
  every ``_RESYNC_EVERY`` accepted moves to bound float drift;
* the **reference** kernel runs when any edge is missing, where
  ``+inf`` edge costs make deltas ill-defined.  It copies the path and
  re-sums all ``n - 1`` edges per proposal, which handles ``+inf``
  exactly.  The test suite and ``benchmarks/bench_saps.py`` also force
  it on complete closures as the oracle and baseline of the
  incremental kernel.

Both kernels draw from the restart's random stream in exactly the same
order (three index floats + one acceptance float per Rotate, two + one
per Reverse/RandomSwap), so a fixed seed accepts the same move sequence
under either kernel.  Restarts each get their own child stream spawned
from the run RNG up front, which makes the restart loop embarrassingly
parallel (``SAPSConfig.parallel_restarts``) without changing results:
serial and parallel runs reduce the same per-restart outcomes in the
same order.  The restart loop dispatches through
:mod:`repro.workers.backends` (``SAPSConfig.backend``), so the same
guarantee extends across the serial and process backends — the anneal
is pure Python and GIL-bound, which makes the process backend the one
that actually uses multiple cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import SAPSConfig
from ..exceptions import InferenceError
from ..graphs.digraph import WeightedDigraph
from ..rng import SeedLike, ensure_rng, spawn_rngs
from ..types import Ranking
from ..workers.pool import parallel_map
from .delta import (
    apply_rotate,
    apply_swap,
    cost_rows,
    path_cost,
    reverse_delta,
    reverse_diff_matrix,
    rotate_delta,
    swap_delta,
)
from .taps import _as_matrix

#: Iterations' worth of random draws pre-fetched per block by the
#: incremental kernel (10 floats per iteration: 4 + 3 + 3).  A screen
#: window never crosses a block.
_RNG_BLOCK = 1024

#: Floats consumed per iteration (Rotate 4, Reverse 3, RandomSwap 3).
_DRAWS_PER_ITERATION = 10

#: Accepted moves between full re-sums of the incremental running cost.
#: Each resync is O(n) and bounds the float drift of summed deltas.
_RESYNC_EVERY = 512

#: One screen (prefix-sum rebuild plus a window) costs about as much as
#: this many exact checks on a short path.  The incremental kernel skips
#: the screen and checks every proposal exactly while accepts come more
#: often than the screen would pay for.
_SCREEN_COST = 50

#: Path length at which an exact check costs twice a short path's: the
#: scalar Reverse sum is O(segment).
_EXACT_COST_N = 100

#: Weight of the newest gap in the running gap estimate.
_GAP_SMOOTHING = 0.5

#: Fewest iterations a screen window covers.
_MIN_WINDOW = 8

#: Relative margin of the screen's acceptance threshold.
_SCREEN_RTOL = 1e-12

#: When true, the incremental kernel asserts after *every* accepted move
#: that the running cost matches a full re-sum (1e-9 relative).  O(n) per
#: accepted move; the test suite and ``bench_saps.py --smoke`` switch it
#: on.  Read at call time in the process that runs the anneal.
_DEBUG_CHECKS = False


@dataclass(frozen=True)
class SAPSReport:
    """Diagnostics of one SAPS run (exposed for the benchmarks).

    Field semantics — precise, so benchmark attribution stays honest:

    ranking / log_preference:
        The final result, *including* the optional deterministic polish
        pass when ``config.polish`` is set.
    restarts:
        Number of anneal restarts actually run.
    iterations_per_restart:
        Annealing iterations per restart (after ``scale_with_objects``).
    accepted_moves / proposed_moves:
        Boltzmann-accepted / proposed moves of the *anneal only* — the
        polish pass is deterministic first-improvement search and its
        work is excluded from both counters.
    polish_improved / polish_delta:
        Whether the polish pass strictly improved the objective, and by
        how much (its log-preference gain, >= 0).  Both are zero/False
        when ``config.polish`` is off, so the polish contribution to
        ``log_preference`` is always attributable.
    """

    ranking: Ranking
    log_preference: float
    restarts: int
    iterations_per_restart: int
    accepted_moves: int
    proposed_moves: int
    polish_improved: bool = False
    polish_delta: float = 0.0


def saps_search(
    weights: Union[np.ndarray, WeightedDigraph],
    config: Optional[SAPSConfig] = None,
    rng: SeedLike = None,
) -> Tuple[Ranking, float]:
    """Find a high-preference HP; returns ``(ranking, log_probability)``.

    The input is expected to be the complete Step-3 closure (every
    ordered pair has a positive weight); on incomplete graphs SAPS still
    runs but treats missing edges as cost ``+inf`` and raises
    :class:`InferenceError` if no finite-cost path is ever found.
    """
    report = saps_search_report(weights, config, rng)
    return report.ranking, report.log_preference


def saps_search_report(
    weights: Union[np.ndarray, WeightedDigraph],
    config: Optional[SAPSConfig] = None,
    rng: SeedLike = None,
    warm_start: Optional[Sequence[int]] = None,
) -> SAPSReport:
    """As :func:`saps_search`, returning full diagnostics.

    ``warm_start`` (a permutation of the ``n`` objects, e.g. a previous
    ranking's order) replaces the *first* restart's greedy initial path:
    that restart anneals from the given path instead of building one
    from a start vertex.  Because the initial path seeds the restart's
    best-so-far cost, the warm restart can never return a worse path
    than the one handed in — streaming sessions exploit this to run a
    sharply reduced schedule (``restarts=1``, few iterations) per vote
    delta without risking a regression below the previous ranking.
    With ``warm_start=None`` the run is unchanged, bit for bit.
    """
    config = config if config is not None else SAPSConfig()
    matrix = _as_matrix(weights)
    n = matrix.shape[0]
    if n == 1:
        return SAPSReport(Ranking([0]), 0.0, 0, config.iterations, 0, 0)
    generator = ensure_rng(rng)

    # Cost matrix: d(P) sums cost[u, v] = -log w_uv; +inf for no edge.
    with np.errstate(divide="ignore"):
        cost = np.where(matrix > 0.0, -np.log(np.maximum(matrix, 1e-300)),
                        np.inf)
    np.fill_diagonal(cost, np.inf)

    start_vertices: List[Union[int, np.ndarray]] = \
        _restart_vertices(matrix, config, n, generator)
    if warm_start is not None:
        warm = np.array([int(v) for v in warm_start], dtype=np.int64)
        if warm.shape != (n,) or \
                not np.array_equal(np.sort(warm), np.arange(n)):
            raise InferenceError(
                f"SAPS warm start must be a permutation of the {n} "
                "objects"
            )
        start_vertices[0] = warm
    iterations = config.iterations
    if config.scale_with_objects and n > 100:
        iterations = int(config.iterations * n / 100)

    shared = _RestartShared(matrix=matrix, cost=cost,
                            kernel=_select_kernel(cost),
                            iterations=iterations, config=config)

    # One child stream per restart: restarts become order-independent
    # (parallelisable) while staying reproducible from the run RNG.
    # Each task is a picklable (shared, start, stream) triple, so the
    # restart loop runs unchanged on the serial and process backends —
    # scheduling never touches the random streams.
    streams = spawn_rngs(generator, len(start_vertices))
    tasks = [(shared, start, stream)
             for start, stream in zip(start_vertices, streams)]
    outcomes = parallel_map(_run_restart, tasks,
                            max_workers=config.parallel_restarts,
                            backend=config.backend)

    best_cost = math.inf
    best_order: Optional[List[int]] = None
    accepted = 0
    proposed = 0
    for restart_cost, restart_path, restart_accepted, restart_proposed \
            in outcomes:
        accepted += restart_accepted
        proposed += restart_proposed
        # Strict < : the earliest restart keeps ties, exactly as the
        # serial loop would, so parallel order cannot change the result.
        if restart_cost < best_cost:
            best_cost = restart_cost
            best_order = restart_path

    if best_order is None or math.isinf(best_cost):
        raise InferenceError(
            "SAPS found no finite-cost Hamiltonian path; run Steps 2-3 "
            "first so the closure is complete"
        )
    ranking = Ranking([int(v) for v in best_order])
    polish_improved = False
    polish_delta = 0.0
    if config.polish:
        from .local_search import polish_ranking

        ranking, log_pref = polish_ranking(matrix, ranking)
        polish_delta = max(0.0, log_pref - (-best_cost))
        polish_improved = polish_delta > 1e-12
        best_cost = -log_pref
    return SAPSReport(
        ranking=ranking,
        log_preference=-best_cost,
        restarts=len(start_vertices),
        iterations_per_restart=iterations,
        accepted_moves=accepted,
        proposed_moves=proposed,
        polish_improved=polish_improved,
        polish_delta=polish_delta,
    )


def _restart_vertices(
    matrix: np.ndarray, config: SAPSConfig, n: int, generator
) -> List[int]:
    """Start vertices: all (faithful Algorithm 2) or a sampled cap."""
    if config.restarts is None or config.restarts >= n:
        return list(range(n))
    chosen = generator.choice(n, size=config.restarts, replace=False)
    return [int(v) for v in chosen]


def _initial_path(
    matrix: np.ndarray,
    cost: np.ndarray,
    start: int,
    config: SAPSConfig,
    generator,
) -> np.ndarray:
    """Algorithm 2 line 3: greedy / degree-difference / random init."""
    n = matrix.shape[0]
    if config.init == "random":
        path = generator.permutation(n)
        # Rotate the start vertex to the front to honour the restart.
        idx = int(np.where(path == start)[0][0])
        return np.roll(path, -idx)
    if config.init == "degree":
        score = matrix.sum(axis=1) - matrix.sum(axis=0)
        order = sorted(range(n), key=lambda v: -score[v])
        order.remove(start)
        return np.array([start] + order, dtype=np.int64)
    # "greedy": nearest neighbour by weight (lowest cost edge).
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    path = [start]
    current = start
    for _ in range(n - 1):
        row = np.where(visited, np.inf, cost[current])
        nxt = int(np.argmin(row))
        if math.isinf(row[nxt]):
            # Dead end on an incomplete graph: fill with any unvisited.
            nxt = int(np.flatnonzero(~visited)[0])
        visited[nxt] = True
        path.append(nxt)
        current = nxt
    return np.array(path, dtype=np.int64)


def _select_kernel(cost: np.ndarray) -> str:
    """``"incremental"`` on a complete closure, else ``"reference"``.

    Incremental deltas need a finite edge cost everywhere a move could
    look; any missing edge falls back to the full-re-sum kernel, which
    handles ``+inf`` exactly.
    """
    off_diagonal = ~np.eye(cost.shape[0], dtype=bool)
    if np.isfinite(cost[off_diagonal]).all():
        return "incremental"
    return "reference"


# ---------------------------------------------------------------------------
# Restart task (module-level so every execution backend can dispatch it)
# ---------------------------------------------------------------------------

class _RestartShared:
    """Read-only per-run state shared by every restart task.

    One instance is referenced by all restart tasks: the serial backend
    shares it (and its lazily built incremental-kernel tables) in
    memory, while the process backend pickles only the raw
    matrices — the derived tables are rebuilt once per worker process
    (O(n^2), negligible next to the anneal) rather than shipped over
    the pipe.
    """

    __slots__ = ("matrix", "cost", "kernel", "iterations", "config",
                 "_tables")

    def __init__(self, matrix: np.ndarray, cost: np.ndarray, kernel: str,
                 iterations: int, config: SAPSConfig):
        self.matrix = matrix
        self.cost = cost
        self.kernel = kernel
        self.iterations = iterations
        self.config = config
        self._tables = None

    def tables(self) -> "_KernelTables":
        """The incremental kernel's tables, built on first use."""
        if self._tables is None:
            self._tables = _KernelTables(self.cost)
        return self._tables

    def __getstate__(self):
        return (self.matrix, self.cost, self.kernel, self.iterations,
                self.config)

    def __setstate__(self, state):
        (self.matrix, self.cost, self.kernel, self.iterations,
         self.config) = state
        self._tables = None


class _KernelTables:
    """Cost tables of the incremental kernel, built once per run.

    ``rows`` and ``diff`` are nested lists for the scalar exact check
    (:mod:`repro.inference.delta`).  ``screen_cost`` and
    ``screen_diff`` are the flat ``(n+1) x (n+1)`` cost and
    reverse-diff tables of the vectorised screen: vertex ``n`` is a
    sentinel that stands before and after the path with cost 0 to and
    from every vertex, so the boundary terms of a move at either path
    end vanish without masks, and the diagonal is zero so the
    degenerate terms of an adjacent or identity swap read 0, not
    ``inf``.

    ``tol`` bounds ``|screen delta - scalar delta|`` for every move on
    every path.  Both sum the same float terms, in different orders:
    the scalar check sums Reverse's internal edges one by one, the
    screen takes a difference of two prefix sums ``F``, and the <= 8
    cost terms of a move are added in another order.  Summing ``m``
    terms in any order errs by at most ``(m-1) * eps/2 * sum|terms|``
    (Higham, Thm. 4.4); every ``|F|`` is at most
    ``S = (n-1) * max|diff|`` and a cost term at most
    ``C = max|cost|``, so the two deltas differ by at most
    ``(1.5n + 8) eps S + 48 eps C``.  ``tol`` is more than twice that.
    """

    __slots__ = ("rows", "diff", "screen_cost", "screen_diff", "tol")

    def __init__(self, cost: np.ndarray):
        n = cost.shape[0]
        diff = reverse_diff_matrix(cost)
        finite = cost.copy()
        np.fill_diagonal(finite, 0.0)
        self.rows = cost_rows(cost)
        self.diff = diff.tolist()
        self.screen_cost = _with_sentinel(finite)
        self.screen_diff = _with_sentinel(diff)
        eps = float(np.finfo(np.float64).eps)
        self.tol = 4.0 * (n + 16) * eps * (
            (n - 1) * float(np.abs(diff).max())
            + 8.0 * float(np.abs(finite).max()))


def _with_sentinel(table: np.ndarray) -> np.ndarray:
    """``table`` with a zero row and column appended, flattened."""
    n = table.shape[0]
    padded = np.zeros((n + 1, n + 1))
    padded[:n, :n] = table
    return padded.ravel()


def _run_restart(task) -> Tuple[float, List[int], int, int]:
    """One anneal restart: ``(shared, start_vertex, stream)`` in,
    ``(best_cost, best_path, accepted, proposed)`` out.

    Module-level (not a closure) so the process backend can pickle it
    by reference; both kernels consume ``stream`` identically, so the
    outcome depends only on the task — never on which backend or worker
    ran it.
    """
    shared, start, stream = task
    config = shared.config
    if isinstance(start, np.ndarray):
        # Warm restart: the task carries the initial path itself.
        initial = start
    else:
        initial = _initial_path(shared.matrix, shared.cost, start, config,
                                stream)
    if shared.kernel == "reference":
        return _anneal_reference(shared.cost, initial, shared.iterations,
                                 config, stream)
    return _anneal_incremental(shared.cost, shared.tables(), initial,
                               shared.iterations, config, stream)


# ---------------------------------------------------------------------------
# Annealing kernels
# ---------------------------------------------------------------------------

class _Block:
    """Every proposal of one pre-fetched RNG block, derived with numpy.

    Indices, acceptance draws and temperatures are exactly what the
    scalar draw-by-draw loop would compute (same float products, same
    truncation, the same sequential ``T * c`` with the ``1e-300``
    clamp); the scalar exact check reads them from plain lists.
    Proposal ``k`` of the block is iteration ``k // 3``, move
    ``k % 3`` (Rotate, Reverse, RandomSwap).
    """

    __slots__ = ("rf", "rm", "rl", "vf", "vl", "si", "sj", "u", "temps",
                 "_arrays", "_screen")

    def __init__(self, draws: np.ndarray, n: int, temperature: float,
                 cooling: float):
        draws = draws.reshape(-1, _DRAWS_PER_ITERATION)
        rf = (draws[:, 0] * (n - 1)).astype(np.intp)
        rl = rf + 2 + (draws[:, 1] * (n - rf - 1)).astype(np.intp)
        rm = rf + 1 + (draws[:, 2] * (rl - rf - 1)).astype(np.intp)
        vf = (draws[:, 4] * (n - 1)).astype(np.intp)
        vl = vf + 2 + (draws[:, 5] * (n - vf - 1)).astype(np.intp)
        si = (draws[:, 7] * n).astype(np.intp)
        sj = (draws[:, 8] * n).astype(np.intp)
        u = draws[:, 3::3]
        # T_{t+1} = max(T_t * c, 1e-300): the unclamped running product
        # agrees until it first drops below the clamp and stays below
        # after, so clamping afterwards gives the same sequence.
        temps = np.full(len(draws), cooling)
        temps[0] = temperature
        np.multiply.accumulate(temps, out=temps)
        np.maximum(temps[1:], 1e-300, out=temps[1:])
        self._arrays = (n, rf, rm, rl, vf, vl, si, sj, u, temps)
        self.rf, self.rm, self.rl = rf.tolist(), rm.tolist(), rl.tolist()
        self.vf, self.vl = vf.tolist(), vl.tolist()
        self.si, self.sj = si.tolist(), sj.tolist()
        self.u = u.ravel().tolist()
        self.temps = temps.tolist()
        self._screen = None

    def screen_tables(self, tol: float):
        """``(row, col, threshold)`` for :meth:`_Screen.candidates`,
        built on first use (the hot start never screens).

        ``row``/``col`` ``(iterations, 3, 8)`` locate the terms of each
        proposal's delta, terms 0-3 added and 4-7 subtracted.  A cost
        term ``cost[a, b]`` sits at ``scaled[row] + padded[col]`` with
        ``row``/``col`` the padded positions of ``a``/``b`` (path
        position ``p`` is padded position ``p + 1``; 0 and ``n + 1``
        are the sentinel, so ``(0, 0)`` pads a slot with 0).  Reverse's
        internal sum ``F[last-1] - F[first]`` takes two slots whose
        ``row`` is ``n + 2 + position`` of ``F`` and ``col`` the zero
        slot ``n + 2``.

        ``threshold`` folds the acceptance draw into the delta:
        Algorithm 3 rejects a move iff ``delta >= 0`` and
        ``u >= exp(-delta / T)``, i.e. ``delta >= -T * ln(u)``.  A
        screened delta at or above ``T * (-ln(u) + r) * (1 + r) + tol``
        therefore has an exact delta of at least ``T * (-ln(u) + r)``,
        and the margin ``r`` outweighs the few ulps ``np.log``,
        ``math.exp`` and the division can differ by; ``u = 0`` gives an
        infinite threshold, so it always reaches the exact check.
        """
        if self._screen is None:
            n, rf, rm, rl, vf, vl, si, sj, u, temps = self._arrays
            lo = np.minimum(si, sj)
            hi = np.maximum(si, sj)
            # An adjacent swap's successor of ``lo`` is ``hi`` itself;
            # pointing that column at ``lo`` turns the two spurious
            # terms into zero-diagonal reads.
            s = lo + 2 - (hi == lo + 1)
            z = np.zeros_like(rf)
            f = np.full_like(rf, n + 2)
            shape = (len(rf), 3, 8)
            row = np.array((
                # Rotate: +(e,a) +(p,m) +(b,q)  -(b,m) -(p,a) -(e,q)
                rl, rf, rm, z, rm, rf, rl, z,
                # Reverse: +(p,e) +(a,q) +F[last-1]  -(p,a) -(e,q) -F[first]
                vf, vf + 1, f + vl - 1, z, vf, vl, f + vf, z,
                # Swap: +(p,v) +(v,s) +(t,u) +(u,q)
                #       -(p,u) -(u,s) -(t,v) -(v,q)
                lo, hi + 1, hi, lo + 1, lo, lo + 1, hi, hi + 1,
            )).T.reshape(shape).copy()
            col = np.array((
                rf + 1, rm + 1, rl + 1, z, rm + 1, rf + 1, rl + 1, z,
                vl, vl + 1, f, z, vf + 1, vl + 1, f, z,
                hi + 1, s, lo + 1, hi + 2, lo + 1, s, hi + 1, hi + 2,
            )).T.reshape(shape).copy()
            with np.errstate(divide="ignore"):
                lnu = -np.log(u)
            threshold = (temps[:, None] * (lnu + _SCREEN_RTOL)
                         * (1.0 + _SCREEN_RTOL) + tol)
            self._screen = (row, col, threshold)
        return self._screen


#: Signs of the eight delta terms of :meth:`_Block.screen_tables`.
_TERM_SIGNS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])


class _Screen:
    """The vectorised screen of one restart.

    Holds the path mirrored into numpy and the prefix sum ``F`` of the
    reverse-diff along it (``F[i]`` sums the first ``i`` path edges, so
    Reverse's internal sum is ``F[last-1] - F[first]``).  ``table`` is
    the screen cost table followed by ``F``, so one gather reads every
    term of a window.  ``padded`` is the path between two sentinels plus
    a zero slot; ``scaled`` is ``padded`` times the table's row stride
    followed by the offsets of ``F`` in ``table``.  Both go stale when
    the list path moves and are rebuilt lazily, before the next screen.
    """

    __slots__ = ("n", "tol", "diff", "table", "prefix", "padded", "scaled",
                 "path_stale", "prefix_stale")

    def __init__(self, tables: _KernelTables, n: int):
        stride = n + 1
        self.n = n
        self.tol = tables.tol
        self.diff = tables.screen_diff
        self.table = np.concatenate((tables.screen_cost, np.zeros(n)))
        self.prefix = self.table[stride * stride:]
        self.padded = np.full(n + 3, n, dtype=np.intp)
        self.padded[n + 2] = 0
        self.scaled = np.concatenate((self.padded[:n + 2] * stride,
                                      stride * stride + np.arange(n)))
        self.path_stale = True
        self.prefix_stale = True

    def refresh(self, path: List[int]) -> None:
        """Rebuild whatever went stale: the numpy path from ``path``,
        then ``scaled`` and ``F`` (O(n))."""
        n = self.n
        padded, scaled = self.padded, self.scaled
        if self.path_stale:
            padded[1:n + 1] = path
            self.path_stale = False
            self.prefix_stale = True
        if self.prefix_stale:
            np.multiply(padded[:n + 2], n + 1, out=scaled[:n + 2])
            np.cumsum(self.diff.take(scaled[1:n] + padded[2:n + 1]),
                      out=self.prefix[1:])
            self.prefix_stale = False

    def deltas(self, block: _Block, t0: int, t1: int) -> np.ndarray:
        """``(t1 - t0, 3)`` screened deltas of iterations ``[t0, t1)``
        on the current path, each within ``tol`` of the scalar one."""
        row, col, _ = block.screen_tables(self.tol)
        terms = self.table.take(self.scaled.take(row[t0:t1])
                                + self.padded.take(col[t0:t1]))
        return terms @ _TERM_SIGNS

    def candidates(self, block: _Block, t0: int, t1: int) -> List[int]:
        """Offsets (from proposal ``3 * t0``) of the proposals of
        iterations ``[t0, t1)`` not surely rejected on the current
        path."""
        threshold = block.screen_tables(self.tol)[2]
        return ((self.deltas(block, t0, t1) < threshold[t0:t1])
                .ravel().nonzero()[0].tolist())

    def mirror(self, block: _Block, k: int) -> None:
        """Apply accepted proposal ``k`` of ``block`` to ``padded``."""
        padded = self.padded
        t, kind = divmod(k, 3)
        if kind == 0:
            first, middle, last = (block.rf[t] + 1, block.rm[t] + 1,
                                   block.rl[t] + 1)
            padded[first:last] = np.concatenate((padded[middle:last],
                                                 padded[first:middle]))
        elif kind == 1:
            first, last = block.vf[t] + 1, block.vl[t] + 1
            padded[first:last] = padded[first:last][::-1]
        else:
            i, j = block.si[t] + 1, block.sj[t] + 1
            padded[i], padded[j] = padded[j], padded[i]
        self.prefix_stale = True


def _anneal_incremental(
    cost: np.ndarray,
    tables: _KernelTables,
    initial: np.ndarray,
    iterations: int,
    config: SAPSConfig,
    stream: np.random.Generator,
) -> Tuple[float, List[int], int, int]:
    """One restart with incremental move evaluation (the hot path).

    Screen + exact check.  Draws come in pre-fetched blocks and are a
    pure function of the iteration index, so a window of upcoming
    proposals is scored against the current path in one numpy pass
    (:class:`_Screen`); Reverse is O(1) there through the prefix sum
    ``F``.  A proposal the screen marks *surely rejected* is skipped:
    its screened delta clears the acceptance threshold by more than
    the screen's rounding bound, so the scalar test would reject it
    too.  Every other proposal runs the scalar
    :mod:`repro.inference.delta` check and the ``math.exp`` test of the
    reference kernel, so the accept/reject sequence is the reference
    kernel's.  An accepted move ends the window; the next screen starts
    at the following proposal.

    While accepts come every few proposals (the hot start of the
    schedule) a screen would be wasted, so every proposal goes straight
    to the exact check; the window grows and shrinks with the observed
    gap between accepts.

    The path lives in a Python list for the scalar check.  Requires
    every off-diagonal cost to be finite — the caller guarantees it.
    """
    n = len(initial)
    rows, diff = tables.rows, tables.diff
    path: List[int] = [int(v) for v in initial]
    current = path_cost(cost, path)
    best_cost = current
    best_path = list(path)
    accepted = 0
    since_resync = 0
    temperature = config.temperature
    cooling = config.cooling_rate
    debug = _DEBUG_CHECKS
    exp = math.exp
    screen = _Screen(tables, n)
    # Proposals between accepts below which exact checks beat a screen.
    hot_gap = _SCREEN_COST / (1.0 + n / _EXACT_COST_N)
    # Running estimate of the proposals between path-changing accepts,
    # and the global index of the last such accept.
    gap = 0.0
    last_change = 0
    base = 0

    def after_accept(delta: float) -> None:
        nonlocal current, best_cost, best_path, accepted, since_resync
        current += delta
        accepted += 1
        since_resync += 1
        if debug:
            resummed = path_cost(cost, path)
            assert abs(resummed - current) <= 1e-9 * max(1.0, abs(resummed)), (
                f"incremental cost drifted: running={current!r} "
                f"recomputed={resummed!r}"
            )
        if since_resync >= _RESYNC_EVERY:
            current = path_cost(cost, path)
            since_resync = 0
        if current < best_cost:
            best_cost = current
            best_path = list(path)

    def exact(block: _Block, k: int) -> bool:
        """Scalar check of proposal ``k``; True iff it moved the path."""
        nonlocal gap, last_change
        t, kind = divmod(k, 3)
        if kind == 0:
            first, middle, last = block.rf[t], block.rm[t], block.rl[t]
            delta = rotate_delta(rows, path, first, middle, last)
        elif kind == 1:
            first, last = block.vf[t], block.vl[t]
            delta = reverse_delta(rows, diff, path, first, last)
        else:
            first, last = block.si[t], block.sj[t]
            delta = swap_delta(rows, path, first, last)
        if not (delta < 0.0 or block.u[k] < exp(-delta / block.temps[t])):
            return False
        if kind == 0:
            path[first:last] = path[middle:last] + path[first:middle]
        elif kind == 1:
            path[first:last] = path[first:last][::-1]
        else:
            path[first], path[last] = path[last], path[first]
        after_accept(delta)
        if kind == 2 and first == last:
            return False  # an identity swap leaves the path as it was
        gap += (base + k - last_change - gap) * _GAP_SMOOTHING
        last_change = base + k
        return True

    done = 0
    while done < iterations:
        todo = min(iterations - done, _RNG_BLOCK)
        block = _Block(stream.random(_DRAWS_PER_ITERATION * todo), n,
                       temperature, cooling)
        total = 3 * todo
        k = 0
        while k < total:
            if gap < hot_gap and base + k - last_change < hot_gap:
                if exact(block, k):
                    screen.path_stale = True
                k += 1
                continue
            waited = max(gap, base + k - last_change)
            screen.refresh(path)
            t0 = k // 3
            t1 = min(todo, t0 + max(_MIN_WINDOW, int(waited) // 3 + 1))
            k_end = 3 * t1
            for offset in screen.candidates(block, t0, t1):
                c = 3 * t0 + offset
                if c >= k and exact(block, c):
                    screen.mirror(block, c)
                    k_end = c + 1
                    break
            k = k_end
        temperature = max(block.temps[-1] * cooling, 1e-300)
        base += total
        done += todo
    return best_cost, best_path, accepted, 3 * iterations


def _anneal_reference(
    cost: np.ndarray,
    initial: np.ndarray,
    iterations: int,
    config: SAPSConfig,
    stream: np.random.Generator,
) -> Tuple[float, List[int], int, int]:
    """One restart with full re-evaluation per proposal.

    Every proposal copies the path and re-sums all ``n - 1`` edges.  The
    only kernel that handles ``+inf`` edges (incomplete closures)
    exactly; also the oracle and benchmark baseline of the incremental
    kernel.
    """
    path = initial
    current = path_cost(cost, path)
    best_cost = current
    best_path = path.copy()
    accepted = 0
    proposed = 0
    temperature = config.temperature
    for _ in range(iterations):
        for move in (_rotate, _reverse, _random_swap):
            candidate = move(path, stream)
            cand_cost = path_cost(cost, candidate)
            proposed += 1
            # The acceptance draw is always consumed so both kernels
            # walk the random stream identically.
            u = stream.random()
            if cand_cost < current:
                accept = True
            elif math.isinf(cand_cost):
                accept = False
            else:
                accept = bool(
                    u < math.exp(-(cand_cost - current) / temperature)
                )
            if accept:
                path, current = candidate, cand_cost
                accepted += 1
                if current < best_cost:
                    best_cost = current
                    best_path = path.copy()
        temperature *= config.cooling_rate
        if temperature < 1e-300:
            temperature = 1e-300
    return best_cost, [int(v) for v in best_path], accepted, proposed


# ---------------------------------------------------------------------------
# Moves (pure forms: copy, then apply — used by the reference kernel)
# ---------------------------------------------------------------------------

def _rotate(path: np.ndarray, generator) -> np.ndarray:
    """Rotate(P, first, middle, last): std::rotate semantics on a slice.

    ``_two_indices`` guarantees ``last - first >= 2``, so both blocks
    are non-empty and no degenerate-span guard is needed.
    """
    n = len(path)
    first, last = _two_indices(n, generator)
    middle = first + 1 + int(generator.random() * (last - first - 1))
    out = path.copy()
    apply_rotate(out, first, middle, last)
    return out


def _reverse(path: np.ndarray, generator) -> np.ndarray:
    """Reverse(P, first, last): reverse the slice between two indices."""
    n = len(path)
    first, last = _two_indices(n, generator)
    out = path.copy()
    out[first:last] = path[first:last][::-1]
    return out


def _random_swap(path: np.ndarray, generator) -> np.ndarray:
    """RandomSwap(P, first, last): swap two random positions."""
    n = len(path)
    i = int(generator.random() * n)
    j = int(generator.random() * n)
    out = path.copy()
    apply_swap(out, i, j)
    return out


def _two_indices(n: int, generator) -> Tuple[int, int]:
    """Two slice bounds spanning at least two elements.

    Contract (relied on by every move kernel, checked by the property
    suite): for any ``n >= 2``, returns ``(first, last)`` with
    ``0 <= first < last <= n`` and ``last - first >= 2`` — ``first``
    uniform on ``[0, n-2]``, ``last`` uniform on ``[first+2, n]``.
    Exactly two floats are consumed from ``generator`` so the
    incremental kernel can pre-fetch draws in fixed-size blocks.
    """
    first = int(generator.random() * (n - 1))
    last = first + 2 + int(generator.random() * (n - first - 1))
    return first, last
