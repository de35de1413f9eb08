"""Core value types shared across the library.

The vocabulary follows the paper:

* *objects* ``O = {O_0, ..., O_{n-1}}`` are identified by integer ids;
* a *comparison task* is an unordered pair of objects ``(i, j)``;
* a *vote* is one worker's directed preference on one task;
* a *ranking* is a permutation of the object ids, most-preferred first
  (``ranking[0]`` is the object ranked first, i.e. the Hamiltonian-path
  source).

All types here are immutable value objects; algorithms never mutate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .exceptions import ConfigurationError

#: An object identifier (index into the object universe).
ObjectId = int

#: A worker identifier.
WorkerId = int

#: An unordered comparison pair, canonically stored with ``first < second``.
Pair = Tuple[ObjectId, ObjectId]


def canonical_pair(i: ObjectId, j: ObjectId) -> Pair:
    """Return the canonical (sorted) form of an unordered pair.

    Raises
    ------
    ConfigurationError
        If ``i == j`` — an object cannot be compared with itself.
    """
    if i == j:
        raise ConfigurationError(f"cannot compare object {i} with itself")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Vote:
    """A single worker's answer to one pairwise comparison.

    ``winner`` and ``loser`` encode the preference ``winner ≺ loser``
    (winner ranked *before*, i.e. preferred).  This matches the paper's
    ``x_ij^k = 1`` iff ``O_i ≺ O_j``.
    """

    worker: WorkerId
    winner: ObjectId
    loser: ObjectId

    def __post_init__(self) -> None:
        if self.winner == self.loser:
            raise ConfigurationError(
                f"vote by worker {self.worker} compares object "
                f"{self.winner} with itself"
            )

    @property
    def pair(self) -> Pair:
        """The canonical unordered pair this vote answers."""
        return canonical_pair(self.winner, self.loser)

    def value_for(self, i: ObjectId, j: ObjectId) -> float:
        """The paper's ``x_ij^k``: 1.0 if this vote says ``i ≺ j`` else 0.0."""
        if {i, j} != {self.winner, self.loser}:
            raise ConfigurationError(
                f"vote on pair {self.pair} queried for pair {(i, j)}"
            )
        return 1.0 if self.winner == i else 0.0


@dataclass(frozen=True)
class HIT:
    """A Human Intelligence Task: a bundle of ``c >= 1`` comparison pairs.

    The paper allows one HIT to contain several pairwise comparisons; the
    platform assigns each HIT to ``w`` distinct workers.
    """

    hit_id: int
    pairs: Tuple[Pair, ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ConfigurationError(f"HIT {self.hit_id} contains no pairs")
        for i, j in self.pairs:
            if i == j:
                raise ConfigurationError(
                    f"HIT {self.hit_id} contains degenerate pair ({i}, {j})"
                )
            if (i, j) != canonical_pair(i, j):
                raise ConfigurationError(
                    f"HIT {self.hit_id} pair ({i}, {j}) is not canonical"
                )

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)


class Ranking:
    """An immutable full ranking (permutation) of ``n`` objects.

    ``ranking[0]`` is the most-preferred object.  Provides O(1) position
    lookup, which the metrics and baselines rely on heavily.
    """

    __slots__ = ("_order", "_position")

    def __init__(self, order: Sequence[ObjectId]):
        order_tuple = tuple(int(o) for o in order)
        position: Dict[ObjectId, int] = {}
        for idx, obj in enumerate(order_tuple):
            if obj in position:
                raise ConfigurationError(f"object {obj} appears twice in ranking")
            position[obj] = idx
        self._order = order_tuple
        self._position = position

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, idx: int) -> ObjectId:
        return self._order[idx]

    def __iter__(self) -> Iterator[ObjectId]:
        return iter(self._order)

    def __contains__(self, obj: ObjectId) -> bool:
        return obj in self._position

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ranking):
            return self._order == other._order
        if isinstance(other, (tuple, list)):
            return self._order == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._order)

    def __repr__(self) -> str:
        if len(self._order) <= 12:
            return f"Ranking({list(self._order)})"
        head = ", ".join(str(o) for o in self._order[:6])
        return f"Ranking([{head}, ...] n={len(self._order)})"

    # -- accessors -----------------------------------------------------------
    @property
    def order(self) -> Tuple[ObjectId, ...]:
        """The permutation as a tuple, most-preferred first."""
        return self._order

    def position(self, obj: ObjectId) -> int:
        """0-based rank position of ``obj`` (0 = most preferred)."""
        try:
            return self._position[obj]
        except KeyError:
            raise ConfigurationError(f"object {obj} not in ranking") from None

    def prefers(self, i: ObjectId, j: ObjectId) -> bool:
        """True iff this ranking places ``i`` before ``j`` (``i ≺ j``)."""
        return self.position(i) < self.position(j)

    def pairs(self) -> Iterator[Tuple[ObjectId, ObjectId]]:
        """Yield all ordered pairs ``(i, j)`` with ``i`` ranked before ``j``."""
        order = self._order
        n = len(order)
        for a in range(n):
            for b in range(a + 1, n):
                yield order[a], order[b]

    def reversed(self) -> "Ranking":
        """The exact reverse ranking."""
        return Ranking(self._order[::-1])

    def restricted_to(self, objects: Iterable[ObjectId]) -> "Ranking":
        """The induced ranking on a subset of objects (paper's sub-rankings)."""
        keep = set(objects)
        return Ranking([o for o in self._order if o in keep])

    @staticmethod
    def identity(n: int) -> "Ranking":
        """The identity ranking ``0 ≺ 1 ≺ ... ≺ n-1``."""
        return Ranking(range(n))

    @staticmethod
    def random(n: int, rng) -> "Ranking":
        """A uniformly random ranking of ``n`` objects."""
        from .rng import ensure_rng

        return Ranking(ensure_rng(rng).permutation(n))


@dataclass(frozen=True, eq=False)
class VoteArrays:
    """Columnar (struct-of-arrays) view of a vote set.

    The inference hot path is dominated by re-flattening :class:`Vote`
    objects in Python loops; this type flattens them **once** into
    parallel ``numpy`` arrays so Steps 1-3 and the baselines can run as
    pure array kernels.  Built via :meth:`VoteSet.arrays` (cached on the
    vote set), :meth:`from_votes`, or :meth:`from_columns` over per-vote
    id columns (the streaming vote buffer's path).

    Per-vote arrays (all of length ``n_votes``, in original vote order):

    * ``winner`` / ``loser`` — raw object ids of each vote;
    * ``worker_idx`` — index into :attr:`worker_ids`;
    * ``pair_idx`` — index into the pair table;
    * ``value`` — the paper's ``x_ij^k``: 1.0 iff the vote prefers the
      canonical-low object (``winner < loser``).

    Id tables:

    * ``pair_lo`` / ``pair_hi`` — the distinct canonical pairs, sorted
      lexicographically (matching :meth:`VoteSet.pairs`);
    * ``worker_ids`` — distinct worker ids, sorted (matching
      :meth:`VoteSet.workers`).

    All arrays are treated as immutable; callers must not mutate them.
    """

    n_objects: int
    winner: np.ndarray
    loser: np.ndarray
    worker_idx: np.ndarray
    pair_idx: np.ndarray
    value: np.ndarray
    pair_lo: np.ndarray
    pair_hi: np.ndarray
    worker_ids: np.ndarray

    @staticmethod
    def from_votes(n_objects: int, votes: Sequence[Vote]) -> "VoteArrays":
        """Flatten a sequence of votes into columnar arrays."""
        count = len(votes)
        return VoteArrays.from_columns(
            n_objects,
            np.fromiter((v.winner for v in votes), dtype=np.int64,
                        count=count),
            np.fromiter((v.loser for v in votes), dtype=np.int64,
                        count=count),
            np.fromiter((v.worker for v in votes), dtype=np.int64,
                        count=count),
        )

    @staticmethod
    def from_columns(n_objects: int, winner: np.ndarray, loser: np.ndarray,
                     worker: np.ndarray) -> "VoteArrays":
        """Build the id tables over per-vote ``int64`` columns.

        ``winner`` and ``loser`` are stored as given (no copy), so
        callers must not mutate them afterwards.
        """
        count = winner.shape[0]
        lo = np.minimum(winner, loser)
        hi = np.maximum(winner, loser)
        value = (winner == lo).astype(np.float64)
        # Encode each canonical pair as one integer so np.unique yields
        # the pair table already in lexicographic (lo, hi) order.
        base = int(max(n_objects, (int(hi.max()) + 1) if count else 1))
        pair_keys, pair_idx = np.unique(lo * base + hi, return_inverse=True)
        worker_ids, worker_idx = np.unique(worker, return_inverse=True)
        return VoteArrays(
            n_objects=n_objects,
            winner=winner,
            loser=loser,
            worker_idx=worker_idx.astype(np.int64, copy=False),
            pair_idx=pair_idx.astype(np.int64, copy=False),
            value=value,
            pair_lo=(pair_keys // base).astype(np.int64, copy=False),
            pair_hi=(pair_keys % base).astype(np.int64, copy=False),
            worker_ids=worker_ids,
        )

    _FIELDS = ("n_objects", "winner", "loser", "worker_idx", "pair_idx",
               "value", "pair_lo", "pair_hi", "worker_ids")

    def __getstate__(self):
        # Keep pickles (process-backend dispatch, cache spills) lean:
        # derived memo slots (e.g. the sparse incidence cache of
        # repro.inference.incidence) rebuild on demand.
        return {name: getattr(self, name) for name in self._FIELDS}

    def __setstate__(self, state) -> None:
        for name in self._FIELDS:
            object.__setattr__(self, name, state[name])

    # -- sizes ----------------------------------------------------------------
    @property
    def n_votes(self) -> int:
        return int(self.value.shape[0])

    @property
    def n_pairs(self) -> int:
        return int(self.pair_lo.shape[0])

    @property
    def n_workers(self) -> int:
        return int(self.worker_ids.shape[0])

    def __len__(self) -> int:
        return self.n_votes

    # -- object-layer views ---------------------------------------------------
    def pairs(self) -> List[Pair]:
        """The pair table as canonical tuples (sorted, = VoteSet.pairs())."""
        return list(zip(self.pair_lo.tolist(), self.pair_hi.tolist()))

    def workers(self) -> List[WorkerId]:
        """Distinct worker ids, sorted (= VoteSet.workers())."""
        return self.worker_ids.tolist()

    def pair_index(self) -> Dict[Pair, int]:
        """Mapping canonical pair -> row in the pair table."""
        return {pair: idx for idx, pair in enumerate(self.pairs())}

    def to_votes(self) -> Tuple[Vote, ...]:
        """Reconstruct the original votes (order preserved; round-trip)."""
        return tuple(
            Vote(worker=w, winner=win, loser=lose)
            for w, win, lose in zip(
                self.worker_ids[self.worker_idx].tolist(),
                self.winner.tolist(),
                self.loser.tolist(),
            )
        )

    def to_vote_set(self) -> "VoteSet":
        """Reconstruct an equal :class:`VoteSet` (round-trip)."""
        return VoteSet(n_objects=self.n_objects, votes=self.to_votes())


@dataclass(frozen=True)
class VoteSet:
    """All votes collected in one crowdsourcing round, with fast grouping.

    This is the interchange format between the platform simulator and every
    inference algorithm (ours and the baselines).

    The grouping accessors (:meth:`pairs`, :meth:`workers`,
    :meth:`by_pair`, :meth:`by_worker`) and the columnar view
    (:meth:`arrays`) are memoized — the dataclass is frozen, so the
    derived structures can never go stale.  Callers must treat the
    returned containers as read-only.

    **Frozen-ness is what makes the memoization sound.**  Anything that
    mutates ``votes`` behind the dataclass's back (``object.__setattr__``
    or similar) would silently desynchronise every cached view, so the
    memo table records which votes tuple it was built from and every
    accessor re-checks it, raising :class:`ConfigurationError` on a
    mismatch.  Code that needs to *accumulate* votes incrementally must
    not mutate a ``VoteSet`` — use
    :class:`repro.streaming.VoteBuffer`, the append-only builder, and
    take frozen snapshots via its ``to_vote_set()``.
    """

    n_objects: int
    votes: Tuple[Vote, ...]

    @staticmethod
    def from_votes(n_objects: int, votes: Iterable[Vote]) -> "VoteSet":
        """Build a vote set from any iterable of votes."""
        return VoteSet(n_objects=n_objects, votes=tuple(votes))

    def __len__(self) -> int:
        return len(self.votes)

    def __iter__(self) -> Iterator[Vote]:
        return iter(self.votes)

    def _memo(self, key: str, build):
        """Per-instance memo table; sound *only* because the dataclass is
        frozen.  The table remembers the exact votes tuple it was built
        from and every access re-verifies it, so out-of-band mutation
        (``object.__setattr__``) fails loudly instead of serving stale
        derived views."""
        cache = self.__dict__.get("_cache")
        if cache is None:
            cache = {"__votes__": self.votes}
            object.__setattr__(self, "_cache", cache)
        elif cache["__votes__"] is not self.votes:
            raise ConfigurationError(
                "VoteSet.votes was mutated after derived caches were "
                "built; VoteSet is frozen by contract — accumulate votes "
                "through repro.streaming.VoteBuffer instead"
            )
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def __getstate__(self):
        # Keep pickles (process-backend dispatch, cache spills) lean:
        # the memoized views are derived data and rebuild on demand.
        return {"n_objects": self.n_objects, "votes": self.votes}

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "n_objects", state["n_objects"])
        object.__setattr__(self, "votes", state["votes"])

    def arrays(self) -> VoteArrays:
        """The columnar view of these votes, flattened once and cached."""
        return self._memo(
            "arrays", lambda: VoteArrays.from_votes(self.n_objects, self.votes)
        )

    def by_pair(self) -> Dict[Pair, List[Vote]]:
        """Group votes by their canonical comparison pair (memoized)."""

        def build() -> Dict[Pair, List[Vote]]:
            grouped: Dict[Pair, List[Vote]] = {}
            for vote in self.votes:
                grouped.setdefault(vote.pair, []).append(vote)
            return grouped

        return self._memo("by_pair", build)

    def by_worker(self) -> Dict[WorkerId, List[Vote]]:
        """Group votes by the worker who cast them (memoized)."""

        def build() -> Dict[WorkerId, List[Vote]]:
            grouped: Dict[WorkerId, List[Vote]] = {}
            for vote in self.votes:
                grouped.setdefault(vote.worker, []).append(vote)
            return grouped

        return self._memo("by_worker", build)

    def workers(self) -> List[WorkerId]:
        """Sorted list of distinct worker ids appearing in the votes."""
        return self._memo(
            "workers", lambda: sorted({v.worker for v in self.votes})
        )

    def pairs(self) -> List[Pair]:
        """Sorted list of distinct canonical pairs appearing in the votes."""
        return self._memo(
            "pairs", lambda: sorted({v.pair for v in self.votes})
        )


@dataclass(frozen=True)
class InferenceResult:
    """The output of a full result-inference run.

    Attributes
    ----------
    ranking:
        The inferred full ranking.
    log_preference:
        ``log Pr[P]`` of the chosen Hamiltonian path (sum of log edge
        weights); comparable across algorithms on the same closure.
    worker_quality:
        Estimated quality ``q_k`` per worker id (empty for baselines that
        do not model workers).
    direct_preferences:
        The Step-1 direct preference ``x_ij`` per canonical pair.
    step_seconds:
        Wall-clock seconds per named pipeline step (for Fig. 4's breakdown).
    metadata:
        Free-form extras (iteration counts, 1-edge counts, ...).
    """

    ranking: Ranking
    log_preference: float
    worker_quality: Dict[WorkerId, float] = field(default_factory=dict)
    direct_preferences: Dict[Pair, float] = field(default_factory=dict)
    step_seconds: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)
