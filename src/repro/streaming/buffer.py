"""Append-only incremental builder over the columnar vote arrays.

:class:`~repro.types.VoteSet` is frozen by contract — its memoized
derived views (``arrays()``, ``by_pair()``, ...) are sound only because
the votes tuple never changes.  A live ranking session, however, grows
its vote pool one submission at a time, and rebuilding the columnar
tables from scratch per vote is O(total votes) per ingest.

:class:`VoteBuffer` is the mutable counterpart: per-vote columns live in
amortized-doubling ``numpy`` buffers (appends are O(1) amortized), and
:meth:`snapshot` hands the three id columns to
:meth:`~repro.types.VoteArrays.from_columns`, the same encoder
``VoteArrays.from_votes`` uses, so a snapshot is **bit-identical** to the
batch build over the same vote sequence and every downstream kernel
(truth discovery, smoothing, SAPS) sees the same arrays whether votes
arrived in one batch or one at a time (pinned by the differential
tests).  Snapshots are cached until the next append.

Rows already written are never rewritten, so snapshot per-vote columns
are cheap views of the growth buffers, not copies; like every
``VoteArrays``, they must be treated as immutable by callers.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..types import Vote, VoteArrays, VoteSet

#: Initial capacity of the per-vote growth buffers.
_MIN_CAPACITY = 64


class VoteBuffer:
    """Mutable, append-only vote accumulator with columnar snapshots.

    Parameters
    ----------
    n_objects:
        Number of ranked objects; votes must compare objects in
        ``[0, n_objects)``.
    votes:
        Optional initial votes (appended in order).
    """

    def __init__(self, n_objects: int, votes: Iterable[Vote] = ()) -> None:
        if n_objects < 2:
            raise ConfigurationError(
                f"need at least 2 objects to collect votes, got {n_objects}"
            )
        self.n_objects = int(n_objects)
        self._size = 0
        self._winner = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._loser = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._worker = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._snapshot: Optional[VoteArrays] = None
        self.extend(votes)

    # -- sizes ----------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def n_votes(self) -> int:
        return self._size

    @property
    def n_pairs(self) -> int:
        return self.snapshot().n_pairs

    @property
    def n_workers(self) -> int:
        return self.snapshot().n_workers

    # -- growth ---------------------------------------------------------------
    def append(self, vote: Vote) -> None:
        """Append one vote (O(1) amortized)."""
        self.extend((vote,))

    def extend(self, votes: Iterable[Vote]) -> int:
        """Append many votes; returns how many were appended.

        The object range is checked for the whole batch before any row
        is written, so a rejected batch leaves the buffer unchanged.
        """
        votes = list(votes)
        count = len(votes)
        if not count:
            return 0
        winner = np.fromiter((v.winner for v in votes), dtype=np.int64,
                             count=count)
        loser = np.fromiter((v.loser for v in votes), dtype=np.int64,
                            count=count)
        bad = ((winner < 0) | (winner >= self.n_objects)
               | (loser < 0) | (loser >= self.n_objects))
        if bad.any():
            row = int(np.argmax(bad))
            raise ConfigurationError(
                f"vote compares objects ({winner[row]}, {loser[row]}) "
                f"outside [0, {self.n_objects})"
            )
        start = self._size
        end = start + count
        while end > self._winner.shape[0]:
            self._grow()
        self._winner[start:end] = winner
        self._loser[start:end] = loser
        self._worker[start:end] = np.fromiter(
            (v.worker for v in votes), dtype=np.int64, count=count
        )
        self._size = end
        self._snapshot = None
        return count

    def _grow(self) -> None:
        """Double every per-vote growth buffer.

        Old buffers stay referenced by earlier snapshots' views; written
        rows are never mutated, so those views remain valid.
        """
        capacity = 2 * self._winner.shape[0]
        for name in ("_winner", "_loser", "_worker"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=np.int64)
            new[: self._size] = old[: self._size]
            setattr(self, name, new)

    # -- snapshots ------------------------------------------------------------
    def snapshot(self) -> VoteArrays:
        """The current votes as frozen columnar arrays (cached).

        Bit-identical to ``VoteArrays.from_votes(n_objects, votes)`` on
        the same vote sequence: both go through
        :meth:`~repro.types.VoteArrays.from_columns`.
        """
        if self._snapshot is None:
            size = self._size
            self._snapshot = VoteArrays.from_columns(
                self.n_objects, self._winner[:size], self._loser[:size],
                self._worker[:size],
            )
        return self._snapshot

    def to_vote_set(self) -> VoteSet:
        """A frozen :class:`~repro.types.VoteSet` of the current votes.

        The snapshot arrays are primed into the vote set's memo cache,
        so ``vote_set.arrays()`` returns the exact same object — batch
        code running on the frozen set and streaming code running on
        the snapshot consume identical tables.
        """
        arrays = self.snapshot()
        vote_set = VoteSet(n_objects=self.n_objects, votes=arrays.to_votes())
        object.__setattr__(
            vote_set, "_cache",
            {"__votes__": vote_set.votes, "arrays": arrays},
        )
        return vote_set

    def votes(self) -> Tuple[Vote, ...]:
        """Reconstruct the appended votes, in order."""
        return self.snapshot().to_votes()
