"""A pool of simulated workers drawn from one quality distribution.

Also home to :func:`parallel_map`, the library's shared compute-fanout
helper (used by the SAPS parallel-restart loop among others): the
"pool" abstractions — crowd workers and compute workers — live
together here.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, TypeVar, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import SeedLike, ensure_rng, spawn_rngs
from ..types import WorkerId
from .backends import ExecutionBackend, resolve_backend
from .quality import QualityDistribution
from .worker import SimulatedWorker


class WorkerPool:
    """The crowd: ``m`` simulated workers with ids ``0..m-1``.

    Construction draws each worker's ``sigma_k`` once from the quality
    distribution (the paper assumes "the workers' quality stays stable
    across all the tasks") and gives every worker an independent random
    stream so that vote noise is reproducible.
    """

    def __init__(self, workers: Sequence[SimulatedWorker]):
        if not workers:
            raise ConfigurationError("worker pool cannot be empty")
        ids = [w.worker_id for w in workers]
        if ids != list(range(len(workers))):
            raise ConfigurationError(
                "worker ids must be contiguous 0..m-1 in order, got "
                f"{ids[:5]}..."
            )
        self._workers: List[SimulatedWorker] = list(workers)

    @classmethod
    def from_distribution(
        cls,
        n_workers: int,
        quality: QualityDistribution,
        rng: SeedLike = None,
    ) -> "WorkerPool":
        """Draw a pool of ``n_workers`` from a quality distribution."""
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        parent = ensure_rng(rng)
        sigmas = quality.sample_sigmas(n_workers, parent)
        streams = spawn_rngs(parent, n_workers)
        workers = [
            SimulatedWorker(worker_id=k, sigma=float(sigmas[k]), rng=streams[k])
            for k in range(n_workers)
        ]
        return cls(workers)

    # -- container protocol ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._workers)

    def __iter__(self) -> Iterator[SimulatedWorker]:
        return iter(self._workers)

    def __getitem__(self, worker_id: WorkerId) -> SimulatedWorker:
        try:
            return self._workers[worker_id]
        except IndexError:
            raise ConfigurationError(
                f"worker {worker_id} not in pool of {len(self._workers)}"
            ) from None

    def reseed(self, rng: SeedLike = None) -> None:
        """Give every worker a fresh child stream derived from ``rng``.

        Child streams are spawned once from the parent and handed out
        *by worker id*, so worker ``k``'s vote sequence depends only on
        the parent seed and its own task sequence — never on how many
        draws other workers (or other behaviour models) made in
        between.  Workers with per-round state (drift clocks) reset it.
        Reseeding makes a collection round a pure function of
        ``(pool, seed)`` even when the pool was already used.
        """
        parent = ensure_rng(rng)
        streams = spawn_rngs(parent, len(self._workers))
        for worker, stream in zip(self._workers, streams):
            worker.reseed(stream)

    # -- accessors -----------------------------------------------------------
    def sigmas(self) -> np.ndarray:
        """Error deviations of all workers, indexed by worker id."""
        return np.array([w.sigma for w in self._workers])

    def expected_accuracies(self) -> np.ndarray:
        """Per-worker expected vote accuracy ``1 - E[eps]`` (oracle view)."""
        return np.array(
            [1.0 - w.expected_error_probability() for w in self._workers]
        )

    def sample(self, count: int, rng: SeedLike = None) -> List[SimulatedWorker]:
        """Draw ``count`` distinct workers uniformly (HIT assignment)."""
        if not 1 <= count <= len(self._workers):
            raise ConfigurationError(
                f"cannot sample {count} workers from a pool of "
                f"{len(self._workers)}"
            )
        generator = ensure_rng(rng)
        chosen = generator.choice(len(self._workers), size=count, replace=False)
        return [self._workers[int(k)] for k in chosen]

    def __repr__(self) -> str:
        sig = self.sigmas()
        return (
            f"WorkerPool(m={len(self._workers)}, "
            f"sigma_mean={sig.mean():.4f}, sigma_max={sig.max():.4f})"
        )


# ---------------------------------------------------------------------------
# Compute fan-out
# ---------------------------------------------------------------------------

_T = TypeVar("_T")
_R = TypeVar("_R")


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    *,
    max_workers: int,
    backend: Union[None, str, ExecutionBackend] = None,
    timeout: Optional[float] = None,
) -> List[_R]:
    """Order-preserving map over a pluggable execution backend.

    Results come back in input order regardless of completion order,
    so a deterministic reduction over them (e.g. "first minimum wins")
    gives the same answer as a serial loop — the property the SAPS
    parallel-restart path relies on.  The exception of the
    earliest-indexed failing task propagates to the caller on every
    backend.

    ``backend`` selects where tasks run: ``"serial"`` (inline, the
    default) or ``"process"`` (true multi-core with crash isolation;
    ``fn``, the items and the results must be picklable).  ``None``
    defers to the ``REPRO_BACKEND`` environment variable, then
    ``"serial"``.

    ``timeout`` bounds each task in seconds where the backend can
    enforce it (process: worker killed; serial: unenforced) and
    surfaces as :class:`~repro.exceptions.TaskTimeoutError`.
    """
    if max_workers < 1:
        raise ConfigurationError(
            f"max_workers must be >= 1, got {max_workers}"
        )
    return resolve_backend(backend).map(
        fn, items, max_workers=max_workers, timeout=timeout,
    )
