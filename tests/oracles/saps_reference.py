"""Switches that expose SAPS's oracle kernel and drift check to tests.

Production picks the annealing kernel from the input: the incremental
kernel on complete closures, the full-re-sum reference kernel when an
edge is missing (``repro.inference.saps._select_kernel``).  The
differential suites and ``benchmarks/bench_saps.py`` need the reference
kernel on complete closures too, as the oracle and baseline of the
incremental one, and they run the incremental kernel with its
after-every-move drift assertion switched on.  Both switches patch
private module state of :mod:`repro.inference.saps` for the duration of
a ``with`` block; no public function takes a parameter for them.

The kernel is chosen in the calling process and travels to every
restart task, so :func:`reference_kernel` holds on every execution
backend.  The drift flag is read where the anneal runs: process-backend
workers see it when they are forked inside the ``with`` block (the
default start method on POSIX).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.inference import saps


@contextmanager
def reference_kernel() -> Iterator[None]:
    """Run every SAPS restart on the full-re-sum reference kernel."""
    original = saps._select_kernel
    saps._select_kernel = lambda cost: "reference"
    try:
        yield
    finally:
        saps._select_kernel = original


@contextmanager
def drift_checks(resync_every: Optional[int] = None) -> Iterator[None]:
    """Assert running cost == full re-sum after every accepted move.

    ``resync_every`` optionally overrides the interval between the
    incremental kernel's periodic full re-sums (a huge value leaves the
    per-move assertion as the only guard against drift).
    """
    original = (saps._DEBUG_CHECKS, saps._RESYNC_EVERY)
    saps._DEBUG_CHECKS = True
    if resync_every is not None:
        saps._RESYNC_EVERY = resync_every
    try:
        yield
    finally:
        saps._DEBUG_CHECKS, saps._RESYNC_EVERY = original
