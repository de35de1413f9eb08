"""Pluggable execution backends for the library's compute fan-out.

Every parallel path in the repo — SAPS restarts, the batch executor
behind ``repro batch`` and ``repro serve`` — funnels through one
order-preserving map primitive.  This module provides two
interchangeable implementations of it:

``serial`` (default)
    An inline loop on the calling thread.  Zero overhead, trivially
    deterministic — the oracle the process backend is tested against.
    Cannot enforce per-task deadlines (nothing to interrupt).
``process``
    A ``multiprocessing`` pool with pickle-safe dispatch, per-task
    deadlines and crash isolation.  Each worker process runs one task
    at a time over a dedicated pipe; a worker that dies mid-task
    (signal, ``os._exit``, OOM kill) surfaces a typed
    :class:`~repro.exceptions.WorkerCrashedError` for that task and is
    **respawned**, so the remaining tasks still complete and the pool
    never hangs.  A task that outlives its deadline has its worker
    killed (a real cancellation) and raises
    :class:`~repro.exceptions.TaskTimeoutError`.  Tasks, their
    arguments and their results must be picklable; the task function
    must be importable from the worker (module-level, or a
    ``functools.partial`` over one).

There is no thread backend: the GIL serialises the pure-Python work
fanned out here (the SAPS annealing kernel, the CRH truth-discovery
loop), so a thread pool runs it no faster than the serial loop.

Determinism: both backends return results in **input order**
regardless of completion order, so a deterministic reduction over the
results (e.g. "first minimum wins") gives the same answer on either
backend — the property the SAPS parallel-restart path and the
differential test suite (``tests/test_backends_equivalence.py``) rely
on.

Selection: callers pass a backend name (or instance) explicitly, or
leave it ``None`` to let :func:`resolve_backend` consult the
``REPRO_BACKEND`` environment variable and finally fall back to
``"serial"``.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from ..diagnostics import get_logger
from ..exceptions import (
    ConfigurationError,
    ExecutionBackendError,
    TaskTimeoutError,
    WorkerCrashedError,
)

_log = get_logger("workers.backends")

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable consulted by :func:`resolve_backend` when no
#: backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Environment variable overriding the multiprocessing start method of
#: the process backend ("fork", "spawn" or "forkserver").
START_METHOD_ENV_VAR = "REPRO_MP_START"

#: Default backend when neither the caller nor the environment chooses.
DEFAULT_BACKEND = "serial"


def get_mp_context(start_method: Optional[str] = None):
    """Resolve the library's :mod:`multiprocessing` context.

    One policy for every process-spawning path (the process backend's
    worker pool, the pre-fork server supervisor): an explicit
    ``start_method`` wins, then the ``REPRO_MP_START`` environment
    variable, then ``fork`` where available (cheap on POSIX) with a
    ``spawn`` fallback.

    Raises
    ------
    ConfigurationError
        When the requested start method is not available on this
        platform.
    """
    import multiprocessing

    method = start_method or os.environ.get(START_METHOD_ENV_VAR)
    available = multiprocessing.get_all_start_methods()
    if method is None:
        method = "fork" if "fork" in available else "spawn"
    elif method not in available:
        raise ConfigurationError(
            f"start method {method!r} not available (have {available})"
        )
    return multiprocessing.get_context(method)


class RemoteTaskError(ExecutionBackendError):
    """A task failed in a worker process with an unpicklable exception.

    Carries the original exception's type name and formatted traceback;
    raised in the parent in its stead.
    """

    def __init__(self, type_name: str, message: str, trace: str):
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name
        self.trace = trace


class ExecutionBackend:
    """Order-preserving map over a pool of workers (abstract base)."""

    #: Registry key; also what ``Config``/CLI flags name.
    name: str = "abstract"

    def map(
        self,
        fn: Callable[[_T], _R],
        items: Sequence[_T],
        *,
        max_workers: int,
        timeout: Optional[float] = None,
        return_exceptions: bool = False,
    ) -> List[_R]:
        """Apply ``fn`` to every item; results come back in input order.

        Parameters
        ----------
        fn / items:
            The task function and its inputs.  The process backend
            additionally requires both (and the results) to be
            picklable.
        max_workers:
            Pool width; execution never exceeds this concurrency.
        timeout:
            Per-task wall-clock deadline in seconds.  ``None`` means
            unbounded.  Enforcement is backend-specific (kill /
            unsupported) — see the module docstring.
        return_exceptions:
            When true, a failed task contributes its exception
            *instance* to the result list instead of raising, and every
            task runs to completion.  When false (default), the
            exception of the earliest-indexed failed task is raised;
            whether later tasks still executed is backend-specific and
            deliberately unobservable through the return value.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Inline execution on the calling thread — the determinism oracle.

    Fail-fast in raising mode: the first exception propagates
    immediately and later items never run.  ``timeout`` is validated
    like every backend's but cannot be enforced (there is no second
    thread of control to interrupt from).
    """

    name = "serial"

    def map(self, fn, items, *, max_workers, timeout=None,
            return_exceptions=False):
        _validate(max_workers, timeout)
        if not return_exceptions:
            return [fn(item) for item in items]
        outcomes: List[object] = []
        for item in items:
            try:
                outcomes.append(fn(item))
            except Exception as error:  # noqa: BLE001 — collected by request
                outcomes.append(error)
        return outcomes


class _Failure:
    __slots__ = ("error",)

    def __init__(self, error):
        self.error = error


def _unwrap(outcomes: List[object], return_exceptions: bool) -> List[object]:
    results: List[object] = []
    first_error: Optional[BaseException] = None
    for outcome in outcomes:
        if isinstance(outcome, _Failure):
            if first_error is None:
                first_error = outcome.error
            results.append(outcome.error)
        else:
            results.append(outcome)
    if not return_exceptions and first_error is not None:
        raise first_error
    return results


# ---------------------------------------------------------------------------
# Process backend
# ---------------------------------------------------------------------------

def _worker_loop(conn) -> None:
    """One worker process: recv ``(index, fn, item)``, send the outcome.

    Exceptions are pickled back when possible; unpicklable ones travel
    as (type name, message, traceback text) and re-raise as
    :class:`RemoteTaskError` in the parent.  A ``None`` message is the
    shutdown sentinel.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, fn, item = message
        try:
            result = fn(item)
            payload = (index, "ok", result)
        except BaseException as error:  # noqa: BLE001 — shipped to parent
            try:
                pickle.dumps(error)
                payload = (index, "err", error)
            except Exception:  # noqa: BLE001 — unpicklable exception
                payload = (index, "remote_err", (
                    type(error).__name__, str(error),
                    traceback.format_exc(),
                ))
        try:
            conn.send(payload)
        except BaseException:  # noqa: BLE001 — parent gone / result unpicklable
            try:
                conn.send((index, "remote_err", (
                    type(payload[2]).__name__ if payload[1] == "ok"
                    else "UnknownError",
                    "task outcome could not be pickled back to the parent",
                    "",
                )))
            except BaseException:  # noqa: BLE001 — give up, parent sees EOF
                return


class _ProcessWorker:
    """One worker process plus its parent-side pipe end and task slot."""

    __slots__ = ("process", "conn", "task_index", "deadline")

    def __init__(self, ctx):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_loop, args=(child_conn,), daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.task_index: Optional[int] = None
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.task_index is not None

    def assign(self, index: int, fn, item,
               timeout: Optional[float]) -> None:
        self.task_index = index
        self.deadline = None if timeout is None \
            else time.monotonic() + timeout
        self.conn.send((index, fn, item))

    def clear(self) -> None:
        self.task_index = None
        self.deadline = None

    def shutdown(self, grace: float = 1.0) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(grace)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(grace)
        self.conn.close()

    def kill(self) -> None:
        """Hard-stop the worker (deadline enforcement / crash cleanup)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(1.0)
        self.conn.close()


class ProcessBackend(ExecutionBackend):
    """``multiprocessing`` pool with crash isolation and real deadlines.

    The pool is built per :meth:`map` call (workers are cheap with the
    default ``fork`` start method on POSIX) and always torn down before
    returning.  Dispatch is explicit — one task in flight per worker
    over a dedicated pipe — which is what makes crash detection exact:
    a dead worker's pipe reads EOF, the task that was on it becomes a
    :class:`WorkerCrashedError`, and a replacement worker is spawned if
    tasks remain.

    Unlike the serial backend's fail-fast loop, all tasks run to
    completion even in raising mode (the earliest-indexed failure is
    raised at the end) — partial work is never silently discarded, and
    the fault-injection suite checks exactly this.
    """

    name = "process"

    def __init__(self, start_method: Optional[str] = None):
        self._start_method = start_method

    def _context(self):
        return get_mp_context(self._start_method)

    def map(self, fn, items, *, max_workers, timeout=None,
            return_exceptions=False):
        _validate(max_workers, timeout)
        items = list(items)
        if not items:
            return []
        ctx = self._context()
        width = min(max_workers, len(items))
        workers = [_ProcessWorker(ctx) for _ in range(width)]
        pending = list(enumerate(items))  # consumed front-first
        outcomes: List[object] = [None] * len(items)
        done = 0
        try:
            while done < len(items):
                for slot, worker in enumerate(workers):
                    if not worker.busy and pending:
                        index, item = pending.pop(0)
                        try:
                            worker.assign(index, fn, item, timeout)
                        except (BrokenPipeError, OSError):
                            # The worker died while idle; replace it and
                            # requeue the task for the fresh one.
                            worker.kill()
                            workers[slot] = _ProcessWorker(self._context())
                            pending.insert(0, (index, item))
                done += self._collect(workers, outcomes)
                done += self._reap_timeouts(ctx, workers, outcomes, pending)
        finally:
            for worker in workers:
                if worker.process.is_alive() and worker.busy:
                    worker.kill()
                else:
                    worker.shutdown()
        return _unwrap(outcomes, return_exceptions)

    # -- event handling -----------------------------------------------------

    def _collect(self, workers: List[_ProcessWorker],
                 outcomes: List[object]) -> int:
        """Wait for one pipe event; record results/crashes.  Returns the
        number of tasks that reached a terminal outcome."""
        from multiprocessing.connection import wait as conn_wait

        busy = [w for w in workers if w.busy]
        if not busy:
            return 0
        # A short tick keeps deadline checks responsive even when no
        # worker speaks; readiness of any pipe wakes us immediately.
        ready = conn_wait([w.conn for w in busy], timeout=0.05)
        finished = 0
        for worker in busy:
            if worker.conn not in ready:
                continue
            try:
                index, kind, payload = worker.conn.recv()
            except (EOFError, OSError):
                finished += self._handle_crash(workers, worker, outcomes)
                continue
            if kind == "ok":
                outcomes[index] = payload
            elif kind == "err":
                outcomes[index] = _Failure(payload)
            else:  # remote_err
                type_name, message, trace = payload
                outcomes[index] = _Failure(
                    RemoteTaskError(type_name, message, trace)
                )
            worker.clear()
            finished += 1
        return finished

    def _handle_crash(self, workers: List[_ProcessWorker],
                      worker: _ProcessWorker,
                      outcomes: List[object]) -> int:
        """A worker died mid-task: record the crash, respawn in place."""
        index = worker.task_index
        worker.process.join(1.0)
        code = worker.process.exitcode
        _log.warning(
            "worker pid=%s crashed (exitcode=%s) while running task %s; "
            "respawning", worker.process.pid, code, index,
        )
        outcomes[index] = _Failure(WorkerCrashedError(
            f"worker process (pid {worker.process.pid}) died with exit "
            f"code {code} while running task {index}"
        ))
        worker.conn.close()
        self._replace(workers, worker)
        return 1

    def _reap_timeouts(self, ctx, workers: List[_ProcessWorker],
                       outcomes: List[object],
                       pending: List[Tuple[int, object]]) -> int:
        """Kill workers whose task overran its deadline; respawn."""
        now = time.monotonic()
        finished = 0
        for worker in workers:
            if not worker.busy or worker.deadline is None \
                    or now < worker.deadline:
                continue
            index = worker.task_index
            _log.warning("task %s exceeded its deadline; killing worker "
                         "pid=%s", index, worker.process.pid)
            worker.kill()
            outcomes[index] = _Failure(TaskTimeoutError(
                f"task {index} exceeded its deadline (worker killed)"
            ))
            self._replace(workers, worker)
            finished += 1
        return finished

    def _replace(self, workers: List[_ProcessWorker],
                 dead: _ProcessWorker) -> None:
        """Swap a dead worker for a fresh one (same pool slot)."""
        slot = workers.index(dead)
        workers[slot] = _ProcessWorker(self._context())


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Name → backend class, the closed set the Config/CLI layer validates
#: against.
BACKENDS: Dict[str, type] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}

#: Names accepted by config fields and CLI flags.
BACKEND_CHOICES = tuple(sorted(BACKENDS))


def get_backend(name: str) -> ExecutionBackend:
    """Instantiate a backend by registry name.

    Raises
    ------
    ConfigurationError
        For a name outside :data:`BACKEND_CHOICES`.
    """
    try:
        factory = BACKENDS[name]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown execution backend {name!r}; choose from "
            f"{', '.join(BACKEND_CHOICES)}"
        ) from None
    return factory()


def default_backend_name() -> str:
    """The backend used when nothing is specified: env var or serial."""
    return os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND


def resolve_backend(
    spec: Union[None, str, ExecutionBackend] = None,
) -> ExecutionBackend:
    """Resolve an explicit backend, name, or ``None`` to an instance.

    Precedence: an explicit instance or name wins; ``None`` consults
    the ``REPRO_BACKEND`` environment variable; otherwise ``"serial"``.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = default_backend_name()
    return get_backend(spec)


def _validate(max_workers: int, timeout: Optional[float]) -> None:
    if max_workers < 1:
        raise ConfigurationError(
            f"max_workers must be >= 1, got {max_workers}"
        )
    if timeout is not None and timeout <= 0:
        raise ConfigurationError("timeout must be positive or None")
