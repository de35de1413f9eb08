"""Fault injection for the execution backends and the executor on top.

These tests kill worker processes mid-task (``os._exit``, ``SIGKILL``)
and hang tasks past their deadlines, then assert the failure surfaces
as the right *typed* error in the right slot while everything else
completes — never a hang, never a lost task.  The ``hang_guard``
fixture converts any deadlock these faults might expose into a test
failure instead of a wedged run.

POSIX-only by nature (signals, ``fork``); the suite already assumes as
much elsewhere.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro.exceptions import (
    ConfigurationError,
    TaskTimeoutError,
    WorkerCrashedError,
)
from repro.service import executor as executor_module
from repro.service.executor import BatchExecutor, _attempt_job
from repro.service.jobs import RankingJob, ScenarioSpec
from repro.service.retry import NO_RETRY, RetryPolicy, default_is_transient
from repro.workers.backends import (
    ProcessBackend,
    SerialBackend,
)

pytestmark = pytest.mark.usefixtures("hang_guard")

_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

# Communicates a tmp flag path into `_crash_once_attempt`; forked
# workers inherit the value set by the test.
_CRASH_FLAG = ""


# -- module-level task functions (picklable into worker processes) ----------

def _identity(x):
    return x


def _die_on_three(x):
    if x == 3:
        os._exit(42)
    return x * x


def _die_on_multiples_of_three(x):
    if x % 3 == 0:
        os._exit(9)
    return x * x


def _sigkill_self(x):
    if x == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _always_exit(x):
    os._exit(7)


def _sleep_if_negative(x):
    if x < 0:
        time.sleep(60.0)
    return x


def _crash_once_attempt(job):
    """First call kills its worker; later calls run the real attempt."""
    if not os.path.exists(_CRASH_FLAG):
        with open(_CRASH_FLAG, "w"):
            pass
        os._exit(3)
    return _attempt_job(job)


# -- backend-level crash isolation ------------------------------------------

class TestProcessCrashIsolation:
    def test_crash_is_typed_and_others_complete(self):
        outcomes = ProcessBackend().map(
            _die_on_three, list(range(6)), max_workers=2,
            return_exceptions=True,
        )
        assert isinstance(outcomes[3], WorkerCrashedError)
        assert "exit code 42" in str(outcomes[3])
        assert "task 3" in str(outcomes[3])
        for index in (0, 1, 2, 4, 5):
            # Tasks after the crash completing proves the dead worker
            # was respawned rather than its slot going dark.
            assert outcomes[index] == index * index

    def test_sigkill_mid_task(self):
        outcomes = ProcessBackend().map(
            _sigkill_self, [0, 1, 2], max_workers=2,
            return_exceptions=True,
        )
        assert isinstance(outcomes[0], WorkerCrashedError)
        assert outcomes[1:] == [1, 2]

    def test_raising_mode_raises_the_crash(self):
        with pytest.raises(WorkerCrashedError, match="task 3"):
            ProcessBackend().map(_die_on_three, list(range(6)),
                                 max_workers=2)

    def test_every_task_crashing_never_hangs(self):
        outcomes = ProcessBackend().map(
            _always_exit, list(range(4)), max_workers=2,
            return_exceptions=True,
        )
        assert all(isinstance(o, WorkerCrashedError) for o in outcomes)

    def test_crash_is_transient_for_the_retry_loop(self):
        assert default_is_transient(WorkerCrashedError("died")) is True
        # A timeout is not: the same job would time out again.
        assert default_is_transient(TaskTimeoutError("late")) is False


# -- deadlines ---------------------------------------------------------------

class TestDeadlines:
    def test_process_hung_task_is_killed_at_deadline(self):
        start = time.monotonic()
        outcomes = ProcessBackend().map(
            _sleep_if_negative, [1, -1, 2], max_workers=3, timeout=0.5,
            return_exceptions=True,
        )
        elapsed = time.monotonic() - start
        assert outcomes[0] == 1 and outcomes[2] == 2
        assert isinstance(outcomes[1], TaskTimeoutError)
        assert "worker killed" in str(outcomes[1])
        assert elapsed < 10.0  # nowhere near the 60s sleep

    def test_serial_accepts_but_cannot_enforce_timeouts(self):
        assert SerialBackend().map(
            _identity, [1, 2], max_workers=1, timeout=5.0,
        ) == [1, 2]

    @pytest.mark.parametrize("backend", [SerialBackend(), ProcessBackend()])
    def test_non_positive_timeout_rejected(self, backend):
        with pytest.raises(ConfigurationError):
            backend.map(_identity, [1], max_workers=1, timeout=0.0)


# -- the executor built on top ----------------------------------------------

def _scenario_jobs(count, n_objects=10):
    return [
        RankingJob(
            job_id=f"f{i}",
            scenario=ScenarioSpec(n_objects=n_objects, selection_ratio=0.5,
                                  n_workers=8),
            seed=70 + i,
        )
        for i in range(count)
    ]


class TestExecutorFaults:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_exhausted_deadline_times_out_on_every_backend(self, backend):
        executor = BatchExecutor(
            workers=2, backend=backend, retry=NO_RETRY,
            deadline=time.monotonic() - 0.1,
        )
        report = executor.run(_scenario_jobs(3))
        assert [r.status.value for r in report.results] == ["timed_out"] * 3
        assert all("deadline" in r.error for r in report.results)

    def test_process_timeout_kills_the_worker(self):
        executor = BatchExecutor(
            workers=1, backend="process", retry=NO_RETRY, timeout=0.01,
        )
        report = executor.run(_scenario_jobs(1, n_objects=60))
        (result,) = report.results
        assert result.status.value == "timed_out"
        assert "worker killed" in result.error

    @pytest.mark.skipif(not _FORK_AVAILABLE,
                        reason="crash-retry injection relies on fork "
                               "inheriting the patched attempt body")
    def test_crashed_attempt_is_retried_on_a_fresh_worker(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "_CRASH_FLAG",
                            str(tmp_path / "crashed-once"))
        monkeypatch.setattr(executor_module, "_attempt_job",
                            _crash_once_attempt)
        executor = BatchExecutor(
            workers=1, backend="process",
            retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                              max_delay=0.01),
        )
        report = executor.run(_scenario_jobs(1))
        (result,) = report.results
        assert result.status.value == "succeeded"
        assert result.attempts == 2

    @pytest.mark.skipif(not _FORK_AVAILABLE,
                        reason="crash-retry injection relies on fork "
                               "inheriting the patched attempt body")
    def test_unrecoverable_crash_fails_the_job_not_the_batch(
            self, monkeypatch):
        monkeypatch.setattr(executor_module, "_attempt_job", _always_exit)
        executor = BatchExecutor(workers=2, backend="process",
                                 retry=NO_RETRY)
        report = executor.run(_scenario_jobs(2))
        assert [r.status.value for r in report.results] == ["failed"] * 2
        assert all("WorkerCrashedError" in r.error for r in report.results)


@pytest.mark.slow
class TestCrashSoak:
    """Many crash/respawn cycles in one map call — exercises the pool's
    replacement path far past what the tier-1 tests need."""

    def test_interleaved_crashes_over_many_tasks(self):
        items = list(range(60))  # every third task kills its worker
        outcomes = ProcessBackend().map(
            _die_on_multiples_of_three, items, max_workers=4,
            return_exceptions=True,
        )
        for index, outcome in enumerate(outcomes):
            if index % 3 == 0:
                assert isinstance(outcome, WorkerCrashedError)
            else:
                assert outcome == index * index

    def test_repeated_maps_reuse_nothing_poisoned(self):
        backend = ProcessBackend()
        for round_number in range(5):
            outcomes = backend.map(
                _die_on_three, list(range(5)), max_workers=2,
                return_exceptions=True,
            )
            assert isinstance(outcomes[3], WorkerCrashedError)
            assert [outcomes[i] for i in (0, 1, 2, 4)] == [0, 1, 4, 16]
