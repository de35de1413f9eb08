"""Worker simulation substrate (Sec. VI-A4).

The paper models worker ``W_k``'s error with a per-worker standard
deviation ``sigma_k``; on each task the worker votes *wrongly* with
probability ``eps_k ~ |N(0, sigma_k^2)|``.  Two quality regimes are used:

* Gaussian: ``sigma_k ~ |N(0, sigma_s^2)|`` with
  ``sigma_s in {0.01, 0.1, 1}`` (high / medium / low quality);
* Uniform: ``sigma_k ~ U[a, b]`` with ranges ``[0, 0.2]``, ``[0.1, 0.3]``,
  ``[0.2, 0.4]``.

This package builds those workers and nothing else — the platform
simulator (:mod:`repro.platform`) routes tasks to them.
"""

from .quality import (
    QualityDistribution,
    GaussianQuality,
    UniformQuality,
    QualityLevel,
    gaussian_preset,
    uniform_preset,
)
from .worker import SimulatedWorker
from .backends import (
    BACKEND_CHOICES,
    BACKEND_ENV_VAR,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    default_backend_name,
    get_backend,
    get_mp_context,
    resolve_backend,
)
from .pool import WorkerPool, parallel_map
from .behaviors import (
    AdversarialWorker,
    CliqueWorker,
    CorrelatedWorker,
    DifficultyWorker,
    DriftingWorker,
    LazyWorker,
    SleepyWorker,
    SpammerWorker,
)

__all__ = [
    "AdversarialWorker",
    "CliqueWorker",
    "CorrelatedWorker",
    "DifficultyWorker",
    "DriftingWorker",
    "LazyWorker",
    "SleepyWorker",
    "SpammerWorker",
    "QualityDistribution",
    "GaussianQuality",
    "UniformQuality",
    "QualityLevel",
    "gaussian_preset",
    "uniform_preset",
    "SimulatedWorker",
    "WorkerPool",
    "parallel_map",
    "BACKEND_CHOICES",
    "BACKEND_ENV_VAR",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "default_backend_name",
    "get_backend",
    "get_mp_context",
    "resolve_backend",
]
