"""Unified worker-pool manager for every threaded kernel.

PR 1 introduced ``REPRO_FFT_WORKERS`` for the threaded FFT engines; the
interpolation subsystem of PR 2 stayed single-threaded and every registry
managed its own threading ad hoc.  This module turns the pattern into one
process-wide resource policy:

* ``REPRO_WORKERS`` sets the shared default worker count of *every*
  subsystem (the paper's "one MPI task per core" analogue for the threaded
  single-node path).
* ``REPRO_FFT_WORKERS`` / ``REPRO_INTERP_WORKERS`` override it per
  subsystem, exactly as before (the FFT variable keeps its PR-1 semantics).
* :func:`set_default_workers` is the programmatic/CLI (``--workers``)
  equivalent of ``REPRO_WORKERS``; explicit per-call arguments (e.g.
  ``ScipyFFTBackend(workers=4)``) still win over everything.

Resolution precedence, first match wins::

    explicit argument > per-subsystem env > set_default_workers()
        > REPRO_WORKERS > subsystem default

Every subsystem defaults to all cores.  FFT engines thread inside one C
call; the interpolation engines (the default ``map_coordinates`` gather and
the stencil executor) split their points into chunks with disjoint outputs
and run them on a shared pool, so a gather is bitwise independent of its
worker count.  Thread pools are shared per size (:func:`get_executor`), so
the FFT and interpolation subsystems never oversubscribe the machine with
separate pools of the same width.  Worker counts must be positive: a zero
or negative value in any of the variables above, or passed to
:func:`set_default_workers`, raises :class:`ValueError`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

#: Environment variable with the shared default worker count of every
#: subsystem (overridden per subsystem by the variables below).
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Per-subsystem override for the threaded FFT backends (PR-1 semantics).
FFT_WORKERS_ENV_VAR = "REPRO_FFT_WORKERS"

#: Per-subsystem override for the interpolation engines' point-chunk threads.
INTERP_WORKERS_ENV_VAR = "REPRO_INTERP_WORKERS"

#: Per-subsystem override for the registration service's job workers.
SERVICE_WORKERS_ENV_VAR = "REPRO_SERVICE_WORKERS"


def _all_cores() -> int:
    return max(1, os.cpu_count() or 1)


#: Known subsystems and their per-subsystem override variable; each defaults
#: to all cores.  Future engines (GPU streams, distributed launchers)
#: register here.  The service subsystem is the job-level fan-out of
#: repro.service: every worker drives whole solves, while the per-kernel
#: subsystems bound the threading *inside* each solve.
SUBSYSTEMS: Dict[str, str] = {
    "fft": FFT_WORKERS_ENV_VAR,
    "interp": INTERP_WORKERS_ENV_VAR,
    "service": SERVICE_WORKERS_ENV_VAR,
}

_default_workers: Optional[int] = None
_executors: Dict[int, ThreadPoolExecutor] = {}
_lock = threading.Lock()


def set_default_workers(workers: Optional[int]) -> None:
    """Set (or clear, with ``None``) the process-wide default worker count.

    The programmatic twin of ``REPRO_WORKERS`` used by the CLI ``--workers``
    flag; per-subsystem environment variables still override it.
    """
    global _default_workers
    if workers is None:
        _default_workers = None
        return
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be a positive count, got {workers}")
    _default_workers = workers


def _env_int(name: str) -> Optional[int]:
    value = os.environ.get(name, "").strip()
    if not value:
        return None
    try:
        workers = int(value)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer worker count, got {value!r}") from exc
    if workers < 1:
        raise ValueError(f"{name} must be a positive worker count, got {value!r}")
    return workers


def resolve_workers(subsystem: str, explicit: Optional[int] = None) -> int:
    """Resolve the worker count of *subsystem* under the unified policy."""
    try:
        env_var = SUBSYSTEMS[subsystem]
    except KeyError as exc:
        raise ValueError(
            f"unknown worker subsystem {subsystem!r}; known: {tuple(sorted(SUBSYSTEMS))}"
        ) from exc
    if explicit is not None:
        return max(1, int(explicit))
    for resolved in (_env_int(env_var), _default_workers, _env_int(WORKERS_ENV_VAR)):
        if resolved is not None:
            return resolved
    return _all_cores()


def get_executor(workers: int) -> ThreadPoolExecutor:
    """Shared :class:`ThreadPoolExecutor` of the given width (process-wide).

    Pools are created lazily and kept for the process lifetime, so repeated
    kernel launches never pay thread start-up costs (the "pooled context"
    of the FFT backends, generalized).
    """
    workers = max(1, int(workers))
    with _lock:
        executor = _executors.get(workers)
        if executor is None:
            executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-runtime-{workers}"
            )
            _executors[workers] = executor
        return executor


def shutdown_executors() -> None:
    """Shut down every shared executor (used by tests)."""
    with _lock:
        for executor in _executors.values():
            executor.shutdown(wait=True)
        _executors.clear()
