"""Async job layer over the registration solver (``repro.service``).

The paper's target workloads are *services*, not single solves: population
("atlas") studies run thousands of registrations against one template, and
the stated clinical constraint is throughput.  This subsystem turns the
synchronous :func:`repro.register` path into a queued, observable job
service without forking the numerics:

:mod:`repro.service.jobs`
    Job specs (registration / distributed transport), records, statuses and
    the caller-side :class:`~repro.service.jobs.Job` handle.
:mod:`repro.service.queue`
    Thread-safe submission queue whose claim path coalesces compatible
    transport jobs into micro-batches.
:mod:`repro.service.batching`
    The compatibility policy: which jobs may bitwise-safely share one
    ``solve_state_many`` stack.
:mod:`repro.service.workers`
    :class:`~repro.service.workers.RegistrationService` — the worker
    fan-out executing jobs through the existing solver paths, sharing the
    process-wide plan pool across requests.
:mod:`repro.service.artifacts`
    Versioned per-job JSON artifacts (result report, pool/ledger
    metrics).
:mod:`repro.service.journal`
    Durable, crash-safe job journal (versioned jobspec documents,
    append-only fsync'd segments, replay + compaction on restart).
:mod:`repro.service.http`
    Stdlib HTTP front (``POST /jobs``, ``GET /jobs/<id>``,
    ``DELETE /jobs/<id>``, ``GET /stats``).
:mod:`repro.service.atlas`
    Atlas/population registration driver, the first batch workload.

For scripts, a process-wide default service is available through
:func:`submit` / :func:`gather` (mirrored at the top level as
``repro.submit`` / ``repro.gather``)::

    import repro
    jobs = [repro.submit(moving, atlas) for moving in subjects]
    results = repro.gather(jobs)
"""

from __future__ import annotations

import atexit
import threading
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.service.artifacts import (
    ARTIFACT_SCHEMA,
    ARTIFACT_SCHEMA_VERSION,
    job_artifact,
    write_job_artifact,
)
from repro.service.atlas import AtlasResult, run_atlas, submit_atlas
from repro.service.batching import batch_key, group_compatible, stack_compatible
from repro.service.http import ServiceHTTPServer, serve_http
from repro.service.jobs import (
    JOB_CLASS_ATLAS,
    JOB_CLASS_INTERACTIVE,
    Job,
    JobCancelledError,
    JobFailedError,
    JobRecord,
    JobStatus,
    RegistrationJobSpec,
    TransportJobSpec,
)
from repro.service.journal import (
    JOURNAL_SCHEMA,
    JOURNAL_SCHEMA_VERSION,
    SPEC_SCHEMA,
    SPEC_SCHEMA_VERSION,
    JobJournal,
    MalformedSpecError,
    spec_from_dict,
    spec_to_dict,
)
from repro.service.queue import SubmissionQueue
from repro.service.workers import RegistrationService

__all__ = [
    "ARTIFACT_SCHEMA",
    "ARTIFACT_SCHEMA_VERSION",
    "AtlasResult",
    "JOB_CLASS_ATLAS",
    "JOB_CLASS_INTERACTIVE",
    "JOURNAL_SCHEMA",
    "JOURNAL_SCHEMA_VERSION",
    "Job",
    "JobCancelledError",
    "JobFailedError",
    "JobJournal",
    "JobRecord",
    "JobStatus",
    "MalformedSpecError",
    "RegistrationJobSpec",
    "RegistrationService",
    "SPEC_SCHEMA",
    "SPEC_SCHEMA_VERSION",
    "ServiceHTTPServer",
    "SubmissionQueue",
    "TransportJobSpec",
    "batch_key",
    "default_service",
    "gather",
    "group_compatible",
    "job_artifact",
    "run_atlas",
    "serve_http",
    "shutdown_default_service",
    "spec_from_dict",
    "spec_to_dict",
    "stack_compatible",
    "submit",
    "submit_atlas",
    "write_job_artifact",
]

_default_service: Optional[RegistrationService] = None
_default_lock = threading.Lock()


def default_service() -> RegistrationService:
    """The lazily created process-wide service (shut down at exit)."""
    global _default_service
    with _default_lock:
        if _default_service is None:
            _default_service = RegistrationService()
        return _default_service


def shutdown_default_service(drain: bool = True) -> None:
    """Shut down (and forget) the process-wide default service, if any."""
    global _default_service
    with _default_lock:
        service = _default_service
        _default_service = None
    if service is not None:
        service.shutdown(drain=drain)


atexit.register(shutdown_default_service)


def submit(template: np.ndarray, reference: np.ndarray, **kwargs: Any) -> Job:
    """Queue a registration on the default service; returns the job handle.

    Keyword arguments mirror :func:`repro.register`
    (see :class:`~repro.service.jobs.RegistrationJobSpec`).
    """
    spec = RegistrationJobSpec(template=template, reference=reference, **kwargs)
    return default_service().submit_registration(spec)


def gather(
    jobs: Sequence[Job],
    timeout: Optional[float] = None,
    raise_on_error: bool = True,
) -> List[Any]:
    """Results of *jobs* in submission order (default-service convenience)."""
    return default_service().gather(jobs, timeout=timeout, raise_on_error=raise_on_error)
