"""Job records, specs and handles of the registration service.

A *job* is one unit of queued work: either a full registration solve
(:class:`RegistrationJobSpec`, executed through the ordinary
:func:`repro.register` path so the service is a thin facade over
:class:`~repro.core.problem.RegistrationProblem`, never a second code
path), or a distributed transport solve (:class:`TransportJobSpec` — apply
a velocity to a field, e.g. the atlas normalization pass), which the
micro-batcher can merge with compatible neighbours into one
``solve_state_many`` stack.

The submitting thread holds a :class:`Job` *handle*; the service mutates
the underlying :class:`JobRecord` as the job moves through its lifecycle::

    QUEUED -> RUNNING -> DONE
                      -> FAILED     (worker exception; traceback recorded)
                      -> CANCELLED  (cancel(force=True): the cooperative
                                     token stops the solve at its next
                                     safe point)
    QUEUED -> CANCELLED             (cancel() before a worker claimed it)

A worker exception never poisons the queue: the failure is recorded on the
job (``status=failed`` + traceback text) and the worker moves on; waiting
callers are released and see :class:`JobFailedError` when they ask for the
result.

Job identifiers are strings of the form ``"<seq>-<suffix>"``: a process-
local monotonic sequence number (submission order stays readable) plus a
random 8-hex-digit suffix, so two service processes — or one service
restarted over the same artifact/journal directory — can never collide on
``job-<id>.json`` and silently overwrite each other's artifacts.  Jobs
recovered from the journal keep their original id, which keeps their
artifact path stable across the restart.

Every spec carries a ``job_class`` (:data:`JOB_CLASS_INTERACTIVE` by
default; the atlas driver submits :data:`JOB_CLASS_ATLAS`): the queue's
weighted claiming uses it so population bursts cannot starve interactive
single registrations.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import Any, Dict, Optional

import numpy as np

from repro.core.optim.gauss_newton import SolverOptions
from repro.runtime.cancellation import CancelToken
from repro.spectral.grid import Grid

__all__ = [
    "JOB_CLASS_ATLAS",
    "JOB_CLASS_INTERACTIVE",
    "Job",
    "JobCancelledError",
    "JobFailedError",
    "JobRecord",
    "JobStatus",
    "RegistrationJobSpec",
    "TransportJobSpec",
    "json_safe",
    "new_job_id",
]

#: Default job class: latency-sensitive single submissions.
JOB_CLASS_INTERACTIVE = "interactive"

#: Job class of population (atlas) bursts: throughput-oriented, claimed
#: with a lower weight so interactive jobs keep flowing.
JOB_CLASS_ATLAS = "atlas-burst"


def json_safe(value: Any) -> Any:
    """Recursively coerce *value* into JSON-serializable builtins.

    Worker metrics legitimately carry numpy scalars (ledger byte counts,
    pool statistics, residual norms); ``json.dumps`` rejects those, which
    used to fail the artifact write *after* the tmp file was created.
    Small numpy arrays become lists; unknown objects fall back to ``str``.
    """
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class JobStatus(str, Enum):
    """Lifecycle state of one service job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        """True for the three terminal states."""
        return self in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


class JobFailedError(RuntimeError):
    """Raised by :meth:`Job.result` when the worker raised.

    Carries the failed job's record so callers can reach the original
    exception text and traceback without digging through the service.
    """

    def __init__(self, record: "JobRecord") -> None:
        super().__init__(
            f"job {record.job_id} ({record.kind}) failed: {record.error}"
        )
        self.record = record


class JobCancelledError(RuntimeError):
    """Raised by :meth:`Job.result` for a cancelled job.

    Covers both flavours: cancelled while still queued (never ran) and
    cancelled cooperatively while running (``cancel(force=True)``).
    """


@dataclass
class RegistrationJobSpec:
    """One queued registration: the arguments of :func:`repro.register`.

    ``kind = "register"``.  Registrations are never merged by the
    micro-batcher (each solve is an independent Gauss-Newton iteration);
    their cross-request sharing happens in the process-wide plan pool,
    spectral symbol store and worker pools instead.
    """

    template: np.ndarray
    reference: np.ndarray
    beta: float = 1e-2
    regularization: str = "h1"
    incompressible: bool = False
    num_time_steps: int = 4
    gauss_newton: bool = True
    optimizer: str = "gauss_newton"
    smooth_sigma: float = 1.0
    normalize: bool = True
    interpolation: str = "cubic_bspline"
    options: Optional[SolverOptions] = None
    grid: Optional[Grid] = None
    job_class: str = JOB_CLASS_INTERACTIVE

    kind = "register"


@dataclass
class TransportJobSpec:
    """One queued (distributed, pure-advection) transport solve.

    ``kind = "transport"``.  Transport the scalar *moving* field over
    ``t in [0, 1]`` with *velocity* on a simulated ``num_tasks``-rank pencil
    decomposition.  Jobs that agree on (grid, time step, task layout,
    kernel backend **and velocity content**) are
    micro-batched: the whole group ships through one
    :meth:`~repro.parallel.transport.DistributedTransportSolver.solve_state_many`
    stack — one ghost-exchange round and one return ``alltoallv`` per time
    step for the entire batch — with results bitwise identical to running
    every job alone.
    """

    velocity: np.ndarray
    moving: np.ndarray
    num_time_steps: int = 4
    num_tasks: int = 4
    grid: Optional[Grid] = None
    job_class: str = JOB_CLASS_INTERACTIVE

    kind = "transport"

    def resolved_grid(self) -> Grid:
        """The job's grid (built from the field shape when not given)."""
        return self.grid if self.grid is not None else Grid(self.moving.shape)


@dataclass
class JobRecord:
    """Mutable service-side state of one job (shared with the handle)."""

    job_id: str
    kind: str
    status: JobStatus = JobStatus.QUEUED
    job_class: str = JOB_CLASS_INTERACTIVE
    submitted_at: float = dataclass_field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    batch_size: int = 1
    error: Optional[str] = None
    traceback: Optional[str] = None
    metrics: Dict[str, Any] = dataclass_field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (the job section of the artifact schema).

        Metrics are coerced through :func:`json_safe`: numpy scalars from
        the ledger/pool statistics must never poison the artifact write.
        """
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status.value,
            "job_class": self.job_class,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "batch_size": self.batch_size,
            "error": self.error,
            "traceback": self.traceback,
            "metrics": json_safe(self.metrics),
        }


_job_seq = itertools.count(1)


def new_job_id() -> str:
    """A collision-free job id: ``"<seq>-<8 hex>"``.

    The monotonic sequence number preserves human-readable submission
    order within one process; the random suffix makes ids (and therefore
    ``job-<id>.json`` artifact paths) unique across processes and across
    restarts of the same artifact directory.
    """
    return f"{next(_job_seq)}-{uuid.uuid4().hex[:8]}"


class Job:
    """Caller-side handle of one submitted job.

    *job_id* is normally minted by :func:`new_job_id`; the journal's
    recovery path passes the original id through so a re-queued job keeps
    its artifact path.
    """

    def __init__(self, spec, service, job_id: Optional[str] = None) -> None:
        self.spec = spec
        self.record = JobRecord(
            job_id=job_id if job_id is not None else new_job_id(),
            kind=spec.kind,
            job_class=getattr(spec, "job_class", JOB_CLASS_INTERACTIVE),
        )
        self.cancel_token = CancelToken()
        self._service = service
        self._done = threading.Event()
        self._result: Any = None

    # ------------------------------------------------------------------ #
    @property
    def job_id(self) -> str:
        return self.record.job_id

    @property
    def job_class(self) -> str:
        return self.record.job_class

    @property
    def status(self) -> JobStatus:
        return self.record.status

    @property
    def done(self) -> bool:
        return self._done.is_set()

    # ------------------------------------------------------------------ #
    def cancel(self, force: bool = False) -> bool:
        """Cancel the job.

        A still-queued job is removed from the queue atomically (it will
        never run; waiting callers see :class:`JobCancelledError`) and the
        method returns ``True``.  Once a worker claimed the job, plain
        ``cancel()`` returns ``False`` — running solves are not interrupted
        — while ``cancel(force=True)`` additionally requests *cooperative*
        cancellation: the job's token is set and the solver stops at its
        next safe point (between Newton iterations / transport time
        steps), recording ``CANCELLED``.  ``force=True`` returns ``True``
        when the cancellation was delivered (the job will terminate
        CANCELLED unless it finishes first) and ``False`` only for jobs
        already in a terminal state.
        """
        return self._service._cancel(self, force=force)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (or *timeout*)."""
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None):
        """The job's result, blocking until it finishes.

        Raises
        ------
        TimeoutError
            The job did not finish within *timeout* seconds.
        JobFailedError
            The worker raised; the record carries the traceback.
        JobCancelledError
            The job was cancelled before a worker claimed it.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not finish within {timeout} s "
                f"(status: {self.status.value})"
            )
        if self.record.status is JobStatus.FAILED:
            raise JobFailedError(self.record)
        if self.record.status is JobStatus.CANCELLED:
            raise JobCancelledError(f"job {self.job_id} was cancelled")
        return self._result

    # ------------------------------------------------------------------ #
    # service-side completion hooks
    # ------------------------------------------------------------------ #
    def _complete(self, result) -> None:
        self._result = result
        self.record.status = JobStatus.DONE
        self.record.finished_at = time.time()
        self._done.set()

    def _fail(self, error: str, traceback_text: str) -> None:
        self.record.status = JobStatus.FAILED
        self.record.error = error
        self.record.traceback = traceback_text
        self.record.finished_at = time.time()
        self._done.set()

    def _cancelled(self) -> None:
        self.record.status = JobStatus.CANCELLED
        self.record.finished_at = time.time()
        self._done.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job(id={self.job_id}, kind={self.record.kind!r}, status={self.status.value})"
