"""repro — reproduction of "Distributed-Memory Large Deformation
Diffeomorphic 3D Image Registration" (Mang, Gholami, Biros; SC 2016).

The package is organized bottom-up, mirroring the structure of the paper:

* :mod:`repro.spectral` — Fourier discretization in space (Sec. III-B1),
* :mod:`repro.transport` — semi-Lagrangian transport in time (Sec. III-B2),
* :mod:`repro.runtime` — the shared execution runtime behind both kernel
  registries: the LRU plan pool with byte-accurate accounting and the
  unified worker-pool policy,
* :mod:`repro.core` — the optimal-control registration problem and the
  preconditioned inexact Gauss-Newton-Krylov solver (Sec. II-B, III-A),
* :mod:`repro.parallel` — the distributed-memory substrate: pencil
  decomposition, distributed FFT, ghost exchange, semi-Lagrangian scatter,
  and the analytic performance model used to reproduce the scaling studies
  (Sec. III-C, IV),
* :mod:`repro.service` — the async job layer: queued registrations,
  worker fan-out, transport micro-batching and the atlas workload,
* :mod:`repro.data` — the synthetic problem of Fig. 5 and the brain-phantom
  substitute for the NIREP data,
* :mod:`repro.analysis` — scaling analysis, table formatting and the paper's
  reference tables.

This module is the stable facade: everything a downstream user needs for
the two supported calling styles is importable from ``repro`` directly.

Synchronous quick start
-----------------------
>>> from repro import register
>>> from repro.data.synthetic import synthetic_registration_problem
>>> prob = synthetic_registration_problem(16)
>>> result = register(prob.template, prob.reference, beta=1e-2)
>>> result.relative_residual < 1.0
True

Queued (service) style::

    import repro
    jobs = [repro.submit(moving, atlas) for moving in subjects]
    results = repro.gather(jobs)

Execution knobs (backends, workers, pool budget) travel in a
:class:`repro.RegistrationConfig`; see its docstring for the precedence
rules against the ``REPRO_*`` environment variables.
"""

from repro.config import RegistrationConfig
from repro.core.optim.gauss_newton import SolverOptions
from repro.core.registration import RegistrationResult, RegistrationSolver, register
from repro.service import Job, JobStatus, RegistrationService, gather, submit
from repro.spectral.grid import Grid

__version__ = "1.1.0"

__all__ = [
    "Grid",
    "Job",
    "JobStatus",
    "RegistrationConfig",
    "RegistrationResult",
    "RegistrationService",
    "RegistrationSolver",
    "SolverOptions",
    "__version__",
    "gather",
    "register",
    "submit",
]
