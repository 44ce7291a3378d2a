"""Micro-batching policy: which queued jobs may share one solve.

The service batches at the *transport* level: two queued transport jobs can
ride one :meth:`~repro.parallel.transport.DistributedTransportSolver.
solve_state_many` stack — sharing the stepper's plan setup plus one ghost
exchange and one value-return ``alltoallv`` per time step — exactly when
every ingredient of the distributed stencil plan matches: grid, time
step, task count and backend; the plan additionally
depends on the velocity *content* (departure points are ``x - dt·v``), so
the batch key includes the velocity fingerprint too — without it the merged
solve could not be bitwise identical to the serial jobs.

Registration jobs never merge (each one is its own Gauss-Newton iteration
over a different image pair): :func:`batch_key` returns ``None`` and the
queue hands them out one at a time.  Their cross-request sharing happens in
the process-wide plan pool instead, which concurrent workers hit through
the single-flight build path.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence

from repro.runtime.plan_pool import array_fingerprint
from repro.transport.kernels import default_backend_name

__all__ = ["batch_key", "group_compatible", "stack_compatible"]


def batch_key(spec) -> Optional[Hashable]:
    """Batch-compatibility key of a job spec, or ``None`` when unbatchable.

    Two specs with equal keys produce bitwise-identical results whether they
    are solved together (one ``solve_state_many`` stack) or alone.
    """
    if getattr(spec, "kind", None) != "transport":
        return None
    grid = spec.resolved_grid()
    return (
        "transport",
        grid.shape,
        int(spec.num_time_steps),
        int(spec.num_tasks),
        default_backend_name(),
        array_fingerprint(spec.velocity),
    )


def group_compatible(specs: Iterable, max_batch: int) -> List[List]:
    """Greedily group *specs* into batches of compatible jobs.

    Order inside each batch follows submission order; unbatchable specs
    (``batch_key() is None``) always form singleton groups.  Used by the
    queue's claim path and directly testable against the serial solves.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    groups: List[List] = []
    open_groups: dict = {}
    for spec in specs:
        key = batch_key(spec)
        if key is None:
            groups.append([spec])
            continue
        group = open_groups.get(key)
        if group is None or len(group) >= max_batch:
            group = []
            groups.append(group)
            open_groups[key] = group
        group.append(spec)
    return groups


def stack_compatible(specs: Sequence) -> bool:
    """True when every spec in *specs* shares one batch key (and it exists)."""
    if not specs:
        return False
    keys = {batch_key(spec) for spec in specs}
    return len(keys) == 1 and None not in keys
