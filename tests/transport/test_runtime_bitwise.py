"""Runtime configurations never change a transported bit.

The execution runtime has three process-wide knobs that reach the
semi-Lagrangian gather: the interpolation worker count
(``REPRO_INTERP_WORKERS``), the plan-pool byte budget
(``REPRO_PLAN_POOL_BYTES``, including a budget too small to hold the
departure plan) and a disabled pool (budget 0).  For every backend and
kernel, a transport step under any of them must be bitwise identical to
the default single-worker, roomy-pool step — the runtime only decides
*when* and *where* the stencil is evaluated, never *what* it computes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.plan_pool import configure_plan_pool
from repro.runtime.workers import INTERP_WORKERS_ENV_VAR
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import SUPPORTED_METHODS
from repro.transport.semi_lagrangian import SemiLagrangianStepper

from tests.fixtures import (
    interp_backend_params,
    make_grid,
    random_field,
    random_points,
    smooth_velocity_field,
)

BACKENDS = interp_backend_params()

#: name -> (interp workers, plan-pool budget in bytes)
RUNTIME_CONFIGS = {
    "threaded-2": ("2", 1 << 28),
    "threaded-3": ("3", 1 << 28),
    "tight-budget": ("1", 4096),
    "pool-disabled": ("1", 0),
}


def _advect(backend: str, method: str) -> np.ndarray:
    """Two steps of the stepper: pure advection, then a sourced step."""
    grid = make_grid(10)
    velocity = smooth_velocity_field(grid, seed=31, amplitude=0.4)
    interp = PeriodicInterpolator(grid, method, backend=backend)
    stepper = SemiLagrangianStepper(grid, velocity, dt=0.25, interpolator=interp)
    nu = random_field(grid, seed=32)
    nu = stepper.step(nu)
    return stepper.step(nu, source_old=random_field(grid, seed=33), source_new=0.5 * nu)


@pytest.fixture()
def runtime(monkeypatch):
    """Apply one runtime configuration; restore the ambient pool budget."""

    def apply(workers: str, budget: int) -> None:
        monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, workers)
        configure_plan_pool(budget)

    yield apply
    configure_plan_pool(None)


@pytest.mark.parametrize("config", sorted(RUNTIME_CONFIGS))
@pytest.mark.parametrize("method", SUPPORTED_METHODS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_stepper_is_bitwise_identical_under_every_runtime_config(
    backend, method, config, runtime
):
    runtime("1", 1 << 28)
    reference = _advect(backend, method)
    runtime(*RUNTIME_CONFIGS[config])
    np.testing.assert_array_equal(_advect(backend, method), reference)


@pytest.mark.parametrize("workers", ["2", "3", "4"])
@pytest.mark.parametrize("method", SUPPORTED_METHODS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_planned_gathers_are_bitwise_identical_across_worker_counts(
    backend, method, workers, monkeypatch
):
    """A multi-chunk planned batch gather is independent of the worker count."""
    grid = make_grid(12)
    points = random_points(3 * 8192 // 2, seed=34)
    fields = np.stack([random_field(grid, seed=s) for s in (35, 36, 37)])
    interp = PeriodicInterpolator(grid, method, backend=backend)
    plan = interp.plan(points)
    monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, "1")
    reference = interp.interpolate_many_planned(fields, plan)
    monkeypatch.setenv(INTERP_WORKERS_ENV_VAR, workers)
    np.testing.assert_array_equal(interp.interpolate_many_planned(fields, plan), reference)
    np.testing.assert_array_equal(interp.interpolate_many(fields, points), reference)
