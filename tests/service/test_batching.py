"""Micro-batching policy: compatibility keys and bitwise-identical merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.pencil import PencilDecomposition
from repro.parallel.transport import DistributedTransportSolver
from repro.service.batching import batch_key, group_compatible, stack_compatible
from repro.service.jobs import RegistrationJobSpec, TransportJobSpec
from repro.spectral.grid import Grid
from repro.runtime.plan_pool import configure_plan_pool

from tests.fixtures import make_grid, smooth_scalar_field, smooth_velocity_field


def _spec(grid, seed=5, **kwargs):
    velocity = smooth_velocity_field(grid, seed=seed)
    moving = smooth_scalar_field(grid, seed=seed + 100)
    return TransportJobSpec(velocity=velocity, moving=moving, grid=grid, **kwargs)


@pytest.fixture(scope="module")
def grid() -> Grid:
    return make_grid(8)


class TestBatchKey:
    def test_register_jobs_are_unbatchable(self, grid):
        spec = RegistrationJobSpec(
            template=smooth_scalar_field(grid, seed=1),
            reference=smooth_scalar_field(grid, seed=2),
        )
        assert batch_key(spec) is None

    def test_identical_transport_specs_share_a_key(self, grid):
        assert batch_key(_spec(grid)) == batch_key(_spec(grid))

    def test_key_separates_every_ingredient(self, grid):
        base = _spec(grid)
        assert batch_key(base) != batch_key(_spec(grid, seed=6))  # velocity
        assert batch_key(base) != batch_key(_spec(grid, num_time_steps=8))  # dt
        assert batch_key(base) != batch_key(_spec(grid, num_tasks=2))  # layout
        other_grid = make_grid(10)
        assert batch_key(base) != batch_key(_spec(other_grid))  # grid

    def test_key_ignores_the_pool_budget(self, grid):
        base_key = batch_key(_spec(grid))
        configure_plan_pool(12345)
        try:
            assert batch_key(_spec(grid)) == base_key
        finally:
            configure_plan_pool(None)


class TestGrouping:
    def test_greedy_grouping_respects_order_and_cap(self, grid):
        a = [_spec(grid, seed=1) for _ in range(3)]
        b = [_spec(grid, seed=2) for _ in range(2)]
        groups = group_compatible([a[0], b[0], a[1], b[1], a[2]], max_batch=2)
        assert groups == [[a[0], a[1]], [b[0], b[1]], [a[2]]]

    def test_unbatchable_specs_are_singletons(self, grid):
        reg = RegistrationJobSpec(
            template=smooth_scalar_field(grid, seed=1),
            reference=smooth_scalar_field(grid, seed=2),
        )
        groups = group_compatible([reg, reg], max_batch=4)
        assert groups == [[reg], [reg]]

    def test_stack_compatible(self, grid):
        same = [_spec(grid, seed=3), _spec(grid, seed=3)]
        assert stack_compatible(same)
        assert not stack_compatible([_spec(grid, seed=3), _spec(grid, seed=4)])
        assert not stack_compatible([])


@pytest.mark.mpi
class TestBitwiseMerging:
    def test_batched_solve_matches_serial_bitwise(self, grid):
        """The property the batch key must guarantee: merging == serial."""
        velocity = smooth_velocity_field(grid, seed=9)
        movings = [smooth_scalar_field(grid, seed=s) for s in (20, 21, 22)]
        deco = PencilDecomposition.from_num_tasks(grid.shape, 4)

        serial = [
            DistributedTransportSolver(grid, deco, num_time_steps=4).solve_state(
                velocity, moving
            )
            for moving in movings
        ]
        batched = DistributedTransportSolver(grid, deco, num_time_steps=4).solve_state_many(
            velocity, np.stack(movings, axis=0)
        )
        for expected, got in zip(serial, batched):
            np.testing.assert_array_equal(expected, got)
