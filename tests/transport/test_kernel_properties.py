"""Hypothesis property tests for the stencil-plan/executor layer.

The executor contract the whole subsystem rests on: a gather's bits depend
only on the (method, coordinates, field) content — never on the executor's
chunk size or the worker count.  The reference of every sweep is the same
plan evaluated as one chunk (``chunk >= num_points``) on a single worker,
i.e. the whole stencil materialized at once; ``map_coordinates`` agreement
(``test_kernels.py``) stays the external reference.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.kernels import (
    SUPPORTED_METHODS,
    STENCIL_CHUNK,
    StencilPlan,
    build_stencil_plan,
    execute_stencil_plan,
)

SHAPE = (8, 10, 9)


def _field_stack(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((2, *SHAPE)).reshape(2, -1)


def _coords(seed: int, num_points: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 10_000)
    scale = np.asarray(SHAPE, dtype=np.float64)[:, None]
    return rng.uniform(0.0, 1.0, size=(3, num_points)) * scale


def _one_chunk_reference(flat: np.ndarray, plan: StencilPlan) -> np.ndarray:
    """The whole stencil derived in one chunk on one worker."""
    return execute_stencil_plan(flat, plan, chunk=max(plan.num_points, 1), workers=1)


class TestGatherBitwiseInvariance:
    @given(
        method=st.sampled_from(SUPPORTED_METHODS),
        chunk=st.integers(1, 700),
        workers=st.integers(1, 4),
        num_points=st.integers(1, 500),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunk_and_workers_never_change_the_bits(
        self, method, chunk, workers, num_points, seed
    ):
        """Every (chunk, workers) combination gathers bitwise identically to
        the one-chunk single-threaded evaluation of the same plan."""
        flat = _field_stack(seed)
        plan = build_stencil_plan(SHAPE, _coords(seed, num_points), method)
        candidate = execute_stencil_plan(flat, plan, chunk=chunk, workers=workers)
        np.testing.assert_array_equal(candidate, _one_chunk_reference(flat, plan))

    @given(
        method=st.sampled_from(SUPPORTED_METHODS),
        chunk=st.integers(1, 700),
        num_points=st.integers(1, 400),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_non_periodic_chunking_never_changes_the_bits(
        self, method, chunk, num_points, seed
    ):
        """Ghost-block (scatter-path) plans obey the same chunk invariance."""
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((12, 11, 13))
        # interior points: the full stencil stays inside the block
        coords = rng.uniform(2.0, 8.0, size=(3, num_points))
        flat = block.reshape(1, -1)
        plan = build_stencil_plan(block.shape, coords, method, periodic=False)
        candidate = execute_stencil_plan(flat, plan, chunk=chunk)
        np.testing.assert_array_equal(candidate, _one_chunk_reference(flat, plan))


class TestChunkProtocolProperties:
    @given(num_points=st.integers(0, 2000), chunk=st.integers(1, 512))
    @settings(max_examples=50, deadline=None)
    def test_spans_partition_the_point_range(self, num_points, chunk):
        """iter_chunks always yields a disjoint ascending cover of [0, M)."""
        plan = build_stencil_plan(
            SHAPE, _coords(0, num_points) if num_points else np.empty((3, 0)), "linear"
        )
        spans = plan.iter_chunks(chunk)
        assert sum(hi - lo for lo, hi in spans) == num_points
        previous = 0
        for lo, hi in spans:
            assert lo == previous and hi > lo
            previous = hi
        if num_points:
            assert spans[-1][1] == num_points

    @given(num_points=st.integers(0, 60_000))
    @settings(max_examples=30, deadline=None)
    def test_resident_bytes_capped_at_one_chunk(self, num_points):
        """nbytes of a plan is min(M, chunk) scratch — never O(M)."""
        coords = np.zeros((3, num_points)) + 1.5
        plan = build_stencil_plan(SHAPE, coords, "catmull_rom")
        per_point = 3 * (np.dtype(np.intp).itemsize + np.dtype(np.float64).itemsize)
        assert plan.nbytes == per_point * min(num_points, STENCIL_CHUNK)
