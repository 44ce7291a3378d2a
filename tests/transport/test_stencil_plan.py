"""Deterministic contract tests of the one stencil plan.

:class:`repro.transport.kernels.StencilPlan` borrows the departure
coordinates and derives each chunk's ``base``/``frac``, index parts and
weights inside the executor loop.  The Hypothesis sweeps in
``test_kernel_properties.py`` sample the (chunk, workers) space at random;
this module pins the edges of that space explicitly — single-point chunks,
chunks one short of / equal to / beyond the point count, periodic and
ghost-block (non-periodic) plans — together with the plan's metadata, its
byte accounting, batching, dtype handling and the polynomial reproduction
of each kernel.  The reference of every bitwise check is the same plan
evaluated as one chunk on one worker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.transport.kernels import (
    STENCIL_CHUNK,
    SUPPORTED_METHODS,
    StencilPlan,
    build_stencil_plan,
    execute_stencil_plan,
)

SHAPE = (9, 8, 10)
BLOCK = (12, 11, 13)
NUM_POINTS = 257

#: Expected per-axis tap count of every kernel.
TAPS = {"cubic_bspline": 4, "catmull_rom": 4, "linear": 2}

#: Kernels whose weights at ``t = 0`` are ``(.., 1, ..)`` with exact zeros,
#: so a gather at integer coordinates returns the grid value itself.
INTERPOLATING = ("catmull_rom", "linear")

#: Bytes of one point of ``base`` (intp) + ``frac`` (float64) per axis.
PER_POINT = 3 * (np.dtype(np.intp).itemsize + np.dtype(np.float64).itemsize)


def _coordinates(periodic: bool, num_points: int = NUM_POINTS, seed: int = 0) -> np.ndarray:
    """Fractional index coordinates valid for a periodic or ghost-block plan."""
    rng = np.random.default_rng(seed)
    if periodic:
        scale = np.asarray(SHAPE, dtype=np.float64)[:, None]
        return rng.uniform(0.0, 1.0, size=(3, num_points)) * scale
    # interior points: the full 4x4x4 stencil stays inside the block
    return rng.uniform(2.0, 8.0, size=(3, num_points))


def _fields(periodic: bool, batch: int = 2, seed: int = 1) -> np.ndarray:
    shape = SHAPE if periodic else BLOCK
    return np.random.default_rng(seed).standard_normal((batch, *shape)).reshape(batch, -1)


def _plan(method: str, periodic: bool, **kwargs) -> StencilPlan:
    shape = SHAPE if periodic else BLOCK
    return build_stencil_plan(shape, _coordinates(periodic, **kwargs), method, periodic=periodic)


def _one_chunk(flat: np.ndarray, plan: StencilPlan) -> np.ndarray:
    return execute_stencil_plan(flat, plan, chunk=max(plan.num_points, 1), workers=1)


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "ghost-block"])
@pytest.mark.parametrize("method", SUPPORTED_METHODS)
class TestChunkEdges:
    @pytest.mark.parametrize(
        "chunk",
        [1, 2, 50, NUM_POINTS - 1, NUM_POINTS, STENCIL_CHUNK],
        ids=["single-point", "pairs", "fifty", "one-short", "exact", "default"],
    )
    def test_chunking_and_workers_match_one_chunk_reference(self, method, periodic, chunk):
        """No chunk size at the edges of the protocol, on any worker count,
        changes a bit of the gather."""
        plan = _plan(method, periodic)
        flat = _fields(periodic)
        reference = _one_chunk(flat, plan)
        for workers in (1, 2, 4):
            np.testing.assert_array_equal(
                execute_stencil_plan(flat, plan, chunk=chunk, workers=workers), reference
            )

    def test_chunk_stencil_is_a_slice_of_the_whole(self, method, periodic):
        """The lazily derived stencil of ``[lo, hi)`` is exactly those
        columns of the whole-plan stencil: chunks are independent."""
        plan = _plan(method, periodic)
        whole_parts, whole_weights = plan.chunk_stencil(0, plan.num_points)
        for lo, hi in plan.iter_chunks(100):
            parts, weights = plan.chunk_stencil(lo, hi)
            for d in range(3):
                np.testing.assert_array_equal(parts[d], whole_parts[d][:, lo:hi])
                np.testing.assert_array_equal(weights[d], whole_weights[d][:, lo:hi])

    def test_stencil_arrays_have_the_tap_layout(self, method, periodic):
        """Index parts are ``(taps, m)`` native ``intp``; weights ``(taps, m)``
        float64 — the shapes the tap loop consumes."""
        plan = _plan(method, periodic)
        parts, weights = plan.chunk_stencil(10, 60)
        for d in range(3):
            assert parts[d].shape == (TAPS[method], 50)
            assert parts[d].dtype == np.intp
            assert weights[d].shape == (TAPS[method], 50)
            assert weights[d].dtype == np.float64

    def test_flat_indices_stay_inside_the_array(self, method, periodic):
        """Every tap's flat gather index addresses the (ghosted) array."""
        plan = _plan(method, periodic)
        parts, _ = plan.chunk_stencil(0, plan.num_points)
        lowest = sum(part.min() for part in parts)
        highest = sum(part.max() for part in parts)
        assert lowest >= 0
        assert highest < int(np.prod(plan.shape))

    def test_weights_partition_unity(self, method, periodic):
        """Each axis' weights sum to one at every point."""
        plan = _plan(method, periodic)
        _, weights = plan.chunk_stencil(0, plan.num_points)
        for w in weights:
            np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)

    def test_constant_field_is_reproduced(self, method, periodic):
        flat = np.full((1, int(np.prod(SHAPE if periodic else BLOCK))), 2.5)
        np.testing.assert_allclose(
            execute_stencil_plan(flat, _plan(method, periodic)), 2.5, atol=1e-12
        )

    def test_gather_is_linear_in_the_fields(self, method, periodic):
        """``gather(a f + b g) == a gather(f) + b gather(g)`` up to rounding."""
        plan = _plan(method, periodic)
        f, g = _fields(periodic)
        combined = execute_stencil_plan((3.0 * f - 0.5 * g)[None], plan)[0]
        separate = execute_stencil_plan(np.stack([f, g]), plan)
        np.testing.assert_allclose(combined, 3.0 * separate[0] - 0.5 * separate[1], atol=1e-12)


@pytest.mark.parametrize("method", SUPPORTED_METHODS)
class TestPlanMetadata:
    def test_taps_shape_and_method(self, method):
        plan = build_stencil_plan(np.array(SHAPE), _coordinates(True), method)
        assert plan.method == method
        assert plan.taps == TAPS[method]
        assert plan.shape == SHAPE
        assert all(type(n) is int for n in plan.shape)
        assert plan.periodic is True
        assert plan.num_points == NUM_POINTS
        assert plan.chunk == STENCIL_CHUNK

    def test_contiguous_float64_coordinates_are_borrowed(self, method):
        coords = _coordinates(True)
        plan = build_stencil_plan(SHAPE, coords, method)
        assert plan.coordinates is coords

    def test_float32_coordinates_are_converted_once(self, method):
        coords = _coordinates(True).astype(np.float32)
        plan = build_stencil_plan(SHAPE, coords, method)
        assert plan.coordinates.dtype == np.float64
        assert plan.coordinates.flags.c_contiguous
        np.testing.assert_array_equal(plan.coordinates, coords.astype(np.float64))

    def test_strided_coordinates_are_made_contiguous(self, method):
        wide = _coordinates(True, num_points=2 * NUM_POINTS)
        strided = wide[:, ::2]
        plan = build_stencil_plan(SHAPE, strided, method)
        assert plan.coordinates.flags.c_contiguous
        np.testing.assert_array_equal(plan.coordinates, strided)
        flat = _fields(True)
        contiguous = build_stencil_plan(SHAPE, np.ascontiguousarray(strided), method)
        np.testing.assert_array_equal(
            execute_stencil_plan(flat, plan), execute_stencil_plan(flat, contiguous)
        )

    def test_empty_point_set_gathers_nothing(self, method):
        plan = build_stencil_plan(SHAPE, np.empty((3, 0)), method)
        assert plan.num_points == 0
        assert plan.iter_chunks() == ()
        assert plan.nbytes == 0
        out = execute_stencil_plan(_fields(True, batch=3), plan)
        assert out.shape == (3, 0)

    def test_single_point_plan(self, method):
        coords = np.array([[1.25], [2.5], [3.75]])
        plan = build_stencil_plan(SHAPE, coords, method)
        flat = _fields(True)
        out = execute_stencil_plan(flat, plan, chunk=STENCIL_CHUNK, workers=4)
        assert out.shape == (2, 1)
        np.testing.assert_array_equal(out, _one_chunk(flat, plan))

    @pytest.mark.parametrize("batch", [1, 2, 3, 5])
    def test_batch_components_match_scalar_gathers(self, method, batch):
        """One index derivation serves the whole batch without changing any
        component's bits."""
        plan = _plan(method, True)
        flat = _fields(True, batch=batch, seed=batch)
        batched = execute_stencil_plan(flat, plan, chunk=100, workers=2)
        assert batched.shape == (batch, NUM_POINTS)
        for component in range(batch):
            np.testing.assert_array_equal(
                batched[component], execute_stencil_plan(flat[component : component + 1], plan)[0]
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int32, np.int64])
    def test_lower_precision_fields_are_upcast(self, method, dtype):
        """Fields of any real dtype gather exactly like their float64 cast."""
        from repro.transport.kernels import _as_flat_float64

        plan = _plan(method, True)
        fields = (8 * np.random.default_rng(5).standard_normal((2, *SHAPE))).astype(dtype)
        flat = _as_flat_float64(fields)
        assert flat.dtype == np.float64
        reference = execute_stencil_plan(fields.astype(np.float64).reshape(2, -1), plan)
        np.testing.assert_array_equal(execute_stencil_plan(flat, plan), reference)

    def test_affine_field_is_reproduced_in_the_interior(self, method):
        """Every kernel reproduces affine functions away from the block edge."""
        i, j, k = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in BLOCK), indexing="ij")
        field = 0.5 * i - 1.5 * j + 0.25 * k + 3.0
        coords = _coordinates(False)
        plan = build_stencil_plan(BLOCK, coords, method, periodic=False)
        expected = 0.5 * coords[0] - 1.5 * coords[1] + 0.25 * coords[2] + 3.0
        np.testing.assert_allclose(
            execute_stencil_plan(field.reshape(1, -1), plan)[0], expected, atol=1e-11
        )


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "ghost-block"])
@pytest.mark.parametrize("method", INTERPOLATING)
def test_integer_coordinates_return_grid_values_exactly(method, periodic):
    """Interpolating kernels hit the node values bit for bit at nodes."""
    shape = SHAPE if periodic else BLOCK
    rng = np.random.default_rng(3)
    low, high = (0, min(shape)) if periodic else (2, 8)
    nodes = rng.integers(low, high, size=(3, 200))
    plan = build_stencil_plan(shape, nodes.astype(np.float64), method, periodic=periodic)
    field = rng.standard_normal(shape)
    np.testing.assert_array_equal(
        execute_stencil_plan(field.reshape(1, -1), plan)[0], field[nodes[0], nodes[1], nodes[2]]
    )


@pytest.mark.parametrize(
    "num_points",
    [0, 1, 100, STENCIL_CHUNK - 1, STENCIL_CHUNK, STENCIL_CHUNK + 1, 3 * STENCIL_CHUNK],
)
def test_nbytes_is_one_chunk_of_base_and_frac(num_points):
    """Resident bytes are ``min(M, chunk)`` points of base/frac scratch —
    the borrowed coordinates are not counted."""
    plan = build_stencil_plan(SHAPE, np.full((3, num_points), 1.5), "catmull_rom")
    assert plan.nbytes == PER_POINT * min(num_points, STENCIL_CHUNK)
    assert plan.nbytes <= PER_POINT * STENCIL_CHUNK


@pytest.mark.parametrize("chunk", [1, 64, 1000])
def test_plan_chunk_sets_the_default_spans_and_the_byte_cap(chunk):
    """A plan's own ``chunk`` is the executor default and the nbytes cap."""
    coords = _coordinates(True)
    plan = StencilPlan(
        method="linear", taps=2, shape=SHAPE, periodic=True, coordinates=coords, chunk=chunk
    )
    spans = plan.iter_chunks()
    assert spans == plan.iter_chunks(chunk)
    assert max(hi - lo for lo, hi in spans) == min(chunk, NUM_POINTS)
    assert plan.nbytes == PER_POINT * min(chunk, NUM_POINTS)
    flat = _fields(True)
    np.testing.assert_array_equal(
        execute_stencil_plan(flat, plan, workers=2), _one_chunk(flat, plan)
    )
