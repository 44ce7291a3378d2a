"""Pluggable interpolation-kernel backends and cached gather plans.

The paper's per-iteration cost has two dominant kernels: spectral transforms
and the off-grid tricubic interpolation of the semi-Lagrangian scheme
(roughly ``10 x 64`` flops per point, ``4*nt`` sweeps per Hessian mat-vec,
Sec. III-C2/C4).  This module applies the architecture of
:mod:`repro.spectral.backends` to that second kernel: a small registry of
interchangeable gather engines behind one protocol, plus a precomputed
**gather plan** that plans the 64-weight/index stencil of a fixed point set
so that every field interpolated at the same departure points (state,
adjoint, both incremental equations, all time steps of one velocity) reuses
it — the paper's "interpolation planner".

Backends
--------
``"scipy"`` (default)
    :func:`scipy.ndimage.map_coordinates` for the ``cubic_bspline`` and
    ``linear`` kernels (the seed implementation, bit-for-bit) and the shared
    vectorized stencil executor for ``catmull_rom``.
``"numpy"``
    Fully vectorized stencil gather for every kernel.  ``cubic_bspline``
    uses an exact periodic B-spline prefilter (a diagonal Fourier-space
    solve) followed by the cached-stencil gather, so the *whole* tricubic
    pipeline becomes plannable; ``catmull_rom`` and ``linear`` gather
    directly.  The executor is cache-blocked over point chunks, which is
    what makes the planned path faster than per-call C interpolation.
``"numba"``
    JIT-compiled stencil executor (auto-detected; cleanly reported as
    unavailable when :mod:`numba` is not installed — install the
    ``[numba]`` extra).  Shares the stencil plan and the prefilter with the
    ``numpy`` backend.

Selection precedence (first match wins), mirroring the FFT registry:

1. an explicit backend instance or name passed to the consumer
   (e.g. ``PeriodicInterpolator(grid, backend="numpy")`` or the CLI flag
   ``--interp-backend``),
2. the ``REPRO_INTERP_BACKEND`` environment variable,
3. the ``"scipy"`` default.

Backends only gather; interpolation *counting* stays in
:class:`repro.transport.interpolation.PeriodicInterpolator`, which
guarantees exact counter parity across backends — the paper's ``4*nt``
sweep verification is backend independent by construction.

The cached stencil (:class:`StencilPlan`) stores nothing but a borrowed
reference to the departure coordinates: the executor derives each chunk's
base indices, fractional offsets, flat index parts and weights inside its
cache-blocked loop, so the resident stencil memory is one chunk of scratch
whatever the grid size.  The chunked executor is thread-pooled through the
shared runtime (:mod:`repro.runtime.workers`, ``REPRO_INTERP_WORKERS`` /
``REPRO_WORKERS``); neither the chunk size nor the worker count changes a
bit of any gather.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol, Tuple, Type, runtime_checkable

import numpy as np

from repro.observability.trace import trace_span
from repro.runtime.workers import get_executor, resolve_workers
from repro.spectral.backends import BackendUnavailableError

#: Environment variable selecting the default interpolation backend.
BACKEND_ENV_VAR = "REPRO_INTERP_BACKEND"

DEFAULT_BACKEND = "scipy"

#: Interpolation kernels every backend understands.
SUPPORTED_METHODS = ("cubic_bspline", "catmull_rom", "linear")

#: Point-chunk size of the cache-blocked stencil executor.  Chosen so that
#: every per-chunk scratch array (indices, weights, gathered values) stays
#: resident in L1/L2 cache; the tap loop then streams only the field and the
#: plan arrays through memory once per chunk.
STENCIL_CHUNK = 8192


# --------------------------------------------------------------------------- #
# per-axis kernel weights
# --------------------------------------------------------------------------- #
def catmull_rom_weights(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Catmull-Rom convolution weights for samples at offsets ``-1, 0, 1, 2``.

    Parameters
    ----------
    t:
        Fractional coordinate in ``[0, 1)`` relative to the base grid point.
    """
    t2 = t * t
    t3 = t2 * t
    w0 = -0.5 * t3 + t2 - 0.5 * t
    w1 = 1.5 * t3 - 2.5 * t2 + 1.0
    w2 = -1.5 * t3 + 2.0 * t2 + 0.5 * t
    w3 = 0.5 * t3 - 0.5 * t2
    return w0, w1, w2, w3


def bspline_weights(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uniform cubic B-spline basis weights for samples at offsets ``-1, 0, 1, 2``.

    Evaluating these weights on *prefiltered* coefficients (see
    :func:`periodic_bspline_prefilter`) reproduces the interpolating tricubic
    B-spline of :func:`scipy.ndimage.map_coordinates` with ``order=3`` on
    periodic data.
    """
    t2 = t * t
    t3 = t2 * t
    one_minus = 1.0 - t
    w0 = one_minus * one_minus * one_minus / 6.0
    w1 = (3.0 * t3 - 6.0 * t2 + 4.0) / 6.0
    w2 = (-3.0 * t3 + 3.0 * t2 + 3.0 * t + 1.0) / 6.0
    w3 = t3 / 6.0
    return w0, w1, w2, w3


def linear_weights(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Linear interpolation weights for samples at offsets ``0, 1``."""
    return 1.0 - t, t


#: kernel name -> (per-axis weight function, leading stencil offset)
_METHOD_STENCILS: Dict[str, Tuple[Callable, int]] = {
    "cubic_bspline": (bspline_weights, -1),
    "catmull_rom": (catmull_rom_weights, -1),
    "linear": (linear_weights, 0),
}


def periodic_bspline_prefilter(fields: np.ndarray) -> np.ndarray:
    """Exact periodic cubic B-spline prefilter of a ``(..., N1, N2, N3)`` stack.

    The interpolating B-spline coefficients ``c`` solve the separable
    convolution ``c * [1/6, 4/6, 1/6] = f`` along each axis; on a periodic
    grid that convolution is diagonal in Fourier space with per-axis symbol
    ``(4 + 2 cos(2 pi k / N)) / 6``, so the solve is one real-to-complex
    transform, a division by the separable (outer-product) symbol, and the
    inverse transform.  Matches :func:`scipy.ndimage.spline_filter` with
    ``mode="grid-wrap"`` to machine precision.
    """
    fields = np.asarray(fields, dtype=np.float64)
    n1, n2, n3 = fields.shape[-3:]

    def axis_symbol(n: int) -> np.ndarray:
        return (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)) / 6.0

    symbol = (
        axis_symbol(n1)[:, None, None]
        * axis_symbol(n2)[None, :, None]
        * axis_symbol(n3)[None, None, : n3 // 2 + 1]
    )
    spectrum = np.fft.rfftn(fields, axes=(-3, -2, -1)) / symbol
    return np.fft.irfftn(spectrum, s=(n1, n2, n3), axes=(-3, -2, -1))


# --------------------------------------------------------------------------- #
# stencil plans (the cached part of a gather plan)
# --------------------------------------------------------------------------- #
def _chunk_spans(num_points: int, chunk: int) -> Tuple[Tuple[int, int], ...]:
    """Disjoint, ascending ``[lo, hi)`` spans covering ``[0, num_points)``."""
    return tuple((lo, min(lo + chunk, num_points)) for lo in range(0, num_points, chunk))


def _derive_chunk_stencil(
    method: str,
    taps: int,
    shape: Tuple[int, int, int],
    periodic: bool,
    base: np.ndarray,
    frac: np.ndarray,
):
    """Materialize flat index parts and axis weights from ``(3, m)`` base/frac.

    ``index_parts[d]`` has shape ``(taps, m)`` and already holds the
    *flattened* index contribution of axis ``d`` (wrapped index times the
    axis stride), so the flat gather index of tap ``(a, b, c)`` is simply
    ``index_parts[0][a] + index_parts[1][b] + index_parts[2][c]``;
    ``weights[d]`` holds the matching per-axis kernel weights.
    """
    weight_fn, lead = _METHOD_STENCILS[method]
    strides = (shape[1] * shape[2], shape[2], 1)
    index_parts = []
    weights = []
    for d in range(3):
        w = np.stack(weight_fn(frac[d]), axis=0)
        offsets = [base[d] + (offset + lead) for offset in range(taps)]
        if periodic:
            offsets = [idx % shape[d] for idx in offsets]
        index_parts.append(np.stack(offsets, axis=0) * strides[d])
        weights.append(w)
    return tuple(index_parts), tuple(weights)


@dataclass
class StencilPlan:
    """Chunk-resident stencil of a fixed point set (the paper's planner).

    The plan stores nothing but a *borrowed* reference to the fractional
    departure coordinates (which the wrapping :class:`GatherPlan` or scatter
    plan owns and accounts for anyway).  The executor derives each chunk's
    ``base = floor(c)`` and ``frac = c - base`` — and from them the index
    parts and weights (:func:`_derive_chunk_stencil`) — inside its
    cache-blocked loop.  Resident stencil memory is therefore capped at
    **one chunk** regardless of the grid size, and indices are derived
    straight into the native ``intp`` width, so no index range guard is
    needed.  The per-chunk derivation is ``O(3 taps)`` work per point
    against the ``O(taps^3)`` gather it feeds, and its operands stay
    L1/L2-resident.
    """

    method: str
    taps: int
    shape: Tuple[int, int, int]
    periodic: bool
    coordinates: np.ndarray
    chunk: int = STENCIL_CHUNK

    @property
    def num_points(self) -> int:
        return self.coordinates.shape[1]

    @property
    def nbytes(self) -> int:
        """Resident plan bytes: the one-chunk ``base``/``frac`` scratch cap.

        The coordinates are borrowed, not owned — the :class:`GatherPlan`
        (or the scatter-plan entry) that hands them to this plan accounts
        for them, so the pool never double counts the shared buffer.
        """
        m = min(self.num_points, self.chunk)
        return 3 * m * (np.dtype(np.intp).itemsize + np.dtype(np.float64).itemsize)

    def iter_chunks(self, chunk: Optional[int] = None) -> Tuple[Tuple[int, int], ...]:
        """The executor's chunk protocol: spans to feed :meth:`chunk_stencil`."""
        return _chunk_spans(self.num_points, chunk or self.chunk)

    def chunk_stencil(self, lo: int, hi: int):
        """Generate index parts and weights of the points ``[lo, hi)`` lazily.

        Pure function of the borrowed coordinates — chunks can run in any
        order and concurrently (the threaded executor) with bitwise
        deterministic results.
        """
        c = self.coordinates[:, lo:hi]
        base = np.floor(c).astype(np.intp)
        return _derive_chunk_stencil(
            self.method, self.taps, self.shape, self.periodic, base, c - base
        )


def build_stencil_plan(
    shape: Tuple[int, int, int],
    coordinates: np.ndarray,
    method: str,
    periodic: bool = True,
) -> StencilPlan:
    """Plan the gather stencil for fractional index *coordinates*.

    Parameters
    ----------
    shape:
        Shape of the (possibly ghost-extended) array the gather will read.
    coordinates:
        Fractional indices of shape ``(3, M)``.  With ``periodic=True`` they
        must lie in ``[0, N_d)`` per axis and the stencil wraps; with
        ``periodic=False`` the caller guarantees the full stencil lies inside
        the array (the ghosted blocks of :mod:`repro.parallel.scatter`).
        Contiguous float64 coordinates are borrowed, not copied.
    method:
        One of :data:`SUPPORTED_METHODS`.
    """
    weight_fn, _ = _METHOD_STENCILS[method]
    return StencilPlan(
        method=method,
        taps=len(weight_fn(np.zeros(1))),
        shape=tuple(int(n) for n in shape),
        periodic=periodic,
        coordinates=np.ascontiguousarray(coordinates, dtype=np.float64),
    )


def _as_flat_float64(fields: np.ndarray) -> np.ndarray:
    """Flatten a ``(B, N1, N2, N3)`` stack to the executor's gather layout.

    The stencil executor accumulates in float64 scratch buffers, so lower
    precision inputs are upcast here (the seed kernel did the same).
    """
    return np.ascontiguousarray(fields.reshape(fields.shape[0], -1), dtype=np.float64)


def _run_tap_loop(flat_fields, index_parts, weights, taps: int, acc: np.ndarray) -> None:
    """The tap loop of one point chunk, accumulating into ``acc``."""
    i0, i1, i2 = index_parts
    w0, w1, w2 = weights
    num_fields = flat_fields.shape[0]
    m = acc.shape[1]
    ib = np.empty(m, dtype=np.intp)
    gi = np.empty(m, dtype=np.intp)
    wb = np.empty(m)
    wt = np.empty(m)
    gb = np.empty(m)
    tb = np.empty(m)
    for a in range(taps):
        ia = i0[a]
        wa = w0[a]
        for b in range(taps):
            np.add(ia, i1[b], out=ib)
            np.multiply(wa, w1[b], out=wb)
            for c in range(taps):
                np.add(ib, i2[c], out=gi)
                np.multiply(wb, w2[c], out=wt)
                for f in range(num_fields):
                    np.take(flat_fields[f], gi, out=gb)
                    np.multiply(wt, gb, out=tb)
                    acc[f] += tb


def _execute_stencil_chunk(
    flat_fields: np.ndarray, plan: StencilPlan, lo: int, hi: int, out: np.ndarray
) -> None:
    """Run the tap loop of one point chunk, accumulating into ``out[:, lo:hi]``.

    All scratch arrays of the chunk stay in cache while the tap loop runs;
    chunks write disjoint output slices, so any number of chunks can execute
    concurrently (and in any order) with bitwise-deterministic results.
    """
    index_parts, weights = plan.chunk_stencil(lo, hi)
    _run_tap_loop(flat_fields, index_parts, weights, plan.taps, out[:, lo:hi])


def execute_stencil_plan(
    flat_fields: np.ndarray,
    plan: StencilPlan,
    chunk: Optional[int] = None,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Gather a ``(B, num_grid_points)`` stack through a stencil plan.

    Cache-blocked over point chunks: ``plan.iter_chunks(chunk)`` yields the
    spans and ``plan.chunk_stencil(lo, hi)`` derives that chunk's index
    parts and weights, so all scratch arrays of one chunk stay in cache
    while the tap loop runs and the field is read with the locality of the
    (grid-ordered) departure points.  One index computation serves every
    field of the batch — the batching win of ``interpolate_many``.

    The chunks are embarrassingly parallel (disjoint output slices) and are
    dispatched to the shared runtime thread pool when *workers* — resolved
    through :func:`repro.runtime.workers.resolve_workers` under the
    ``REPRO_INTERP_WORKERS`` / ``REPRO_WORKERS`` policy — exceeds one.  The
    result is bitwise independent of the worker count and the chunk size.
    """
    num_fields = flat_fields.shape[0]
    out = np.zeros((num_fields, plan.num_points))
    spans = plan.iter_chunks(chunk)
    if workers is None:
        workers = resolve_workers("interp")
    # one aggregated span per plan execution — never per chunk, which
    # would swamp the recorder at thousands of chunks per gather
    with trace_span(
        "stencil.execute",
        num_points=plan.num_points,
        fields=num_fields,
        chunks=len(spans),
        workers=workers,
    ):
        if workers > 1 and len(spans) > 1:
            executor = get_executor(workers)
            list(
                executor.map(
                    lambda span: _execute_stencil_chunk(
                        flat_fields, plan, span[0], span[1], out
                    ),
                    spans,
                )
            )
        else:
            for lo, hi in spans:
                _execute_stencil_chunk(flat_fields, plan, lo, hi, out)
    return out


# --------------------------------------------------------------------------- #
# gather plans (frontend-facing)
# --------------------------------------------------------------------------- #
@dataclass
class GatherPlan:
    """Cached interpolation data for one fixed set of off-grid points.

    Built once per point set (per velocity, in the semi-Lagrangian scheme)
    by :meth:`repro.transport.interpolation.PeriodicInterpolator.plan` and
    reused by every field interpolated at those points.  ``payload`` is the
    backend-specific stencil (``None`` for engines that cannot cache one,
    e.g. ``map_coordinates``; those still reuse the wrapped coordinates).
    """

    method: str
    backend_name: str
    grid_shape: Tuple[int, int, int]
    output_shape: Tuple[int, ...]
    coordinates: np.ndarray
    payload: Optional[StencilPlan]

    @property
    def num_points(self) -> int:
        return self.coordinates.shape[1]

    @property
    def is_cached(self) -> bool:
        """True when the backend planned a stencil for these points."""
        return self.payload is not None

    @property
    def nbytes(self) -> int:
        """Exact array payload in bytes (plan-pool accounting).

        The stencil payload normally borrows this plan's own coordinate
        buffer (zero copy); if a build ever had to copy (non-contiguous or
        non-float64 input), the copy is accounted here too.
        """
        payload_bytes = self.payload.nbytes if self.payload is not None else 0
        if self.payload is not None and self.payload.coordinates is not self.coordinates:
            payload_bytes += self.payload.coordinates.nbytes
        return self.coordinates.nbytes + payload_bytes


# --------------------------------------------------------------------------- #
# backends
# --------------------------------------------------------------------------- #
@runtime_checkable
class InterpolationBackend(Protocol):
    """Minimal gather interface every interpolation backend implements.

    ``fields`` is always a stacked ``(B, N1, N2, N3)`` batch so that engines
    which can amortize index computation across fields (the stencil
    executors) receive the whole batch in one call.
    """

    name: str

    def supports_plan(self, method: str) -> bool:
        """True when :meth:`build_plan` caches a stencil for *method*."""
        ...

    def build_plan(
        self, grid_shape: Tuple[int, int, int], coordinates: np.ndarray, method: str
    ) -> Optional[StencilPlan]:
        """Precompute the reusable stencil payload (or ``None``)."""
        ...

    def gather(
        self,
        fields: np.ndarray,
        coordinates: np.ndarray,
        payload: Optional[StencilPlan],
        method: str,
    ) -> np.ndarray:
        """Interpolate a ``(B, N1, N2, N3)`` stack; returns ``(B, M)``."""
        ...


class ScipyInterpolationBackend:
    """:func:`scipy.ndimage.map_coordinates` engine (the seed implementation).

    ``cubic_bspline`` and ``linear`` call ``map_coordinates`` per field
    (bit-for-bit the seed numerics; no stencil can be cached because the
    spline prefilter and the weight evaluation live inside the C call), so a
    plan only reuses the wrapped coordinates.  ``catmull_rom`` — which scipy
    has no native kernel for — runs through the shared stencil executor and
    is fully plannable.
    """

    name = "scipy"

    _ORDERS = {"cubic_bspline": 3, "linear": 1}

    def __init__(self) -> None:
        if not self.is_available():  # pragma: no cover - scipy is a hard dep
            raise BackendUnavailableError("scipy is not installed")
        from scipy import ndimage

        self._ndimage = ndimage

    @classmethod
    def is_available(cls) -> bool:
        try:
            from scipy import ndimage  # noqa: F401
        except ImportError:  # pragma: no cover - scipy is a hard dep
            return False
        return True

    def supports_plan(self, method: str) -> bool:
        return method == "catmull_rom"

    def build_plan(
        self, grid_shape: Tuple[int, int, int], coordinates: np.ndarray, method: str
    ) -> Optional[StencilPlan]:
        if method == "catmull_rom":
            return build_stencil_plan(grid_shape, coordinates, method)
        return None

    def gather(
        self,
        fields: np.ndarray,
        coordinates: np.ndarray,
        payload: Optional[StencilPlan],
        method: str,
    ) -> np.ndarray:
        if method == "catmull_rom":
            plan = payload or build_stencil_plan(fields.shape[-3:], coordinates, method)
            return execute_stencil_plan(_as_flat_float64(fields), plan)
        order = self._ORDERS[method]
        return np.stack(
            [
                self._ndimage.map_coordinates(field, coordinates, order=order, mode="grid-wrap")
                for field in fields
            ],
            axis=0,
        )


class NumpyInterpolationBackend:
    """Vectorized stencil gather engine; every kernel is plannable.

    ``catmull_rom`` and ``linear`` gather the raw field values directly.
    ``cubic_bspline`` first runs the exact periodic prefilter of
    :func:`periodic_bspline_prefilter` (a per-field cost no plan can avoid —
    the coefficients depend on the field) and then gathers with the
    B-spline basis weights, agreeing with the scipy engine to machine
    precision while reusing the cached stencil across fields.
    """

    name = "numpy"

    @classmethod
    def is_available(cls) -> bool:
        return True

    def supports_plan(self, method: str) -> bool:
        return method in SUPPORTED_METHODS

    def build_plan(
        self, grid_shape: Tuple[int, int, int], coordinates: np.ndarray, method: str
    ) -> Optional[StencilPlan]:
        return build_stencil_plan(grid_shape, coordinates, method)

    def _prepare(self, fields: np.ndarray, method: str) -> np.ndarray:
        if method == "cubic_bspline":
            fields = periodic_bspline_prefilter(fields)
        return _as_flat_float64(fields)

    def gather(
        self,
        fields: np.ndarray,
        coordinates: np.ndarray,
        payload: Optional[StencilPlan],
        method: str,
    ) -> np.ndarray:
        plan = payload or build_stencil_plan(fields.shape[-3:], coordinates, method)
        return execute_stencil_plan(self._prepare(fields, method), plan)


class NumbaInterpolationBackend(NumpyInterpolationBackend):
    """JIT-compiled stencil executor (auto-detected ``numba`` engine).

    Shares the stencil plan and the B-spline prefilter with the ``numpy``
    backend; only the tap loop is replaced by a compiled per-point kernel,
    which removes the remaining array-temporary traffic entirely.
    """

    name = "numba"

    def __init__(self) -> None:
        if not self.is_available():
            raise BackendUnavailableError(
                "numba is not installed; install the 'numba' extra "
                "(pip install repro-sc16-registration[numba]) to enable this backend"
            )
        import numba

        @numba.njit(parallel=True)
        def _gather(flat_fields, i0, i1, i2, w0, w1, w2, out):
            taps = w0.shape[0]
            num_fields = flat_fields.shape[0]
            num_points = i0.shape[1]
            for m in numba.prange(num_points):
                for a in range(taps):
                    for b in range(taps):
                        iab = i0[a, m] + i1[b, m]
                        wab = w0[a, m] * w1[b, m]
                        for c in range(taps):
                            idx = iab + i2[c, m]
                            w = wab * w2[c, m]
                            for f in range(num_fields):
                                out[f, m] += w * flat_fields[f, idx]

        self._kernel = _gather

    @classmethod
    def is_available(cls) -> bool:
        try:
            import numba  # noqa: F401
        except ImportError:
            return False
        return True

    def gather(
        self,
        fields: np.ndarray,
        coordinates: np.ndarray,
        payload: Optional[StencilPlan],
        method: str,
    ) -> np.ndarray:
        plan = payload or build_stencil_plan(fields.shape[-3:], coordinates, method)
        flat = self._prepare(fields, method)
        out = np.zeros((flat.shape[0], plan.num_points))
        # materialize one cache-sized chunk at a time and hand it to the
        # JIT kernel (disjoint output slices)
        for lo, hi in plan.iter_chunks():
            (i0, i1, i2), (w0, w1, w2) = plan.chunk_stencil(lo, hi)
            self._kernel(flat, i0, i1, i2, w0, w1, w2, out[:, lo:hi])
        return out


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Type] = {}
_INSTANCES: Dict[str, InterpolationBackend] = {}


def register_backend(name: str, cls: Type) -> Type:
    """Register a backend class under *name* (overwrites a prior entry).

    Later PRs (GPU gathers, distributed plan reuse) plug in through this
    hook, exactly like :func:`repro.spectral.backends.register_backend`.
    """
    _REGISTRY[name.lower()] = cls
    _INSTANCES.pop(name.lower(), None)
    return cls


register_backend("scipy", ScipyInterpolationBackend)
register_backend("numpy", NumpyInterpolationBackend)
register_backend("numba", NumbaInterpolationBackend)


def registered_backends() -> Tuple[str, ...]:
    """Names of all registered interpolation backends, available or not."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backends that can run in this environment."""
    return tuple(name for name in registered_backends() if _REGISTRY[name].is_available())


def default_backend_name() -> str:
    """Backend selected by ``REPRO_INTERP_BACKEND`` or the ``"scipy"`` default.

    A name the registry does not know is rejected here with the valid
    choices and the variable that carried it — an environment typo must
    produce a clear error, never silently select something else.
    """
    raw = os.environ.get(BACKEND_ENV_VAR, DEFAULT_BACKEND)
    name = raw.strip().lower() or DEFAULT_BACKEND
    if name not in _REGISTRY:
        raise ValueError(
            f"{BACKEND_ENV_VAR}={raw!r} is not a registered interpolation "
            f"backend; valid choices: {registered_backends()}"
        )
    return name


def get_backend(spec: "str | InterpolationBackend | None" = None) -> InterpolationBackend:
    """Resolve *spec* to an interpolation backend instance.

    Parameters
    ----------
    spec:
        ``None`` (environment variable or the ``"scipy"`` default), a
        registered backend name, or an already-constructed backend instance
        (returned unchanged, enabling custom engines without registration).
    """
    if spec is None:
        spec = default_backend_name()
    if not isinstance(spec, str):
        if not isinstance(spec, InterpolationBackend):
            raise TypeError(
                f"interpolation backend must be a registered name or an object "
                f"implementing the InterpolationBackend protocol, got {type(spec).__name__}"
            )
        return spec
    name = spec.strip().lower()
    if name in _INSTANCES:
        return _INSTANCES[name]
    try:
        cls = _REGISTRY[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown interpolation backend {spec!r}; "
            f"registered backends: {registered_backends()}"
        ) from exc
    if not cls.is_available():
        raise BackendUnavailableError(
            f"interpolation backend {name!r} is registered but not available in "
            f"this environment; available backends: {available_backends()}"
        )
    instance = cls()
    _INSTANCES[name] = instance
    return instance
