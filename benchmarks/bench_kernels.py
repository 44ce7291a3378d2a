"""Micro-benchmarks of the computational kernels (Sec. III-C of the paper).

These are conventional pytest-benchmark timings (multiple rounds) of the
building blocks whose costs the paper's complexity model is built from: the
3D FFT, the spectral gradient/Laplacian/Leray operators, the tricubic
interpolation, one semi-Lagrangian step, a full transport solve, the reduced
gradient and one Hessian mat-vec.  They document where the time goes in this
Python implementation (interpolation and FFTs, as in the paper).

``test_bench_fft_backend_comparison`` additionally times the batched
vector-field FFT of every available backend at 128^3 and writes the
comparison table to ``benchmarks/results/fft_backend_comparison.txt``;
``test_bench_interp_backend_comparison`` does the same for the
interpolation subsystem (scalar vs batched, plan-cached vs uncached, per
gather engine) and writes ``benchmarks/results/interp_backend_comparison.txt``;
``test_bench_plan_memory`` records the stencil plan's resident bytes, build
time and execute time at 128^3 and pins its one-chunk memory cap.  All
three also emit machine-readable twins
(``benchmarks/results/*.json``) so the perf trajectory can be tracked
across PRs.  (They time directly instead of using the ``benchmark``
fixture so all backends land in one table; run them with
``--benchmark-disable`` or a plain pytest invocation.)
"""

import os
import time

import numpy as np
import pytest

from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_registration_problem, synthetic_velocity
from repro.spectral.backends import available_backends
from repro.spectral.fft import FourierTransform
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import (
    available_backends as available_interp_backends,
    build_stencil_plan,
    execute_stencil_plan,
)
from repro.transport.semi_lagrangian import SemiLagrangianStepper
from repro.transport.solvers import TransportSolver

N = 32

#: Resolution of the per-backend batched vector FFT comparison.
BACKEND_COMPARISON_N = 128

#: Resolution of the per-backend interpolation comparison (the ISSUE's
#: acceptance benchmark runs at 128^3; override with REPRO_BENCH_INTERP_N
#: for quick local iterations).
INTERP_COMPARISON_N = int(os.environ.get("REPRO_BENCH_INTERP_N", "128"))

#: Resolution of the stencil-plan memory table.
PLAN_MEMORY_N = int(os.environ.get("REPRO_BENCH_PLAN_N", "128"))


@pytest.fixture(scope="module")
def grid():
    return Grid((N, N, N))


@pytest.fixture(scope="module")
def ops(grid):
    return SpectralOperators(grid)


@pytest.fixture(scope="module")
def field(grid):
    return np.random.default_rng(0).standard_normal(grid.shape)


@pytest.fixture(scope="module")
def velocity(grid):
    return synthetic_velocity(grid)


def test_bench_fft_roundtrip(benchmark, ops, field):
    benchmark(lambda: ops.fft.backward(ops.fft.forward(field)))


def test_bench_gradient(benchmark, ops, field):
    benchmark(lambda: ops.gradient(field))


def test_bench_laplacian(benchmark, ops, field):
    benchmark(lambda: ops.laplacian(field))


def test_bench_leray_projection(benchmark, ops, velocity):
    benchmark(lambda: ops.leray_project(velocity))


@pytest.mark.parametrize("method", ["cubic_bspline", "catmull_rom", "linear"])
def test_bench_interpolation(benchmark, grid, field, method):
    interp = PeriodicInterpolator(grid, method)
    points = np.random.default_rng(1).uniform(0, 2 * np.pi, size=(3, grid.num_points))
    benchmark(lambda: interp(field, points))


def test_bench_semi_lagrangian_step(benchmark, grid, field, velocity):
    stepper = SemiLagrangianStepper(grid, velocity, dt=0.25)
    benchmark(lambda: stepper.step(field))


def test_bench_state_transport(benchmark, grid, field, velocity):
    solver = TransportSolver(grid, num_time_steps=4)
    plan = solver.plan(velocity)
    benchmark(lambda: solver.solve_state(plan, field))


@pytest.fixture(scope="module")
def problem():
    synthetic = synthetic_registration_problem(N)
    return RegistrationProblem(
        grid=synthetic.grid,
        reference=synthetic.reference,
        template=synthetic.template,
        beta=1e-2,
    )


def test_bench_objective(benchmark, problem, velocity):
    benchmark(lambda: problem.evaluate_objective(0.3 * velocity))


def test_bench_reduced_gradient(benchmark, problem, velocity):
    benchmark(lambda: problem.linearize(0.3 * velocity))


def test_bench_hessian_matvec(benchmark, problem, velocity):
    iterate = problem.linearize(0.3 * velocity)
    direction = 0.1 * velocity
    benchmark(lambda: problem.hessian_matvec(iterate, direction))


# --------------------------------------------------------------------------- #
# per-backend batched vector FFT comparison (written to benchmarks/results/)
# --------------------------------------------------------------------------- #
def _best_of(fn, repeats: int = 5) -> float:
    fn()  # warm up plan caches / thread pools outside the timed region
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_fft_backend_comparison(record_text, record_json):
    """Batched (3, 128, 128, 128) vector FFT round trip, per backend.

    Produces the comparison table the ISSUE's acceptance criterion asks for
    and asserts that the pooled ``scipy`` backend beats the ``numpy``
    reference on the batched vector transform.
    """
    n = BACKEND_COMPARISON_N
    grid = Grid((n, n, n))
    vector = np.random.default_rng(0).standard_normal((3, n, n, n))

    timings = {}
    for name in available_backends():
        fft = FourierTransform(grid, backend=name)
        spectra = fft.forward_vector(vector)
        forward = _best_of(lambda f=fft: f.forward_vector(vector))
        inverse = _best_of(lambda f=fft, s=spectra: f.inverse_vector(s))
        timings[name] = (forward, inverse)

    base_total = sum(timings["numpy"])
    header = f"{'backend':<10} {'forward [s]':>12} {'inverse [s]':>12} {'total [s]':>12} {'vs numpy':>9}"
    rows = [f"batched vector FFT round trip at {n}^3 (best of 5)", header, "-" * len(header)]
    for name, (forward, inverse) in sorted(timings.items(), key=lambda kv: sum(kv[1])):
        total = forward + inverse
        rows.append(
            f"{name:<10} {forward:>12.4f} {inverse:>12.4f} {total:>12.4f} {base_total / total:>8.2f}x"
        )
    record_text("fft_backend_comparison", "\n".join(rows))
    record_json(
        "fft_backend_comparison",
        {
            "benchmark": "batched vector FFT round trip",
            "grid": [n, n, n],
            "repeats": "best of 5",
            "backends": {
                name: {
                    "forward_seconds": forward,
                    "inverse_seconds": inverse,
                    "total_seconds": forward + inverse,
                    "speedup_vs_numpy": base_total / (forward + inverse),
                }
                for name, (forward, inverse) in timings.items()
            },
        },
    )

    # acceptance criterion; REPRO_BENCH_NONSTRICT=1 downgrades a loss to a
    # skip for noisy shared runners where wall-clock comparisons can flip
    if sum(timings["scipy"]) >= sum(timings["numpy"]):
        message = f"scipy backend did not beat numpy: {timings}"
        if os.environ.get("REPRO_BENCH_NONSTRICT"):
            pytest.skip(message)
        raise AssertionError(message)


# --------------------------------------------------------------------------- #
# per-backend interpolation comparison (written to benchmarks/results/)
# --------------------------------------------------------------------------- #
def test_bench_interp_backend_comparison(record_text, record_json):
    """Semi-Lagrangian interpolation at 128^3, per backend and gather mode.

    Times the production ``PeriodicInterpolator`` paths at realistic
    (grid-ordered, CFL-scale displaced) departure points: scalar vs batched
    and plan-cached vs uncached for every available gather engine, for both
    tricubic kernels.  Produces the comparison table the ISSUE's acceptance
    criterion asks for and asserts that the cached-plan batched path beats
    the seed path (``scipy`` ``cubic_bspline``, scalar, uncached).  The
    JSON twin additionally records plan-build vs execute time and the plan
    bytes of every engine.
    """
    n = INTERP_COMPARISON_N
    grid = Grid((n, n, n))
    rng = np.random.default_rng(0)
    field = rng.standard_normal(grid.shape)
    fields = np.stack([field, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)])
    # departure-point-like coordinates: every grid point displaced by a few
    # cells, exactly the access pattern of the semi-Lagrangian trace
    points = grid.coordinate_stack().reshape(3, -1) + np.asarray(grid.spacing)[
        :, None
    ] * 3.0 * rng.standard_normal((3, grid.num_points))

    timings = {}
    plan_bytes = {}
    for backend in available_interp_backends():
        for method in ("cubic_bspline", "catmull_rom"):
            interp = PeriodicInterpolator(grid, method, backend=backend)
            plan = interp.plan(points)
            build = _best_of(lambda i=interp: i.plan(points), repeats=3)
            scalar_uncached = _best_of(lambda i=interp: i(field, points), repeats=3)
            scalar_cached = _best_of(
                lambda i=interp, p=plan: i.interpolate_planned(field, p), repeats=3
            )
            batched_cached = (
                _best_of(
                    lambda i=interp, p=plan: i.interpolate_many_planned(fields, p),
                    repeats=3,
                )
                / fields.shape[0]
            )
            timings[(backend, method)] = {
                "build": build,
                "scalar, uncached": scalar_uncached,
                "scalar, plan-cached": scalar_cached,
                "batched(3), plan-cached": batched_cached,
            }
            plan_bytes[(backend, method)] = plan.nbytes

    seed = timings[("scipy", "cubic_bspline")]["scalar, uncached"]
    header = (
        f"{'backend':<8} {'method':<14} {'mode':<24} {'time/field [s]':>14} {'vs seed':>8}"
    )
    rows = [
        f"semi-Lagrangian interpolation at {n}^3 ({grid.num_points} departure points, best of 3)",
        "seed path = scipy cubic_bspline, scalar, uncached (the pre-subsystem default)",
        header,
        "-" * len(header),
    ]
    for (backend, method), modes in timings.items():
        for mode in ("scalar, uncached", "scalar, plan-cached", "batched(3), plan-cached"):
            t = modes[mode]
            rows.append(
                f"{backend:<8} {method:<14} {mode:<24} {t:>14.4f} {seed / t:>7.2f}x"
            )
        rows.append(
            f"{backend:<8} {method:<14} {'plan build (amortized)':<24} {modes['build']:>14.4f}"
        )
    record_text("interp_backend_comparison", "\n".join(rows))
    record_json(
        "interp_backend_comparison",
        {
            "benchmark": "semi-Lagrangian interpolation, per gather engine",
            "grid": [n, n, n],
            "num_points": grid.num_points,
            "repeats": "best of 3",
            "seed_path": "scipy cubic_bspline, scalar, uncached",
            "seed_seconds_per_field": seed,
            "engines": {
                f"{backend}/{method}": {
                    "plan_build_seconds": modes["build"],
                    "plan_nbytes": plan_bytes[(backend, method)],
                    "scalar_uncached_seconds": modes["scalar, uncached"],
                    "scalar_plan_cached_seconds": modes["scalar, plan-cached"],
                    "batched3_plan_cached_seconds_per_field": modes["batched(3), plan-cached"],
                    "speedup_vs_seed": seed / modes["batched(3), plan-cached"],
                }
                for (backend, method), modes in timings.items()
            },
        },
    )

    # acceptance criterion: the cached-plan batched tricubic path must beat
    # the seed scalar path; REPRO_BENCH_NONSTRICT=1 downgrades a loss to a
    # skip for noisy shared runners where wall-clock comparisons can flip
    best_batched = min(
        modes["batched(3), plan-cached"]
        for (backend, method), modes in timings.items()
        if (backend, method) != ("scipy", "cubic_bspline")  # seed engine caches no stencil
    )
    if best_batched >= seed:
        message = (
            f"cached-plan batched path ({best_batched:.4f}s/field) did not beat "
            f"the seed cubic_bspline path ({seed:.4f}s/field)"
        )
        if os.environ.get("REPRO_BENCH_NONSTRICT"):
            pytest.skip(message)
        raise AssertionError(message)


# --------------------------------------------------------------------------- #
# stencil-plan memory (written to benchmarks/results/)
# --------------------------------------------------------------------------- #
def test_bench_plan_memory(record_text, record_json):
    """The stencil plan at 128^3: resident bytes, build time, execute time.

    Pins deterministically (no wall-clock gate) that the plan's resident
    bytes do not exceed one executor chunk — independent of the grid size —
    and that the threaded executor gathers bitwise-identical values.  The
    JSON twin also records the analytic per-point memory model for
    64^3/128^3/256^3/512^3 (the README's pool-sizing table).
    """
    n = PLAN_MEMORY_N
    grid = Grid((n, n, n))
    rng = np.random.default_rng(0)
    field = rng.standard_normal(grid.shape)
    flat = field.reshape(1, -1)
    # departure-point-like coordinates (grid-ordered, CFL-scale displaced),
    # pre-wrapped into [0, N) as the interpolation frontend does
    points = grid.coordinate_stack().reshape(3, -1) + np.asarray(grid.spacing)[
        :, None
    ] * 3.0 * rng.standard_normal((3, grid.num_points))
    coords = np.mod(points / np.asarray(grid.spacing)[:, None], n)

    from repro.transport.kernels import STENCIL_CHUNK

    method = "catmull_rom"
    plan = build_stencil_plan(grid.shape, coords, method)
    build = _best_of(lambda: build_stencil_plan(grid.shape, coords, method), repeats=3)
    execute = _best_of(lambda: execute_stencil_plan(flat, plan, workers=1), repeats=3)
    np.testing.assert_array_equal(
        execute_stencil_plan(flat, plan, workers=2), execute_stencil_plan(flat, plan, workers=1)
    )
    chunk_cap = 3 * STENCIL_CHUNK * (np.dtype(np.intp).itemsize + 8)
    result = {
        "plan_nbytes": plan.nbytes,
        "bytes_per_point": plan.nbytes / grid.num_points,
        "plan_build_seconds": build,
        "execute_seconds_per_field": execute,
    }

    # analytic model: the plan owns one chunk of scratch; the departure
    # points (24 B/point) and the wrapped coordinates it borrows (24
    # B/point) are owned by the pooled gather plan, twice per transport
    # plan (forward + backward characteristics)
    memory_table = {
        f"{m}^3": {
            "points": m**3,
            "plan_bytes": chunk_cap,
            "borrowed_coordinate_bytes": 24 * m**3,
            "transport_plan_pair_bytes": 2 * ((24 + 24) * m**3 + chunk_cap),
        }
        for m in (64, 128, 256, 512)
    }

    header = f"{'plan bytes':>14} {'B/point':>9} {'build [s]':>10} {'execute [s]':>12}"
    rows = [
        f"tricubic stencil plan at {n}^3 ({grid.num_points} points)",
        "(plan bytes = resident stencil scratch, capped at one "
        f"{STENCIL_CHUNK}-point chunk; its coordinates are borrowed)",
        header,
        "-" * len(header),
        f"{result['plan_nbytes']:>14d} {result['bytes_per_point']:>9.2f} "
        f"{build:>10.4f} {execute:>12.4f}",
        f"resident bytes: {result['plan_nbytes']} (acceptance: <= one chunk = {chunk_cap})",
    ]
    record_text("plan_memory", "\n".join(rows))
    record_json(
        "plan_memory",
        {
            "benchmark": "stencil-plan memory",
            "grid": [n, n, n],
            "num_points": grid.num_points,
            "method": method,
            "stencil_chunk_points": STENCIL_CHUNK,
            "plan": result,
            "chunk_cap_bytes": chunk_cap,
            "threaded_bitwise_identical": True,
            "memory_model_tricubic": memory_table,
        },
    )

    assert result["plan_nbytes"] <= chunk_cap
