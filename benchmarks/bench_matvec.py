"""Hessian mat-vec cost pins: the per-iterate gradient stack (16^3, nt = 4).

The paper prices one Gauss-Newton Hessian mat-vec at ``8 nt`` FFTs +
``4 nt`` interpolation sweeps (Sec. III-C4).  ``linearize`` builds the
iterate's state-gradient stack once (:mod:`repro.core.gradients`), so this
bench pins — counter-exact, no timers involved, on every available FFT
backend —

* a **Gauss-Newton mat-vec performs zero spectral-gradient FFTs** (only the
  regularizer's 6 transforms remain),
* a **full-Newton mat-vec** costs ``8(nt+1)+6``: the per-direction ``rho~``
  gradients and ``div(lam v~)`` sources, ``4(nt+1)`` each,
* **``linearize``** costs ``4(nt+1) + 16`` transforms (36 at ``nt = 4``): one
  stack build plus ``div v`` and the regularizer's gradient and energy,
* every mat-vec sweeps the grid the paper's ``4 nt`` times, and
* every mat-vec of one iterate costs the same.

The mat-vec wall time is reported alongside, unpinned.  Artifacts go to
``benchmarks/results/matvec_gradient_cache.{txt,json}``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.reporting import format_rows
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_registration_problem, synthetic_velocity
from repro.runtime.plan_pool import reset_plan_pool
from repro.spectral.backends import available_backends as available_fft_backends

RESOLUTION = 16
NUM_TIME_STEPS = 4

#: FFT transforms of a Gauss-Newton mat-vec: the regularizer's batched
#: mat-vec and nothing else — zero spectral-gradient FFTs.
GAUSS_NEWTON_TRANSFORMS = 6


def _full_newton_transforms(nt: int) -> int:
    """Regularizer plus the two per-direction batches of ``4(nt+1)`` transforms."""
    return 8 * (nt + 1) + 6


def _linearize_transforms(nt: int) -> int:
    """One stack build ``4(nt+1)``, ``div v`` (4), regularizer gradient + energy (6 + 6)."""
    return 4 * (nt + 1) + 16


def _build_problem(fft_backend="numpy", gauss_newton=True) -> RegistrationProblem:
    synthetic = synthetic_registration_problem(
        RESOLUTION, num_time_steps=NUM_TIME_STEPS
    )
    return RegistrationProblem(
        grid=synthetic.grid,
        reference=synthetic.reference,
        template=synthetic.template,
        num_time_steps=NUM_TIME_STEPS,
        gauss_newton=gauss_newton,
        fft_backend=fft_backend,
    )


def _velocity(problem, amplitude=0.3, shift=0):
    """Deterministic smooth velocity; *shift* decorrelates the PCG direction."""
    field = amplitude * synthetic_velocity(problem.grid)
    if shift:
        field = np.roll(field, shift, axis=(1, 2, 3))
    return field


def _measure(fft_backend="numpy", gauss_newton=True):
    """linearize + 3 mat-vecs of one iterate; counters and wall times."""
    reset_plan_pool()
    problem = _build_problem(fft_backend=fft_backend, gauss_newton=gauss_newton)
    velocity = _velocity(problem)
    direction = _velocity(problem, amplitude=0.1, shift=3)

    before = problem.work_counters()
    iterate = problem.linearize(velocity)
    linearize_transforms = (problem.work_counters() - before).fft_transforms

    timings = []
    deltas = []
    for _ in range(3):
        before = problem.work_counters()
        start = time.perf_counter()
        problem.hessian_matvec(iterate, direction)
        timings.append(time.perf_counter() - start)
        deltas.append(problem.work_counters() - before)

    return {
        "fft_backend": fft_backend,
        "hessian": "gauss-newton" if gauss_newton else "full-newton",
        "linearize_ffts": linearize_transforms,
        "matvec_ffts": deltas[0].fft_transforms,
        "matvec_ffts_constant": all(
            d.fft_transforms == deltas[0].fft_transforms for d in deltas
        ),
        "matvec_sweeps": deltas[0].interpolation_sweeps(problem.grid.num_points),
        "matvec_seconds": min(timings),
    }


def test_matvec_gradient_cache(benchmark, record_text, record_json):
    def measure():
        return [
            _measure(fft_backend=backend, gauss_newton=gn)
            for backend in available_fft_backends()
            for gn in (True, False)
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_text(
        "matvec_gradient_cache",
        format_rows(
            rows,
            title=(
                f"Hessian mat-vec cost with the per-iterate gradient stack "
                f"({RESOLUTION}^3, nt = {NUM_TIME_STEPS})"
            ),
        ),
    )
    record_json(
        "matvec_gradient_cache",
        {
            "grid": [RESOLUTION] * 3,
            "num_time_steps": NUM_TIME_STEPS,
            "matvec_cost": rows,
        },
    )

    # --- counter-exact pins (timer-free) ----------------------------------- #
    nt = NUM_TIME_STEPS
    for row in rows:
        expected = (
            GAUSS_NEWTON_TRANSFORMS
            if row["hessian"] == "gauss-newton"
            else _full_newton_transforms(nt)
        )
        assert row["matvec_ffts"] == expected, row
        assert row["matvec_ffts_constant"], row
        assert row["linearize_ffts"] == _linearize_transforms(nt) == 36, row
        assert row["matvec_sweeps"] == 4 * nt, row
