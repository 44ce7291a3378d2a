"""Hessian mat-vec cost pins: the per-iterate gradient cache (16^3, nt = 4).

The paper prices one Gauss-Newton Hessian mat-vec at ``8 nt`` FFTs +
``4 nt`` interpolation sweeps (Sec. III-C4).  The per-iterate gradient
cache (:mod:`repro.core.gradients`) amortizes every state-gradient
transform into ``linearize``, so this bench pins — counter-exact, no
timers involved —

* a **warm cached mat-vec performs zero spectral-gradient FFTs** (only the
  regularizer's 6 transforms remain; full Newton keeps the per-direction
  ``rho~`` gradients and drops from ``16(nt+1)+6`` to ``8(nt+1)+6``),
* the **uncached opt-out restores the paper's figure** ``8(nt+1)+6``
  exactly, and building the cache adds zero transforms to ``linearize``,
* results are **bitwise identical cached vs uncached** on every available
  FFT backend (the cache reuses FFT outputs, it never changes them), and
* the cache **degrades cleanly (and logs the decision)** when the
  ``REPRO_PLAN_POOL_BYTES`` budget cannot hold the stack.

Cold-vs-warm wall time is reported alongside (and pinned loosely;
``REPRO_BENCH_NONSTRICT=1`` downgrades a timing loss to a skip for noisy
shared runners — the counter pins always stay hard).  Artifacts go to
``benchmarks/results/matvec_gradient_cache.{txt,json}``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis.reporting import format_rows
from repro.core.gradients import (
    gradient_cache_decision_log,
    set_gradient_cache_enabled,
)
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_registration_problem, synthetic_velocity
from repro.runtime.plan_pool import configure_plan_pool, get_plan_pool, reset_plan_pool
from repro.spectral.backends import available_backends as available_fft_backends

RESOLUTION = 16
NUM_TIME_STEPS = 4

#: FFT transforms of a warm cached Gauss-Newton mat-vec: the regularizer's
#: batched mat-vec and nothing else — zero spectral-gradient FFTs.
WARM_GN_TRANSFORMS = 6

#: Loose wall-clock pin: a warm cached mat-vec must not be slower than the
#: uncached one beyond timer noise (it does strictly less spectral work).
WARM_SPEEDUP_FLOOR = 0.9


def _uncached_transforms(nt: int, gauss_newton: bool = True) -> int:
    """The paper-mode transform count (one forward/inverse pair = 2)."""
    return (8 if gauss_newton else 16) * (nt + 1) + 6


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


def _measure_mode(cached, fft_backend="numpy", gauss_newton=True):
    """linearize + 2 mat-vecs in one cache mode; counters and wall times."""
    set_gradient_cache_enabled(cached)
    reset_plan_pool()
    problem = _build_problem(fft_backend=fft_backend, gauss_newton=gauss_newton)
    velocity = _velocity(problem)
    direction = _velocity(problem, amplitude=0.1, shift=3)

    before = problem.work_counters()
    iterate = problem.linearize(velocity)
    linearize_transforms = (problem.work_counters() - before).fft_transforms

    timings = []
    deltas = []
    matvec = None
    for _ in range(3):
        before = problem.work_counters()
        start = time.perf_counter()
        matvec = problem.hessian_matvec(iterate, direction)
        timings.append(time.perf_counter() - start)
        deltas.append(problem.work_counters() - before)

    # every mat-vec of one iterate costs the same — the cache is built by
    # linearize, never lazily by the first mat-vec
    assert all(d.fft_transforms == deltas[0].fft_transforms for d in deltas)
    set_gradient_cache_enabled(None)
    return {
        "gradient": iterate.gradient,
        "matvec": matvec,
        "linearize_transforms": linearize_transforms,
        "matvec_transforms": deltas[0].fft_transforms,
        "matvec_sweeps": deltas[0].interpolation_sweeps(problem.grid.num_points),
        "matvec_seconds": min(timings),
    }


def test_matvec_gradient_cache(benchmark, record_text, record_json):
    def measure():
        modes = {
            (cached, gn): _measure_mode(cached, gauss_newton=gn)
            for cached in (True, False)
            for gn in (True, False)
        }

        # bitwise identity on every FFT backend
        identity_cells = []
        for backend in available_fft_backends():
            warm = _measure_mode(True, fft_backend=backend)
            cold = _measure_mode(False, fft_backend=backend)
            identity_cells.append(
                {
                    "fft_backend": backend,
                    "gradient_identical": bool(
                        np.array_equal(warm["gradient"], cold["gradient"])
                    ),
                    "matvec_identical": bool(
                        np.array_equal(warm["matvec"], cold["matvec"])
                    ),
                    "warm_transforms": warm["matvec_transforms"],
                    "cold_transforms": cold["matvec_transforms"],
                }
            )

        # budget fallback: a pool too small for the stack degrades (logged)
        gradient_cache_decision_log().reset()
        problem = _build_problem()
        state_nbytes = (NUM_TIME_STEPS + 1) * problem.template.nbytes
        try:
            configure_plan_pool(3 * state_nbytes - 1)
            set_gradient_cache_enabled(True)
            iterate = problem.linearize(_velocity(problem))
            fallback_decision = gradient_cache_decision_log().recent()[-1]
            fallback_cached = iterate.state_gradients.cached
        finally:
            configure_plan_pool(None)
            set_gradient_cache_enabled(None)
            reset_plan_pool()

        # pool accounting of a cached run
        set_gradient_cache_enabled(True)
        reset_plan_pool()
        problem = _build_problem()
        problem.linearize(_velocity(problem))
        grad_cache_stats = get_plan_pool().stats_by_tag()["grad-cache"]
        set_gradient_cache_enabled(None)

        return {
            "modes": modes,
            "identity_cells": identity_cells,
            "fallback_decision": fallback_decision,
            "fallback_cached": fallback_cached,
            "grad_cache_bytes": grad_cache_stats.current_bytes,
            "expected_stack_bytes": 3 * state_nbytes,
        }

    m = benchmark.pedantic(measure, rounds=1, iterations=1)
    modes = m["modes"]
    warm_gn, cold_gn = modes[(True, True)], modes[(False, True)]
    warm_fn, cold_fn = modes[(True, False)], modes[(False, False)]

    rows = [
        {
            "hessian": "gauss-newton" if gn else "full-newton",
            "cache": "warm" if cached else "uncached",
            "matvec_ffts": mode["matvec_transforms"],
            "matvec_sweeps": mode["matvec_sweeps"],
            "linearize_ffts": mode["linearize_transforms"],
            "matvec_seconds": mode["matvec_seconds"],
        }
        for (cached, gn), mode in sorted(modes.items(), reverse=True)
    ]
    speedup = cold_gn["matvec_seconds"] / max(warm_gn["matvec_seconds"], 1e-12)
    record_text(
        "matvec_gradient_cache",
        format_rows(
            rows,
            title=(
                f"Hessian mat-vec cost, gradient cache warm vs uncached "
                f"({RESOLUTION}^3, nt = {NUM_TIME_STEPS})"
            ),
        )
        + f"\n\nwarm/cold GN mat-vec wall-time speedup: {speedup:.2f}x"
        + f"\nfallback decision: {m['fallback_decision'].reason}",
    )
    record_json(
        "matvec_gradient_cache",
        {
            "grid": [RESOLUTION] * 3,
            "num_time_steps": NUM_TIME_STEPS,
            "matvec_cost": rows,
            "warm_speedup": speedup,
            "identity_matrix": m["identity_cells"],
            "fallback": {
                "cached": m["fallback_cached"],
                "reason": m["fallback_decision"].reason,
                "projected_bytes": m["fallback_decision"].projected_bytes,
                "budget_bytes": m["fallback_decision"].budget_bytes,
            },
            "grad_cache_pool_bytes": m["grad_cache_bytes"],
        },
    )

    # --- counter-exact pins (always hard, timer-free) ---------------------- #
    nt = NUM_TIME_STEPS
    # warm GN mat-vec: zero spectral-gradient FFTs, regularizer only
    assert warm_gn["matvec_transforms"] == WARM_GN_TRANSFORMS
    # the paper-mode pin survives via the opt-out
    assert cold_gn["matvec_transforms"] == _uncached_transforms(nt)
    assert warm_fn["matvec_transforms"] == _uncached_transforms(nt)
    assert cold_fn["matvec_transforms"] == _uncached_transforms(nt, gauss_newton=False)
    # the cache build is free: linearize costs the same either way
    assert warm_gn["linearize_transforms"] == cold_gn["linearize_transforms"]
    # interpolation work is untouched by the cache
    assert warm_gn["matvec_sweeps"] == cold_gn["matvec_sweeps"] == 4 * nt

    # --- bitwise identity across backends ----------------------------------- #
    for cell in m["identity_cells"]:
        assert cell["gradient_identical"] and cell["matvec_identical"], cell
        assert cell["warm_transforms"] == WARM_GN_TRANSFORMS
        assert cell["cold_transforms"] == _uncached_transforms(nt)

    # --- budget fallback ---------------------------------------------------- #
    assert not m["fallback_cached"]
    assert not m["fallback_decision"].cached
    assert "exceeds the plan-pool budget" in m["fallback_decision"].reason
    # cached runs account the stack exactly under the grad-cache tag
    assert m["grad_cache_bytes"] == m["expected_stack_bytes"]

    # --- wall-clock pin (NONSTRICT downgrades to skip) ---------------------- #
    if speedup < WARM_SPEEDUP_FLOOR:
        message = (
            f"warm cached mat-vec speedup {speedup:.2f}x fell below "
            f"{WARM_SPEEDUP_FLOOR}x over the uncached path"
        )
        if os.environ.get("REPRO_BENCH_NONSTRICT"):
            pytest.skip(message)
        raise AssertionError(message)
