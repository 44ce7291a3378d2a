"""Regression tests pinning the paper's kernel complexity model (Sec. III-C4).

The paper counts ``8*nt`` 3D FFTs and ``4*nt`` interpolation sweeps per
Gauss-Newton Hessian matvec.

**FFTs.**  In this implementation one "paper FFT" is a forward/inverse pair.
The paper's per-matvec figure recomputes the state gradients twice per
matvec — ``4*(nt+1)`` transforms for the incremental-state source
gradients and ``4*(nt+1)`` for the body-force integrand gradients, since
both trapezoid rules visit ``nt + 1`` time levels — plus ``6`` for the
batched regularization matvec:

    transforms_paper(nt) = 8*(nt + 1) + 6 = 6 + 2*build(nt)

i.e. ``4*nt + 7`` pairs, which sits inside the paper's ``8*nt`` budget for
every ``nt >= 2``.  Here ``linearize`` builds the iterate's gradient stack
once (:mod:`repro.core.gradients`):

    build(nt) = 4*(nt + 1)                       (one stack of nt + 1 levels)
    transforms_linearize(nt) = build(nt) + 16    (36 at nt = 4)

where the ``16`` are the plan's ``div v`` (4) and the regularizer's gradient
and energy (6 each).  So a Gauss-Newton matvec performs **zero
spectral-gradient FFTs** — only the regularizer's batched matvec remains —
and a full-Newton matvec adds two batches that depend on the direction,
``4*(nt+1)`` transforms each: the ``rho~`` gradients and the incremental
adjoint's ``div(lam v~)`` sources:

    transforms_gn(nt) = 6                        (independent of nt)
    transforms_full_newton(nt) = 8*(nt + 1) + 6

**Interpolations.**  One "sweep" is an interpolation of all grid points at
the cached departure points.  The incremental state performs 2 sweeps per
time step (the transported field and its source move through one batched
gather); the incremental adjoint performs 2 for a general velocity (the
``div v`` source) and 1 when the velocity is divergence-free:

    sweeps(nt) = 4*nt          (general velocity; exactly the paper's count)
    sweeps(nt) = 3*nt          (divergence-free velocity)

These tests pin every number exactly so any refactor of the spectral or
interpolation layers (backends, batching, plan caching) that changes the
amount of kernel work is caught immediately, and they assert the counts are
identical for every available FFT / interpolation backend — counting lives
in the frontends, never in the pluggable engines.
"""

import numpy as np
import pytest

from repro.core.gradients import build_gradient_stack
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_registration_problem
from repro.spectral.backends import available_backends as available_fft_backends
from repro.transport.kernels import available_backends as available_interp_backends


def gauss_newton_transforms_per_matvec() -> int:
    """Transform count of a Gauss-Newton matvec: the regularizer only."""
    return 6


def paper_transforms_per_matvec(nt: int) -> int:
    """The paper's per-matvec figure, two state-gradient builds included."""
    return 8 * (nt + 1) + 6


def stack_build_transforms(nt: int) -> int:
    """Transform count of one gradient-stack build (``nt + 1`` levels)."""
    return 4 * (nt + 1)


def linearize_transforms(nt: int) -> int:
    """Transform count of ``linearize``: one stack build, ``div v`` (4) and the
    regularizer's gradient and energy (6 each)."""
    return stack_build_transforms(nt) + 16


def exact_interpolation_sweeps_per_matvec(nt: int, divergence_free: bool = False) -> int:
    """Analytic interpolation-sweep count of one Gauss-Newton Hessian matvec."""
    return 3 * nt if divergence_free else 4 * nt


def _build_problem(
    nt: int, fft_backend: str = "numpy", interp_backend: str = None, gauss_newton: bool = True
):
    synthetic = synthetic_registration_problem(8, num_time_steps=nt)
    return RegistrationProblem(
        grid=synthetic.grid,
        reference=synthetic.reference,
        template=synthetic.template,
        num_time_steps=nt,
        gauss_newton=gauss_newton,
        fft_backend=fft_backend,
        interp_backend=interp_backend,
    )


def _generic_velocity(problem) -> np.ndarray:
    """A smooth velocity with ``div v != 0`` (exercises the source branch)."""
    x1, x2, x3 = problem.grid.coordinates()
    return 0.1 * np.stack(
        [np.sin(x1) * np.cos(x2), np.cos(x2) * np.sin(x3), np.sin(x3) * np.cos(x1)],
        axis=0,
    )


def _measure_matvec_work(
    nt: int,
    fft_backend: str = "numpy",
    interp_backend: str = None,
    gauss_newton: bool = True,
):
    problem = _build_problem(nt, fft_backend, interp_backend, gauss_newton)
    velocity = _generic_velocity(problem)
    iterate = problem.linearize(velocity)
    assert not iterate.plan.is_divergence_free
    direction = 0.1 * np.random.default_rng(0).standard_normal((3, *problem.grid.shape))
    before = problem.work_counters()
    problem.hessian_matvec(iterate, direction)
    delta = problem.work_counters() - before
    return delta.fft_transforms, delta.interpolation_sweeps(problem.grid.num_points)


class TestPaperComplexityModel:
    @pytest.mark.parametrize("nt", [2, 4])
    def test_exact_gauss_newton_transform_count(self, nt):
        """A Gauss-Newton matvec performs zero spectral-gradient FFTs."""
        transforms, _ = _measure_matvec_work(nt)
        assert transforms == gauss_newton_transforms_per_matvec()

    @pytest.mark.parametrize("nt", [2, 4])
    def test_exact_full_newton_transform_count(self, nt):
        """Full Newton adds the per-direction ``rho~`` gradients and
        ``div(lam v~)`` sources: ``8(nt+1)+6``."""
        transforms, _ = _measure_matvec_work(nt, gauss_newton=False)
        assert transforms == paper_transforms_per_matvec(nt)

    @pytest.mark.parametrize("nt", [2, 4])
    def test_exact_linearize_transform_count(self, nt):
        """``linearize`` costs ``4(nt+1) + 16`` transforms: 36 at ``nt = 4``."""
        problem = _build_problem(nt)
        velocity = _generic_velocity(problem)
        before = problem.work_counters()
        problem.linearize(velocity)
        transforms = (problem.work_counters() - before).fft_transforms
        assert transforms == linearize_transforms(nt)
        if nt == 4:
            assert transforms == 36

    @pytest.mark.parametrize("nt", [2, 4])
    def test_exact_stack_build_transform_count(self, nt):
        """One stack build is ``4(nt+1)`` transforms; the paper's figure is
        the regularizer plus two builds per matvec."""
        problem = _build_problem(nt)
        state_history = problem.transport.solve_state(
            problem.transport.plan(_generic_velocity(problem)), problem.template
        )
        before = problem.work_counters()
        build_gradient_stack(problem.operators, state_history)
        build = (problem.work_counters() - before).fft_transforms
        assert build == stack_build_transforms(nt)

        gauss_newton, _ = _measure_matvec_work(nt)
        assert paper_transforms_per_matvec(nt) == gauss_newton + 2 * build

    @pytest.mark.parametrize("nt", [2, 4, 8])
    def test_within_paper_budget(self, nt):
        """``4*nt + 7`` forward/inverse pairs fit the paper's ``8*nt`` FFTs."""
        pairs = paper_transforms_per_matvec(nt) / 2
        assert pairs <= 8 * nt
        assert gauss_newton_transforms_per_matvec() < paper_transforms_per_matvec(nt)

    @pytest.mark.parametrize("backend", available_fft_backends())
    def test_count_is_backend_independent(self, backend):
        nt = 4
        transforms, _ = _measure_matvec_work(nt, fft_backend=backend)
        assert transforms == gauss_newton_transforms_per_matvec()

    @pytest.mark.parametrize("backend", available_fft_backends())
    def test_full_newton_count_is_backend_independent(self, backend):
        nt = 4
        transforms, _ = _measure_matvec_work(nt, fft_backend=backend, gauss_newton=False)
        assert transforms == paper_transforms_per_matvec(nt)

    @pytest.mark.parametrize("backend", available_fft_backends())
    def test_linearize_count_is_backend_independent(self, backend):
        nt = 4
        problem = _build_problem(nt, fft_backend=backend)
        before = problem.work_counters()
        problem.linearize(_generic_velocity(problem))
        assert (problem.work_counters() - before).fft_transforms == linearize_transforms(nt)


class TestInterpolationSweeps:
    """Pin the paper's ``4*nt`` interpolation sweeps per Hessian matvec."""

    @pytest.mark.parametrize("nt", [2, 4])
    def test_exact_sweep_count_general_velocity(self, nt):
        _, sweeps = _measure_matvec_work(nt)
        assert sweeps == exact_interpolation_sweeps_per_matvec(nt)

    @pytest.mark.parametrize("nt", [2, 4, 8])
    def test_within_paper_budget(self, nt):
        """The matvec never exceeds the paper's ``4*nt`` sweeps."""
        assert exact_interpolation_sweeps_per_matvec(nt) <= 4 * nt
        assert exact_interpolation_sweeps_per_matvec(nt, divergence_free=True) <= 4 * nt

    def test_divergence_free_velocity_saves_a_sweep_per_step(self):
        nt = 4
        problem = _build_problem(nt)
        iterate = problem.linearize(problem.zero_velocity())
        assert iterate.plan.is_divergence_free
        direction = 0.1 * np.random.default_rng(1).standard_normal(
            (3, *problem.grid.shape)
        )
        before = problem.work_counters()
        problem.hessian_matvec(iterate, direction)
        delta = problem.work_counters() - before
        sweeps = delta.interpolation_sweeps(problem.grid.num_points)
        assert sweeps == exact_interpolation_sweeps_per_matvec(nt, divergence_free=True)

    @pytest.mark.parametrize("backend", available_interp_backends())
    def test_count_is_backend_independent(self, backend):
        """Counter parity: every gather engine reports identical work."""
        nt = 4
        _, sweeps = _measure_matvec_work(nt, interp_backend=backend)
        assert sweeps == exact_interpolation_sweeps_per_matvec(nt)
