"""Tests for repro.core.problem: objective, reduced gradient, Hessian mat-vec.

The central correctness checks of the whole solver live here:

* the adjoint-based reduced gradient is validated against directional
  finite differences of the objective,
* the Gauss-Newton Hessian is validated for symmetry and positive
  semi-definiteness (which PCG requires),
* the paper's kernel-count complexity model (8 nt FFTs / 4 nt interpolation
  sweeps per mat-vec) is checked against the implementation.
"""

import numpy as np
import pytest

from repro.core.gradients import set_gradient_cache_enabled
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_registration_problem

from tests.fixtures import smooth_vector_field


@pytest.fixture(scope="module")
def synthetic12():
    return synthetic_registration_problem(12, num_time_steps=4)


@pytest.fixture(scope="module")
def problem12(synthetic12):
    return RegistrationProblem(
        grid=synthetic12.grid,
        reference=synthetic12.reference,
        template=synthetic12.template,
        beta=1e-2,
        num_time_steps=4,
    )


class TestConstruction:
    def test_image_shape_validation(self, synthetic12):
        with pytest.raises(ValueError):
            RegistrationProblem(
                grid=synthetic12.grid,
                reference=synthetic12.reference[:-1],
                template=synthetic12.template,
            )
        with pytest.raises(ValueError):
            RegistrationProblem(
                grid=synthetic12.grid,
                reference=synthetic12.reference,
                template=np.zeros((4, 4, 4)),
            )

    def test_summary_contents(self, problem12):
        summary = problem12.summary()
        assert summary["grid"] == (12, 12, 12)
        assert summary["num_unknowns_velocity"] == 3 * 12**3
        assert summary["gauss_newton"] is True
        assert summary["interp_backend"] in ("scipy", "numpy", "numba")

    def test_objective_matches_linearize_objective(self, problem12):
        """evaluate_objective (history-free) == linearize's objective parts."""
        velocity = 0.3 * smooth_vector_field(problem12.grid, seed=2)
        objective = problem12.evaluate_objective(velocity)
        iterate = problem12.linearize(velocity)
        assert objective.distance == iterate.objective.distance
        assert objective.regularization == iterate.objective.regularization

    def test_set_beta_updates_regularizer(self, problem12):
        problem12.set_beta(1e-3)
        assert problem12.regularizer.beta == pytest.approx(1e-3)
        problem12.set_beta(1e-2)

    def test_zero_velocity_shape(self, problem12):
        assert problem12.zero_velocity().shape == (3, 12, 12, 12)


class TestObjective:
    def test_objective_at_zero_velocity_is_initial_mismatch(self, problem12):
        parts = problem12.evaluate_objective(problem12.zero_velocity())
        diff = problem12.template - problem12.reference
        expected = 0.5 * problem12.grid.inner(diff, diff)
        assert parts.distance == pytest.approx(expected, rel=1e-10)
        assert parts.regularization == 0.0
        assert parts.total == pytest.approx(expected, rel=1e-10)

    def test_objective_decreases_along_true_velocity(self, synthetic12, problem12):
        at_zero = problem12.evaluate_objective(problem12.zero_velocity()).total
        at_truth = problem12.evaluate_objective(synthetic12.true_velocity).total
        assert at_truth < at_zero

    def test_distance_is_nonnegative(self, problem12, rng):
        v = 0.2 * smooth_vector_field(problem12.grid, seed=1)
        parts = problem12.evaluate_objective(v)
        assert parts.distance >= 0.0
        assert parts.regularization >= 0.0


class TestGradient:
    def test_gradient_shape_and_linearize_contents(self, problem12):
        iterate = problem12.linearize(problem12.zero_velocity())
        assert iterate.gradient.shape == (3, 12, 12, 12)
        assert iterate.state_history.shape == (5, 12, 12, 12)
        assert iterate.adjoint_history.shape == (5, 12, 12, 12)
        assert iterate.gradient_norm > 0.0
        np.testing.assert_allclose(
            iterate.residual, problem12.reference - iterate.deformed_template, atol=1e-12
        )

    def test_gradient_at_zero_velocity_analytic(self, problem12):
        # at v = 0: rho(t) = rho_T, lam(t) = rho_R - rho_T, so
        # g = int lam grad rho dt = (rho_R - rho_T) grad rho_T
        iterate = problem12.linearize(problem12.zero_velocity())
        ops = problem12.operators
        expected = (problem12.reference - problem12.template)[None] * ops.gradient(
            problem12.template
        )
        np.testing.assert_allclose(iterate.gradient, expected, atol=1e-10)

    @pytest.mark.parametrize("incompressible", [False, True])
    def test_gradient_matches_finite_differences(self, synthetic12, incompressible):
        """Directional derivative along the gradient itself (no cancellation)."""
        problem = RegistrationProblem(
            grid=synthetic12.grid,
            reference=synthetic12.reference,
            template=synthetic12.template,
            beta=1e-2,
            num_time_steps=4,
            incompressible=incompressible,
        )
        grid = problem.grid
        v = problem.project(0.3 * smooth_vector_field(grid, seed=2))
        iterate = problem.linearize(v)
        direction = iterate.gradient
        directional = grid.inner(iterate.gradient, direction)

        eps = 1e-4
        plus = problem.evaluate_objective(v + eps * direction).total
        minus = problem.evaluate_objective(v - eps * direction).total
        fd = (plus - minus) / (2 * eps)
        assert directional == pytest.approx(fd, rel=5e-2)

    def test_gradient_matches_finite_differences_random_direction(self, problem12):
        """Random direction: error normalized by |g| |d| (optimize-then-discretize
        leaves an O(h^2, dt^2) consistency gap, so the raw relative error is not
        the right yardstick when the directional derivative nearly cancels)."""
        grid = problem12.grid
        v = 0.3 * smooth_vector_field(grid, seed=2)
        direction = 0.3 * smooth_vector_field(grid, seed=3)
        iterate = problem12.linearize(v)
        directional = grid.inner(iterate.gradient, direction)
        eps = 1e-4
        plus = problem12.evaluate_objective(v + eps * direction).total
        minus = problem12.evaluate_objective(v - eps * direction).total
        fd = (plus - minus) / (2 * eps)
        scale = grid.norm(iterate.gradient) * grid.norm(direction)
        assert abs(directional - fd) / scale < 5e-3

    def test_incompressible_gradient_is_divergence_free(self, synthetic12):
        problem = RegistrationProblem(
            grid=synthetic12.grid,
            reference=synthetic12.reference,
            template=synthetic12.template,
            incompressible=True,
        )
        v = problem.project(0.3 * smooth_vector_field(problem.grid, seed=4))
        iterate = problem.linearize(v)
        assert problem.operators.is_divergence_free(iterate.gradient, tol=1e-8)

    def test_gradient_is_descent_direction(self, problem12):
        v = 0.2 * smooth_vector_field(problem12.grid, seed=5)
        iterate = problem12.linearize(v)
        eps = 1e-3
        step = -eps * iterate.gradient / max(iterate.gradient_norm, 1e-30)
        ahead = problem12.evaluate_objective(v + step).total
        assert ahead < iterate.objective.total


class TestHessian:
    def test_matvec_shape_and_counter(self, problem12):
        before = problem12.hessian_matvec_count
        iterate = problem12.linearize(problem12.zero_velocity())
        direction = 0.1 * smooth_vector_field(problem12.grid, seed=6)
        hv = problem12.hessian_matvec(iterate, direction)
        assert hv.shape == direction.shape
        assert problem12.hessian_matvec_count == before + 1

    def test_gauss_newton_hessian_is_symmetric(self, problem12):
        """Asymmetry normalized by ||H a|| ||b|| (the raw inner products nearly
        cancel for generic directions, so a plain relative comparison would
        only measure that cancellation)."""
        grid = problem12.grid
        iterate = problem12.linearize(0.2 * smooth_vector_field(grid, seed=7))
        a = 0.1 * smooth_vector_field(grid, seed=8)
        b = 0.1 * smooth_vector_field(grid, seed=9)
        ha = problem12.hessian_matvec(iterate, a)
        hb = problem12.hessian_matvec(iterate, b)
        lhs = grid.inner(ha, b)
        rhs = grid.inner(a, hb)
        scale = grid.norm(ha) * grid.norm(b)
        assert abs(lhs - rhs) / scale < 1e-3

    def test_gauss_newton_hessian_is_positive(self, problem12):
        grid = problem12.grid
        iterate = problem12.linearize(0.2 * smooth_vector_field(grid, seed=10))
        for seed in (11, 12, 13):
            d = 0.1 * smooth_vector_field(grid, seed=seed)
            assert grid.inner(problem12.hessian_matvec(iterate, d), d) > 0.0

    def test_hessian_linearity(self, problem12):
        grid = problem12.grid
        iterate = problem12.linearize(0.2 * smooth_vector_field(grid, seed=14))
        a = 0.1 * smooth_vector_field(grid, seed=15)
        b = 0.1 * smooth_vector_field(grid, seed=16)
        lhs = problem12.hessian_matvec(iterate, a + 2.0 * b)
        rhs = problem12.hessian_matvec(iterate, a) + 2.0 * problem12.hessian_matvec(iterate, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-7)

    def test_hessian_matches_gradient_difference(self, synthetic12):
        # H(v) d ~ (g(v + eps d) - g(v - eps d)) / (2 eps) in the Gauss-Newton
        # sense: exact for the regularization part, approximate for the data
        # part; we check the full Newton Hessian against the FD of the gradient.
        problem = RegistrationProblem(
            grid=synthetic12.grid,
            reference=synthetic12.reference,
            template=synthetic12.template,
            beta=1e-1,
            gauss_newton=False,
        )
        grid = problem.grid
        v = 0.2 * smooth_vector_field(grid, seed=17)
        d = 0.2 * smooth_vector_field(grid, seed=18)
        iterate = problem.linearize(v)
        hv = problem.hessian_matvec(iterate, d)
        eps = 1e-3
        gp = problem.linearize(v + eps * d).gradient
        gm = problem.linearize(v - eps * d).gradient
        fd = (gp - gm) / (2 * eps)
        rel = grid.norm(hv - fd) / max(grid.norm(fd), 1e-30)
        assert rel < 0.15

    def test_regularization_dominates_for_large_beta(self, problem12):
        grid = problem12.grid
        problem12.set_beta(1e3)
        try:
            iterate = problem12.linearize(0.1 * smooth_vector_field(grid, seed=19))
            d = 0.1 * smooth_vector_field(grid, seed=20)
            hv = problem12.hessian_matvec(iterate, d)
            reg_part = problem12.regularizer.hessian_matvec(d)
            rel = grid.norm(hv - reg_part) / grid.norm(reg_part)
            assert rel < 1e-2
        finally:
            problem12.set_beta(1e-2)

    def test_incompressible_matvec_stays_divergence_free(self, synthetic12):
        problem = RegistrationProblem(
            grid=synthetic12.grid,
            reference=synthetic12.reference,
            template=synthetic12.template,
            incompressible=True,
        )
        iterate = problem.linearize(problem.zero_velocity())
        d = problem.project(0.1 * smooth_vector_field(problem.grid, seed=21))
        hv = problem.hessian_matvec(iterate, d)
        assert problem.operators.is_divergence_free(hv, tol=1e-7)


class TestComplexityCounts:
    def test_hessian_matvec_fft_and_interpolation_counts(self):
        """Check the paper's Sec. III-C4 work estimate: ~8 nt FFTs, 4 nt interp sweeps."""
        synthetic = synthetic_registration_problem(8, num_time_steps=4)
        problem = RegistrationProblem(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
            num_time_steps=4,
        )
        iterate = problem.linearize(problem.zero_velocity())
        direction = 0.1 * smooth_vector_field(problem.grid, seed=22)

        before = problem.work_counters()
        problem.hessian_matvec(iterate, direction)
        delta = problem.work_counters() - before

        nt = problem.num_time_steps
        n_points = problem.grid.num_points
        # interpolation sweeps: incremental state (2 per step: value + source) and
        # incremental adjoint (1 per step for div-free-less GN without source,
        # up to 2 with sources) -> between 3*nt and 5*nt grid sweeps.
        sweeps = delta.interpolated_points / n_points
        assert 2 * nt <= sweeps <= 6 * nt
        # FFT work: with the per-iterate gradient cache (the default) every
        # state-gradient transform amortized into linearize, so the warm
        # matvec only performs the regularizer's batched matvec (3 pairs);
        # the uncached path below restores the paper's ~8 nt budget.
        fft_pairs = delta.fft_transforms / 2
        assert fft_pairs == 3

        set_gradient_cache_enabled(False)
        try:
            uncached_iterate = problem.linearize(problem.zero_velocity())
            before = problem.work_counters()
            problem.hessian_matvec(uncached_iterate, direction)
            delta = problem.work_counters() - before
        finally:
            set_gradient_cache_enabled(None)
        fft_pairs = delta.fft_transforms / 2
        assert 2 * nt <= fft_pairs <= 10 * nt
