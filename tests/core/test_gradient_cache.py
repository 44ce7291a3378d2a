"""The per-iterate state-gradient stack (:mod:`repro.core.gradients`).

Covers what the iterate's gradient stack guarantees:

* **bitwise identity** — every level of the stack equals the per-level
  :meth:`~repro.spectral.operators.SpectralOperators.gradient` call (the
  reference) on every available FFT backend;
* the stack is **read-only**, because every mat-vec of an iterate shares it;
* the fused quadrature reproduces its reference loop bit for bit;
* the reduced gradient and the Hessian mat-vec (Gauss-Newton and full
  Newton) equal a reference that re-derives every state gradient per level,
  bit for bit, on every FFT/interpolation backend;
* the consumers read the iterate's stack, so a warm Gauss-Newton mat-vec
  performs zero spectral-gradient FFTs and every mat-vec of an iterate
  costs the same;
* the stacks are plain per-iterate arrays: the plan pool holds only the
  semi-Lagrangian departure plans after a registration, and a stack is
  freed with its iterate;
* the batched time-axis operators (``gradient_many``/``divergence_many``)
  count exactly like their per-level loops.

The transform-count pins of the stack build and the mat-vec live in
``tests/core/test_complexity_regression.py``.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gradients import (
    accumulate_weighted_products,
    build_gradient_stack,
    trapezoid_weights,
)
from repro.core.optim.gauss_newton import GaussNewtonKrylov, SolverOptions
from repro.core.problem import RegistrationProblem
from repro.core.registration import register
from repro.data.synthetic import synthetic_registration_problem
from repro.observability.trace import enable_tracing, get_trace_recorder
from repro.runtime.plan_pool import get_plan_pool, reset_plan_pool
from repro.spectral.backends import available_backends as available_fft_backends
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.kernels import available_backends as available_interp_backends

from tests.fixtures import make_grid, smooth_scalar_field, smooth_velocity_field


@pytest.fixture()
def grid() -> Grid:
    return make_grid(8)


@pytest.fixture()
def ops(grid) -> SpectralOperators:
    return SpectralOperators(grid)


@pytest.fixture()
def state_history(grid) -> np.ndarray:
    return np.stack([smooth_scalar_field(grid, seed=10 + j) for j in range(5)])


def _problem(nt=4, fft_backend="numpy", interp_backend=None, gauss_newton=True):
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


def _velocity_and_direction(problem):
    velocity = 0.2 * smooth_velocity_field(problem.grid, seed=60)
    direction = 0.1 * smooth_velocity_field(problem.grid, seed=61)
    return velocity, direction


# --------------------------------------------------------------------------- #
# the stack
# --------------------------------------------------------------------------- #
class TestGradientStack:
    @pytest.mark.parametrize("fft_backend", available_fft_backends())
    def test_stack_matches_per_level_gradients_bitwise(self, grid, state_history, fft_backend):
        ops = SpectralOperators(grid, fft_backend=fft_backend)
        stack = build_gradient_stack(ops, state_history)
        assert stack.shape == (state_history.shape[0], 3, *grid.shape)
        assert stack.dtype == state_history.dtype
        for j in range(state_history.shape[0]):
            np.testing.assert_array_equal(stack[j], ops.gradient(state_history[j]))

    def test_stack_is_read_only(self, ops, state_history):
        stack = build_gradient_stack(ops, state_history)
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0] = 0.0

    def test_linearize_attaches_the_stack(self):
        synthetic = synthetic_registration_problem(8)
        problem = RegistrationProblem(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
        )
        iterate = problem.linearize(0.1 * smooth_velocity_field(problem.grid, seed=70))
        stack = iterate.state_gradients
        assert isinstance(stack, np.ndarray)
        assert not stack.flags.writeable
        np.testing.assert_array_equal(
            stack, build_gradient_stack(problem.operators, iterate.state_history)
        )

    def test_plan_pool_holds_no_gradient_stacks(self):
        """After a registration the pool holds only departure plans."""
        synthetic = synthetic_registration_problem(8)
        register(
            synthetic.template,
            synthetic.reference,
            options=SolverOptions(max_newton_iterations=2),
        )
        assert set(get_plan_pool().stats_by_tag()) == {"semi-lagrangian-departure"}

    def test_stack_is_freed_with_its_iterate(self):
        problem = _problem()
        velocity, _ = _velocity_and_direction(problem)
        iterate = problem.linearize(velocity)
        stack = weakref.ref(iterate.state_gradients)
        del iterate
        gc.collect()
        assert stack() is None

    def test_build_records_one_gradients_build_span(self, ops, state_history):
        enable_tracing()
        build_gradient_stack(ops, state_history)
        spans = [s for s in get_trace_recorder().spans() if s.name == "gradients.build"]
        assert len(spans) == 1
        assert spans[0].count == state_history.shape[0]
        assert spans[0].attrs == {"levels": state_history.shape[0]}


# --------------------------------------------------------------------------- #
# quadrature helpers
# --------------------------------------------------------------------------- #
class TestQuadratureHelpers:
    @pytest.mark.parametrize("nt", [1, 2, 4, 9])
    def test_trapezoid_weights(self, nt):
        weights = trapezoid_weights(nt)
        assert weights.shape == (nt + 1,)
        assert weights[0] == weights[-1] == 0.5 / nt
        np.testing.assert_allclose(weights.sum(), 1.0)

    def test_accumulation_matches_reference_loop_bitwise(self, ops, state_history):
        """The fused buffers reproduce the historical loop bit for bit."""
        grid = ops.grid
        nt = state_history.shape[0] - 1
        scalars = np.stack([smooth_scalar_field(grid, seed=30 + j) for j in range(nt + 1)])
        weights = trapezoid_weights(nt)

        reference = grid.zeros_vector()
        for j in range(nt + 1):
            reference += weights[j] * scalars[j][None] * ops.gradient(state_history[j])

        fused = accumulate_weighted_products(
            weights,
            [(scalars, build_gradient_stack(ops, state_history))],
            out=grid.zeros_vector(),
        )
        np.testing.assert_array_equal(fused, reference)

    def test_accumulation_validates_level_counts(self, ops, state_history):
        stack = build_gradient_stack(ops, state_history)
        with pytest.raises(ValueError, match="time levels"):
            accumulate_weighted_products(
                trapezoid_weights(2), [(np.zeros((3, *ops.grid.shape)), stack)]
            )
        with pytest.raises(ValueError, match="time levels"):
            accumulate_weighted_products(
                trapezoid_weights(4), [(state_history, stack[:3])]
            )
        with pytest.raises(ValueError, match="at least one"):
            accumulate_weighted_products(trapezoid_weights(2), [])

    def test_two_pairs_match_reference_loop_bitwise(self, ops, state_history):
        """The full-Newton shape: two pairs interleave per level, in order."""
        grid = ops.grid
        nt = state_history.shape[0] - 1
        first = np.stack([smooth_scalar_field(grid, seed=80 + j) for j in range(nt + 1)])
        second = np.stack([smooth_scalar_field(grid, seed=90 + j) for j in range(nt + 1)])
        other = ops.gradient_many(second)
        weights = trapezoid_weights(nt)

        reference = grid.zeros_vector()
        for j in range(nt + 1):
            reference += weights[j] * first[j][None] * ops.gradient(state_history[j])
            reference += weights[j] * second[j][None] * other[j]

        fused = accumulate_weighted_products(
            weights,
            [(first, build_gradient_stack(ops, state_history)), (second, other)],
            out=grid.zeros_vector(),
        )
        np.testing.assert_array_equal(fused, reference)


# --------------------------------------------------------------------------- #
# batched time-axis operators
# --------------------------------------------------------------------------- #
class TestBatchedOperators:
    def test_gradient_many_matches_per_level(self, ops, state_history):
        batched = ops.gradient_many(state_history)
        assert batched.shape == (state_history.shape[0], 3, *ops.grid.shape)
        for j in range(state_history.shape[0]):
            np.testing.assert_allclose(
                batched[j], ops.gradient(state_history[j]), atol=1e-12
            )

    def test_gradient_many_counter_parity(self, ops, state_history):
        levels = state_history.shape[0]
        before = ops.fft.counters.total
        ops.gradient_many(state_history)
        assert ops.fft.counters.total - before == 4 * levels

    def test_divergence_many_matches_per_level(self, ops, grid):
        stack = np.stack([smooth_velocity_field(grid, seed=40 + j) for j in range(4)])
        batched = ops.divergence_many(stack)
        assert batched.shape == (4, *grid.shape)
        for j in range(4):
            np.testing.assert_allclose(batched[j], ops.divergence(stack[j]), atol=1e-12)

    def test_divergence_many_counter_parity(self, ops, grid):
        stack = np.stack([smooth_velocity_field(grid, seed=50 + j) for j in range(3)])
        before = ops.fft.counters.total
        ops.divergence_many(stack)
        assert ops.fft.counters.total - before == 4 * 3

    def test_shape_validation(self, ops, grid):
        with pytest.raises(ValueError, match="field stack"):
            ops.gradient_many(np.zeros(grid.shape))
        with pytest.raises(ValueError, match="vector stack"):
            ops.divergence_many(np.zeros((2, *grid.shape)))


# --------------------------------------------------------------------------- #
# solver integration: counters, identity and wiring
# --------------------------------------------------------------------------- #
def _reference_gradient_and_matvec(problem, velocity, direction):
    """Eqs. 4 and 5 term by term, every state gradient re-derived per level.

    No stack is shared: the incremental state gets a freshly built (writable)
    per-level stack and both quadratures call ``ops.gradient`` per level in
    the fused accumulation's arithmetic order.
    """
    ops = problem.operators
    transport = problem.transport
    plan = transport.plan(velocity)
    state = transport.solve_state(plan, problem.template)
    adjoint = transport.solve_adjoint(plan, problem.reference - state[-1])
    nt = state.shape[0] - 1
    weights = trapezoid_weights(nt)

    body_force = problem.grid.zeros_vector()
    for j in range(nt + 1):
        body_force += weights[j] * adjoint[j][None] * ops.gradient(state[j])
    gradient = problem.regularizer.gradient(velocity) + problem.project(body_force)

    direction = problem.project(direction)
    per_level = np.stack([ops.gradient(state[j]) for j in range(nt + 1)])
    rho_tilde = transport.solve_incremental_state(plan, direction, state, per_level)
    lam_tilde = transport.solve_incremental_adjoint(
        plan,
        terminal=-rho_tilde[-1],
        perturbation=direction,
        adjoint_history=adjoint,
        gauss_newton=problem.gauss_newton,
    )
    rho_tilde_gradients = None if problem.gauss_newton else ops.gradient_many(rho_tilde)
    body_force_tilde = problem.grid.zeros_vector()
    for j in range(nt + 1):
        body_force_tilde += weights[j] * lam_tilde[j][None] * ops.gradient(state[j])
        if rho_tilde_gradients is not None:
            body_force_tilde += weights[j] * adjoint[j][None] * rho_tilde_gradients[j]
    matvec = problem.regularizer.hessian_matvec(direction) + problem.project(body_force_tilde)
    return gradient, matvec


def _gradient_and_matvec(gauss_newton, fft_backend="numpy", interp_backend=None):
    """``(problem, (gradient, matvec), (reference gradient, reference matvec))``."""
    problem = _problem(
        fft_backend=fft_backend, interp_backend=interp_backend, gauss_newton=gauss_newton
    )
    velocity, direction = _velocity_and_direction(problem)
    iterate = problem.linearize(velocity)
    solved = (iterate.gradient, problem.hessian_matvec(iterate, direction))
    return problem, solved, _reference_gradient_and_matvec(problem, velocity, direction)


def _matvec_work(gauss_newton):
    """Kernel work of the first and the second mat-vec of one iterate."""
    problem = _problem(gauss_newton=gauss_newton)
    velocity, direction = _velocity_and_direction(problem)
    iterate = problem.linearize(velocity)
    deltas = []
    for _ in range(2):
        before = problem.work_counters()
        problem.hessian_matvec(iterate, direction)
        deltas.append(problem.work_counters() - before)
    return deltas


class TestSolverCounters:
    def test_warm_gauss_newton_matvec_has_zero_gradient_ffts(self):
        _, warm = _matvec_work(gauss_newton=True)
        assert warm.fft_transforms == 6  # regularizer only

    def test_full_newton_matvec_counts(self):
        nt = 4
        _, warm = _matvec_work(gauss_newton=False)
        # the state gradients come from the stack; the rho~ gradients cannot
        # (rho~ depends on the direction) and cost 4*(nt+1) per mat-vec, as
        # do the incremental adjoint's div(lam v~) sources
        assert warm.fft_transforms == 8 * (nt + 1) + 6

    @pytest.mark.parametrize("gauss_newton", [True, False])
    def test_every_matvec_of_an_iterate_costs_the_same(self, gauss_newton):
        """The stack is complete after linearize: the first mat-vec pays no
        warm-up."""
        first, second = _matvec_work(gauss_newton)
        assert first.fft_transforms == second.fft_transforms
        assert first.interpolated_points == second.interpolated_points


class TestBitwiseIdentity:
    """The stack reproduces the per-level reference bit for bit."""

    @pytest.mark.parametrize("gauss_newton", [True, False])
    def test_gradient_and_matvec_identity(self, gauss_newton):
        _, solved, reference = _gradient_and_matvec(gauss_newton)
        np.testing.assert_array_equal(solved[0], reference[0])
        np.testing.assert_array_equal(solved[1], reference[1])

    @settings(max_examples=8, deadline=None)
    @given(
        fft_backend=st.sampled_from(available_fft_backends()),
        interp_backend=st.sampled_from(available_interp_backends()),
        gauss_newton=st.booleans(),
    )
    def test_identity_across_backends(self, fft_backend, interp_backend, gauss_newton):
        """Hypothesis sweep: backends x Hessian variants."""
        _, solved, reference = _gradient_and_matvec(gauss_newton, fft_backend, interp_backend)
        np.testing.assert_array_equal(solved[0], reference[0])
        np.testing.assert_array_equal(solved[1], reference[1])

    def test_full_solve_velocity_is_independent_of_pool_state(self):
        """End to end: a solve against a pool already warm with its departure
        plans returns the bit-identical velocity of a cold-pool solve."""
        velocities = []
        for reset in (True, False):
            if reset:
                reset_plan_pool()
            solver = GaussNewtonKrylov(
                _problem(), SolverOptions(max_newton_iterations=2, verbose=False)
            )
            velocities.append(solver.solve().velocity)
        assert get_plan_pool().stats_by_tag()["semi-lagrangian-departure"].hits > 0
        np.testing.assert_array_equal(velocities[0], velocities[1])


class TestIterateWiring:
    def test_matvec_reads_the_iterate_stack(self):
        """Zeroing the stack zeroes the data term: the mat-vec recomputes no
        state gradient of its own."""
        problem = _problem()
        velocity, direction = _velocity_and_direction(problem)
        iterate = problem.linearize(velocity)
        zeros = np.zeros_like(iterate.state_gradients)
        zeros.flags.writeable = False
        blind = dataclasses.replace(iterate, state_gradients=zeros)
        projected = problem.project(direction)
        expected = problem.regularizer.hessian_matvec(projected) + problem.project(
            problem.grid.zeros_vector()
        )
        np.testing.assert_array_equal(problem.hessian_matvec(blind, direction), expected)
        assert not np.array_equal(problem.hessian_matvec(iterate, direction), expected)

    def test_body_force_spans_carry_only_nt(self):
        enable_tracing()
        problem = _problem()
        velocity, direction = _velocity_and_direction(problem)
        problem.hessian_matvec(problem.linearize(velocity), direction)
        spans = {
            s.name: s.attrs
            for s in get_trace_recorder().spans()
            if s.name.startswith("problem.body_force")
        }
        assert spans == {"problem.body_force": {"nt": 4}, "problem.body_force_tilde": {"nt": 4}}
