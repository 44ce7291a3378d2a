"""The per-iterate gradient cache (:mod:`repro.core.gradients`).

Covers the tentpole guarantees of the cache layer:

* **bitwise identity** — cached and uncached solves produce bit-identical
  gradients and Hessian mat-vecs on every FFT/interpolation backend and
  both Hessian variants (Gauss-Newton and full Newton);
  the cache reuses the FFT outputs, it never changes them;
* **budget participation** — the cached stack lives in the shared plan
  pool under the ``grad-cache`` tag, is byte-accounted exactly, and
  degrades to the lazy per-level path (with a logged decision) whenever
  the ``REPRO_PLAN_POOL_BYTES`` budget cannot hold it;
* **counter exactness** — a warm Gauss-Newton mat-vec performs zero
  spectral-gradient FFTs (6 transforms total, the regularizer), full
  Newton drops from ``16(nt+1)+6`` to ``8(nt+1)+6``, and building the
  cache adds zero transforms to ``linearize``;
* the batched time-axis operators (``gradient_many``/``divergence_many``)
  count exactly like their per-level loops.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gradients import (
    GRADIENT_CACHE_ENV_VAR,
    CachedStateGradients,
    LazyStateGradients,
    accumulate_weighted_products,
    env_gradient_cache_enabled,
    gradient_cache_decision_log,
    gradient_cache_enabled,
    plan_state_gradients,
    projected_gradient_cache_nbytes,
    set_gradient_cache_enabled,
    trapezoid_weights,
)
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_registration_problem
from repro.observability.metrics import get_metrics_registry
from repro.runtime.plan_pool import configure_plan_pool, get_plan_pool, reset_plan_pool
from repro.spectral.backends import available_backends as available_fft_backends
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.kernels import available_backends as available_interp_backends

from tests.fixtures import make_grid, smooth_scalar_field, smooth_velocity_field


@pytest.fixture(autouse=True)
def _restore_pool_budget():
    """Re-read the environment budget after every test.

    The shared conftest hygiene deliberately preserves the pool budget
    across tests (the pressure CI leg sets it via the environment); the
    budget-fallback tests below shrink it, so they must put it back.
    """
    yield
    configure_plan_pool(None)


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


# --------------------------------------------------------------------------- #
# policy knob
# --------------------------------------------------------------------------- #
class TestPolicyKnob:
    def test_default_is_enabled(self):
        assert gradient_cache_enabled() is True

    def test_process_override_wins(self):
        set_gradient_cache_enabled(False)
        assert gradient_cache_enabled() is False
        set_gradient_cache_enabled(None)
        assert gradient_cache_enabled() is True

    @pytest.mark.parametrize("raw,expected", [("1", True), ("true", True), ("on", True), ("0", False), ("off", False), ("no", False)])
    def test_env_values(self, monkeypatch, raw, expected):
        monkeypatch.setenv(GRADIENT_CACHE_ENV_VAR, raw)
        assert env_gradient_cache_enabled() is expected
        assert gradient_cache_enabled() is expected

    def test_env_unset_means_none(self, monkeypatch):
        monkeypatch.delenv(GRADIENT_CACHE_ENV_VAR, raising=False)
        assert env_gradient_cache_enabled() is None

    def test_env_malformed_raises_with_variable_name(self, monkeypatch):
        monkeypatch.setenv(GRADIENT_CACHE_ENV_VAR, "sometimes")
        with pytest.raises(ValueError, match=GRADIENT_CACHE_ENV_VAR):
            env_gradient_cache_enabled()

    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv(GRADIENT_CACHE_ENV_VAR, "0")
        set_gradient_cache_enabled(True)
        assert gradient_cache_enabled() is True


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
            [(scalars, LazyStateGradients(ops, state_history))],
            out=grid.zeros_vector(),
        )
        np.testing.assert_array_equal(fused, reference)

    def test_accumulation_validates_level_counts(self, ops, state_history):
        with pytest.raises(ValueError, match="time levels"):
            accumulate_weighted_products(
                trapezoid_weights(2),
                [(np.zeros((3, *ops.grid.shape)), LazyStateGradients(ops, state_history))],
            )
        with pytest.raises(ValueError, match="at least one"):
            accumulate_weighted_products(trapezoid_weights(2), [])


# --------------------------------------------------------------------------- #
# cache planning: budget, fallback, logging
# --------------------------------------------------------------------------- #
class TestCachePlanning:
    def test_cached_stack_matches_per_level_gradients_bitwise(self, ops, state_history):
        source = plan_state_gradients(ops, state_history)
        assert source.cached
        for j in range(state_history.shape[0]):
            np.testing.assert_array_equal(
                source.level(j), ops.gradient(state_history[j])
            )

    def test_stack_is_read_only(self, ops, state_history):
        source = plan_state_gradients(ops, state_history)
        with pytest.raises(ValueError):
            source.stack()[0] = 0.0

    def test_pool_accounting_under_grad_cache_tag(self, ops, state_history):
        plan_state_gradients(ops, state_history)
        stats = get_plan_pool().stats_by_tag()["grad-cache"]
        assert stats.misses == 1 and stats.entries == 1
        assert stats.current_bytes == projected_gradient_cache_nbytes(state_history)
        assert stats.current_bytes == 3 * state_history.nbytes

    def test_revisit_is_a_warm_pool_hit_with_zero_ffts(self, ops, state_history):
        plan_state_gradients(ops, state_history)
        before = ops.fft.counters.total
        source = plan_state_gradients(ops, state_history)
        assert ops.fft.counters.total == before
        assert source.cached
        assert get_plan_pool().stats_by_tag()["grad-cache"].hits == 1

    def test_budget_too_small_degrades_and_logs(self, ops, state_history):
        configure_plan_pool(projected_gradient_cache_nbytes(state_history) - 1)
        before = ops.fft.counters.total
        source = plan_state_gradients(ops, state_history)
        # the decision happens before building: no transforms were spent on
        # a stack that could never be stored
        assert ops.fft.counters.total == before
        assert not source.cached
        assert isinstance(source, LazyStateGradients)
        decision = gradient_cache_decision_log().recent()[-1]
        assert not decision.cached
        assert "exceeds the plan-pool budget" in decision.reason
        assert decision.projected_bytes == projected_gradient_cache_nbytes(state_history)

    def test_zero_budget_degrades(self, ops, state_history):
        configure_plan_pool(0)
        source = plan_state_gradients(ops, state_history)
        assert not source.cached
        assert "budget 0" in gradient_cache_decision_log().recent()[-1].reason

    def test_opt_out_degrades_and_logs(self, ops, state_history):
        set_gradient_cache_enabled(False)
        source = plan_state_gradients(ops, state_history)
        assert not source.cached
        assert "disabled" in gradient_cache_decision_log().recent()[-1].reason

    def test_decision_counts_and_metrics_collector(self, ops, state_history):
        plan_state_gradients(ops, state_history)
        set_gradient_cache_enabled(False)
        plan_state_gradients(ops, state_history)
        log = gradient_cache_decision_log()
        assert log.counts() == {"cached": 1, "uncached": 1}
        assert log.total == 2
        snapshot = get_metrics_registry().collect()
        assert snapshot["gradient_cache.decisions"] == {
            "mode=cached": 1,
            "mode=uncached": 1,
        }

    def test_lazy_source_recomputes_per_level(self, ops, state_history):
        source = LazyStateGradients(ops, state_history)
        before = ops.fft.counters.total
        level = source.level(2)
        assert ops.fft.counters.total - before == 4  # 1 forward + 3 inverse
        np.testing.assert_array_equal(level, ops.gradient(state_history[2]))


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
# solver integration: counters and identity
# --------------------------------------------------------------------------- #
def _solve_one_matvec(gauss_newton, cached, fft_backend="numpy", interp_backend=None):
    """One linearize + two mat-vecs; returns (gradient, matvec, warm fft delta)."""
    set_gradient_cache_enabled(cached)
    reset_plan_pool()
    problem = _problem(
        fft_backend=fft_backend, interp_backend=interp_backend, gauss_newton=gauss_newton
    )
    velocity = 0.2 * smooth_velocity_field(problem.grid, seed=60)
    direction = 0.1 * smooth_velocity_field(problem.grid, seed=61)
    iterate = problem.linearize(velocity)
    problem.hessian_matvec(iterate, direction)  # warm the iterate
    before = problem.work_counters()
    matvec = problem.hessian_matvec(iterate, direction)
    delta = problem.work_counters() - before
    return iterate.gradient, matvec, delta


class TestSolverCounters:
    def test_warm_gauss_newton_matvec_has_zero_gradient_ffts(self):
        _, _, delta = _solve_one_matvec(gauss_newton=True, cached=True)
        assert delta.fft_transforms == 6  # regularizer only

    def test_uncached_gauss_newton_matvec_restores_paper_count(self):
        nt = 4
        _, _, delta = _solve_one_matvec(gauss_newton=True, cached=False)
        assert delta.fft_transforms == 8 * (nt + 1) + 6

    def test_full_newton_matvec_counts(self):
        nt = 4
        _, _, warm = _solve_one_matvec(gauss_newton=False, cached=True)
        _, _, cold = _solve_one_matvec(gauss_newton=False, cached=False)
        # the state gradients amortize; the rho~ gradients cannot (rho~
        # depends on the direction) and cost 4*(nt+1) per mat-vec
        assert warm.fft_transforms == 8 * (nt + 1) + 6
        assert cold.fft_transforms == 16 * (nt + 1) + 6

    def test_interpolation_work_is_cache_invariant(self):
        _, _, warm = _solve_one_matvec(gauss_newton=True, cached=True)
        _, _, cold = _solve_one_matvec(gauss_newton=True, cached=False)
        assert warm.interpolated_points == cold.interpolated_points


class TestBitwiseIdentity:
    """Cached and uncached solves are bit-identical — the acceptance pin."""

    @pytest.mark.parametrize("gauss_newton", [True, False])
    def test_gradient_and_matvec_identity(self, gauss_newton):
        g_cached, mv_cached, _ = _solve_one_matvec(gauss_newton, cached=True)
        g_lazy, mv_lazy, _ = _solve_one_matvec(gauss_newton, cached=False)
        np.testing.assert_array_equal(g_cached, g_lazy)
        np.testing.assert_array_equal(mv_cached, mv_lazy)

    @settings(max_examples=8, deadline=None)
    @given(
        fft_backend=st.sampled_from(available_fft_backends()),
        interp_backend=st.sampled_from(available_interp_backends()),
        gauss_newton=st.booleans(),
    )
    def test_identity_across_backends(self, fft_backend, interp_backend, gauss_newton):
        """Hypothesis sweep: backends x Hessian variants."""
        try:
            g_cached, mv_cached, warm = _solve_one_matvec(
                gauss_newton, True, fft_backend, interp_backend
            )
            g_lazy, mv_lazy, cold = _solve_one_matvec(
                gauss_newton, False, fft_backend, interp_backend
            )
        finally:
            set_gradient_cache_enabled(None)
        np.testing.assert_array_equal(g_cached, g_lazy)
        np.testing.assert_array_equal(mv_cached, mv_lazy)
        # counter parity across engines, warm strictly cheaper than cold
        nt = 4
        expected_cold = (16 if not gauss_newton else 8) * (nt + 1) + 6
        expected_warm = expected_cold - 8 * (nt + 1)
        assert cold.fft_transforms == expected_cold
        assert warm.fft_transforms == expected_warm

    def test_full_solve_velocity_identity(self):
        """End to end: the optimized velocity is bit-identical either way."""
        from repro.core.optim.gauss_newton import GaussNewtonKrylov, SolverOptions

        results = {}
        for cached in (True, False):
            set_gradient_cache_enabled(cached)
            reset_plan_pool()
            problem = _problem()
            solver = GaussNewtonKrylov(
                problem, SolverOptions(max_newton_iterations=2, verbose=False)
            )
            results[cached] = solver.solve().velocity
        np.testing.assert_array_equal(results[True], results[False])


class TestIterateWiring:
    def test_linearize_attaches_cached_source(self):
        problem = _problem()
        iterate = problem.linearize(0.1 * smooth_velocity_field(problem.grid, seed=70))
        assert iterate.state_gradients is not None
        assert iterate.state_gradients.cached

    def test_linearize_attaches_lazy_source_when_disabled(self):
        set_gradient_cache_enabled(False)
        problem = _problem()
        iterate = problem.linearize(0.1 * smooth_velocity_field(problem.grid, seed=70))
        assert iterate.state_gradients is not None
        assert not iterate.state_gradients.cached

    def test_hand_built_iterate_without_source_still_works(self):
        """Consumers degrade to the lazy path when no source was attached."""
        problem = _problem()
        iterate = problem.linearize(0.1 * smooth_velocity_field(problem.grid, seed=71))
        direction = 0.1 * smooth_velocity_field(problem.grid, seed=72)
        expected = problem.hessian_matvec(iterate, direction)
        stripped = iterate.__class__(
            **{**vars(iterate), "state_gradients": None}
        )
        np.testing.assert_array_equal(
            problem.hessian_matvec(stripped, direction), expected
        )

    def test_cached_stack_shape_validation(self):
        with pytest.raises(ValueError, match="gradient stack"):
            CachedStateGradients(np.zeros((4, 2, 8, 8, 8)))
