"""Tests for the shared plan pool (repro.runtime.plan_pool)."""

import numpy as np
import pytest

from repro.core.optim.continuation import BetaContinuation
from repro.core.optim.gauss_newton import SolverOptions
from repro.core.optim.multilevel import MultilevelRegistration
from repro.core.problem import RegistrationProblem
from repro.data.synthetic import synthetic_registration_problem
from repro.runtime.plan_pool import (
    DEFAULT_POOL_BYTES,
    POOL_BYTES_ENV_VAR,
    PlanPool,
    array_fingerprint,
    configure_plan_pool,
    get_plan_pool,
    reset_plan_pool,
)
from repro.spectral.grid import Grid
from repro.transport.kernels import build_stencil_plan
from repro.transport.semi_lagrangian import SemiLagrangianStepper
from repro.transport.solvers import TransportSolver

from tests.fixtures import smooth_velocity_field


class _Sized:
    def __init__(self, nbytes):
        self.nbytes = nbytes


class TestPlanPoolCore:
    def test_hit_miss_counters(self):
        pool = PlanPool(max_bytes=1000)
        builds = []
        value = pool.get("a", lambda: builds.append(1) or _Sized(10))
        assert pool.get("a", lambda: builds.append(1) or _Sized(10)) is value
        assert len(builds) == 1
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_byte_accounting_matches_stored_nbytes(self):
        """The pool's running total is exactly the sum of stored plan nbytes."""
        pool = PlanPool(max_bytes=10**9)
        rng = np.random.default_rng(0)
        shape = (8, 8, 8)
        plans = []
        for seed in range(4):
            coords = rng.uniform(0, 8, size=(3, 100 + seed))
            plan = pool.get(
                ("stencil", seed),
                lambda c=coords: build_stencil_plan(shape, c, "catmull_rom"),
            )
            plans.append(plan)
        assert pool.current_bytes == sum(plan.nbytes for plan in plans)
        assert pool.stats.entries == 4

    def test_lru_eviction_order(self):
        pool = PlanPool(max_bytes=25)
        pool.get("a", lambda: _Sized(10))
        pool.get("b", lambda: _Sized(10))
        pool.get("c", lambda: _Sized(10))  # exceeds 25 -> evict "a" (LRU)
        assert "a" not in pool
        assert "b" in pool and "c" in pool
        assert pool.stats.evictions == 1
        assert pool.current_bytes == 20

    def test_recently_used_entry_survives_eviction(self):
        pool = PlanPool(max_bytes=25)
        pool.get("a", lambda: _Sized(10))
        pool.get("b", lambda: _Sized(10))
        pool.get("a", lambda: _Sized(10))  # touch "a" -> "b" becomes LRU
        pool.get("c", lambda: _Sized(10))
        assert "a" in pool and "c" in pool
        assert "b" not in pool

    def test_oversize_entry_is_returned_but_not_stored(self):
        pool = PlanPool(max_bytes=25)
        pool.get("small", lambda: _Sized(10))
        big = pool.get("big", lambda: _Sized(100))
        assert big.nbytes == 100
        assert "big" not in pool
        assert "small" in pool  # the pool contents survive the oversize build
        assert pool.stats.oversize_rejections == 1
        assert pool.current_bytes == 10

    def test_zero_budget_disables_caching(self):
        pool = PlanPool(max_bytes=0)
        builds = []
        pool.get("a", lambda: builds.append(1) or _Sized(10))
        pool.get("a", lambda: builds.append(1) or _Sized(10))
        assert len(builds) == 2
        assert pool.stats.misses == 2
        assert pool.current_bytes == 0

    def test_env_var_sets_default_budget(self, monkeypatch):
        monkeypatch.setenv(POOL_BYTES_ENV_VAR, "12345")
        assert PlanPool().max_bytes == 12345
        monkeypatch.delenv(POOL_BYTES_ENV_VAR)
        assert PlanPool().max_bytes == DEFAULT_POOL_BYTES

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            PlanPool(max_bytes=-1)

    def test_configure_shrink_evicts_to_fit(self, plan_pool):
        pool = get_plan_pool()
        configure_plan_pool(100)
        pool.get("a", lambda: _Sized(40))
        pool.get("b", lambda: _Sized(40))
        configure_plan_pool(50)
        assert pool.current_bytes <= 50
        assert "b" in pool and "a" not in pool
        configure_plan_pool(None)  # back to the environment default

    def test_stats_delta_subtraction(self):
        pool = PlanPool(max_bytes=1000)
        pool.get("a", lambda: _Sized(10))
        before = pool.stats
        pool.get("a", lambda: _Sized(10))
        delta = pool.stats - before
        assert delta.hits == 1 and delta.misses == 0

    def test_array_fingerprint_content_sensitivity(self):
        a = np.arange(12, dtype=np.float64)
        assert array_fingerprint(a) == array_fingerprint(a.copy())
        assert array_fingerprint(a) != array_fingerprint(a + 1e-16)
        assert array_fingerprint(a) != array_fingerprint(a.astype(np.float32))
        assert array_fingerprint(a) != array_fingerprint(a.reshape(3, 4))


class TestStepperPooling:
    def test_same_velocity_planned_once(self, plan_pool):
        grid = Grid((12, 12, 12))
        velocity = smooth_velocity_field(grid, seed=101, amplitude=0.4)
        SemiLagrangianStepper(grid, velocity, dt=0.25)
        before = plan_pool.stats
        stepper = SemiLagrangianStepper(grid, velocity, dt=0.25)
        delta = plan_pool.stats - before
        assert delta.hits == 1 and delta.misses == 0
        # the warm plan is the real one: stepping works and matches a rebuild
        field = np.random.default_rng(0).standard_normal(grid.shape)
        cold = SemiLagrangianStepper(grid, velocity, dt=0.25, use_plan_pool=False)
        np.testing.assert_array_equal(stepper.step(field), cold.step(field))

    def test_one_sided_precomputed_data_rejected(self, plan_pool):
        grid = Grid((12, 12, 12))
        velocity = smooth_velocity_field(grid, seed=105, amplitude=0.4)
        full = SemiLagrangianStepper(grid, velocity, dt=0.25)
        with pytest.raises(ValueError, match="provided together"):
            SemiLagrangianStepper(
                grid, velocity, dt=0.25, departure_points=full.departure_points
            )
        with pytest.raises(ValueError, match="provided together"):
            SemiLagrangianStepper(
                grid, velocity, dt=0.25, departure_plan=full.departure_plan
            )

    def test_key_separates_velocity_dt_method(self, plan_pool):
        grid = Grid((12, 12, 12))
        velocity = smooth_velocity_field(grid, seed=102, amplitude=0.4)
        SemiLagrangianStepper(grid, velocity, dt=0.25)
        before = plan_pool.stats
        SemiLagrangianStepper(grid, -velocity, dt=0.25)  # backward direction
        SemiLagrangianStepper(grid, velocity, dt=0.5)
        delta = plan_pool.stats - before
        assert delta.hits == 0 and delta.misses == 2

    def test_budget_change_keeps_stencil_plan_warm(self, plan_pool, monkeypatch):
        """The pool budget is not part of a plan's content: re-sizing the
        pool (a different REPRO_PLAN_POOL_BYTES) still serves the warm plan."""
        from repro.transport.interpolation import PeriodicInterpolator

        grid = Grid((12, 12, 12))
        velocity = smooth_velocity_field(grid, seed=106, amplitude=0.4)
        interp = PeriodicInterpolator(grid, "catmull_rom", backend="numpy")
        monkeypatch.setenv(POOL_BYTES_ENV_VAR, "64000000")
        configure_plan_pool(None)
        cold = SemiLagrangianStepper(grid, velocity, dt=0.25, interpolator=interp)
        assert cold.departure_plan.is_cached
        monkeypatch.setenv(POOL_BYTES_ENV_VAR, "128000000")
        configure_plan_pool(None)
        before = plan_pool.stats
        warm = SemiLagrangianStepper(grid, velocity, dt=0.25, interpolator=interp)
        delta = plan_pool.stats - before
        assert delta.hits == 1 and delta.misses == 0
        assert warm.departure_plan is cold.departure_plan

    def test_transport_solver_plan_reuses_pool(self, plan_pool):
        grid = Grid((12, 12, 12))
        solver = TransportSolver(grid, num_time_steps=4)
        velocity = smooth_velocity_field(grid, seed=103, amplitude=0.4)
        solver.plan(velocity)
        before = plan_pool.stats
        plan = solver.plan(velocity)
        delta = plan_pool.stats - before
        assert delta.hits == 2 and delta.misses == 0  # forward + backward
        assert plan.nbytes > 0

    def test_linearize_reuses_line_search_plan(self, plan_pool):
        """evaluate_objective + linearize of the same velocity plan once."""
        synthetic = synthetic_registration_problem(12)
        problem = RegistrationProblem(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
        )
        velocity = smooth_velocity_field(synthetic.grid, seed=104, amplitude=0.2)
        problem.evaluate_objective(velocity)
        before = plan_pool.stats_by_tag()["semi-lagrangian-departure"]
        problem.linearize(velocity)
        # scoped to the stepper tag: linearize additionally builds the
        # iterate's grad-cache entry (a miss under the "grad-cache" tag)
        delta = plan_pool.stats_by_tag()["semi-lagrangian-departure"] - before
        assert delta.misses == 0
        assert delta.hits >= 2


class TestTagStats:
    """Per-entry-kind accounting (stats_by_tag), incl. the stepper entries."""

    def test_stepper_entries_are_tagged(self, plan_pool):
        grid = Grid((12, 12, 12))
        velocity = smooth_velocity_field(grid, seed=106, amplitude=0.4)
        SemiLagrangianStepper(grid, velocity, dt=0.25)
        SemiLagrangianStepper(grid, velocity, dt=0.25)
        stats = plan_pool.stats_by_tag()["semi-lagrangian-departure"]
        assert stats.misses == 1 and stats.hits == 1 and stats.entries == 1
        assert stats.current_bytes == plan_pool.current_bytes

    def test_tag_gauges_sum_to_pool_gauges(self):
        pool = PlanPool(max_bytes=1000)
        pool.get(("a-tag", 1), lambda: _Sized(10))
        pool.get(("b-tag", 1), lambda: _Sized(20))
        pool.get(17, lambda: _Sized(5))  # key without a leading string tag
        tags = pool.stats_by_tag()
        assert set(tags) == {"a-tag", "b-tag", "untagged"}
        assert sum(s.current_bytes for s in tags.values()) == pool.current_bytes
        assert sum(s.entries for s in tags.values()) == len(pool)
        assert sum(s.misses for s in tags.values()) == pool.stats.misses

    def test_eviction_and_oversize_attributed_to_their_tag(self):
        pool = PlanPool(max_bytes=25)
        pool.get(("a", 1), lambda: _Sized(10))
        pool.get(("b", 1), lambda: _Sized(10))
        pool.get(("b", 2), lambda: _Sized(10))  # evicts ("a", 1)
        pool.get(("c", 1), lambda: _Sized(100))  # oversize, never stored
        tags = pool.stats_by_tag()
        assert tags["a"].evictions == 1
        assert tags["a"].entries == 0 and tags["a"].current_bytes == 0
        assert tags["b"].entries == 2 and tags["b"].current_bytes == 20
        assert tags["c"].oversize_rejections == 1 and tags["c"].entries == 0

    def test_key_tag_resolution(self):
        from repro.runtime.plan_pool import key_tag

        assert key_tag(("scatter-plan", "x")) == "scatter-plan"
        assert key_tag(42) == "untagged"
        assert key_tag(()) == "untagged"
        assert key_tag((1, "late-string")) == "untagged"

    def test_reset_clears_tag_stats(self, plan_pool):
        plan_pool.get(("a", 1), lambda: _Sized(10))
        reset_plan_pool()
        assert plan_pool.stats_by_tag() == {}


class TestWarmReuseAcrossSolves:
    def _options(self):
        return SolverOptions(
            gradient_tolerance=1e-2, max_newton_iterations=3, max_krylov_iterations=6
        )

    def test_multilevel_run_has_pool_hits(self, plan_pool):
        synthetic = synthetic_registration_problem(16)
        result = MultilevelRegistration(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
            num_levels=2,
            options=self._options(),
        ).run()
        assert result.plan_pool is not None
        assert result.plan_pool.hits > 0
        assert result.plan_pool.misses > 0

    def test_multilevel_plans_each_velocity_once_per_grid(self, plan_pool):
        """Every pool miss is a distinct (grid, velocity) content key."""
        synthetic = synthetic_registration_problem(16)
        MultilevelRegistration(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
            num_levels=2,
            options=self._options(),
        ).run()
        keys = [k for k in plan_pool.keys() if k[0] == "semi-lagrangian-departure"]
        assert len(keys) == len(set(keys))
        stepper = plan_pool.stats_by_tag()["semi-lagrangian-departure"]
        assert stepper.misses == len(keys) + stepper.evictions

    def test_continuation_run_has_pool_hits(self, plan_pool):
        synthetic = synthetic_registration_problem(12)
        problem = RegistrationProblem(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
        )
        result = BetaContinuation(
            problem,
            options=self._options(),
            initial_beta=1e-1,
            target_beta=1e-2,
            reduction=0.1,
        ).run()
        assert result.plan_pool is not None
        assert result.plan_pool.hits > 0

    def test_eviction_under_pressure_keeps_solves_correct(self, plan_pool):
        """A tiny budget forces evictions but never changes results."""
        configure_plan_pool(200_000)  # far below one 16^3 transport plan pair
        try:
            synthetic = synthetic_registration_problem(12)
            result_small = MultilevelRegistration(
                grid=synthetic.grid,
                reference=synthetic.reference,
                template=synthetic.template,
                num_levels=2,
                options=self._options(),
            ).run()
            stats = get_plan_pool().stats
            assert stats.evictions > 0 or stats.oversize_rejections > 0
            assert get_plan_pool().current_bytes <= 200_000
            reset_plan_pool()
            configure_plan_pool(None)
            result_default = MultilevelRegistration(
                grid=synthetic.grid,
                reference=synthetic.reference,
                template=synthetic.template,
                num_levels=2,
                options=self._options(),
            ).run()
            np.testing.assert_array_equal(result_small.velocity, result_default.velocity)
        finally:
            configure_plan_pool(None)
