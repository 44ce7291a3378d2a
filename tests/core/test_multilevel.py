"""Tests for the coarse-to-fine (grid continuation) extension."""

import numpy as np
import pytest

from repro.core.optim.gauss_newton import SolverOptions
from repro.core.optim.multilevel import MultilevelRegistration
from repro.data.synthetic import synthetic_registration_problem


@pytest.fixture(scope="module")
def synthetic():
    return synthetic_registration_problem(16)


def options(**overrides):
    defaults = dict(
        gradient_tolerance=1e-2, max_newton_iterations=4, max_krylov_iterations=10
    )
    defaults.update(overrides)
    return SolverOptions(**defaults)


class TestMultilevelRegistration:
    def test_two_level_solve_reduces_mismatch(self, synthetic):
        driver = MultilevelRegistration(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
            num_levels=2,
            beta=1e-2,
            options=options(),
        )
        result = driver.run()
        assert len(result.levels) == 2
        assert result.levels[0].grid_shape == (8, 8, 8)
        assert result.levels[1].grid_shape == (16, 16, 16)
        assert result.velocity.shape == (3, 16, 16, 16)
        fine = result.fine_result
        assert fine.final_iterate.objective.distance < 0.7 * 0.5 * synthetic.grid.inner(
            synthetic.reference - synthetic.template, synthetic.reference - synthetic.template
        )
        assert result.total_hessian_matvecs > 0

    def test_levels_are_capped_by_grid_size(self, synthetic):
        driver = MultilevelRegistration(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
            num_levels=6,
            options=options(max_newton_iterations=1),
        )
        # 16 -> 8 -> 4 is the smallest admissible hierarchy (>= 4 points/dim)
        assert driver.num_levels == 3

    def test_single_level_equals_plain_solver_grid(self, synthetic):
        driver = MultilevelRegistration(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
            num_levels=1,
            options=options(max_newton_iterations=2),
        )
        result = driver.run()
        assert len(result.levels) == 1
        assert result.levels[0].grid_shape == synthetic.grid.shape

    def test_coarse_warm_start_helps_fine_level(self, synthetic):
        """With the same fine-level iteration budget, the multilevel warm start
        reaches an objective at least as good as starting from zero."""
        budget = options(max_newton_iterations=2, max_krylov_iterations=8)
        multilevel = MultilevelRegistration(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
            num_levels=2,
            options=budget,
        ).run()
        single = MultilevelRegistration(
            grid=synthetic.grid,
            reference=synthetic.reference,
            template=synthetic.template,
            num_levels=1,
            options=budget,
        ).run()
        assert (
            multilevel.fine_result.final_objective
            <= single.fine_result.final_objective * 1.05
        )

    def test_shape_validation(self, synthetic):
        with pytest.raises(ValueError):
            MultilevelRegistration(
                grid=synthetic.grid,
                reference=synthetic.reference[:-1],
                template=synthetic.template,
            )
        with pytest.raises(ValueError):
            MultilevelRegistration(
                grid=synthetic.grid,
                reference=synthetic.reference,
                template=synthetic.template,
                num_levels=0,
            )

    @pytest.mark.parametrize("image", ["template", "reference"])
    def test_non_finite_image_is_rejected(self, synthetic, image):
        """The hierarchy restricts images itself, so it checks them itself."""
        images = {"template": synthetic.template.copy(), "reference": synthetic.reference.copy()}
        images[image][2, 3, 4] = np.nan
        with pytest.raises(ValueError, match=f"{image} image holds 1 non-finite voxel"):
            MultilevelRegistration(grid=synthetic.grid, num_levels=2, **images)

    def test_incompressible_multilevel(self):
        problem = synthetic_registration_problem(16, incompressible=True)
        result = MultilevelRegistration(
            grid=problem.grid,
            reference=problem.reference,
            template=problem.template,
            num_levels=2,
            incompressible=True,
            options=options(max_newton_iterations=3),
        ).run()
        from repro.spectral.operators import SpectralOperators

        ops = SpectralOperators(problem.grid)
        assert ops.is_divergence_free(result.velocity, tol=1e-6)
