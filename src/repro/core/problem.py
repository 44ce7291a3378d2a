"""The registration problem: objective, reduced gradient, Hessian mat-vec.

This module implements the reduced-space quantities of the PDE-constrained
optimization problem (Sec. II-B of the paper):

* the objective ``J[v] = 1/2 ||rho(., 1) - rho_R||^2 + beta/2 <A v, v>``
  (Eq. 2a), where ``rho(., 1)`` is obtained by transporting the template
  with the state equation (Eq. 2b),
* the reduced gradient ``g(v) = beta A v + P int_0^1 lam grad rho dt``
  (Eq. 4), where ``lam`` solves the adjoint equation (Eq. 3) and ``P`` is
  the Leray projection (identity when the incompressibility constraint is
  not enforced),
* the Gauss-Newton / full Newton Hessian mat-vec (Eq. 5)
  ``H(v) v~ = beta A v~ + P int_0^1 (lam~ grad rho [+ lam grad rho~]) dt``.

Every evaluation follows the optimize-then-discretize strategy of the paper:
the continuous optimality conditions are discretized with the spectral /
semi-Lagrangian kernels of :mod:`repro.spectral` and :mod:`repro.transport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.gradients import (
    CachedStateGradients,
    StateGradients,
    accumulate_weighted_products,
    gradient_levels_of,
    plan_state_gradients,
    trapezoid_weights,
)
from repro.core.regularization import make_regularization
from repro.observability.trace import trace_span
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.solvers import TransportPlan, TransportSolver
from repro.utils.validation import check_positive_int, check_velocity_shape


@dataclass
class ObjectiveParts:
    """Decomposition of the objective into data fidelity and regularization."""

    distance: float
    regularization: float

    @property
    def total(self) -> float:
        return self.distance + self.regularization


@dataclass
class OuterIterate:
    """All quantities linearized around one outer (Newton) iterate ``v``.

    The Gauss-Newton-Krylov solver evaluates the state and adjoint once per
    outer iteration and then re-uses them for every Hessian mat-vec of the
    inner PCG solve, exactly as in the paper (the state/adjoint time
    histories are stored in memory, Sec. III-B2).
    """

    velocity: np.ndarray
    plan: TransportPlan
    state_history: np.ndarray
    adjoint_history: np.ndarray
    objective: ObjectiveParts
    gradient: np.ndarray
    gradient_norm: float
    residual: np.ndarray
    #: Iterate-scoped source of the state-history gradients (cached stack or
    #: lazy recomputation, :mod:`repro.core.gradients`).  ``None`` on
    #: hand-built iterates — every consumer then degrades to the lazy path.
    state_gradients: Optional[StateGradients] = None

    @property
    def deformed_template(self) -> np.ndarray:
        """The transported template ``rho(., 1)``."""
        return self.state_history[-1]


@dataclass
class KernelWorkCounters:
    """Snapshot of the kernel work executed so far (FFTs, interpolations).

    The paper's complexity model (Sec. III-C4) predicts ``8 nt`` FFTs and
    ``4 nt`` interpolation sweeps per Hessian mat-vec; these counters let the
    test-suite and the benchmark harness check the prediction against the
    implementation.  Both counts live in the respective frontends
    (:class:`repro.spectral.fft.FourierTransform`,
    :class:`repro.transport.interpolation.PeriodicInterpolator`), never in
    the pluggable backends, so they are identical for every engine.
    """

    fft_transforms: int = 0
    interpolated_points: int = 0

    def __sub__(self, other: "KernelWorkCounters") -> "KernelWorkCounters":
        return KernelWorkCounters(
            fft_transforms=self.fft_transforms - other.fft_transforms,
            interpolated_points=self.interpolated_points - other.interpolated_points,
        )

    def interpolation_sweeps(self, num_grid_points: int) -> float:
        """Interpolated points expressed in grid sweeps (the paper's unit).

        One "interpolation" of the complexity model is a sweep over all grid
        points, so ``4*nt`` sweeps per Hessian mat-vec corresponds to
        ``4*nt*N1*N2*N3`` interpolated points.
        """
        return self.interpolated_points / num_grid_points


@dataclass
class RegistrationProblem:
    """Discretized optimal-control registration problem.

    Parameters
    ----------
    grid:
        Computational grid shared by the images and the velocity.
    reference:
        Reference image ``rho_R`` (fixed image).
    template:
        Template image ``rho_T`` (moving image, transported by the state
        equation).
    beta:
        Regularization weight.
    regularization:
        Name of the Sobolev-seminorm regularization (``"h1"`` per Eq. 2a,
        ``"h2"`` biharmonic, ``"h3"``).
    incompressible:
        Enforce ``div v = 0`` (volume-preserving diffeomorphism) by Leray
        projection of the gradient and the Hessian mat-vec.
    num_time_steps:
        Pseudo-time steps ``nt`` of the semi-Lagrangian scheme.
    gauss_newton:
        Use the Gauss-Newton approximation of the Hessian (the paper's
        default for all reported experiments).
    interpolation:
        Off-grid interpolation kernel.
    fft_backend:
        FFT engine name or instance (``"numpy"``, ``"scipy"``, ``"pyfftw"``,
        or ``None`` for the ``REPRO_FFT_BACKEND`` / numpy default) used when
        the spectral operators are constructed on demand.
    interp_backend:
        Interpolation engine name or instance (``"scipy"``, ``"numpy"``,
        ``"numba"``, or ``None`` for the ``REPRO_INTERP_BACKEND`` / scipy
        default) used when the transport solver is constructed on demand.
    """

    grid: Grid
    reference: np.ndarray
    template: np.ndarray
    beta: float = 1e-2
    regularization: str = "h1"
    incompressible: bool = False
    num_time_steps: int = 4
    gauss_newton: bool = True
    interpolation: str = "cubic_bspline"
    fft_backend: Optional[object] = None
    interp_backend: Optional[object] = None
    operators: Optional[SpectralOperators] = None
    transport: Optional[TransportSolver] = None
    hessian_matvec_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        check_positive_int(self.num_time_steps, "num_time_steps")
        self.reference = np.asarray(self.reference, dtype=self.grid.dtype)
        self.template = np.asarray(self.template, dtype=self.grid.dtype)
        if self.reference.shape != self.grid.shape:
            raise ValueError(
                f"reference image has shape {self.reference.shape}, expected {self.grid.shape}"
            )
        if self.template.shape != self.grid.shape:
            raise ValueError(
                f"template image has shape {self.template.shape}, expected {self.grid.shape}"
            )
        if self.operators is None:
            self.operators = SpectralOperators(self.grid, fft_backend=self.fft_backend)
        if self.transport is None:
            self.transport = TransportSolver(
                self.grid,
                num_time_steps=self.num_time_steps,
                interpolation=self.interpolation,
                operators=self.operators,
                interp_backend=self.interp_backend,
            )
        self.regularizer = make_regularization(self.regularization, self.operators, self.beta)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def zero_velocity(self) -> np.ndarray:
        """Initial guess ``v = 0`` (the paper's initialization)."""
        return self.grid.zeros_vector()

    def set_beta(self, beta: float) -> None:
        """Change the regularization weight (used by the continuation)."""
        self.beta = float(beta)
        self.regularizer = self.regularizer.with_beta(beta)

    def project(self, vector_field: np.ndarray) -> np.ndarray:
        """Apply the Leray projection if the problem is incompressible."""
        if self.incompressible:
            return self.operators.leray_project(vector_field)
        return vector_field

    def work_counters(self) -> KernelWorkCounters:
        """Current snapshot of FFT / interpolation work."""
        return KernelWorkCounters(
            fft_transforms=self.operators.fft.counters.total,
            interpolated_points=self.transport.interpolator.points_interpolated,
        )

    # ------------------------------------------------------------------ #
    # objective
    # ------------------------------------------------------------------ #
    def distance(self, deformed_template: np.ndarray) -> float:
        """Squared-L2 image mismatch ``1/2 ||rho(., 1) - rho_R||^2``."""
        diff = deformed_template - self.reference
        return 0.5 * self.grid.inner(diff, diff)

    def evaluate_objective(self, velocity: np.ndarray) -> ObjectiveParts:
        """Evaluate ``J[v]`` (one forward transport solve).

        Only the final state enters the distance term, so this rides
        :meth:`~repro.transport.solvers.TransportSolver.solve_state_final`
        — same steps, same interpolation counters, no ``(nt + 1)``-level
        history allocation (the line search evaluates this once per trial).
        """
        velocity = check_velocity_shape(velocity, self.grid.shape)
        plan = self.transport.plan(velocity)
        deformed = self.transport.solve_state_final(plan, self.template)
        return ObjectiveParts(
            distance=self.distance(deformed),
            regularization=self.regularizer.energy(velocity),
        )

    # ------------------------------------------------------------------ #
    # reduced gradient (Eq. 4)
    # ------------------------------------------------------------------ #
    def linearize(self, velocity: np.ndarray) -> OuterIterate:
        """Evaluate objective, state, adjoint, and reduced gradient at ``v``."""
        velocity = check_velocity_shape(velocity, self.grid.shape)
        plan = self.transport.plan(velocity)
        state_history = self.transport.solve_state(plan, self.template)
        deformed = state_history[-1]
        residual = self.reference - deformed
        adjoint_history = self.transport.solve_adjoint(plan, residual)

        # Materialize (or lazily alias) the state-history gradients once for
        # the whole iterate: the body force below, every Hessian mat-vec of
        # the inner PCG solve, and the incremental-state right-hand sides
        # all consume the same nt + 1 gradient fields.
        state_gradients = plan_state_gradients(self.operators, state_history)
        body_force = self._body_force(state_history, adjoint_history, state_gradients)
        gradient = self.regularizer.gradient(velocity) + self.project(body_force)
        if self.incompressible:
            # keep the full gradient in the divergence-free subspace
            gradient = self.operators.leray_project(gradient)

        objective = ObjectiveParts(
            distance=self.distance(deformed),
            regularization=self.regularizer.energy(velocity),
        )
        return OuterIterate(
            velocity=velocity,
            plan=plan,
            state_history=state_history,
            adjoint_history=adjoint_history,
            objective=objective,
            gradient=gradient,
            gradient_norm=self.grid.norm(gradient),
            residual=residual,
            state_gradients=state_gradients,
        )

    #: Trapezoidal quadrature weights on ``nt + 1`` uniform time levels
    #: (kept as a static method for the existing call sites and tests).
    _trapezoid_weights = staticmethod(trapezoid_weights)

    def _body_force(
        self,
        state_history: np.ndarray,
        adjoint_history: np.ndarray,
        state_gradients: Optional[StateGradients] = None,
    ) -> np.ndarray:
        """Time integral ``b = int_0^1 lam grad rho dt`` (vector field).

        Accumulated level by level to avoid storing the full space-time
        integrand (which would double the memory footprint of the stored
        state/adjoint histories); the gradients come from the iterate's
        shared source when one is supplied.
        """
        nt = state_history.shape[0] - 1
        gradients = gradient_levels_of(self.operators, state_history, state_gradients)
        with trace_span("problem.body_force", nt=nt, cached=gradients.cached):
            return accumulate_weighted_products(
                trapezoid_weights(nt),
                [(adjoint_history, gradients)],
                out=self.grid.zeros_vector(),
            )

    # ------------------------------------------------------------------ #
    # Hessian mat-vec (Eq. 5)
    # ------------------------------------------------------------------ #
    def hessian_matvec(self, iterate: OuterIterate, direction: np.ndarray) -> np.ndarray:
        """Apply the (Gauss-)Newton Hessian at *iterate* to *direction*.

        Requires two transport solves (incremental state forward,
        incremental adjoint backward); with the iterate's state gradients
        cached (:mod:`repro.core.gradients`) a Gauss-Newton mat-vec performs
        **zero** spectral-gradient FFTs — only the regularizer's ``6``
        transforms remain of the paper's ``8 nt`` figure (Sec. III-C4),
        which stays the cost of the uncached fallback.  The interpolation
        cost (``4 nt`` sweeps) is unchanged either way.
        """
        direction = check_velocity_shape(direction, self.grid.shape)
        direction = self.project(direction)
        self.hessian_matvec_count += 1

        state_gradients = gradient_levels_of(
            self.operators, iterate.state_history, iterate.state_gradients
        )
        rho_tilde = self.transport.solve_incremental_state(
            iterate.plan, direction, iterate.state_history, state_gradients
        )
        lam_tilde = self.transport.solve_incremental_adjoint(
            iterate.plan,
            terminal=-rho_tilde[-1],
            perturbation=direction,
            adjoint_history=iterate.adjoint_history,
            gauss_newton=self.gauss_newton,
        )

        nt = iterate.plan.num_time_steps
        pairs = [(lam_tilde, state_gradients)]
        if not self.gauss_newton:
            # full Newton adds int lam grad rho~ dt; rho~ changes with every
            # direction, so its gradients are computed fresh — fused over the
            # time axis into one batched transform pair
            rho_tilde_gradients = CachedStateGradients(
                self.operators.gradient_many(rho_tilde)
            )
            pairs.append((iterate.adjoint_history, rho_tilde_gradients))
        with trace_span(
            "problem.body_force_tilde", nt=nt, cached=state_gradients.cached
        ):
            body_force_tilde = accumulate_weighted_products(
                trapezoid_weights(nt), pairs, out=self.grid.zeros_vector()
            )

        matvec = self.regularizer.hessian_matvec(direction) + self.project(body_force_tilde)
        if self.incompressible:
            matvec = self.operators.leray_project(matvec)
        return matvec

    def hessian_operator(self, iterate: OuterIterate):
        """Return a closure ``v~ -> H(v) v~`` bound to *iterate* (for PCG)."""

        def apply(direction: np.ndarray) -> np.ndarray:
            return self.hessian_matvec(iterate, direction)

        return apply

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """Human-readable description of the discretized problem."""
        return {
            "grid": self.grid.shape,
            "num_unknowns_velocity": 3 * self.grid.num_points,
            "beta": self.beta,
            "regularization": self.regularization,
            "incompressible": self.incompressible,
            "num_time_steps": self.num_time_steps,
            "gauss_newton": self.gauss_newton,
            "interpolation": self.interpolation,
            "fft_backend": self.operators.fft.backend_name,
            "interp_backend": self.transport.interpolator.backend_name,
        }
