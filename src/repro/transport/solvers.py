"""Transport solvers for the optimality system.

This module couples the semi-Lagrangian stepper with the spectral operators
to solve the four transport problems of the reduced-space Newton method
(Sec. II-B and III of the paper):

========================  ==================================================
state (Eq. 2b)            ``d rho/dt + v . grad rho = 0``, forward in time
adjoint (Eq. 3)           ``-d lam/dt - div(v lam) = 0``, backward in time
incremental state (5a)    ``d rho~/dt + v . grad rho~ = - v~ . grad rho``
incremental adjoint (5c)  ``-d lam~/dt - div(lam~ v + lam v~) = 0``
========================  ==================================================

All four are advection equations with (possibly field-dependent) sources, so
after the time reversal ``tau = 1 - t`` the backward equations reduce to the
same semi-Lagrangian kernel with velocity ``-v``.

Because the paper stores every time level in memory (``n_t`` is kept small —
the motivation for the unconditionally stable semi-Lagrangian scheme), the
solvers here return full space-time histories as arrays of shape
``(nt + 1, N1, N2, N3)``, indexed such that entry ``j`` is the field at
``t_j = j / nt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.observability.trace import trace_span
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.semi_lagrangian import SemiLagrangianStepper
from repro.utils.validation import check_positive_int, check_velocity_shape


@dataclass
class TransportPlan:
    """Pre-computed data shared by every transport solve for one velocity.

    Mirrors the paper's "interpolation planner": the semi-Lagrangian
    departure points are computed once per velocity for the forward
    characteristics (velocity ``v``) and once for the backward
    characteristics (velocity ``-v``), then re-used by the state, adjoint and
    both incremental equations of every Hessian matvec (Sec. III-C2).  Each
    stepper additionally caches the gather plan (wrapped coordinates +
    stencil plan, :mod:`repro.transport.kernels`) of its departure points,
    so the Hessian mat-vecs never re-plan points they already have.
    """

    velocity: np.ndarray
    dt: float
    num_time_steps: int
    forward_stepper: SemiLagrangianStepper
    backward_stepper: SemiLagrangianStepper
    divergence: np.ndarray
    is_divergence_free: bool

    @property
    def forward_gather_plan(self):
        """Cached gather plan of the forward characteristics."""
        return self.forward_stepper.departure_plan

    @property
    def backward_gather_plan(self):
        """Cached gather plan of the backward characteristics."""
        return self.backward_stepper.departure_plan

    @property
    def nbytes(self) -> int:
        """Byte size of the per-velocity planning data this plan holds.

        Counts the departure points and gather plans of both steppers (the
        quantities the shared plan pool stores and budgets) plus the cached
        divergence field.
        """
        return (
            self.forward_stepper.departure_points.nbytes
            + self.forward_gather_plan.nbytes
            + self.backward_stepper.departure_points.nbytes
            + self.backward_gather_plan.nbytes
            + self.divergence.nbytes
        )


@dataclass
class TransportSolver:
    """Semi-Lagrangian solver for the state/adjoint/incremental equations.

    Parameters
    ----------
    grid:
        Computational grid.
    num_time_steps:
        Number of pseudo-time steps ``nt`` (the paper uses ``nt = 4``).
    interpolation:
        Interpolation kernel passed to :class:`PeriodicInterpolator`.
    operators:
        Spectral operators; constructed on demand when not provided.
    fft_backend:
        FFT engine name or instance used when *operators* is constructed on
        demand (``None`` selects the environment default); ignored when
        *operators* is provided.
    interp_backend:
        Interpolation engine name or instance (``"scipy"``, ``"numpy"``,
        ``"numba"``, or ``None`` for the ``REPRO_INTERP_BACKEND`` / scipy
        default) used by the semi-Lagrangian gathers.
    """

    grid: Grid
    num_time_steps: int = 4
    interpolation: str = "cubic_bspline"
    operators: Optional[SpectralOperators] = None
    fft_backend: Optional[object] = None
    interp_backend: Optional[object] = None
    divergence_tolerance: float = 1e-8
    _interpolator: PeriodicInterpolator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.num_time_steps, "num_time_steps")
        if self.operators is None:
            self.operators = SpectralOperators(self.grid, fft_backend=self.fft_backend)
        self._interpolator = PeriodicInterpolator(
            self.grid, self.interpolation, backend=self.interp_backend
        )

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    @property
    def dt(self) -> float:
        """Pseudo-time step ``1 / nt`` (the time horizon is always [0, 1])."""
        return 1.0 / self.num_time_steps

    @property
    def interpolator(self) -> PeriodicInterpolator:
        return self._interpolator

    def plan(self, velocity: np.ndarray) -> TransportPlan:
        """Build the forward/backward semi-Lagrangian plans for *velocity*.

        The expensive planning data (departure points + gather stencils of
        both characteristic directions) comes from the shared plan pool
        (:mod:`repro.runtime.plan_pool`): velocities the pool has already
        planned — the accepted line-search trial, a continuation warm
        start — are warm hits and skip the trace/plan work entirely.
        """
        velocity = check_velocity_shape(velocity, self.grid.shape)
        forward = SemiLagrangianStepper(
            self.grid, velocity, self.dt, interpolator=self._interpolator
        )
        backward = SemiLagrangianStepper(
            self.grid, -velocity, self.dt, interpolator=self._interpolator
        )
        div_v = self.operators.divergence(velocity)
        vel_scale = max(self.grid.norm(velocity), 1e-30)
        div_free = self.grid.norm(div_v) <= self.divergence_tolerance * vel_scale
        return TransportPlan(
            velocity=velocity,
            dt=self.dt,
            num_time_steps=self.num_time_steps,
            forward_stepper=forward,
            backward_stepper=backward,
            divergence=div_v,
            is_divergence_free=div_free,
        )

    # ------------------------------------------------------------------ #
    # state equation (Eq. 2b)
    # ------------------------------------------------------------------ #
    def solve_state(self, plan: TransportPlan, rho0: np.ndarray) -> np.ndarray:
        """Transport the template image forward in time.

        Returns the full history ``rho[j] = rho(., t_j)`` with
        ``rho[0] = rho0`` and ``rho[nt] = rho(., 1)`` (the deformed template).
        """
        rho0 = np.asarray(rho0, dtype=self.grid.dtype)
        if rho0.shape != self.grid.shape:
            raise ValueError(f"rho0 has shape {rho0.shape}, expected {self.grid.shape}")
        nt = plan.num_time_steps
        history = np.empty((nt + 1, *self.grid.shape), dtype=self.grid.dtype)
        history[0] = rho0
        with trace_span("transport.state", nt=nt):
            for j in range(nt):
                history[j + 1] = plan.forward_stepper.step(history[j])
        return history

    def solve_state_final(self, plan: TransportPlan, rho0: np.ndarray) -> np.ndarray:
        """Transport the template forward, keeping only the final state.

        The objective evaluation (and the CLI's deformed template) only
        need ``rho(., 1)``, not the ``(nt + 1)``-level history — at 256^3
        the history is 0.7 GB of dead weight per trial velocity of the line
        search.  This runs the identical steps on a two-level rotation
        (interpolation counters and bits match ``solve_state(...)[nt]``
        exactly), bounding the state memory at one field regardless of
        ``nt``.
        """
        rho0 = np.asarray(rho0, dtype=self.grid.dtype)
        if rho0.shape != self.grid.shape:
            raise ValueError(f"rho0 has shape {rho0.shape}, expected {self.grid.shape}")
        nu = rho0
        with trace_span("transport.state", nt=plan.num_time_steps, final_only=True):
            for _ in range(plan.num_time_steps):
                nu = plan.forward_stepper.step(nu)
        return nu

    # ------------------------------------------------------------------ #
    # adjoint equation (Eq. 3)
    # ------------------------------------------------------------------ #
    def solve_adjoint(self, plan: TransportPlan, terminal: np.ndarray) -> np.ndarray:
        """Transport the adjoint variable backward in time.

        Solves ``-d lam/dt - div(v lam) = 0`` with ``lam(., 1) = terminal``
        (the image mismatch ``rho_R - rho(., 1)``).  After the time reversal
        ``tau = 1 - t`` this is an advection with velocity ``-v`` and source
        ``lam * div v``; the source vanishes for divergence-free velocities.

        Returns the history indexed by *t* (``history[nt] = terminal``,
        ``history[0] = lam(., 0)``).
        """
        terminal = np.asarray(terminal, dtype=self.grid.dtype)
        if terminal.shape != self.grid.shape:
            raise ValueError(
                f"terminal condition has shape {terminal.shape}, expected {self.grid.shape}"
            )
        nt = plan.num_time_steps
        history = np.empty((nt + 1, *self.grid.shape), dtype=self.grid.dtype)
        history[nt] = terminal
        div_v = plan.divergence
        with trace_span("transport.adjoint", nt=nt):
            for j in range(nt, 0, -1):
                lam = history[j]
                if plan.is_divergence_free:
                    history[j - 1] = plan.backward_stepper.step(lam)
                else:
                    history[j - 1] = plan.backward_stepper.step(
                        lam,
                        source_old=lam * div_v,
                        source_new=lambda predictor, d=div_v: predictor * d,
                    )
        return history

    # ------------------------------------------------------------------ #
    # incremental state equation (Eq. 5a)
    # ------------------------------------------------------------------ #
    def solve_incremental_state(
        self,
        plan: TransportPlan,
        perturbation: np.ndarray,
        state_history: np.ndarray,
        state_gradients: Optional[object] = None,
    ) -> np.ndarray:
        """Solve the incremental (linearized) state equation.

        ``d rho~/dt + v . grad rho~ = - v~ . grad rho(t)`` with
        ``rho~(., 0) = 0``.  The right-hand side needs the gradient of the
        stored state history at the old and new time levels (four FFTs and
        two interpolations per time step, cf. Algorithm 2 of the paper);
        passing the iterate's shared gradient source (*state_gradients*, any
        object with a ``level(j)`` method — see
        :class:`repro.core.gradients.StateGradients`; duck-typed to keep the
        transport layer below the core) serves them from the per-iterate
        cache — zero gradient FFTs on the Hessian mat-vec hot path.
        """
        perturbation = check_velocity_shape(perturbation, self.grid.shape)
        nt = plan.num_time_steps
        if state_history.shape != (nt + 1, *self.grid.shape):
            raise ValueError(
                f"state history has shape {state_history.shape}, "
                f"expected {(nt + 1, *self.grid.shape)}"
            )
        ops = self.operators

        def rhs(j: int) -> np.ndarray:
            if state_gradients is not None:
                grad_rho = state_gradients.level(j)
            else:
                grad_rho = ops.gradient(state_history[j])
            return -(
                perturbation[0] * grad_rho[0]
                + perturbation[1] * grad_rho[1]
                + perturbation[2] * grad_rho[2]
            )

        history = np.zeros((nt + 1, *self.grid.shape), dtype=self.grid.dtype)
        with trace_span("transport.incremental_state", nt=nt):
            rhs_old = rhs(0)
            for j in range(nt):
                rhs_new = rhs(j + 1)
                history[j + 1] = plan.forward_stepper.step(
                    history[j], source_old=rhs_old, source_new=rhs_new
                )
                rhs_old = rhs_new
        return history

    # ------------------------------------------------------------------ #
    # incremental adjoint equation (Eq. 5c)
    # ------------------------------------------------------------------ #
    def solve_incremental_adjoint(
        self,
        plan: TransportPlan,
        terminal: np.ndarray,
        perturbation: Optional[np.ndarray] = None,
        adjoint_history: Optional[np.ndarray] = None,
        gauss_newton: bool = True,
    ) -> np.ndarray:
        """Solve the incremental adjoint equation backward in time.

        Full Newton solves ``-d lam~/dt - div(lam~ v + lam v~) = 0``; the
        Gauss-Newton approximation drops the term involving the adjoint
        ``lam`` (Sec. II-B).  The terminal condition is
        ``lam~(., 1) = -rho~(., 1)`` (Eq. 5d).

        Parameters
        ----------
        plan:
            Transport plan of the outer velocity ``v``.
        terminal:
            Terminal condition at ``t = 1``.
        perturbation:
            The Hessian direction ``v~``; required for the full Newton term.
        adjoint_history:
            History of the first-order adjoint ``lam``; required for the full
            Newton term.
        gauss_newton:
            Drop the ``lam``-dependent source (default, as in the paper's
            experiments).
        """
        terminal = np.asarray(terminal, dtype=self.grid.dtype)
        if terminal.shape != self.grid.shape:
            raise ValueError(
                f"terminal condition has shape {terminal.shape}, expected {self.grid.shape}"
            )
        nt = plan.num_time_steps
        ops = self.operators
        div_v = plan.divergence

        newton_sources: Optional[np.ndarray] = None
        if not gauss_newton:
            if perturbation is None or adjoint_history is None:
                raise ValueError(
                    "full Newton requires both the perturbation and the adjoint history"
                )
            perturbation = check_velocity_shape(perturbation, self.grid.shape)
            if adjoint_history.shape != (nt + 1, *self.grid.shape):
                raise ValueError(
                    f"adjoint history has shape {adjoint_history.shape}, "
                    f"expected {(nt + 1, *self.grid.shape)}"
                )
            # div(lam(t) v~) for every time level, computed spectrally with
            # the whole time axis fused into one batched transform pair
            newton_sources = ops.divergence_many(
                adjoint_history[:, None] * perturbation[None]
            )

        history = np.empty((nt + 1, *self.grid.shape), dtype=self.grid.dtype)
        history[nt] = terminal
        with trace_span("transport.incremental_adjoint", nt=nt, gauss_newton=gauss_newton):
            for j in range(nt, 0, -1):
                lam_tilde = history[j]
                source_old = np.zeros_like(lam_tilde)
                if not plan.is_divergence_free:
                    source_old = lam_tilde * div_v
                if newton_sources is not None:
                    source_old = source_old + newton_sources[j]

                extra_new = newton_sources[j - 1] if newton_sources is not None else 0.0

                if plan.is_divergence_free and newton_sources is None:
                    history[j - 1] = plan.backward_stepper.step(lam_tilde)
                else:
                    def source_new(predictor: np.ndarray) -> np.ndarray:
                        value = np.zeros_like(predictor)
                        if not plan.is_divergence_free:
                            value = predictor * div_v
                        return value + extra_new

                    history[j - 1] = plan.backward_stepper.step(
                        lam_tilde, source_old=source_old, source_new=source_new
                    )
        return history

    # ------------------------------------------------------------------ #
    # time quadrature
    # ------------------------------------------------------------------ #
    def time_integral(self, integrand_history: np.ndarray) -> np.ndarray:
        """Trapezoidal quadrature of a time history over ``t in [0, 1]``.

        Used for the body force ``b = int_0^1 lam grad rho dt`` of the
        reduced gradient (Eq. 4) and its incremental counterpart (Eq. 5).
        """
        integrand_history = np.asarray(integrand_history)
        nt = integrand_history.shape[0] - 1
        if nt < 1:
            raise ValueError("history must contain at least two time levels")
        weights = np.full(nt + 1, 1.0, dtype=np.float64)
        weights[0] = 0.5
        weights[-1] = 0.5
        weights /= nt
        return np.tensordot(weights, integrand_history, axes=(0, 0))
