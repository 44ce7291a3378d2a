"""Semi-Lagrangian characteristic tracing and single-step update.

Implements the scheme of Sec. III-B2 (Eqs. 6 and 7 of the paper):

1. For every regular grid point ``x`` the departure point ``X`` is found with
   a two-stage (RK2 / explicit midpoint) backward trace::

       X* = x - dt * v(x)
       X  = x - dt/2 * (v(x) + v(X*))

   ``v(X*)`` is interpolated because ``X*`` is off the grid.

2. The transported scalar ``nu`` with source ``f`` is then updated with the
   Heun (explicit trapezoidal) rule along the characteristic::

       nu0(X)       = interp(nu(., 0), X)
       f0(X)        = interp(f(., 0), X)
       nu*(x)       = nu0(X) + dt * f0(X)
       f*(x)        = f evaluated at the new time on the grid
       nu(x, dt)    = nu0(X) + dt/2 * (f0(X) + f*(x))

   For a pure advection (``f = 0``) this collapses to one interpolation.

The departure points depend only on the (stationary) velocity and the time
step, so they are computed once per velocity and re-used for every time step
and every transported field — the "interpolation planner"/scatter phase of
Sec. III-C2.  The stepper goes one step further and caches the full
**gather plan** (wrapped coordinates + stencil plan, see
:mod:`repro.transport.kernels`) for its departure points, so repeated steps
never re-trace or re-plan; fields that are interpolated
together (the transported quantity and its source, the three velocity
components of the RK2 trace) move through one batched gather pass.  The
same machinery handles the adjoint equations after the time reversal
``tau = 1 - t`` by passing ``-v``.

The departure points and their gather plan live in the shared
**plan pool** (:mod:`repro.runtime.plan_pool`), keyed by the *content* of
``(grid, velocity, dt, kernel, backend)``: any stepper built for a velocity
the pool has already planned — the line-search trial that the next
``linearize`` revisits, a ``beta``-continuation warm start, the deformation
map of a just-solved registration — reuses the warm plan instead of
re-tracing and re-planning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.runtime.plan_pool import array_fingerprint, get_plan_pool
from repro.spectral.grid import Grid
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import GatherPlan
from repro.utils.validation import check_velocity_shape


def compute_departure_points(
    grid: Grid,
    velocity: np.ndarray,
    dt: float,
    interpolator: Optional[PeriodicInterpolator] = None,
) -> np.ndarray:
    """Backward-traced departure points ``X`` for every grid point (Eq. 6).

    Parameters
    ----------
    grid:
        Regular grid whose nodes are the arrival points ``x``.
    velocity:
        Stationary velocity field ``v`` stacked as ``(3, N1, N2, N3)``.
    dt:
        Time-step size.
    interpolator:
        Interpolator used for ``v(X*)``; a tricubic B-spline interpolator is
        created if not supplied.

    Returns
    -------
    numpy.ndarray
        Departure coordinates of shape ``(3, N1, N2, N3)``.  They are *not*
        wrapped into the periodic box; the interpolators wrap internally.
    """
    velocity = check_velocity_shape(velocity, grid.shape)
    if dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    interpolator = interpolator or PeriodicInterpolator(grid)
    x = grid.coordinate_stack()
    x_star = x - dt * velocity
    v_at_star = interpolator.interpolate_vector(velocity, x_star)
    return x - 0.5 * dt * (velocity + v_at_star)


@dataclass
class DeparturePlanData:
    """Pooled per-velocity planning data: departure points + gather plan.

    The unit the plan pool stores and accounts for: the backward-traced
    departure points of one ``(velocity, dt)`` pair and the gather plan
    (wrapped coordinates + cached stencil) of one interpolation kernel /
    backend at those points.
    """

    points: np.ndarray
    plan: GatherPlan

    @property
    def nbytes(self) -> int:
        """Exact array payload in bytes (plan-pool accounting)."""
        return self.points.nbytes + self.plan.nbytes


@dataclass
class SemiLagrangianStepper:
    """One semi-Lagrangian time step for a scalar transport equation.

    The stepper is bound to a fixed velocity and time step; the departure
    points are computed once at construction (the paper's "scatter"/planning
    phase) and shared by every call to :meth:`step`.

    Parameters
    ----------
    grid:
        Computational grid.
    velocity:
        Stationary velocity of the transport equation
        ``d nu/dt + velocity . grad nu = f``.
    dt:
        Time-step size.
    interpolator:
        Off-grid interpolation kernel (tricubic by default).
    departure_points, departure_plan:
        Precomputed planning data (both must be given together); when
        omitted the stepper fetches them from the shared plan pool —
        building them only if no prior stepper planned the same
        ``(grid, velocity, dt, kernel, backend)`` content.
    use_plan_pool:
        Set to ``False`` to bypass the pool entirely (always rebuild).
    """

    grid: Grid
    velocity: np.ndarray
    dt: float
    interpolator: Optional[PeriodicInterpolator] = None
    departure_points: Optional[np.ndarray] = None
    departure_plan: Optional[GatherPlan] = None
    use_plan_pool: bool = True

    def __post_init__(self) -> None:
        self.velocity = check_velocity_shape(self.velocity, self.grid.shape)
        if self.interpolator is None:
            self.interpolator = PeriodicInterpolator(self.grid)
        if (self.departure_points is None) != (self.departure_plan is None):
            raise ValueError(
                "departure_points and departure_plan must be provided together "
                "(one without the other would silently be rebuilt and ignored)"
            )
        if self.departure_points is None:
            if self.use_plan_pool:
                data = get_plan_pool().get(self._pool_key(), self._build_departure_data)
            else:
                data = self._build_departure_data()
            self.departure_points = data.points
            self.departure_plan = data.plan

    # ------------------------------------------------------------------ #
    def _pool_key(self) -> Tuple:
        """Content key of this stepper's planning data in the shared pool.

        Only the content the plan is built from: the pool budget is not part
        of it, so a re-sized pool still serves its warm plans.
        """
        return (
            "semi-lagrangian-departure",
            self.grid,
            float(self.dt),
            self.interpolator.method,
            self.interpolator.backend_name,
            array_fingerprint(self.velocity),
        )

    def _build_departure_data(self) -> DeparturePlanData:
        """Trace the characteristics and plan the gather (the pool's miss path)."""
        points = compute_departure_points(self.grid, self.velocity, self.dt, self.interpolator)
        # the paper's planning phase: the gather stencil of the departure
        # points is computed once and reused by every step of every field
        plan = self.interpolator.plan(points)
        # pooled entries are shared across steppers; guard them against
        # accidental in-place mutation by any consumer
        points.setflags(write=False)
        plan.coordinates.setflags(write=False)
        return DeparturePlanData(points=points, plan=plan)

    # ------------------------------------------------------------------ #
    def interpolate_at_departure(self, field: np.ndarray) -> np.ndarray:
        """Interpolate a grid field at the cached departure points."""
        return self.interpolator.interpolate_planned(field, self.departure_plan)

    def interpolate_many_at_departure(self, fields: np.ndarray) -> np.ndarray:
        """Batched interpolation of a ``(B, N1, N2, N3)`` stack at the plan."""
        return self.interpolator.interpolate_many_planned(fields, self.departure_plan)

    def step(
        self,
        nu: np.ndarray,
        source_old: Optional[np.ndarray] = None,
        source_new: Optional[Callable[[np.ndarray], np.ndarray] | np.ndarray] = None,
    ) -> np.ndarray:
        """Advance ``nu`` by one time step.

        Parameters
        ----------
        nu:
            Field at the current time level, on the grid.
        source_old:
            Source field ``f(., t_n)`` on the grid (or None for pure
            advection).
        source_new:
            Either the source field ``f(., t_{n+1})`` on the grid, a callable
            mapping the predictor ``nu*`` to the source (for sources that
            depend on the transported quantity itself, e.g. ``f = nu div v``),
            or None.  Ignored when *source_old* is None and *source_new* is
            None.

        Returns
        -------
        numpy.ndarray
            ``nu`` at the next time level on the grid.
        """
        nu = np.asarray(nu)
        if nu.shape != self.grid.shape:
            raise ValueError(f"field has shape {nu.shape}, expected {self.grid.shape}")

        if source_old is None and source_new is None:
            # pure advection: nu(x, t+dt) = nu(X, t)
            return self.interpolate_at_departure(nu)

        if source_old is None:
            nu_dep = self.interpolate_at_departure(nu)
            f_dep = np.zeros_like(nu_dep)
        else:
            # one batched gather for the transported field and its source
            nu_dep, f_dep = self.interpolate_many_at_departure(
                np.stack([nu, np.asarray(source_old)], axis=0)
            )

        predictor = nu_dep + self.dt * f_dep

        if source_new is None:
            f_new = np.zeros_like(predictor)
        elif callable(source_new):
            f_new = np.asarray(source_new(predictor))
        else:
            f_new = np.asarray(source_new)
        if f_new.shape != self.grid.shape:
            raise ValueError(
                f"source has shape {f_new.shape}, expected {self.grid.shape}"
            )
        return nu_dep + 0.5 * self.dt * (f_dep + f_new)

    def step_many(
        self,
        fields: np.ndarray,
        sources_old: Optional[np.ndarray] = None,
        sources_new: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Advance a ``(B, N1, N2, N3)`` stack of fields by one time step.

        The batched counterpart of :meth:`step` for sources given as grid
        arrays: the fields and their old-time sources are interpolated at
        the shared departure points in a *single* gather pass through the
        cached plan (e.g. the three displacement components and the three
        velocity components of the deformation-map transport).
        """
        fields = np.asarray(fields)
        if sources_old is None and sources_new is None:
            return self.interpolate_many_at_departure(fields)

        batch = fields.shape[0]
        if sources_old is None:
            dep = self.interpolate_many_at_departure(fields)
            nu_dep, f_dep = dep, np.zeros_like(dep)
        else:
            sources_old = np.asarray(sources_old)
            if sources_old.shape != fields.shape:
                raise ValueError(
                    f"sources have shape {sources_old.shape}, expected {fields.shape}"
                )
            dep = self.interpolate_many_at_departure(
                np.concatenate([fields, sources_old], axis=0)
            )
            nu_dep, f_dep = dep[:batch], dep[batch:]

        if sources_new is None:
            f_new = np.zeros_like(nu_dep)
        else:
            f_new = np.asarray(sources_new)
            if f_new.shape != fields.shape:
                raise ValueError(
                    f"sources have shape {f_new.shape}, expected {fields.shape}"
                )
        return nu_dep + 0.5 * self.dt * (f_dep + f_new)

    # ------------------------------------------------------------------ #
    def cfl_number(self) -> float:
        """CFL number ``max |v_j| dt / h_j`` of this stepper.

        The semi-Lagrangian scheme is unconditionally stable, so this is a
        diagnostic only; the paper relates the accuracy (choice of ``nt``) to
        the CFL number (Sec. IV-A3).
        """
        h = np.asarray(self.grid.spacing)
        vmax = np.max(np.abs(self.velocity.reshape(3, -1)), axis=1)
        return float(np.max(vmax * self.dt / h))
