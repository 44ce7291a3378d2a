"""Distributed semi-Lagrangian interpolation (the "scatter" phase).

Implements Algorithm 1 of the paper.  For every regular grid point ``x``
owned by rank ``r`` the semi-Lagrangian scheme needs the field value at the
departure point ``X``, which may fall into the subdomain of a different rank
(the *owner*).  The plan therefore

1. computes, for every local departure point, the owner rank
   (``owner(X)``),
2. sends the points to their owners (``alltoallv`` — the scatter phase,
   done once per velocity field since the points only change when the
   velocity changes),
3. lets every owner evaluate the tricubic interpolant on its ghosted local
   block (line 3 of Algorithm 1; the ghost exchange is line 1),
4. returns the interpolated values to the ranks that asked for them
   (``alltoallv``, once per transported field per time step).

The result is numerically identical to the serial
:class:`repro.transport.interpolation.PeriodicInterpolator` with the
``"catmull_rom"`` kernel, which is what the test-suite asserts.

The whole planning product — the owner map, the ``alltoallv`` routing
tables (which points each owner received from each requester) and the
per-owner non-periodic stencil plans — depends only on the departure
points, the grid and the decomposition, so since PR 4 it is pooled **as
one unit** (:class:`ScatterPlanData`) in the shared plan pool
(:mod:`repro.runtime.plan_pool`), keyed by content.  Re-creating a plan
for an unchanged velocity — a re-built distributed solver, the backward
characteristics of an adjoint sweep — is a single warm hit with *zero*
``alltoallv`` setup: no owner computation, no point scatter, no stencil
builds.  Every ``interpolate`` call then only exchanges ghosts and runs
the cached stencils, giving the distributed path the same per-velocity
amortization as the serial steppers, now including the routing tables
the alltoallv setup used to rebuild per plan.

With the setup amortized, the per-*field* ghost exchange became the
dominant distributed overhead, so since PR 5 the evaluation side batches
too: :meth:`ScatterInterpolationPlan.interpolate_many` ships a whole
``(B, ...)`` stack of fields through **one** ghost-exchange round and
**one** value-return ``alltoallv`` — the same message counts as a single
field with ``B`` times the payload — mirroring how the serial
``interpolate_many`` batches gathers.  The scalar :meth:`interpolate` is
the ``B = 1`` case of the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.ghost import exchange_ghost_layers_batched
from repro.parallel.pencil import PencilDecomposition
from repro.runtime.plan_pool import array_fingerprint, get_plan_pool
from repro.spectral.grid import Grid
from repro.transport.kernels import StencilPlan, build_stencil_plan, execute_stencil_plan

#: Halo width required by the 4-point (tricubic) stencil.
GHOST_WIDTH = 2

#: Leading key element (= plan-pool tag) of pooled scatter-plan entries.
SCATTER_PLAN_TAG = "scatter-plan"


@dataclass
class ScatterPlanData:
    """The pooled content of one scatter plan (communicator independent).

    Everything the ``alltoallv`` setup produces for one set of departure
    points: the owner of every local point, the routing tables (the point
    coordinates each owner received, per requester — exactly the layout the
    value return travels back along) and the per-owner ghost-block stencil
    plans.  None of it references the communicator, so one pooled entry
    serves any number of re-created :class:`ScatterInterpolationPlan`
    instances, each with its own ledger.

    Because the product is pooled as one unit, it is also evicted (or
    oversize-rejected) as one unit: a plan larger than the whole pool
    budget caches nothing, and every re-creation then redoes the full
    setup.  Size ``REPRO_PLAN_POOL_BYTES`` for distributed runs accordingly
    — one entry is roughly ``56 * N^3`` bytes (owner map, routing-table
    points and ghost-block coordinates) plus one chunk of stencil scratch
    per owner/requester pair.
    """

    owner_of_point: List[np.ndarray]
    points_by_owner: List[List[np.ndarray]]
    stencil_plans: List[List[Optional[StencilPlan]]]
    stencil_builds: int

    @property
    def nbytes(self) -> int:
        """Exact array payload in bytes (plan-pool accounting).

        Stencil plans only report their one-chunk scratch cap and *borrow*
        their coordinate buffers — here those buffers are owned by this
        entry (they are the shifted ghost-block coordinates, not the
        routing-table points), so they are charged explicitly.
        """
        total = sum(owner.nbytes for owner in self.owner_of_point)
        for rows in self.points_by_owner:
            total += sum(np.asarray(chunk).nbytes for chunk in rows)
        for rows in self.stencil_plans:
            for plan in rows:
                if plan is None:
                    continue
                total += plan.nbytes + plan.coordinates.nbytes
        return total


@dataclass
class ScatterInterpolationPlan:
    """Owner/worker interpolation plan for a fixed set of departure points.

    Parameters
    ----------
    grid:
        Global grid (provides the spacing used to map physical coordinates
        to fractional grid indices).
    decomposition:
        Pencil decomposition of the grid (input distribution, axes 0 and 1).
    comm:
        Simulated communicator (charged for the scatter and the ghost
        exchange).
    departure_points:
        Per-rank arrays of physical coordinates, shape ``(3, M_r)``; the
        points rank ``r`` needs values at (one per locally owned grid point
        in the semi-Lagrangian scheme, but any point set is accepted).
    use_plan_pool:
        Set to ``False`` to bypass the shared pool (always rebuild the
        routing tables and stencils).

    After construction, ``pool_hit`` records whether the whole planning
    product came warm from the pool (in which case the construction did no
    ``alltoallv`` and ``stencil_builds`` is 0).
    """

    grid: Grid
    decomposition: PencilDecomposition
    comm: SimulatedCommunicator
    departure_points: Sequence[np.ndarray]
    use_plan_pool: bool = True
    pool_hit: bool = field(init=False, default=False)
    _data: ScatterPlanData = field(init=False, repr=False)

    def __post_init__(self) -> None:
        deco = self.decomposition
        if len(self.departure_points) != deco.num_tasks:
            raise ValueError(
                f"expected one point array per rank ({deco.num_tasks}), "
                f"got {len(self.departure_points)}"
            )
        points: List[np.ndarray] = []
        for rank in range(deco.num_tasks):
            pts = np.asarray(self.departure_points[rank], dtype=np.float64)
            if pts.ndim != 2 or pts.shape[0] != 3:
                raise ValueError(
                    f"departure points of rank {rank} must have shape (3, M), got {pts.shape}"
                )
            points.append(np.ascontiguousarray(pts))

        # the entire planning product is keyed by content: same grid, same
        # decomposition, same departure points -> same routing tables and
        # stencils, no matter which solver or communicator asks
        built: List[bool] = []

        def build() -> ScatterPlanData:
            built.append(True)
            return self._build_plan_data(points)

        if self.use_plan_pool:
            key = (
                SCATTER_PLAN_TAG,
                self.grid,
                self.decomposition,
                array_fingerprint(*points),
            )
            data = get_plan_pool().get(key, build)
        else:
            data = build()
        self.pool_hit = not built
        # builds executed during *this* construction (0 on a warm hit)
        self.stencil_builds = data.stencil_builds if built else 0
        self._data = data

    def _build_plan_data(self, points: List[np.ndarray]) -> ScatterPlanData:
        """Owner map + alltoallv routing tables + stencils (the miss path)."""
        deco = self.decomposition
        spacing = np.asarray(self.grid.spacing)[:, None]
        shape = np.asarray(self.grid.shape, dtype=np.float64)[:, None]

        owner_of_point: List[np.ndarray] = []
        send: List[List[np.ndarray]] = [
            [np.empty((3, 0)) for _ in range(deco.num_tasks)] for _ in range(deco.num_tasks)
        ]
        for rank in range(deco.num_tasks):
            q = np.mod(points[rank] / spacing, shape)  # fractional global grid indices
            # floating-point mod of a value that is a tiny negative multiple of
            # the period can return exactly `shape`; wrap it back to 0
            q = np.where(q >= shape, q - shape, q)
            owner = deco.owner_of_indices(np.floor(q).astype(np.intp) % shape.astype(np.intp))
            owner_of_point.append(owner)
            for other in range(deco.num_tasks):
                send[rank][other] = q[:, owner == other]
        # scatter phase: ship the points to their owners (once per velocity
        # *content* — a pooled plan never repeats this)
        points_by_owner = self.comm.alltoallv(send, category="interp_scatter")

        # planning phase: build each owner's local stencil plans once, right
        # next to the routing tables they belong to
        stencil_builds = 0
        stencil_plans: List[List[Optional[StencilPlan]]] = [
            [None] * deco.num_tasks for _ in range(deco.num_tasks)
        ]
        for owner in range(deco.num_tasks):
            slices = deco.local_slices(owner, (0, 1))
            offsets = np.array([s.start or 0 for s in slices], dtype=np.float64)[:, None]
            extended_shape = tuple(
                n + 2 * GHOST_WIDTH for n in deco.local_shape(owner, (0, 1))
            )
            for requester in range(deco.num_tasks):
                q = np.asarray(points_by_owner[owner][requester])
                if q.size == 0:
                    continue
                # the owner test guarantees floor(q) lies in the owner's index
                # range, so the shift into the ghost-extended block needs no
                # periodic unwrapping
                local = q - offsets + GHOST_WIDTH
                stencil_builds += 1
                stencil_plans[owner][requester] = build_stencil_plan(
                    extended_shape, local, "catmull_rom", periodic=False
                )
        return ScatterPlanData(
            owner_of_point=owner_of_point,
            points_by_owner=points_by_owner,
            stencil_plans=stencil_plans,
            stencil_builds=stencil_builds,
        )

    # ------------------------------------------------------------------ #
    @property
    def num_tasks(self) -> int:
        return self.decomposition.num_tasks

    def local_point_counts(self) -> List[int]:
        """Number of points each owner has to interpolate (load-balance view)."""
        return [
            int(sum(np.asarray(chunk).shape[1] for chunk in self._data.points_by_owner[rank]))
            for rank in range(self.num_tasks)
        ]

    # ------------------------------------------------------------------ #
    def interpolate_many(self, block_stacks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Interpolate a whole stack of distributed fields in one round trip.

        The distributed twin of the serial ``interpolate_many``: every rank
        contributes a ``(B, n1, n2, n3)`` stack of local blocks (one common
        batch size ``B``), and all ``B`` fields move through **one** ghost
        exchange round and **one** value-return ``alltoallv`` — the same
        message counts as a single field, with ``B`` times the payload.
        Each owner then runs its cached non-periodic stencil plans once per
        requester for the whole batch (one index computation serves every
        field, the serial batching win).  Per-field values are bitwise
        identical to ``B`` separate :meth:`interpolate` calls; only the
        ledger's latency story changes.

        Parameters
        ----------
        block_stacks:
            Per-rank ``(B, n1, n2, n3)`` stacks (input distribution) of the
            fields to interpolate.

        Returns
        -------
        list of numpy.ndarray
            For every rank, a ``(B, M_r)`` array of interpolated values at
            its original departure points, in their original order.
        """
        deco = self.decomposition
        if len(block_stacks) != deco.num_tasks:
            raise ValueError(
                f"expected {deco.num_tasks} block stacks, got {len(block_stacks)}"
            )
        stacks = [np.asarray(stack) for stack in block_stacks]
        for rank, stack in enumerate(stacks):
            if stack.ndim != 4:
                raise ValueError(
                    f"block stack of rank {rank} must be (B, n1, n2, n3), "
                    f"got shape {stack.shape}"
                )
        batch = stacks[0].shape[0]

        # line 1 of Algorithm 1: synchronize the ghost layers — one
        # neighbour round for the whole batch (shape validation included)
        extended = exchange_ghost_layers_batched(stacks, deco, GHOST_WIDTH, self.comm)

        # line 3: every owner runs its cached (non-periodic) stencil plans —
        # the same registered kernel the serial backends evaluate, planned
        # once per departure-point content instead of per call; the whole
        # batch gathers through one pass per (owner, requester) plan
        stencil_plans = self._data.stencil_plans
        results_back: List[List[np.ndarray]] = [
            [np.empty((batch, 0)) for _ in range(deco.num_tasks)]
            for _ in range(deco.num_tasks)
        ]
        for owner in range(deco.num_tasks):
            flat_blocks = np.ascontiguousarray(extended[owner], dtype=np.float64).reshape(
                batch, -1
            )
            for requester in range(deco.num_tasks):
                plan = stencil_plans[owner][requester]
                if plan is None:
                    continue
                results_back[owner][requester] = execute_stencil_plan(flat_blocks, plan)

        # line 4: one alltoallv returns every field's values together
        returned = self.comm.alltoallv(results_back, category="interp_return")

        output: List[np.ndarray] = []
        for rank in range(deco.num_tasks):
            owner = self._data.owner_of_point[rank]
            n_points = owner.shape[0]
            values = np.empty((batch, n_points), dtype=np.float64)
            for source in range(deco.num_tasks):
                mask = owner == source
                if np.any(mask):
                    values[:, mask] = returned[rank][source]
            output.append(values)
        return output

    def interpolate(self, blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Interpolate a distributed scalar field at the planned points.

        The single-field (``B = 1``) case of :meth:`interpolate_many` —
        same code path, same ledger charges, same bits.

        Parameters
        ----------
        blocks:
            Per-rank local blocks (input distribution) of the field to
            interpolate.

        Returns
        -------
        list of numpy.ndarray
            For every rank, the interpolated values at its original
            departure points, in their original order.
        """
        deco = self.decomposition
        if len(blocks) != deco.num_tasks:
            raise ValueError(f"expected {deco.num_tasks} blocks, got {len(blocks)}")
        stacks = []
        for rank, block in enumerate(blocks):
            block = np.asarray(block)
            if block.ndim != 3:
                raise ValueError(
                    f"block of rank {rank} must be 3-dimensional, got shape {block.shape}"
                )
            stacks.append(block[None])
        return [values[0] for values in self.interpolate_many(stacks)]

    def interpolate_global(self, global_field: np.ndarray) -> List[np.ndarray]:
        """Convenience wrapper: scatter a global field, then interpolate."""
        blocks = self.decomposition.scatter(np.asarray(global_field))
        return self.interpolate(blocks)

    def interpolate_many_global(self, global_fields: np.ndarray) -> List[np.ndarray]:
        """Convenience wrapper: scatter a ``(B, N1, N2, N3)`` stack, batch it."""
        global_fields = np.asarray(global_fields)
        if global_fields.ndim != 4:
            raise ValueError(
                f"global fields must be stacked as (B, N1, N2, N3), "
                f"got shape {global_fields.shape}"
            )
        per_field_blocks = [self.decomposition.scatter(field) for field in global_fields]
        stacks = [
            np.stack([blocks[rank] for blocks in per_field_blocks], axis=0)
            for rank in range(self.decomposition.num_tasks)
        ]
        return self.interpolate_many(stacks)
