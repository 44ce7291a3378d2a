"""The state-history gradient stack of one Newton iterate.

The paper's cost model (Sec. III-C4) prices one Gauss-Newton Hessian
mat-vec at ``8 nt`` FFTs — and almost all of those transforms are spectral
gradients of the *state history* ``grad rho(., t_j)``, which is **fixed for
the whole Newton iterate**: the incremental-state right-hand side and the
body-force quadrature of every PCG iteration re-derive the exact same
``nt + 1`` gradient fields, and the reduced-gradient evaluation derives
them once more.  With 5-50 Krylov iterations per Newton step that is the
single largest pile of redundant FLOPs in the solver.

So :meth:`repro.core.problem.RegistrationProblem.linearize` builds those
gradients **once per outer iterate** with :func:`build_gradient_stack` and
stores the ``(nt + 1, 3, N1, N2, N3)`` array on the iterate; every consumer
indexes it.  The stack is about 3x the state history, so a live iterate
holds the state and adjoint histories plus the stack (5x the state
history).  :func:`accumulate_weighted_products` is the fused body-force
quadrature shared by the reduced gradient and the Hessian mat-vec.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.observability.trace import trace_span
from repro.spectral.operators import SpectralOperators

__all__ = [
    "accumulate_weighted_products",
    "build_gradient_stack",
    "trapezoid_weights",
]


def trapezoid_weights(nt: int) -> np.ndarray:
    """Trapezoidal quadrature weights on ``nt + 1`` uniform time levels."""
    weights = np.full(nt + 1, 1.0 / nt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return weights


def build_gradient_stack(
    operators: SpectralOperators, state_history: np.ndarray
) -> np.ndarray:
    """Materialize ``grad rho`` for every time level into one stack.

    Built level by level with
    :meth:`~repro.spectral.operators.SpectralOperators.gradient`, so every
    stored level is bitwise equal to a fresh per-level call on every FFT
    backend (the batched ``gradient_many`` is only ``allclose`` to it).
    The stack is marked read-only: every mat-vec of the iterate shares it.
    """
    num_levels = state_history.shape[0]
    stack = np.empty((num_levels, 3, *state_history.shape[1:]), dtype=state_history.dtype)
    with trace_span("gradients.build", levels=num_levels, count=num_levels):
        for j in range(num_levels):
            stack[j] = operators.gradient(state_history[j])
    stack.flags.writeable = False
    return stack


def accumulate_weighted_products(
    weights: np.ndarray,
    pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fused quadrature ``sum_j w_j * scalar_j * grad_j`` over time levels.

    Each pair is ``(scalar_history, gradient_stack)`` with shapes
    ``(nt+1, N1, N2, N3)`` and ``(nt+1, 3, N1, N2, N3)``; the result is the
    accumulated ``(3, N1, N2, N3)`` vector field (the body force of Eq. 4,
    or its incremental counterpart of Eq. 5).  The weight application and
    the per-level products run through two pre-allocated scratch buffers —
    no fresh temporaries per level — in exactly the historical arithmetic
    order (``(w_j * scalar_j) * grad_j``, accumulated in time order), so
    the fused path is bitwise identical to the loop it replaced.
    """
    if not pairs:
        raise ValueError("at least one (scalar_history, gradient_stack) pair is required")
    num_levels = len(weights)
    for scalars, stack in pairs:
        if scalars.shape[0] != num_levels or stack.shape[0] != num_levels:
            raise ValueError(
                f"histories must carry {num_levels} time levels, got "
                f"{scalars.shape[0]} scalars / {stack.shape[0]} gradients"
            )
    shape = pairs[0][0].shape[1:]
    dtype = pairs[0][0].dtype
    if out is None:
        out = np.zeros((3, *shape), dtype=dtype)
    weighted_scalar = np.empty(shape, dtype=dtype)
    term = np.empty_like(out)
    for j in range(num_levels):
        for scalars, stack in pairs:
            np.multiply(weights[j], scalars[j], out=weighted_scalar)
            np.multiply(weighted_scalar[None], stack[j], out=term)
            out += term
    return out
