"""Damped least-squares refinement for tuples of group elements.

The engine minimizes a caller-supplied residual over products of unit
quaternions, given its exact Jacobian in left tangent coordinates (column
3i + a moves element i by the a-th imaginary unit), which tangent_jacobian
builds by complex steps from a residual on quaternion 4-tuples.  Updates
are tangent steps applied by left multiplication with exp of a pure
quaternion, then renormalization (the retraction).  Levenberg-Marquardt
damping grows when a step fails to reduce the residual.  The damped step
is solved in the Jacobian's SVD basis without its near-null directions
(the solution set's own tangents, gauge included), so it is the
minimum-norm step and rounding in the residual does not push it along
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .su2 import SU2, exp_tangent

__all__ = ["RefineResult", "refine_elements", "tangent_jacobian"]

ResidualFn = Callable[[list[SU2]], np.ndarray]

_STEP = 1e-30  # f(x + i h v) = f(x) + i h f'(x) v + O(h^2): no cancellation

# At the start of probe's projections every singular value lies above
# 6e-7 s_max or, an exact null direction up to rounding, below 2e-13 s_max.
_RANK_CUTOFF = 1e-9


@dataclass(frozen=True)
class RefineResult:
    elements: tuple[SU2, ...]
    residual: float
    converged: bool
    iterations: int


def _tangent_steps(elements: Sequence[SU2]) -> np.ndarray:
    """Shape (k, 4, 3k): in column 3i + a, element i is el + i h (e_a el), e_a
    the a-th imaginary unit; `moved` writes out e_a el (qmul costs 6x as much)."""
    q = np.array([el.to_list() for el in elements])
    w, x, y, z = q.T
    k = len(q)
    steps = np.zeros((k, 4, k, 3), dtype=complex)
    moved = np.array([[-x, w, -z, y], [-y, z, w, -x], [-z, -y, x, w]]).T
    steps[range(k), :, range(k)] = 1j * _STEP * moved
    return q[:, :, None] + steps.reshape(k, 4, 3 * k)


def tangent_jacobian(gaps: Callable, elements: Sequence[SU2]) -> np.ndarray:
    """Jacobian, in the left tangent coordinates of refine_elements, of a
    residual written as gaps(q), q the elements' quaternion 4-tuples and
    gaps analytic in them: one complex-step run over all 3k directions."""
    return np.asarray(gaps(_tangent_steps(elements))).imag / _STEP


def _retract(elements: list[SU2], delta: np.ndarray) -> list[SU2]:
    return [
        exp_tangent(delta[3 * i : 3 * i + 3]) * el for i, el in enumerate(elements)
    ]


def refine_elements(
    elements: Sequence[SU2],
    residual_fn: ResidualFn,
    jacobian_fn: ResidualFn,
    *,
    tol: float = 1e-11,
    max_iter: int = 100,
) -> RefineResult:
    """Drive the 2-norm of residual_fn below tol, starting from elements.

    jacobian_fn(elements) is the (len(residual), 3 * len(elements))
    derivative of residual_fn along the left tangent directions.
    """
    current = list(elements)
    r = np.asarray(residual_fn(current), dtype=float)
    best = float(np.linalg.norm(r))
    lam = 1e-4
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if best <= tol:
            break
        u, s, vt = np.linalg.svd(jacobian_fn(current), full_matrices=False)
        keep = s > _RANK_CUTOFF * s[0]
        s, vt, ur = s[keep], vt[keep], u[:, keep].T @ r
        improved = False
        for _ in range(16):
            delta = -vt.T @ (s / (s * s + lam) * ur)
            candidate = _retract(current, delta)
            rc = np.asarray(residual_fn(candidate), dtype=float)
            nc = float(np.linalg.norm(rc))
            if nc < best:
                current, r, best = candidate, rc, nc
                lam = max(lam / 3.0, 1e-12)
                improved = True
                break
            lam *= 10.0
        if not improved:
            break
    return RefineResult(tuple(current), best, best <= tol, iterations)
