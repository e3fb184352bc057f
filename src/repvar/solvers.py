"""Damped least-squares refinement for tuples of group elements.

The engine minimizes a caller-supplied residual over products of unit
quaternions.  The residual is written once, as gaps(q, ops) over the
elements' quaternion 4-tuples q with su2's `ops`: it is evaluated on
floats, and on complex steps for its exact Jacobian in left tangent
coordinates (column 3i + a moves element i by the a-th imaginary unit),
which tangent_jacobian builds.  Updates are tangent steps applied by left
multiplication with exp of a pure quaternion, then renormalization (the
retraction).  Levenberg-Marquardt damping grows when a step fails to
reduce the residual.  The damped step is solved in the Jacobian's SVD
basis without its near-null directions (the solution set's own tangents,
gauge included), so it is the minimum-norm step and rounding in the
residual does not push it along them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .su2 import COMPLEX_OPS, FLOAT_OPS, SU2, exp_tangent

__all__ = ["RefineResult", "refine_elements", "tangent_jacobian"]

_STEP = 1e-30  # f(x + i h v) = f(x) + i h f'(x) v + O(h^2): no cancellation

# Projecting the per-coordinate geodesic midpoints of 768 same-label pairs
# 0.2 rad apart (the bench's probe-local pairs at seeds 1-3), every singular
# value at the start lies above 3e-6 s_max or, an exact null direction up
# to rounding, below 2e-16 s_max.
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
    residual gaps(q, ops) analytic in the elements' quaternion 4-tuples q:
    one run on COMPLEX_OPS over all 3k directions."""
    return np.asarray(gaps(_tangent_steps(elements), COMPLEX_OPS)).imag / _STEP


def _retract(elements: list[SU2], delta: np.ndarray) -> list[SU2]:
    return [
        exp_tangent(delta[3 * i : 3 * i + 3].tolist()) * el for i, el in enumerate(elements)
    ]


def refine_elements(
    elements: Sequence[SU2], gaps: Callable, *, tol: float = 1e-11, max_iter: int = 100
) -> RefineResult:
    """Drive the 2-norm of gaps(q, FLOAT_OPS) below tol, starting from
    elements; its Jacobian is tangent_jacobian(gaps, elements)."""

    def residual(els: list[SU2]) -> np.ndarray:
        return np.asarray(gaps([el.to_list() for el in els], FLOAT_OPS), dtype=float)

    current = list(elements)
    r = residual(current)
    best = float(np.linalg.norm(r))
    lam = 1e-4
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if best <= tol:
            break
        u, s, vt = np.linalg.svd(tangent_jacobian(gaps, current), full_matrices=False)
        keep = s > _RANK_CUTOFF * s[0]
        s, vt, ur = s[keep], vt[keep], u[:, keep].T @ r
        improved = False
        for _ in range(16):
            delta = -vt.T @ (s / (s * s + lam) * ur)
            candidate = _retract(current, delta)
            rc = residual(candidate)
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
