"""Damped least-squares refinement for tuples of group elements.

The engine minimizes a caller-supplied residual over products of unit
quaternions.  Updates are tangent steps applied by left multiplication with
exp of a pure quaternion, followed by renormalization (the retraction).
Steps come from a Levenberg-Marquardt solve: the damping grows whenever a
step fails to reduce the residual, which also regularizes the gauge
directions these systems always carry (simultaneous conjugation moves no
residual).  Jacobians are finite-difference: the residual dimensions are
tiny and the residual itself is evaluated exactly, so the approximate
Jacobian only affects the step direction, not the achievable accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .su2 import SU2, exp_tangent

__all__ = ["RefineResult", "refine_elements"]

ResidualFn = Callable[[list[SU2]], np.ndarray]

_FD_STEP = 1e-7  # tangent step of the forward-difference Jacobian


@dataclass(frozen=True)
class RefineResult:
    elements: tuple[SU2, ...]
    residual: float
    converged: bool
    iterations: int


def _retract(elements: list[SU2], delta: np.ndarray) -> list[SU2]:
    return [
        exp_tangent(delta[3 * i : 3 * i + 3]) * el for i, el in enumerate(elements)
    ]


def refine_elements(
    elements: Sequence[SU2],
    residual_fn: ResidualFn,
    *,
    tol: float = 1e-11,
    max_iter: int = 100,
) -> RefineResult:
    """Drive the 2-norm of residual_fn below tol, starting from elements."""
    current = list(elements)
    dim = 3 * len(current)
    r = np.asarray(residual_fn(current), dtype=float)
    best = float(np.linalg.norm(r))
    lam = 1e-4
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if best <= tol:
            break
        jac = np.empty((r.shape[0], dim))
        for i in range(len(current)):
            for axis in range(3):
                step = [0.0, 0.0, 0.0]
                step[axis] = _FD_STEP
                bumped = list(current)
                bumped[i] = exp_tangent(step) * current[i]
                jac[:, 3 * i + axis] = (residual_fn(bumped) - r) / _FD_STEP
        normal = jac.T @ jac
        gradient = jac.T @ r
        improved = False
        for _ in range(16):
            try:
                delta = np.linalg.solve(normal + lam * np.eye(dim), -gradient)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
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
