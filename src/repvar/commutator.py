"""Solvers, samplers, and path continuation for the commutator equation.

The commutator map mu(A, B) = A B A^-1 B^-1 on SU(2) x SU(2) is onto, and
every fiber is connected; the fiber over -1 is exactly the set of pairs
with tr(A) = tr(B) = tr(AB) = 0.  This module provides:

* a closed-form section of mu (solve_commutator), built from a trace-zero
  normal form plus a conjugation, so canonical representatives are exact
  and reproducible;
* a Newton projector onto a fiber with analytic Jacobian
  (project_pair_to_fiber), the inner loop of all path tracking;
* exact randomizing moves inside a fiber (randomize_in_fiber), which
  spread the section into an exact fiber sampler (sample_fiber);
* within-fiber path search (connect_in_fiber) and moving-fiber
  continuation (continue_fiber).  Both are deterministic: they draw no
  random numbers, so a path is a pure function of its inputs.

Trace identity used as the algebraic oracle throughout:
tr([A, B]) = tr(A)^2 + tr(B)^2 + tr(AB)^2 - tr(A) tr(B) tr(AB) - 2.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .su2 import (
    E1,
    MAX_STEP,
    ONE,
    SU2,
    align_conjugator,
    commutator,
    contract_to_one,
    exp_axis_angle,
    exp_tangent,
    geodesic,
    haar_random,
    qmul,
    step_between,
    torus_snap,
)

__all__ = [
    "fricke_trace",
    "solve_commutator",
    "project_pair_to_fiber",
    "sample_fiber",
    "randomize_in_fiber",
    "snap_commuting_pair",
    "connect_in_fiber",
    "continue_fiber",
    "NODE_TOL",
    "ContinuationError",
    "FiberConnectError",
]

Pair = tuple[SU2, SU2]


class ContinuationError(RuntimeError):
    """Moving-fiber continuation diverged; `t` holds the failing parameter."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t={t:.6f})")
        self.t = t


class FiberConnectError(RuntimeError):
    """No within-fiber path found at the configured bisection depth."""


def fricke_trace(ta: float, tb: float, tab: float) -> float:
    """Trace of [A, B] from the traces of A, B, and AB.

    Inputs must lie in [-2, 2] (the SU(2) trace range).
    """
    for name, value in (("ta", ta), ("tb", tb), ("tab", tab)):
        if not -2.0 - 1e-9 <= value <= 2.0 + 1e-9:
            raise ValueError(f"{name}={value!r} outside the SU(2) trace range [-2, 2]")
    return ta * ta + tb * tb + tab * tab - ta * tb * tab - 2.0


def solve_commutator(c: SU2) -> Pair:
    """A pair (A, B) with [A, B] = c, exact up to rounding.

    For c away from 1, take the trace-zero normal form A = i,
    B = -cos(theta/2) i + sin(theta/2) j with theta the angle of c (this
    gives tr([A, B]) = 2 cos(theta) by the trace identity), then conjugate
    the pair so the commutator's axis matches c.  theta is an atan2, which
    unlike arccos(Re c) stays accurate within rounding of +-1.
    """
    if c.dist(ONE) < 1e-12:
        return (ONE, ONE)
    theta = math.atan2(math.sqrt(c.x * c.x + c.y * c.y + c.z * c.z), c.w)
    a = SU2(0.0, 1.0, 0.0, 0.0)
    b = SU2(0.0, -math.cos(theta / 2.0), math.sin(theta / 2.0), 0.0)
    g = align_conjugator(commutator(a, b), c, trace_tol=1e-8)
    return (a.conjugate_by(g), b.conjugate_by(g))


# -- Newton projection onto a fiber ------------------------------------

NODE_TOL = 1e-10  # residual target of every node a path projects
_NEWTON_ITERS = 60  # Gauss-Newton iteration cap of project_pair_to_fiber


def _quat(u: SU2) -> tuple[float, float, float, float]:
    return (u.w, u.x, u.y, u.z)


def _qconj_by(g, v):
    gw, gx, gy, gz = g
    return qmul(qmul(g, v), (gw, -gx, -gy, -gz))


_BASIS = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))


def project_pair_to_fiber(
    a: SU2,
    b: SU2,
    c: SU2,
    *,
    tol: float = 1e-12,
) -> tuple[SU2, SU2, float, bool]:
    """Move (a, b) onto the fiber [A, B] = c by damped Gauss-Newton.

    Tangent perturbations A <- exp(xi) A, B <- exp(eta) B have analytic
    derivatives of the commutator:

        dM(xi)  = (xi - Ad_{ABA^-1} xi) M
        dM(eta) = (Ad_A eta) M - M eta

    Returns (a, b, residual, converged); never raises.
    """
    cq = np.array(_quat(c))

    def residual(p: SU2, q: SU2) -> tuple[np.ndarray, SU2]:
        m = commutator(p, q)
        return np.array(_quat(m)) - cq, m

    r, m = residual(a, b)
    best = float(np.linalg.norm(r))
    for _ in range(_NEWTON_ITERS):
        if best <= tol:
            return a, b, best, True
        mq = _quat(m)
        gq = _quat(m * b)  # A B A^-1
        aq = _quat(a)
        jac = np.empty((4, 6))
        for i, e in enumerate(_BASIS):
            ad = _qconj_by(gq, e)
            col = qmul(
                (e[0] - ad[0], e[1] - ad[1], e[2] - ad[2], e[3] - ad[3]), mq
            )
            jac[:, i] = col
            ad = _qconj_by(aq, e)
            left = qmul(ad, mq)
            right = qmul(mq, e)
            jac[:, 3 + i] = (
                left[0] - right[0],
                left[1] - right[1],
                left[2] - right[2],
                left[3] - right[3],
            )
        delta, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        scale = 1.0
        improved = False
        for _ in range(10):
            pa = exp_tangent(scale * delta[0:3]) * a
            pb = exp_tangent(scale * delta[3:6]) * b
            rc, mc = residual(pa, pb)
            nc = float(np.linalg.norm(rc))
            if nc < best:
                a, b, r, m, best = pa, pb, rc, mc, nc
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return a, b, best, best <= tol


def _random_centralizer_element(u: SU2, rng: np.random.Generator) -> SU2:
    """A random element commuting with u (Haar when u is central)."""
    if u.is_central(1e-12):
        return haar_random(rng)
    return exp_axis_angle(u.axis(), rng.uniform(-math.pi, math.pi))


def randomize_in_fiber(a: SU2, b: SU2, rng: np.random.Generator) -> Pair:
    """Exact moves inside the fiber of [a, b].

    Right multiplication of one component by an element of the other's
    centralizer leaves the commutator unchanged, as does conjugating the
    pair by anything commuting with the commutator value.  Composing the
    three one-parameter families with random angles, in two rounds, spreads
    a point across the fiber without leaving it.
    """
    c = commutator(a, b)
    for _ in range(2):
        b = b * _random_centralizer_element(a, rng)
        a = a * _random_centralizer_element(b, rng)
        g = _random_centralizer_element(c, rng)
        a = a.conjugate_by(g)
        b = b.conjugate_by(g)
    return a, b


def sample_fiber(c: SU2, rng: np.random.Generator) -> Pair:
    """A random pair with [A, B] = c, exact up to rounding and without
    iteration: solve_commutator's pair spread by randomize_in_fiber."""
    return randomize_in_fiber(*solve_commutator(c), rng)


def snap_commuting_pair(a: SU2, b: SU2) -> Pair:
    """Nearest convenient exactly-commuting pair to a nearly-commuting one.

    The element nearer the center (the shorter imaginary part, so a
    near -1 counts as near) is re-axed onto the other's maximal torus,
    which keeps the move small whenever [a, b] is nearly 1.
    """
    if a.is_central(1e-12) or b.is_central(1e-12):
        return a, b
    move_second = math.hypot(b.x, b.y, b.z) <= math.hypot(a.x, a.y, a.z)
    anchor, moved = (a, b) if move_second else (b, a)
    snapped = torus_snap(moved, anchor.axis())
    return (a, snapped) if move_second else (snapped, b)


# -- within-fiber connectivity -----------------------------------------

# A target this close to 1 counts as 1: pairs are snapped onto the
# commuting stratum instead of projected onto a singular fiber.
_SNAP_ANGLE = 1e-6


def _commuting_stratum_route(p0: Pair, p1: Pair) -> list[Pair]:
    """Explicit path between two (nearly) commuting pairs through (1, 1)."""

    def to_identity(pair: Pair) -> list[Pair]:
        # (a, b) -> snapped -> (a, 1) along a's torus -> (1, 1)
        a, b = snap_commuting_pair(*pair)
        axis = E1 if a.is_central(1e-12) else a.axis()
        nodes = [pair, (a, b)]
        nodes += [(a, m) for m in contract_to_one(b, axis)]
        nodes += [(m, ONE) for m in contract_to_one(a)]
        return nodes

    nodes = to_identity(p0) + list(reversed(to_identity(p1)))
    # drop exactly duplicated consecutive nodes (snap may be a no-op)
    deduped = [nodes[0]]
    for node in nodes[1:]:
        prev = deduped[-1]
        if prev[0].dist(node[0]) + prev[1].dist(node[1]) > 1e-15:
            deduped.append(node)
    return deduped


def _bisect_in_fiber(left: Pair, right: Pair, c: SU2, depth: int) -> list[Pair]:
    if step_between(left, right) <= MAX_STEP:
        return [left, right]
    if depth <= 0:
        raise FiberConnectError("bisection depth exhausted")
    try:
        mid_a = geodesic(left[0], right[0], 0.5)
        mid_b = geodesic(left[1], right[1], 0.5)
    except ValueError as exc:  # antipodal coordinate
        raise FiberConnectError(str(exc))
    a, b, _, ok = project_pair_to_fiber(mid_a, mid_b, c, tol=NODE_TOL)
    if not ok:
        raise FiberConnectError("midpoint projection failed")
    head = _bisect_in_fiber(left, (a, b), c, depth - 1)
    tail = _bisect_in_fiber((a, b), right, c, depth - 1)
    return head + tail[1:]


def connect_in_fiber(p0: Pair, p1: Pair, c: SU2, *, depth: int = 12) -> list[Pair]:
    """A discrete path inside the fiber [A, B] = c joining p0 to p1.

    For c within angle 1e-6 of 1 the path runs through the commuting
    stratum via (1, 1).  Otherwise it is a recursive midpoint bisection
    from p0 to p1 with Newton re-projection of each midpoint; no random
    numbers are drawn.  Every fiber of the commutator map is connected, so
    failure indicates a search budget problem, and is raised as
    FiberConnectError rather than hidden.
    """
    if c.angle() < _SNAP_ANGLE:
        return _commuting_stratum_route(p0, p1)
    return _bisect_in_fiber(p0, p1, c, depth)


# -- moving-fiber continuation -----------------------------------------

def _step_pair(pair: Pair, target: SU2) -> Pair | None:
    """`pair` moved onto the fiber of `target`, or None when that fails."""
    if target.angle() < _SNAP_ANGLE:
        return snap_commuting_pair(*pair)
    a, b, _, ok = project_pair_to_fiber(pair[0], pair[1], target, tol=NODE_TOL)
    return (a, b) if ok else None


def continue_fiber(
    pairs: tuple[Pair, ...],
    targets: Callable[[float], tuple[SU2, ...]],
    *,
    init_steps: int,
) -> list[tuple[float, tuple[Pair, ...]]]:
    """Track pairs along moving fibers [A_i, B_i] = targets(t)[i], t 0 -> 1.

    Adaptive stepping: the parameter step halves when a warm-started
    projection to NODE_TOL fails or any element moves farther than
    MAX_STEP, and grows back on success, up to 1 / init_steps.  Targets
    within angle 1e-6 of the identity are handled by snapping the pair
    onto the exactly-commuting stratum instead of projecting against a
    singular fiber.  No random numbers are drawn.  At most 4096 nodes.
    Returns (t, pairs) nodes, starting with (0, pairs).
    """
    dt = 1.0 / init_steps
    min_dt = 1.0 / (init_steps * 4096.0)
    nodes: list[tuple[float, tuple[Pair, ...]]] = [(0.0, tuple(pairs))]
    t = 0.0
    while t < 1.0 - 1e-15 and len(nodes) < 4096:
        tn = min(t + dt, 1.0)
        moved: list[Pair] = []
        for pair, target in zip(nodes[-1][1], targets(tn)):
            cand = _step_pair(pair, target)
            if cand is None or step_between(pair, cand) > MAX_STEP:
                break
            moved.append(cand)
        if len(moved) == len(pairs):
            nodes.append((tn, tuple(moved)))
            t = tn
            dt = min(dt * 1.5, 1.0 / init_steps)
        else:
            dt *= 0.5
            if dt < min_dt:
                raise ContinuationError("continuation step underflow", t)
    if t < 1.0 - 1e-15:
        raise ContinuationError("node budget exhausted", t)
    return nodes
