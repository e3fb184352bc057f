"""Solvers, samplers, and path continuation for the commutator equation.

The commutator map mu(A, B) = A B A^-1 B^-1 on SU(2) x SU(2) is onto, and
every fiber is connected; the fiber over -1 is exactly the set of pairs
with tr(A) = tr(B) = tr(AB) = 0.  This module provides:

* a closed-form section of mu (solve_commutator), a trace-zero normal
  form turned by a frame onto c's axis, so canonical representatives are
  exact and reproducible;
* a least-squares projector onto a fiber (project_pair_to_fiber), a
  library function that no path construction calls;
* the three exact moves inside a fiber (two twist flows, a conjugation),
  which spread the section into an exact sampler (sample_fiber);
* within-fiber paths (connect_in_fiber), a fixed schedule of those moves,
  and moving-fiber continuation (continue_fiber), which walks to the
  section and follows it in a turning frame.  The nodes of both are exact
  up to rounding, and both are deterministic: they draw no random numbers,
  so a path is a pure function of its inputs.

Trace identity used as the algebraic oracle throughout:
tr([A, B]) = tr(A)^2 + tr(B)^2 + tr(AB)^2 - tr(A) tr(B) tr(AB) - 2.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .solvers import refine_elements
from .su2 import (
    E1,
    I,
    K,
    MAX_STEP,
    MINUS_ONE,
    ONE,
    SU2,
    axis_rotation,
    commutator,
    conjugators,
    contract_to_one,
    exp_axis_angle,
    haar_random,
    qcommutator,
    random_torus_element,
    step_between,
    stepped,
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
    "ContinuationError",
]

Pair = tuple[SU2, SU2]


class ContinuationError(RuntimeError):
    """Moving-fiber continuation diverged; `t` holds the failing parameter."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t={t:.6f})")
        self.t = t


def fricke_trace(ta: float, tb: float, tab: float) -> float:
    """Trace of [A, B] from the traces of A, B, and AB.

    Inputs must lie in [-2, 2] (the SU(2) trace range).
    """
    for name, value in (("ta", ta), ("tb", tb), ("tab", tab)):
        if not -2.0 - 1e-9 <= value <= 2.0 + 1e-9:
            raise ValueError(f"{name}={value!r} outside the SU(2) trace range [-2, 2]")
    return ta * ta + tb * tb + tab * tab - ta * tb * tab - 2.0


def _normal_form(theta: float) -> Pair:
    """A = i, B = -cos(theta/2) i + sin(theta/2) j: both of trace zero, with
    [A, B] = cos(theta) + sin(theta) k."""
    return I, SU2(0.0, -math.cos(theta / 2.0), math.sin(theta / 2.0), 0.0)


# A target this close to -1 counts as -1: its traces are rounding noise,
# and conjugating its fiber by anything moves c by under 1e-13.  Within it
# of either central element, a target's axis is rounding noise as well.
_MINUS_ONE_BAND = 4e-14


def _section(c: SU2, frame: SU2) -> Pair:
    """The normal form at c's angle conjugated by frame: on the fiber of c
    whenever the frame carries k onto c's axis."""
    return _conjugate(_normal_form(c.angle()), frame)


def _turn_frame(frame: SU2, c: SU2) -> SU2:
    """frame turned by the least rotation carrying its image of k onto c's axis."""
    rot = axis_rotation(K.conjugate_by(frame).axis(), c.axis())
    return frame if rot is None else exp_axis_angle(rot[0], rot[1] / 2.0) * frame


def solve_commutator(c: SU2) -> Pair:
    """A pair (A, B) with [A, B] = c, exact up to rounding.

    For c away from 1, the section: the normal form at the angle theta of
    c (by the trace identity tr([A, B]) = 2 cos(theta)) in the frame
    turned from 1 onto c's axis, or in no frame within _MINUS_ONE_BAND of
    -1, where that axis is rounding noise.  c.angle() is an atan2, which
    unlike arccos(Re c) stays accurate within rounding of +-1.
    """
    if c.dist(ONE) < 1e-12:
        return (ONE, ONE)
    frame = ONE if c.dist(MINUS_ONE) < _MINUS_ONE_BAND else _turn_frame(ONE, c)
    return _section(c, frame)


# -- least-squares projection onto a fiber ------------------------------

def project_pair_to_fiber(
    a: SU2, b: SU2, c: SU2, *, tol: float = 1e-12
) -> tuple[SU2, SU2, float, bool]:
    """Move (a, b) onto the fiber [A, B] = c with refine_elements.

    Returns (a, b, residual, converged); never raises.
    """

    def gaps(q, ops) -> np.ndarray:  # [A, B] - c, for quaternion 4-tuples q
        return np.array([u - v for u, v in zip(qcommutator(*q), c.to_list())])

    result = refine_elements((a, b), gaps, tol=tol)
    return (*result.elements, result.residual, result.converged)


# -- the three exact moves inside a fiber -----------------------------

def _twist(pair: Pair, which: int, z: SU2) -> Pair:
    """Element `which` (0: A, 1: B) times z, which keeps [A, B] for z
    commuting with the other element (Goldman's twist flow along its torus)."""
    a, b = pair
    return (a * z, b) if which == 0 else (a, b * z)


def _conjugate(pair: Pair, g: SU2) -> Pair:
    """The pair conjugated by g, which keeps [A, B] when g commutes with it."""
    return (pair[0].conjugate_by(g), pair[1].conjugate_by(g))


def _random_centralizer_element(u: SU2, rng: np.random.Generator) -> SU2:
    """A random element commuting with u (Haar when u is central, within
    _MINUS_ONE_BAND, where its axis is rounding noise)."""
    if u.is_central(_MINUS_ONE_BAND):
        return haar_random(rng)
    return random_torus_element(u.axis(), rng)


def randomize_in_fiber(a: SU2, b: SU2, rng: np.random.Generator) -> Pair:
    """Exact moves inside the fiber of [a, b]: the two twists and a
    conjugation by the commutator's centralizer, with random angles, in two
    rounds spread a point across the fiber without leaving it."""
    c = commutator(a, b)
    pair = (a, b)
    for _ in range(2):
        pair = _twist(pair, 1, _random_centralizer_element(pair[0], rng))
        pair = _twist(pair, 0, _random_centralizer_element(pair[1], rng))
        pair = _conjugate(pair, _random_centralizer_element(c, rng))
    return pair


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

# A fiber this close to 1 is joined through the commuting stratum.  The
# twist schedule stays exact down to this angle, but within 1e-12 of 1
# solve_commutator returns (1, 1), which is off the fiber.
_SNAP_ANGLE = 1e-11


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

    return to_identity(p0) + list(reversed(to_identity(p1)))


def _trace_roots(u: SU2, axis, target: float) -> tuple[float, list[float]]:
    """(r, roots) for tr(u exp(s axis)) = r cos(s - phi): the angles s in
    [-pi, pi] where it meets target, shortest first, or comes nearest to it
    when |target| > r."""
    q = -2.0 * (u.x * axis[0] + u.y * axis[1] + u.z * axis[2])
    r, phi = math.hypot(2.0 * u.w, q), math.atan2(q, 2.0 * u.w)
    d = math.acos(max(-1.0, min(1.0, target / r))) if r > 0.0 else 0.0
    return r, sorted((math.remainder(phi + e, math.tau) for e in (d, -d)), key=abs)


def _twist_leg(pair: Pair, which: int, s: float) -> list[Pair]:
    """Nodes after `pair` as element `which` turns by s along the other's torus."""
    axis = pair[1 - which].axis()
    return stepped(lambda t: _twist(pair, which, exp_axis_angle(axis, s * t)), abs(s))


def _turn_leg(pair: Pair, axis, psi: float) -> list[Pair]:
    """Nodes after `pair` as conjugation turns it by psi about `axis`."""
    return [_conjugate(pair, h) for h in conjugators(exp_axis_angle(axis, psi / 2.0))]


def connect_in_fiber(p0: Pair, p1: Pair, c: SU2) -> list[Pair]:
    """A discrete path inside the fiber [A, B] = c joining p0 to p1.

    For c within angle 1e-11 of 1 the path runs through the commuting
    stratum via (1, 1).  Otherwise, as the fiber modulo c's centralizer is
    a level set of (tr A, tr B, tr AB) (Goldman), it is a fixed schedule
    of exact moves stepped within MAX_STEP: (1) only if tr A1 is beyond
    A's reach, B twists along A's axis to tr B = 0, where it is widest;
    (2) A twists along B's axis to tr A1; (3) B twists along A's axis to
    match tr B1 and tr A1 B1; (4) a conjugation about c's axis lands on
    p1.  Over -1 all traces are 0: align A's axis, then B about A1's.
    No Newton step is taken, and the path ends on p1 itself.
    """
    if c.angle() < _SNAP_ANGLE:
        return _commuting_stratum_route(p0, p1)
    (a, b), (a1, b1) = p0, p1
    nodes = [p0]

    def across(u: SU2) -> np.ndarray:  # u's vector part, across `axis`
        v = np.array([u.x, u.y, u.z])
        return v - np.dot(v, axis) * np.asarray(axis)

    if c.dist(MINUS_ONE) < _MINUS_ONE_BAND:
        rot = axis_rotation(a.axis(), a1.axis())
        nodes += _turn_leg(p0, *rot) if rot else []
        axis, far = a1.axis(), 1
    else:
        if _trace_roots(a, b.axis(), a1.trace)[0] < abs(a1.trace):
            nodes += _twist_leg(p0, 1, _trace_roots(b, a.axis(), 0.0)[1][0])
        a, b = nodes[-1]
        nodes += _twist_leg(nodes[-1], 0, _trace_roots(a, b.axis(), a1.trace)[1][0])
        a, b = nodes[-1]
        a_axis, y1, z1 = a.axis(), b1.trace, (a1 * b1).trace

        def mismatch(t: float) -> float:
            z = exp_axis_angle(a_axis, t)
            return abs((b * z).trace - y1) + abs((a * b * z).trace - z1)

        roots = _trace_roots(b, a_axis, y1)[1] + _trace_roots(a * b, a_axis, z1)[1]
        nodes += _twist_leg(nodes[-1], 1, min(roots, key=mismatch))
        axis = c.axis()
        far = max((0, 1), key=lambda i: np.linalg.norm(across(nodes[-1][i])))
    # turn element `far` about `axis` onto p1's, across the axis
    u, v = across(nodes[-1][far]), across(p1[far])
    psi = math.atan2(float(np.dot(np.cross(u, v), axis)), float(np.dot(u, v)))
    return nodes + _turn_leg(nodes[-1], axis, psi) + [p1]


# -- moving-fiber continuation -----------------------------------------

def _section_step(pair: Pair, frame: SU2 | None, c0: SU2, c: SU2):
    """(frame, start, node) of one pair as its target moves from c0 to c;
    a pair without a frame (see continue_fiber) starts from the section
    over c0 in c's frame, reached by a walk inside c0's fiber."""
    if c.is_central(_MINUS_ONE_BAND):
        return None, pair, pair if frame is None else _section(c, frame)
    if frame is None:
        frame = _turn_frame(ONE, c)
        return frame, _section(c0, frame), _section(c, frame)
    frame = _turn_frame(frame, c)
    return frame, pair, _section(c, frame)


def continue_fiber(
    pairs: tuple[Pair, ...], targets: Callable[[float], tuple[SU2, ...]], *, init_steps: int
) -> list[tuple[float, tuple[Pair, ...]]]:
    """Track pairs along moving fibers [A_i, B_i] = targets(t)[i], t 0 -> 1.

    A pair rests while its target is within rounding of the center.  At
    its first target off the center it walks (connect_in_fiber) inside its
    current fiber to solve_commutator's normal form in a frame carrying k
    onto that target's axis, then follows the section, the frame turning at
    each node by the least rotation carrying its image of k onto the new
    target's axis (a target back near the center ends the frame, and the
    pair walks again when it leaves).  So every node is exact without a
    Newton step.  The parameter step halves, down to float resolution,
    while an element would move farther than MAX_STEP, and grows back up
    to 1 / init_steps.  No random numbers; at most 4096 nodes.  Returns
    (t, pairs) nodes from (0, pairs); a walk's nodes carry the t at which
    it is taken.
    """
    nodes: list[tuple[float, tuple[Pair, ...]]] = [(0.0, tuple(pairs))]

    def walk(i: int, end: Pair, c: SU2, t: float) -> None:
        now = nodes[-1][1]
        for p in connect_in_fiber(now[i], end, c)[1:]:
            nodes.append((t, now[:i] + (p,) + now[i + 1 :]))

    here = targets(0.0)
    frames: list[SU2 | None] = []
    for i, (pair, c) in enumerate(zip(pairs, here)):
        frame, start, _ = _section_step(pair, None, c, c)
        frames.append(frame)
        if frame is not None:
            walk(i, start, c, 0.0)
    t, dt = 0.0, 1.0 / init_steps
    while t < 1.0 and len(nodes) < 4096:
        tn = min(t + dt, 1.0)
        there = targets(tn)
        steps = [_section_step(*args) for args in zip(nodes[-1][1], frames, here, there)]
        if all(step_between(start, node) <= MAX_STEP for _, start, node in steps):
            for i, (frame, start, _) in enumerate(steps):
                if frames[i] is None and frame is not None:
                    walk(i, start, here[i], t)
            nodes.append((tn, tuple(node for _, _, node in steps)))
            frames = [frame for frame, _, _ in steps]
            t, here = tn, there
            dt = min(dt * 1.5, 1.0 / init_steps)
        else:
            dt *= 0.5
            if t + dt == t:
                raise ContinuationError("continuation step underflow", t)
    if t < 1.0:
        raise ContinuationError("node budget exhausted", t)
    return nodes
