"""Representation tuples and the defining equation systems.

Four solution sets are realized numerically, all inside powers of SU(2):

* the surface representation variety: six-tuples (A1, B1, A2, B2, A3, B3)
  with [A1,B1][A2,B2][A3,B3] = 1, which is the fixed-point set below at
  n = 0;
* the fixed-point set of the pullback by the n-th power of the
  bounding-pair map, cut out by the surface relation together with
  A1 = X^n A1 X^-n, A1^n X^-n = 1, A3 = X^n A3 X^-n, B3 = X^n B3 X^-n,
  where X = [A3, B3] A1;
* the mapping-torus representation variety: seven-tuples (T, (Ai, Bi))
  where the same pullback becomes conjugation by T.  Writing the
  presentation of the mapping-torus group in terms of the generator
  images gives, per generator,

      relator   [A1,B1][A2,B2][A3,B3] = 1
      a1        [A1, T X^n] = 1
      b1        [B1^-1, T^-1] = A1^n X^-n
      a2, b2    [A2, T] = [B2, T] = 1
      a3, b3    [A3, T X^n] = [B3, T X^n] = 1;

* the extended fixed set: surface representations conjugate to their own
  pullback by some T (solve_intertwiner finds that T in closed form).

A point's class names its system: a SurfaceRep is a point of the
fixed-point system and a TorusRep one of the torus system.  Residuals are
Euclidean norms of 4-vector differences, one per equation so failures
localize, in table order: relator, a1, b1, a3, b3 for the fixed-point
system and relator, a1, b1, a2, b2, a3, b3 for the torus system.  Powers
X^n are computed by exact angle scaling, so they do not drift for large n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .commutator import sample_fiber
from .solvers import refine_elements
from .su2 import (
    ARRAY_OPS,
    FLOAT_OPS,
    ONE,
    SU2,
    best_conjugator,
    commutator,
    commute_pairwise,
    haar_random,
    qcommutator,
    qinv,
    qmul,
)
from .words import SURFACE_GENERATORS, Generator, evaluate, phi_substitution

__all__ = [
    "SurfaceRep",
    "TorusRep",
    "Rep",
    "trivial_rep",
    "ResidualError",
    "derived_x",
    "check_system",
    "fixed_point_residual",
    "torus_residual",
    "residual_array",
    "random_surface_rep",
    "project_to_variety",
    "VarietyProjection",
    "solve_intertwiner",
    "IntertwinerResult",
    "CentralizerType",
    "centralizer_type",
    "REP_FORMAT",
    "rep_to_dict",
    "rep_from_dict",
    "save_rep",
    "load_rep",
    "read_json",
]


@dataclass(frozen=True)
class SurfaceRep:
    """Images of the six surface-group generators."""

    system = "fix"
    a1: SU2
    b1: SU2
    a2: SU2
    b2: SU2
    a3: SU2
    b3: SU2

    def elements(self) -> tuple[SU2, ...]:
        return (self.a1, self.b1, self.a2, self.b2, self.a3, self.b3)

    @staticmethod
    def from_elements(els) -> "SurfaceRep":
        return SurfaceRep(*els)

    def images(self) -> dict[Generator, SU2]:
        return dict(zip(SURFACE_GENERATORS, self.elements()))

    def conjugate(self, g: SU2) -> "SurfaceRep":
        return SurfaceRep(*(el.conjugate_by(g) for el in self.elements()))

    def dist(self, other: "SurfaceRep") -> float:
        return max(u.dist(v) for u, v in zip(self.elements(), other.elements()))


@dataclass(frozen=True)
class TorusRep:
    """Image T of the mapping-torus loop together with a surface tuple."""

    system = "torus"
    t: SU2
    rep: SurfaceRep

    def elements(self) -> tuple[SU2, ...]:
        return (self.t, *self.rep.elements())

    @staticmethod
    def from_elements(els) -> "TorusRep":
        return TorusRep(els[0], SurfaceRep(*els[1:]))

    def images(self) -> dict[Generator, SU2]:
        out = self.rep.images()
        out[Generator.TAU] = self.t
        return out

    def conjugate(self, g: SU2) -> "TorusRep":
        return TorusRep(self.t.conjugate_by(g), self.rep.conjugate(g))

    def dist(self, other: "TorusRep") -> float:
        return max(u.dist(v) for u, v in zip(self.elements(), other.elements()))


Rep = Union[SurfaceRep, TorusRep]


def trivial_rep() -> SurfaceRep:
    return SurfaceRep(ONE, ONE, ONE, ONE, ONE, ONE)


class ResidualError(ValueError):
    """The point's residual exceeds the tolerance: it is off the variety."""


def derived_x(rep: SurfaceRep) -> SU2:
    """[A3, B3] * A1, the element whose powers drive all the conditions."""
    return commutator(rep.a3, rep.b3) * rep.a1


# -- the equation tables -------------------------------------------------------
#
# Each system is written once, as (lhs, rhs) rows over quaternion 4-tuples
# of floats (one point), numpy (N,) arrays (N points) or complex arrays
# (complex steps), with `ops` to match: su2's FLOAT_OPS, ARRAY_OPS or
# COMPLEX_OPS.  residual_array and the least-squares gaps read them.

_ONE_Q = (1.0, 0.0, 0.0, 0.0)

# below this many points a batch is cheaper point by point on floats
_BATCH_MIN = 8


def _relator(a1, b1, a2, b2, a3, b3):
    """[A1,B1][A2,B2][A3,B3], together with its last factor [A3,B3]."""
    c3 = qcommutator(a3, b3)
    return qmul(qmul(qcommutator(a1, b1), qcommutator(a2, b2)), c3), c3


def _fix_rows(q, n: int, ops):
    a1, b1, a2, b2, a3, b3 = q
    rel, c3 = _relator(*q)
    power = ops[5]
    xn = power(qmul(c3, a1), n, ops)
    return (
        (rel, _ONE_Q),  # relator
        (qmul(xn, a1), qmul(a1, xn)),  # a1
        (power(a1, n, ops), xn),  # b1
        (qmul(xn, a3), qmul(a3, xn)),  # a3
        (qmul(xn, b3), qmul(b3, xn)),  # b3
    )


def _torus_rows(q, n: int, ops):
    t, a1, b1, a2, b2, a3, b3 = q
    rel, c3 = _relator(*q[1:])
    power = ops[5]
    xn = power(qmul(c3, a1), n, ops)
    txn = qmul(t, xn)
    b1_lhs = qmul(qmul(qmul(qinv(b1), qinv(t)), b1), t)
    return (
        (rel, _ONE_Q),  # relator
        (qmul(a1, txn), qmul(txn, a1)),  # a1
        (b1_lhs, qmul(power(a1, n, ops), qinv(xn))),  # b1
        (qmul(a2, t), qmul(t, a2)),  # a2
        (qmul(b2, t), qmul(t, b2)),  # b2
        (qmul(a3, txn), qmul(txn, a3)),  # a3
        (qmul(b3, txn), qmul(txn, b3)),  # b3
    )


_TABLES = {"fix": _fix_rows, "torus": _torus_rows}


def _gap(lhs, rhs, sqrt):
    return sqrt(sum((u - v) * (u - v) for u, v in zip(lhs, rhs)))


def _quats(rep: Rep) -> list[tuple[float, float, float, float]]:
    return [(el.w, el.x, el.y, el.z) for el in rep.elements()]


def check_system(rep: Rep, system: str) -> None:
    """ValueError unless rep is a point of `system`, "fix" or "torus"."""
    if getattr(rep, "system", None) != system:
        raise ValueError(f"the {system!r} system does not take a {type(rep).__name__}")


def residual_array(points: Sequence[Rep], n: int) -> np.ndarray:
    """Residuals of points of the one system their class names, shape (N, E):
    row i holds the equations' residuals at points[i] in table order.

    Below _BATCH_MIN points the table runs point by point on floats; from
    there on, once over numpy arrays, at about the cost of six single
    points whatever N is.
    """
    rows = _TABLES[points[0].system]
    if len(points) < _BATCH_MIN:
        return np.array([
            [_gap(lhs, rhs, math.sqrt) for lhs, rhs in rows(_quats(p), n, FLOAT_OPS)]
            for p in points
        ])
    # one (4, N) block of components per element
    q = np.ascontiguousarray(np.array([_quats(p) for p in points]).transpose(1, 2, 0))
    return np.stack([_gap(lhs, rhs, np.sqrt) for lhs, rhs in rows(q, n, ARRAY_OPS)], axis=1)


def fixed_point_residual(rep: SurfaceRep, n: int) -> np.ndarray:
    """The fixed-point residuals of one surface tuple, in table order."""
    check_system(rep, "fix")
    return residual_array([rep], n)[0]


def torus_residual(trep: TorusRep, n: int) -> np.ndarray:
    """The torus residuals of one seven-tuple, in table order."""
    check_system(trep, "torus")
    return residual_array([trep], n)[0]


def random_surface_rep(rng: np.random.Generator) -> SurfaceRep:
    """Haar-random admissible surface representation.

    A1, B1, A2, B2 are Haar; (A3, B3) is a random point of the
    commutator fiber forced by the relation (sample_fiber).
    """
    a1, b1, a2, b2 = (haar_random(rng) for _ in range(4))
    c = (commutator(a1, b1) * commutator(a2, b2)).inverse()
    a3, b3 = sample_fiber(c, rng)
    return SurfaceRep(a1, b1, a2, b2, a3, b3)


# -- projection onto a variety ------------------------------------------

@dataclass(frozen=True)
class VarietyProjection:
    rep: Rep
    residual: float
    converged: bool
    iterations: int


def _table_gaps(quats, system: str, n: int, ops) -> np.ndarray:
    """The signed 4-vector differences of every equation of `system`."""
    rows = _TABLES[system](quats, n, ops)
    return np.array([u - v for lhs, rhs in rows for u, v in zip(lhs, rhs)])


def project_to_variety(
    start: Rep, n: int, tol: float = 1e-9, max_iter: int = 100
) -> VarietyProjection:
    """Damped least-squares projection onto the system of start's class.

    Returns the best point found; `converged` is False when the budget
    runs out, never a silently bad output.
    """
    residual = float(residual_array([start], n).max())
    if residual <= tol:
        return VarietyProjection(start, residual, True, 0)
    result = refine_elements(
        start.elements(),
        lambda q, ops: _table_gaps(q, start.system, n, ops),
        tol=min(tol * 1e-2, 1e-11),
        max_iter=max_iter,
    )
    rep = type(start).from_elements(result.elements)
    residual = float(residual_array([rep], n).max())
    return VarietyProjection(rep, residual, residual <= tol, result.iterations)


# -- intertwiner search --------------------------------------------------

@dataclass(frozen=True)
class IntertwinerResult:
    """Best conjugator matching the pullback, with its least-squares gap."""

    t: SU2
    gap: float
    ok: bool


def solve_intertwiner(rep: SurfaceRep, n: int, tol: float = 1e-9) -> IntertwinerResult:
    """The T, with w >= 0, that best matches rep-pullback with T^-1 rep T
    across all generators, and the 2-norm of the stacked differences.

    Conjugation fixes real parts and rotates vector parts, so the global
    least-squares T is the inverse of the conjugator that best aligns rep
    with its pullback (best_conjugator, in closed form).  Success means the
    representation lies in the extended fixed set to within tol, and then
    (T, rep) satisfies the torus system at the same scale.
    """
    pre = residual_array([rep], 0).max()
    if pre > tol:
        raise ResidualError(f"surface residual {pre:.3e} exceeds tol {tol:.1e}")
    images = rep.images()
    sub = phi_substitution(n)
    pullback = [evaluate(sub.image(g), images) for g in SURFACE_GENERATORS]
    g = best_conjugator(rep.elements(), pullback)
    gap = math.hypot(*(p.dist(el.conjugate_by(g)) for p, el in zip(pullback, rep.elements())))
    return IntertwinerResult(g.inverse(), gap, gap < tol)


# -- centralizer classification ------------------------------------------

class CentralizerType(Enum):
    FULL_GROUP = "full_group"
    CIRCLE = "circle"
    CENTER_ONLY = "center_only"


def centralizer_type(rep: SurfaceRep, tol: float = 1e-9) -> CentralizerType:
    """Centralizer of the image: all of SU(2), a maximal torus, or {1, -1}."""
    els = rep.elements()
    if all(el.is_central(tol) for el in els):
        return CentralizerType.FULL_GROUP
    if not commute_pairwise(els, tol):
        return CentralizerType.CENTER_ONLY
    return CentralizerType.CIRCLE


# -- serialization ---------------------------------------------------------

REP_FORMAT = "repvar-1"


def rep_to_dict(rep: Rep, n: int) -> dict:
    surface = rep.rep if isinstance(rep, TorusRep) else rep
    return {
        "format": REP_FORMAT,
        "n": int(n),
        "T": rep.t.to_list() if isinstance(rep, TorusRep) else None,
        "A": [surface.a1.to_list(), surface.a2.to_list(), surface.a3.to_list()],
        "B": [surface.b1.to_list(), surface.b2.to_list(), surface.b3.to_list()],
    }


def _element_from(value, where: str) -> SU2:
    # a JSON bool is an int to isinstance, but not a number here
    if not isinstance(value, (list, tuple)) or len(value) != 4 or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
    ):
        raise ValueError(f"{where}: expected a list of 4 floats")
    try:
        return SU2(*(float(v) for v in value))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def rep_from_dict(data: dict) -> tuple[int, Rep]:
    if not isinstance(data, dict):
        raise ValueError("representation document must be a JSON object")
    fmt = data.get("format")
    if fmt != REP_FORMAT:
        raise ValueError(f"format: expected {REP_FORMAT!r}, found {fmt!r}")
    if "n" not in data or not isinstance(data["n"], int) or isinstance(data["n"], bool):
        raise ValueError("n: missing or not an integer")
    for key in ("A", "B"):
        if key not in data or not isinstance(data[key], list) or len(data[key]) != 3:
            raise ValueError(f"{key}: expected a list of 3 elements")
    a = [_element_from(v, f"A[{i}]") for i, v in enumerate(data["A"])]
    b = [_element_from(v, f"B[{i}]") for i, v in enumerate(data["B"])]
    surface = SurfaceRep(a[0], b[0], a[1], b[1], a[2], b[2])
    if data.get("T") is None:
        return data["n"], surface
    return data["n"], TorusRep(_element_from(data["T"], "T"), surface)


def save_rep(path: str | Path, rep: Rep, n: int) -> None:
    Path(path).write_text(json.dumps(rep_to_dict(rep, n)) + "\n")


def read_json(path: str | Path):
    """The JSON document in the file at path; ValueError naming it if invalid."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def load_rep(path: str | Path) -> tuple[int, Rep]:
    return rep_from_dict(read_json(path))
