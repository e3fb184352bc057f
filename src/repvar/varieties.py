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

Residuals are Euclidean norms of 4-vector differences, reported per
equation so failures localize.  Powers X^n are computed by exact angle
scaling, so they do not drift for large n.
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
from .solvers import refine_elements, tangent_jacobian
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
    qpow,
)
from .words import SURFACE_GENERATORS, Generator, evaluate, phi_substitution

__all__ = [
    "SurfaceRep",
    "TorusRep",
    "Rep",
    "trivial_rep",
    "ResidualReport",
    "derived_x",
    "surface_residual",
    "fixed_point_residual",
    "torus_residual",
    "residual_for",
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


@dataclass(frozen=True)
class ResidualReport:
    """Per-equation residual magnitudes, keyed by equation tag."""

    entries: tuple[tuple[str, float], ...]

    @property
    def max(self) -> float:
        return max(value for _, value in self.entries)

    def as_dict(self) -> dict[str, float]:
        return dict(self.entries)


def derived_x(rep: SurfaceRep) -> SU2:
    """[A3, B3] * A1, the element whose powers drive all the conditions."""
    return commutator(rep.a3, rep.b3) * rep.a1


# -- the equation tables -------------------------------------------------------
#
# Each system is written once, as (tag, lhs, rhs) terms over quaternion
# 4-tuples of floats (one point), numpy (N,) arrays (N points) or complex
# arrays (complex steps), with `ops` = (sqrt, atan2, sin, cos, where, power)
# to match: su2's FLOAT_OPS and ARRAY_OPS, whose power is su2.qpow, or
# _COMPLEX_OPS below.  The complex atan2 carries (x dy - y dx) / (x^2 + y^2)
# as its imaginary part, and `w > 0.0` orders complex values by real part
# first.  The residual report, least-squares vector, Jacobian and array
# read them.


def _complex_atan2(y, x):
    yr, xr = y.real, x.real
    return np.arctan2(yr, xr) + 1j * (xr * y.imag - yr * x.imag) / (xr * xr + yr * yr)


def _qpow_from_nearer_pole(a, k: int, ops):
    """qpow for complex steps, as p^k (p a)^k with p = sign(w): near -1 the
    angle rounds to pi, losing vn and with it the derivative of sin(kt) / vn."""
    p = np.where(a[0].real < 0.0, -1.0, 1.0)
    power = qpow(tuple(p * c for c in a), k, ops)
    return power if k % 2 == 0 else tuple(p * c for c in power)


_COMPLEX_OPS = (np.sqrt, _complex_atan2, np.sin, np.cos, np.where, _qpow_from_nearer_pole)
_ONE_Q = (1.0, 0.0, 0.0, 0.0)

# below this many points a batch is cheaper point by point on floats
_BATCH_MIN = 8


def _relator(a1, b1, a2, b2, a3, b3):
    """[A1,B1][A2,B2][A3,B3], together with its last factor [A3,B3]."""
    c3 = qcommutator(a3, b3)
    return qmul(qmul(qcommutator(a1, b1), qcommutator(a2, b2)), c3), c3


def _fix_terms(q, n: int, ops):
    a1, b1, a2, b2, a3, b3 = q
    rel, c3 = _relator(*q)
    power = ops[5]
    xn = power(qmul(c3, a1), n, ops)
    return (
        ("relator", rel, _ONE_Q),
        ("a1", qmul(xn, a1), qmul(a1, xn)),
        ("b1", power(a1, n, ops), xn),
        ("a3", qmul(xn, a3), qmul(a3, xn)),
        ("b3", qmul(xn, b3), qmul(b3, xn)),
    )


def _torus_terms(q, n: int, ops):
    t, a1, b1, a2, b2, a3, b3 = q
    rel, c3 = _relator(*q[1:])
    power = ops[5]
    xn = power(qmul(c3, a1), n, ops)
    txn = qmul(t, xn)
    b1_lhs = qmul(qmul(qmul(qinv(b1), qinv(t)), b1), t)
    return (
        ("relator", rel, _ONE_Q),
        ("a1", qmul(a1, txn), qmul(txn, a1)),
        ("b1", b1_lhs, qmul(power(a1, n, ops), qinv(xn))),
        ("a2", qmul(a2, t), qmul(t, a2)),
        ("b2", qmul(b2, t), qmul(t, b2)),
        ("a3", qmul(a3, txn), qmul(txn, a3)),
        ("b3", qmul(b3, txn), qmul(txn, b3)),
    )


_TABLES = {"fix": _fix_terms, "torus": _torus_terms}


def _gap(lhs, rhs, sqrt):
    return sqrt(sum((u - v) * (u - v) for u, v in zip(lhs, rhs)))


def _quats(rep: Rep, system: str) -> list[tuple[float, float, float, float]]:
    if system not in _TABLES:
        raise ValueError(f"unknown system {system!r}")
    if isinstance(rep, TorusRep) != (system == "torus"):
        kind = "torus" if system == "torus" else "surface"
        raise ValueError(f"{system} system takes a {kind} representation")
    return [(el.w, el.x, el.y, el.z) for el in rep.elements()]


def _report(rep: Rep, system: str, n: int) -> ResidualReport:
    terms = _TABLES[system](_quats(rep, system), n, FLOAT_OPS)
    return ResidualReport(tuple((tag, _gap(l, r, math.sqrt)) for tag, l, r in terms))


def surface_residual(rep: SurfaceRep) -> ResidualReport:
    """The fixed-point report at n = 0: the relator, its other rows exactly 0."""
    return _report(rep, "fix", 0)


def fixed_point_residual(rep: SurfaceRep, n: int) -> ResidualReport:
    return _report(rep, "fix", n)


def torus_residual(trep: TorusRep, n: int) -> ResidualReport:
    return _report(trep, "torus", n)


def residual_for(rep: Rep, system: str, n: int) -> ResidualReport:
    """Residual report for one of the two equation systems."""
    if system == "fix":
        return fixed_point_residual(rep, n)
    if system == "torus":
        return torus_residual(rep, n)
    return _report(rep, system, n)


def residual_array(points: Sequence[Rep], system: str, n: int) -> np.ndarray:
    """Per-equation residuals of many points, shape (N, E): entry (i, j) is
    the j-th entry of residual_for(points[i], system, n) up to rounding.

    From _BATCH_MIN points on, the table runs once over numpy arrays, at
    about the cost of six single-point reports whatever N is.
    """
    if 0 < len(points) < _BATCH_MIN:
        return np.array([[v for _, v in _report(p, system, n).entries] for p in points])
    width = 7 if system == "torus" else 6
    coords = np.array([_quats(p, system) for p in points], dtype=float)
    # one (4, N) block of components per element
    q = np.ascontiguousarray(coords.reshape(len(points), width, 4).transpose(1, 2, 0))
    terms = _TABLES[system](q, n, ARRAY_OPS)
    return np.stack([_gap(l, r, np.sqrt) for _, l, r in terms], axis=1)


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
    report: ResidualReport
    converged: bool
    iterations: int


def _table_gaps(quats, system: str, n: int, ops) -> np.ndarray:
    terms = _TABLES[system](quats, n, ops)
    return np.array([u - v for _, lhs, rhs in terms for u, v in zip(lhs, rhs)])


def _signed_residual(elements: Sequence[SU2], system: str, n: int) -> np.ndarray:
    # signed 4-vector differences per equation, for the least-squares engine
    return _table_gaps([el.to_list() for el in elements], system, n, FLOAT_OPS)


def _signed_jacobian(elements: Sequence[SU2], system: str, n: int) -> np.ndarray:
    # d _signed_residual / d tangent: one complex table run over all 3k directions
    return tangent_jacobian(lambda q: _table_gaps(q, system, n, _COMPLEX_OPS), elements)


def project_to_variety(
    start: Rep,
    n: int,
    system: str,
    tol: float = 1e-9,
    max_iter: int = 100,
) -> VarietyProjection:
    """Damped least-squares projection onto one of the equation systems.

    Returns the best point found; `converged` is False when the budget
    runs out, never a silently bad output.
    """
    report = residual_for(start, system, n)
    if report.max <= tol:
        return VarietyProjection(start, report, True, 0)
    rebuild = TorusRep.from_elements if isinstance(start, TorusRep) else SurfaceRep.from_elements
    result = refine_elements(
        start.elements(),
        lambda elements: _signed_residual(elements, system, n),
        lambda elements: _signed_jacobian(elements, system, n),
        tol=min(tol * 1e-2, 1e-11),
        max_iter=max_iter,
    )
    rep = rebuild(result.elements)
    report = residual_for(rep, system, n)
    return VarietyProjection(rep, report, report.max <= tol, result.iterations)


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
    pre = surface_residual(rep).max
    if pre > tol:
        raise ValueError(f"surface residual {pre:.3e} exceeds tol {tol:.1e}")
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
