"""Numerical path certificates and the Monte Carlo component census.

A certificate is a discrete chain of near-solutions of one of the equation
systems with bounded per-point residual and bounded step between
consecutive points, a computable stand-in for a continuous path.
Certificates are evidence, not proofs: component separation is established
solely by the exact integer invariants, and the census reports the two
evidence channels (labels observed, path connections found) separately.

Canonical paths are staged:

1. move B1 to 1 while (A2, B2) follows the closed-form section over the
   commutator value forced by the relation (a moving-fiber continuation,
   exact at every node);
2. a global conjugation aligning A1's axis, followed by exact angle snaps
   of A1 and X (residuals are conjugation invariant, so these legs are
   nearly free; the pairs stay where they are, within rounding of the
   snapped fibers);
3. rotate X = [A3, B3] A1 at constant angle onto the reference axis,
   moving (A3, B3) and (A2, B2) along the section over their moving
   fibers; off the diagonal the moving target never crosses the identity,
   because angle(X) != angle(A1) there;
4. within-fiber legs to the canonical pair.

Central-component points instead descend through the mutually-commuting
stratum: snap to exactly-commuting tuples, contract along maximal tori,
then contract A1.  Mapping-torus points with non-central T descend through
the all-commuting stratum or, when T X^n is central, through an explicit
family trading the angle of A1 against T (also the bridge from T = -1).
probe_path joins two same-label points: the conjugation that best aligns
the first with the second, then, unless that lands within one step, the
canonical paths of both, the second reversed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .commutator import (
    ContinuationError,
    connect_in_fiber,
    continue_fiber,
    snap_commuting_pair,
)
from .components import (
    REFUSE_BAND,
    SNAP_BAND,
    TORUS_CENTRAL,
    ComponentLabel,
    ResidualError,
    TorusLabel,
    Unclassifiable,
    canonical_representative,
    canonical_torus_representative,
    classify_fix,
    classify_torus,
    count_fix,
    count_torus,
    enumerate_fix_labels,
    enumerate_torus_labels,
    label_residuals,
    quantized_angle,
    quantized_index,
    randomized_representative,
    randomized_torus_representative,
    read_fix_label,
    read_torus_label,
)
from .su2 import (
    E1,
    MAX_STEP,
    MINUS_ONE,
    ONE,
    SU2,
    axis_rotation,
    best_conjugator,
    central_gap,
    commutator,
    commute_pairwise,
    conjugators,
    contract_to_one,
    contraction,
    exp_axis_angle,
    step_between,
    step_count,
    stepped,
    torus_snap,
)
from .varieties import (
    Rep,
    SurfaceRep,
    TorusRep,
    derived_x,
    read_json,
    rep_from_dict,
    rep_to_dict,
    residual_array,
    trivial_rep,
)

__all__ = [
    "PathCertificate",
    "PathError",
    "LabelMismatchError",
    "probe_path",
    "canonical_path",
    "canonical_torus_path",
    "verify_certificate",
    "VerificationReport",
    "census",
    "CensusReport",
    "CensusRow",
    "CERT_FORMAT",
    "certificate_to_dict",
    "certificate_from_dict",
    "save_certificate",
    "load_certificate",
]

CERT_FORMAT = "pathcert-1"

_SYSTEM_IDS = {"fix": 0, "torus": 1}

TOL = 1e-7  # default acceptance bound on per-point residuals


class PathError(RuntimeError):
    """Path construction failed; `stage` names the failing leg."""

    def __init__(self, message: str, stage: str = ""):
        super().__init__(message if not stage else f"[{stage}] {message}")
        self.stage = stage


class LabelMismatchError(ValueError):
    """Endpoints carry different component labels; no path can exist."""


@dataclass(frozen=True)
class PathCertificate:
    """Discrete connectivity evidence for one equation system."""

    system: str
    n: int
    points: tuple[Rep, ...]
    max_residual: float
    max_step: float
    label: str
    tol: float


# -- small geometry helpers -------------------------------------------------

def _element(rep: Rep, name: str) -> SU2:
    """The named element of rep; "t" names T of a TorusRep."""
    if isinstance(rep, TorusRep):
        return rep.t if name == "t" else getattr(rep.rep, name)
    return getattr(rep, name)


def _with(rep: Rep, **els: SU2) -> Rep:
    """rep with the named elements replaced; "t" names T of a TorusRep."""
    if isinstance(rep, TorusRep):
        t = els.pop("t", rep.t)
        return TorusRep(t, replace(rep.rep, **els))
    return replace(rep, **els)


def _constant_angle_path(x: SU2, target_axis) -> tuple[Callable[[float], SU2], float]:
    """Path q(t) x q(t)^-1 rotating axis(x) onto target_axis; returns (path, psi)."""
    rot = axis_rotation(x.axis(), target_axis, tol=1e-14)
    if rot is None:
        return (lambda t: x), 0.0
    m, psi = rot

    def path(t: float) -> SU2:
        q = exp_axis_angle(m, 0.5 * psi * t)
        return x.conjugate_by(q)

    return path, psi


# -- certificate assembly and verification ----------------------------------

def _finish(
    points: list[Rep], system: str, n: int, label_text: str, tol: float
) -> PathCertificate:
    """Keep each point more than 1e-14 from the last kept one, and end on the
    last point, in place of its near-duplicate; check the bounds."""
    pts, steps = [points[0]], [0.0]
    for p in points[1:]:
        step = step_between(pts[-1].elements(), p.elements())
        if step > 1e-14:
            pts.append(p)
            steps.append(step)
    if pts[-1] is not points[-1]:
        pts[-1] = points[-1]
        if len(pts) > 1:
            steps[-1] = step_between(pts[-2].elements(), pts[-1].elements())
    max_step = max(steps)
    max_residual = float(residual_array(pts, system, n).max())
    if max_residual > tol:
        raise PathError(
            f"constructed path violates residual bound: {max_residual:.3e}",
            stage="assembly",
        )
    if max_step > MAX_STEP + 1e-12:
        raise PathError(
            f"constructed path violates step bound: {max_step:.3f}", stage="assembly"
        )
    return PathCertificate(system, n, tuple(pts), max_residual, max_step, label_text, tol)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    problems: tuple[str, ...]


def _labels(
    pts: Sequence[Rep], system: str, n: int, tol: float
) -> tuple[np.ndarray, list[ComponentLabel | TorusLabel | None]]:
    """The residuals of pts in `system` and their labels (None where
    unclassifiable at tol): one label_residuals batch, then the readings."""
    residuals, fix_residuals = label_residuals(pts, system, n)
    out: list[ComponentLabel | TorusLabel | None] = []
    for p, res, fix_res in zip(pts, residuals, fix_residuals):
        try:
            if system == "fix":
                out.append(read_fix_label(p, n, fix_res, tol))
            else:
                out.append(read_torus_label(p, n, res, fix_res, tol))
        except (Unclassifiable, ResidualError):
            out.append(None)
    return residuals, out


def verify_certificate(cert: PathCertificate) -> VerificationReport:
    """Independent re-check of every certificate invariant.

    Uses only the residual table (one label_residuals batch, which doubles
    as the readings' precondition) and the label readings: per-point
    residuals against the stated maximum, the stated maximum against the
    stated tolerance, consecutive steps against the stated step bound, that
    bound against MAX_STEP, and the label of every point, endpoints and
    interior alike, against the stated label (an unclassifiable point is a
    problem).
    """
    problems: list[str] = []
    pts = cert.points
    if not pts:
        return VerificationReport(False, ("certificate has no points",))
    if cert.max_residual > cert.tol:
        problems.append(
            f"stated residual bound {cert.max_residual:.3e} exceeds tolerance {cert.tol:.1e}"
        )
    if cert.max_step > MAX_STEP + 1e-12:
        problems.append(f"stated step bound {cert.max_step:.3f} exceeds MAX_STEP = {MAX_STEP}")
    residuals, labels = _labels(pts, cert.system, cert.n, cert.tol)
    for i, r in enumerate(residuals):
        if r > cert.max_residual + 1e-14:
            problems.append(f"point {i}: residual {r:.3e} above stated bound")
    for i, (p, q) in enumerate(zip(pts, pts[1:])):
        s = step_between(p.elements(), q.elements())
        if s > cert.max_step + 1e-12:
            problems.append(f"step {i}->{i + 1}: {s:.4f} above stated bound")
    for i, label in enumerate(labels):
        if label is None:
            problems.append(f"point {i} is unclassifiable")
        elif label.text() != cert.label:
            problems.append(
                f"point {i} classifies as {label.text()!r}, certificate says {cert.label!r}"
            )
    return VerificationReport(not problems, tuple(problems))


def certificate_to_dict(cert: PathCertificate) -> dict:
    return {
        "format": CERT_FORMAT,
        "system": cert.system,
        "n": cert.n,
        "label": cert.label,
        "tol": cert.tol,
        "max_residual": cert.max_residual,
        "max_step": cert.max_step,
        "points": [rep_to_dict(p, cert.n) for p in cert.points],
    }


# the fields of a certificate document and their JSON types; float admits int, none bool
_CERT_FIELDS = (
    ("system", str), ("n", int), ("label", str), ("tol", float),
    ("max_residual", float), ("max_step", float), ("points", list),
)


def certificate_from_dict(data: dict) -> PathCertificate:
    if not isinstance(data, dict):
        raise ValueError("certificate document must be a JSON object")
    if data.get("format") != CERT_FORMAT:
        raise ValueError(
            f"format: expected {CERT_FORMAT!r}, found {data.get('format')!r}"
        )
    for key, kind in _CERT_FIELDS:
        if key not in data:
            raise ValueError(f"{key}: missing")
        accepted = (int, float) if kind is float else kind
        if isinstance(data[key], bool) or not isinstance(data[key], accepted):
            raise ValueError(f"{key}: expected {kind.__name__}, found {data[key]!r}")
    if data["system"] not in _SYSTEM_IDS:
        raise ValueError(f"system: unknown {data['system']!r}")
    points = []
    for i, pdoc in enumerate(data["points"]):
        try:
            _, rep = rep_from_dict(pdoc)
        except ValueError as exc:
            raise ValueError(f"points[{i}]: {exc}") from exc
        points.append(rep)
    want_torus = data["system"] == "torus"
    for i, p in enumerate(points):
        if isinstance(p, TorusRep) != want_torus:
            raise ValueError(f"points[{i}]: wrong representation kind for system")
    return PathCertificate(
        data["system"],
        data["n"],
        tuple(points),
        float(data["max_residual"]),
        float(data["max_step"]),
        data["label"],
        float(data["tol"]),
    )


def save_certificate(path: str | Path, cert: PathCertificate) -> None:
    Path(path).write_text(json.dumps(certificate_to_dict(cert)) + "\n")


def load_certificate(path: str | Path) -> PathCertificate:
    return certificate_from_dict(read_json(path))


# -- staged legs ---------------------------------------------------------------

def _contract(rep: Rep, names: Sequence[str], axis=E1) -> list[Rep]:
    """Contract the named elements of rep to 1 in turn (see contract_to_one)."""
    out: list[Rep] = []
    for name in names:
        for node in contract_to_one(_element(rep, name), axis):
            rep = _with(rep, **{name: node})
            out.append(rep)
    return out


def _fiber_leg(rep: Rep, names: tuple[str, str], end: tuple[SU2, SU2], c: SU2) -> list[Rep]:
    """Move the named pair of rep to `end` inside the fiber [ , ] = c."""
    a, b = names
    leg = connect_in_fiber((_element(rep, a), _element(rep, b)), end, c)
    return [_with(rep, **{a: p, b: q}) for p, q in leg[1:]]


def _continuation(
    pairs: tuple,
    targets: Callable[[float], tuple[SU2, ...]],
    init_steps: int,
    stage: str,
) -> list:
    """continue_fiber's (t, pairs) nodes after t = 0; failures as PathError."""
    try:
        nodes = continue_fiber(pairs, targets, init_steps=init_steps)
    except ContinuationError as exc:
        raise PathError(str(exc), stage=stage) from exc
    return nodes[1:]


def _track_b1_leg(rep: SurfaceRep) -> list[SurfaceRep]:
    """Move B1 to 1; (A2, B2) tracks [A1, B1(t)]^-1 [A3, B3]^-1."""
    if rep.b1.dist(ONE) < 1e-15:
        return []
    y3inv = commutator(rep.a3, rep.b3).inverse()
    a1 = rep.a1
    b1_path, speed = contraction(rep.b1, E1 if a1.is_central(1e-9) else a1.axis())

    def targets(t: float) -> tuple[SU2]:
        return (commutator(a1, b1_path(t)).inverse() * y3inv,)

    init_steps = max(8, step_count(speed))
    nodes = _continuation(((rep.a2, rep.b2),), targets, init_steps, "move-b1")
    return [replace(rep, b1=b1_path(t), a2=a2, b2=b2) for t, ((a2, b2),) in nodes]


def _dual_fiber_leg(
    rep: SurfaceRep,
    y_of_t: Callable[[float], SU2],
    speed: float,
    stage: str,
) -> list[SurfaceRep]:
    """March (A3, B3) along [ , ] = Y(t) and (A2, B2) along Y(t)^-1, t: 0 -> 1.

    B1 must already be 1, so the relation couples the two pairs through
    Y(t) alone; `speed` bounds the speed of Y.  Both pairs follow the
    closed-form section, which tends to a commuting pair (a, a^-1) as Y
    tends to 1, so a leg that pulls Y to 1 ends on the commuting stratum.
    """

    def targets(t: float) -> tuple[SU2, SU2]:
        y = y_of_t(t)
        return (y, y.inverse())

    init_steps = max(4, step_count(speed))
    pairs = ((rep.a3, rep.b3), (rep.a2, rep.b2))
    nodes = _continuation(pairs, targets, init_steps, stage)
    return [
        replace(rep, a3=a3, b3=b3, a2=a2, b2=b2) for _, ((a3, b3), (a2, b2)) in nodes
    ]


# -- canonical staged paths (fixed-point system) ------------------------------

def _snap_to_angle(el: SU2, theta: float) -> SU2:
    """Same axis as el, exact angle theta; +-1 for central angles."""
    if math.sin(theta) < 1e-12:
        return ONE if math.cos(theta) > 0 else MINUS_ONE
    return exp_axis_angle(el.axis(), theta)


def _central_descent(rep: SurfaceRep, m: int) -> list[SurfaceRep]:
    """Descend a central-component point (B1 = 1 already) to the trivial tuple.

    Each branch first reaches (A1, 1, commuting A2 B2, commuting A3 B3).
    While [A3, B3] = 1 every condition reads off X = A1, so contracting
    A3, B3, A2, B2 and then A1 along their tori keeps the whole system exact.
    """
    points: list[SurfaceRep] = []
    merge = None  # (Y path, its speed bound, stage) of a leg pulling [A3, B3] to 1
    if m == 0:
        # every admissible tuple is a solution: pull [A3, B3] to 1 directly
        y0 = commutator(rep.a3, rep.b3)
        if y0.dist(ONE) > 1e-12:
            merge = (*contraction(y0, E1), "descend-n0")
    else:
        gap, sigma = central_gap(rep.a1.power(m))
        if gap > REFUSE_BAND:
            # A1^m non-central: A3, B3 already sit on A1's maximal torus
            axis = rep.a1.axis()
            rep = replace(rep, a3=torus_snap(rep.a3, axis), b3=torus_snap(rep.b3, axis))
        else:
            # diagonal stratum: A1^m central and angle(X) = angle(A1)
            k = quantized_index(rep.a1.angle(), m, sigma, "angle(a1)")
            theta = quantized_angle(m, "+" if sigma > 0 else "-", k)
            rep = replace(rep, a1=_snap_to_angle(rep.a1, theta))
            points.append(rep)
            y0 = commutator(rep.a3, rep.b3)
            if y0.dist(ONE) > 1e-9 and not rep.a1.is_central(1e-12):
                x_path, psi = _constant_angle_path(y0 * rep.a1, rep.a1.axis())
                a1_inv = rep.a1.inverse()
                merge = (lambda t: x_path(t) * a1_inv, psi, "diagonal-merge")
    if merge is None:
        a3, b3 = snap_commuting_pair(rep.a3, rep.b3)
        a2, b2 = snap_commuting_pair(rep.a2, rep.b2)
        points.append(replace(rep, a2=a2, b2=b2, a3=a3, b3=b3))
    else:
        points += _dual_fiber_leg(rep, *merge)
    points += _contract(points[-1], ("a3", "b3", "a2", "b2", "a1"))
    return points


def canonical_path(rep: SurfaceRep, n: int, tol: float = TOL) -> PathCertificate:
    """Certificate from `rep` to the canonical representative of its label."""
    label = classify_fix(rep, n, tol)
    return _finish(_path_points(rep, "fix", n, label, tol), "fix", n, label.text(), tol)


def _fix_path_points(rep: SurfaceRep, n: int, label: ComponentLabel) -> list[SurfaceRep]:
    """The staged path's nodes from `rep`, of component `label`, not yet assembled."""
    m = abs(n)
    points: list[SurfaceRep] = [rep]
    points += _track_b1_leg(rep)

    if label.is_central:
        points += _central_descent(points[-1], m)
        points.append(trivial_rep())
        return points

    current = points[-1]
    theta_k = quantized_angle(m, label.sign, label.k)
    theta_l = quantized_angle(m, label.sign, label.l)

    # global conjugation aligning A1's axis with the reference axis
    if math.sin(theta_k) > 1e-12:
        rot = axis_rotation(current.a1.axis(), E1)
        g = ONE if rot is None else exp_axis_angle(rot[0], rot[1] / 2.0)
        points += [current.conjugate(h) for h in conjugators(g)]
        current = points[-1]

    # exact snaps: A1's angle, then X's angle
    a1_new = _snap_to_angle(current.a1, theta_k)
    x_snapped = _snap_to_angle(
        commutator(current.a3, current.b3) * a1_new, theta_l
    )
    current = replace(current, a1=a1_new)
    points.append(current)

    # rotate X onto the reference axis at constant angle
    if math.sin(theta_l) > 1e-12:
        x_path, psi = _constant_angle_path(x_snapped, E1)
        if psi > 1e-12:
            a1_inv = current.a1.inverse()
            points += _dual_fiber_leg(
                current, lambda t: x_path(t) * a1_inv, psi, "rotate-x"
            )

    # within-fiber legs to the canonical pairs
    target = canonical_representative(n, label)
    y_star = commutator(target.a3, target.b3)
    points += _fiber_leg(points[-1], ("a3", "b3"), (target.a3, target.b3), y_star)
    points += _fiber_leg(
        points[-1], ("a2", "b2"), (target.a2, target.b2), y_star.inverse()
    )
    points.append(target)
    return points


# -- canonical staged paths (torus system) -----------------------------------

def _snap_and_contract(trep: TorusRep, names: Sequence[str]) -> list[TorusRep]:
    """Snap the named elements onto T's maximal torus, then contract them (T
    too, when named) to 1 along it in turn; the snapped point comes first."""
    axis = trep.t.axis()
    snapped = {k: torus_snap(_element(trep, k), axis) for k in names if k != "t"}
    start = _with(trep, **snapped)
    return [start] + _contract(start, names, axis)


def _trade_a1_against_t(rep: SurfaceRep, n: int, s_sign: int, axis) -> list[TorusRep]:
    """Explicit nodes from rep (A3 = B1, B3 = A1, A2 = B2 = 1) to (1, trivial).

    Moves A1 (with B3 = A1) about `axis` to omega with omega^n = s, T written
    out as s B1 A1^-n B1^-1; then B1 (with A3 = B1) to 1 at T = 1; then
    contracts A1 = B3.
    """
    s = ONE if s_sign > 0 else MINUS_ONE
    theta0 = rep.a1.angle()
    theta1 = 0.0 if s_sign > 0 else math.pi / abs(n)
    b1, b1_inv = rep.b1, rep.b1.inverse()

    def family(t: float) -> TorusRep:
        a = exp_axis_angle(axis, theta0 + (theta1 - theta0) * t)
        return TorusRep(s * (b1 * a.power(-n) * b1_inv), replace(rep, a1=a, b3=a))

    out = stepped(family, (1 + abs(n)) * abs(theta0 - theta1))
    # the family ends at T = +1 up to rounding
    end = out[-1].rep
    out += [TorusRep(ONE, replace(end, b1=b, a3=b)) for b in contract_to_one(b1, axis)]
    return out + _contract(out[-1], ("b3", "a1"), axis)


def _bridge_to_plus_one(n: int) -> list[TorusRep]:
    """Explicit nodes from (-1, trivial) to (1, trivial)."""
    if n == 0:
        return _contract(TorusRep(MINUS_ONE, trivial_rep()), ("t",))
    return _trade_a1_against_t(trivial_rep(), n, -1, E1)


def _boundary_stratum_descent(trep: TorusRep, n: int) -> list[TorusRep]:
    """Descent for tuples with T X^n central but T non-central.

    On this stratum [A3, B3] = [B1, A1] and T = s B1 A1^-n B1^-1; the path
    moves (A3, B3) to (B1, A1) inside their commutator fiber, clears
    (A2, B2) along T's torus, then trades the angle of A1 against T until
    T reaches +1, tracking B3 = A1 and A3 = B1 throughout.
    """
    if n == 0:
        raise PathError("no boundary stratum at n = 0", stage="boundary")
    rep = trep.rep
    gap, s_sign = central_gap(trep.t * derived_x(rep).power(n))
    if gap > 10 * SNAP_BAND:
        raise PathError(
            f"T X^n at distance {gap:.2e} from the center: unrecognized stratum",
            stage="boundary",
        )
    out: list[TorusRep] = [trep]
    out += _fiber_leg(trep, ("a3", "b3"), (rep.b1, rep.a1), commutator(rep.b1, rep.a1))
    out += _snap_and_contract(out[-1], ("a2", "b2"))
    out += _trade_a1_against_t(out[-1].rep, n, s_sign, rep.a1.axis())
    return out[1:]


def canonical_torus_path(trep: TorusRep, n: int, tol: float = TOL) -> PathCertificate:
    """Certificate from a mapping-torus point to its canonical representative."""
    label = classify_torus(trep, n, tol)
    return _finish(_path_points(trep, "torus", n, label, tol), "torus", n, label.text(), tol)


def _torus_path_points(
    trep: TorusRep, n: int, label: TorusLabel, tol: float
) -> list[TorusRep]:
    """The staged path's nodes from `trep`, of component `label`, not yet assembled."""
    points: list[TorusRep] = [trep]
    gap, eps_sign = central_gap(trep.t)
    if gap <= SNAP_BAND:
        # central T (as every non-central label has): lift the fix path;
        # here label.fix is the fixed-point label of trep.rep
        eps = ONE if eps_sign > 0 else MINUS_ONE
        points.append(TorusRep(eps, trep.rep))
        points += [TorusRep(eps, p) for p in _fix_path_points(trep.rep, n, label.fix)[1:]]
        if not label.is_central:
            return points
        if eps_sign < 0:
            points += _bridge_to_plus_one(n)
    elif commute_pairwise(trep.elements(), 10 * tol):
        points += _snap_and_contract(trep, ("a3", "b3", "a2", "b2", "b1", "a1", "t"))
    else:
        points += _boundary_stratum_descent(trep, n)
    points.append(canonical_torus_representative(n, TORUS_CENTRAL))
    return points


# -- the staged path of every system, and joins between two points -------------

def _path_points(
    rep: Rep, system: str, n: int, label: ComponentLabel | TorusLabel, tol: float
) -> list[Rep]:
    """The staged path's nodes from `rep`, of component `label`, not yet assembled."""
    if system == "torus":
        return _torus_path_points(rep, n, label, tol)
    return _fix_path_points(rep, n, label)


def probe_path(
    r0: Rep,
    r1: Rep,
    system: str,
    n: int,
    tol: float = TOL,
) -> PathCertificate:
    """Certificate between same-label endpoints.

    The first leg conjugates r0 by the best-aligning conjugator, stepped;
    the equations are conjugation invariant, so every node is exact.
    Unless that leg ends within MAX_STEP of r1, the canonical paths from
    its end and from r1 follow, the second reversed.  Endpoints with
    different labels are refused immediately.
    """
    residuals, (label0, label1) = _labels([r0, r1], system, n, tol)
    for name, res in zip(("first", "second"), residuals):
        if res > tol:
            raise ResidualError(f"{name} endpoint residual {res:.3e} above tolerance")
    if label0 is None or label1 is None:
        raise Unclassifiable("endpoint label could not be determined")
    if label0 != label1:
        raise LabelMismatchError(
            f"endpoint labels differ: {label0.text()!r} vs {label1.text()!r}"
        )

    g = best_conjugator(r0.elements(), r1.elements())
    points = [r0, *(r0.conjugate(h) for h in conjugators(g))]
    if step_between(points[-1].elements(), r1.elements()) > MAX_STEP:
        points += _path_points(points[-1], system, n, label0, tol)
        points += _path_points(r1, system, n, label0, tol)[::-1]
    points.append(r1)
    return _finish(points, system, n, label0.text(), tol)


# -- Monte Carlo census -------------------------------------------------------

@dataclass(frozen=True)
class CensusRow:
    label: str
    samples: int
    classified: int
    path_ok: int

    @property
    def success_rate(self) -> float:
        return self.path_ok / self.samples if self.samples else 1.0


@dataclass(frozen=True)
class CensusReport:
    system: str
    n: int
    samples_per_label: int
    seed: int
    closed_form: int
    labels_observed: tuple[str, ...]
    label_anomalies: int
    rows: tuple[CensusRow, ...]

    @property
    def estimated_components(self) -> int:
        return len(self.labels_observed)

    @property
    def unresolved_samples(self) -> int:
        """Samples left without a verified certificate."""
        return sum(r.samples - r.path_ok for r in self.rows)

    @property
    def path_classes(self) -> int:
        """One class per label plus one per unresolved sample (see census)."""
        return len(self.rows) + self.unresolved_samples

    @property
    def cross_label_certificates(self) -> int:
        """Certificates joining two labels: 0 by construction, since a
        certificate counts only after verify_certificate has required both
        endpoints to carry its label.  Kept in the census-1 document."""
        return 0

    @property
    def agrees_with_closed_form(self) -> bool:
        return self.estimated_components == self.closed_form

    @property
    def passes_gate(self) -> bool:
        """Closed form met, at least 95% of samples pathed, none across labels."""
        return (
            self.agrees_with_closed_form
            and self.overall_success_rate >= 0.95
            and self.cross_label_certificates == 0
        )

    @property
    def overall_success_rate(self) -> float:
        total = sum(r.samples for r in self.rows)
        good = sum(r.path_ok for r in self.rows)
        return good / total if total else 1.0

    def to_dict(self) -> dict:
        return {
            "format": "census-1",
            "system": self.system,
            "n": self.n,
            "samples_per_label": self.samples_per_label,
            "seed": self.seed,
            "closed_form": self.closed_form,
            "labels_observed": list(self.labels_observed),
            "estimated_components": self.estimated_components,
            "path_classes": self.path_classes,
            "unresolved_samples": self.unresolved_samples,
            "cross_label_certificates": self.cross_label_certificates,
            "label_anomalies": self.label_anomalies,
            "agrees_with_closed_form": self.agrees_with_closed_form,
            "overall_success_rate": self.overall_success_rate,
            "rows": [
                {
                    "label": r.label,
                    "samples": r.samples,
                    "classified": r.classified,
                    "path_ok": r.path_ok,
                    "success_rate": r.success_rate,
                }
                for r in self.rows
            ],
        }


# A census sample's own failures: path errors (a continuation whose step
# underflows or whose node budget runs out arrives as one) and the
# classifiers' refusals; anything else, say a math domain error, is a bug.
_SAMPLE_FAILURES = (PathError, Unclassifiable, ResidualError)


def census(
    n: int,
    system: str,
    samples_per_label: int,
    seed: int,
    tol: float = TOL,
) -> CensusReport:
    """Sample every component, classify, and collect path evidence.

    Per-sample generators are pure functions of (seed, system, label index,
    sample index) and draw only the sample; path construction draws
    nothing, so results do not depend on scheduling.  Failures are
    reported, never raised.  The component estimate is the number of
    distinct labels observed (the exact-invariant channel).  The path
    channel, `path_classes`, is one class per label plus one per sample
    left without a verified path: a certificate joins a sample to its own
    label's canonical representative, never two labels to each other.
    """
    if system == "fix":
        labels, closed = enumerate_fix_labels(n), count_fix(n)
        sample, classify = randomized_representative, classify_fix
    elif system == "torus":
        labels, closed = enumerate_torus_labels(n), count_torus(n)
        sample, classify = randomized_torus_representative, classify_torus
    else:
        raise ValueError(f"census runs on 'fix' or 'torus', not {system!r}")
    system_id = _SYSTEM_IDS[system]

    observed: set[str] = set()
    rows: list[CensusRow] = []
    anomalies = 0
    for li, label in enumerate(labels):
        classified = 0
        path_ok = 0
        for i in range(samples_per_label):
            rng = np.random.default_rng([seed, system_id, li, i])
            try:
                rep = sample(n, label, rng)
                got = classify(rep, n, tol)
            except _SAMPLE_FAILURES:
                continue
            classified += 1
            observed.add(got.text())
            if got != label:
                anomalies += 1
            try:
                points = _path_points(rep, system, n, got, tol)
                cert = _finish(points, system, n, got.text(), tol)
            except _SAMPLE_FAILURES:
                continue
            if verify_certificate(cert).ok:
                path_ok += 1
        rows.append(CensusRow(label.text(), samples_per_label, classified, path_ok))
    return CensusReport(
        system=system,
        n=n,
        samples_per_label=samples_per_label,
        seed=seed,
        closed_form=closed,
        labels_observed=tuple(sorted(observed)),
        label_anomalies=anomalies,
        rows=tuple(rows),
    )
