"""Connected-component invariants, counts, classifiers, and representatives.

On the fixed-point set of the n-th twist power, A1^n and X^n (X = [A3,B3]A1)
agree; when they are central with value sigma, the angles of A1 and X are
quantized to 2*pi*k/n (sigma = +1) or (2k+1)*pi/n (sigma = -1), and the pair
of indices (k, l) is a locally constant integer invariant.  Distinct
off-diagonal index pairs name distinct connected components; the diagonal
pairs and the stratum where A1^n is not central merge into the single
component of the trivial representation.  The resulting closed-form counts
are

    fixed-point set / its conjugation quotient:  floor(n^2/2) + 1
    mapping-torus representation variety:        2*floor(n^2/2) + 1

where the torus count doubles every non-central component across the two
central values of T and keeps one merged central component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .commutator import sample_fiber, solve_commutator
from .su2 import (
    E1,
    MINUS_ONE,
    ONE,
    SU2,
    central_gap,
    commutator,
    exp_axis_angle,
    haar_random,
    random_axis,
)
from .varieties import (
    Rep,
    SurfaceRep,
    TorusRep,
    derived_x,
    random_surface_rep,
    residual_array,
    trivial_rep,
)

__all__ = [
    "ComponentLabel",
    "TorusLabel",
    "CENTRAL",
    "TORUS_CENTRAL",
    "Unclassifiable",
    "ResidualError",
    "count_fix",
    "count_fix_char",
    "count_torus",
    "floor_count_identity",
    "enumerate_fix_labels",
    "enumerate_torus_labels",
    "classify_fix",
    "classify_torus",
    "label_residuals",
    "read_fix_label",
    "read_torus_label",
    "quantized_angle",
    "quantized_index",
    "canonical_representative",
    "canonical_torus_representative",
    "randomized_representative",
    "randomized_torus_representative",
    "random_extended_fixed_sample",
]

# A1^n within SNAP_BAND of a central value counts as central.  Inside the
# annulus [SNAP_BAND, REFUSE_BAND] the central and non-central readings are
# compared: they agree (on the central label) exactly when the quantized
# indices coincide, which holds for every on-variety point there, since a
# non-central A1^n forces X = A1.  Disagreement means the point is off the
# variety at working precision, and classification refuses to guess.
SNAP_BAND = 1e-6
REFUSE_BAND = 1e-4
ROUND_TOL = 0.05


class Unclassifiable(ValueError):
    """The point cannot be assigned a component label at this precision."""


class ResidualError(ValueError):
    """The point's residual exceeds the tolerance: it is off the variety."""


@dataclass(frozen=True, order=True)
class ComponentLabel:
    """Component invariant: central, or a sign with an index pair k != l."""

    sign: str = ""  # "" (central component), "+", or "-"
    k: int = 0
    l: int = 0

    def __post_init__(self):
        if self.sign == "":
            if self.k or self.l:
                raise ValueError("central label carries no indices")
        elif self.sign in ("+", "-"):
            if self.k == self.l:
                raise ValueError("diagonal index pairs merge into the central component")
            if self.k < 0 or self.l < 0:
                raise ValueError("indices must be nonnegative")
        else:
            raise ValueError(f"bad sign {self.sign!r}")

    @property
    def is_central(self) -> bool:
        return self.sign == ""

    def text(self) -> str:
        return "central" if self.is_central else f"{self.sign},{self.k},{self.l}"

    @classmethod
    def parse(cls, text: str) -> "ComponentLabel":
        text = text.strip()
        if text == "central":
            return CENTRAL
        parts = text.split(",")
        if len(parts) != 3 or parts[0] not in ("+", "-"):
            raise ValueError(f"bad component label {text!r}")
        return cls(parts[0], int(parts[1]), int(parts[2]))

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True, order=True)
class TorusLabel:
    """Mapping-torus component invariant: central, or (epsilon, sign, k, l)."""

    epsilon: int = 0  # 0 for the merged central component, else +1 / -1
    fix: ComponentLabel = ComponentLabel()

    def __post_init__(self):
        if self.epsilon == 0:
            if not self.fix.is_central:
                raise ValueError("central torus label carries no fix label")
        elif self.epsilon in (1, -1):
            if self.fix.is_central:
                raise ValueError("central fix components merge across both epsilon values")
        else:
            raise ValueError(f"bad epsilon {self.epsilon!r}")

    @property
    def is_central(self) -> bool:
        return self.epsilon == 0

    def text(self) -> str:
        if self.is_central:
            return "central"
        return f"eps={self.epsilon:+d},{self.fix.text()}"

    @classmethod
    def parse(cls, text: str) -> "TorusLabel":
        text = text.strip()
        if text == "central":
            return TORUS_CENTRAL
        if not text.startswith("eps="):
            raise ValueError(f"bad torus label {text!r}")
        head, rest = text[4:].split(",", 1)
        return cls(int(head), ComponentLabel.parse(rest))

    def __str__(self) -> str:
        return self.text()


CENTRAL = ComponentLabel()
TORUS_CENTRAL = TorusLabel()


# -- closed-form counts ----------------------------------------------------

def count_fix(n: int) -> int:
    """Components of the fixed-point set: floor(n^2/2) + 1."""
    return (n * n) // 2 + 1


def count_fix_char(n: int) -> int:
    """Components of the conjugation quotient of the fixed-point set.

    Equal to count_fix(n) here; the two counts need not agree for other
    surface homeomorphisms.
    """
    return count_fix(n)


def count_torus(n: int) -> int:
    """Components of the mapping-torus representation variety.

    2*floor(n^2/2) + 1, i.e. n^2 + 1 for even n and n^2 for odd n; the same
    count holds for its conjugation quotient.
    """
    return 2 * ((n * n) // 2) + 1


def floor_count_identity(n: int) -> bool:
    """Off-diagonal pairs in both index ranges plus one merged component
    add up to the closed form."""
    m = n // 2
    mm = (n - 1) // 2
    return (m + 1) * m + (mm + 1) * mm + 1 == (n * n) // 2 + 1


def _index_bound(n: int, sign: str) -> int:
    return n // 2 if sign == "+" else (n - 1) // 2


def enumerate_fix_labels(n: int) -> list[ComponentLabel]:
    """All component labels at twist power n, central first, sorted."""
    n = abs(n)
    labels = [CENTRAL]
    for sign in ("+", "-"):
        bound = _index_bound(n, sign)
        for k in range(bound + 1):
            for l in range(bound + 1):
                if k != l:
                    labels.append(ComponentLabel(sign, k, l))
    labels.sort()
    return labels


def enumerate_torus_labels(n: int) -> list[TorusLabel]:
    labels = [TORUS_CENTRAL]
    for fix in enumerate_fix_labels(n):
        if not fix.is_central:
            labels.append(TorusLabel(1, fix))
            labels.append(TorusLabel(-1, fix))
    labels.sort(key=lambda t: (not t.is_central, -t.epsilon, t.fix))
    return labels


def _validate_label(label: ComponentLabel, n: int) -> None:
    if label.is_central:
        return
    bound = _index_bound(abs(n), label.sign)
    if label.k > bound or label.l > bound:
        raise ValueError(f"label {label} out of range for n={n}")


# -- classification ---------------------------------------------------------

def quantized_index(theta: float, m: int, sigma: int, what: str) -> int:
    """Index k of the quantized angle theta (see quantized_angle) for
    A1^m ~ sigma; Unclassifiable when theta is not near one in range."""
    bound = _index_bound(m, "+" if sigma > 0 else "-")
    value = m * theta / (2.0 * math.pi) if sigma > 0 else (m * theta / math.pi - 1.0) / 2.0
    k = round(value)
    if abs(value - k) > ROUND_TOL:
        raise Unclassifiable(
            f"{what}: quantized value {value:.4f} is {abs(value - k):.3f} from an integer"
        )
    if not 0 <= k <= bound:
        raise Unclassifiable(f"{what}: index {k} outside [0, {bound}]")
    return k


def label_residuals(points: Sequence[Rep], system: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the two residuals a label reading needs: the residual in
    `system` and the fixed-point residual at n of the surface part."""
    residuals = residual_array(points, system, n).max(axis=1)
    if system == "torus" and n:
        return residuals, residual_array([p.rep for p in points], "fix", n).max(axis=1)
    return residuals, residuals


def classify_fix(rep: SurfaceRep, n: int, tol: float = 1e-9) -> ComponentLabel:
    """Component label of a point of the fixed-point set.

    Raises ResidualError when the residual precondition fails and
    Unclassifiable when centrality or index rounding is ambiguous.
    """
    _, (fix_residual,) = label_residuals([rep], "fix", n)
    return read_fix_label(rep, n, fix_residual, tol)


def read_fix_label(rep: SurfaceRep, n: int, residual: float, tol: float) -> ComponentLabel:
    """classify_fix given the point's fixed-point residual at n (see
    label_residuals); the reading itself only depends on |n|."""
    m = abs(n)
    if m == 0:
        return CENTRAL
    if residual > tol:
        raise ResidualError(f"fixed-point residual {residual:.3e} exceeds tol {tol:.1e}")
    a1n = rep.a1.power(m)
    gap, sigma = central_gap(a1n)
    if gap > REFUSE_BAND:
        return CENTRAL
    sign = "+" if sigma > 0 else "-"
    k = quantized_index(rep.a1.angle(), m, sigma, "angle(a1)")
    l = quantized_index(derived_x(rep).angle(), m, sigma, "angle(x)")
    if k == l:
        return CENTRAL
    if gap > SNAP_BAND:
        # the central reading says (sign, k, l), the non-central reading
        # says central; no on-variety point does this
        raise Unclassifiable(
            f"a1^n at distance {gap:.2e} from the center with distinct indices"
            f" ({k}, {l})"
        )
    return ComponentLabel(sign, k, l)


def classify_torus(trep: TorusRep, n: int, tol: float = 1e-9) -> TorusLabel:
    """Component label of a point of the mapping-torus variety.

    Points with non-central T all belong to the merged central component;
    for T at a central value epsilon the label lifts the fixed-point label.
    """
    (residual,), (fix_residual,) = label_residuals([trep], "torus", n)
    return read_torus_label(trep, n, residual, fix_residual, tol)


def read_torus_label(
    trep: TorusRep, n: int, residual: float, fix_residual: float, tol: float
) -> TorusLabel:
    """classify_torus given the torus residual of the point and the
    fixed-point residual of its surface part at n (see label_residuals)."""
    if residual > tol:
        raise ResidualError(f"torus residual {residual:.3e} exceeds tol {tol:.1e}")
    if abs(n) == 0:
        return TORUS_CENTRAL
    gap, epsilon = central_gap(trep.t)
    if gap > REFUSE_BAND:
        return TORUS_CENTRAL
    # inside the annulus (gap > SNAP_BAND) the two readings of T must agree
    try:
        fix = read_fix_label(trep.rep, n, fix_residual, tol)
    except (ResidualError, Unclassifiable) as exc:
        if gap > SNAP_BAND:
            # surface part off the fixed-point set, so T is not exactly
            # central and the tuple sits in the merged component
            return TORUS_CENTRAL
        if isinstance(exc, Unclassifiable):
            raise
        raise Unclassifiable(
            f"T central but the surface tuple is off the fixed-point set: {exc}"
        ) from exc
    if fix.is_central:
        return TORUS_CENTRAL
    if gap > SNAP_BAND:
        raise Unclassifiable(
            f"T at distance {gap:.2e} from the center over the component {fix}"
        )
    return TorusLabel(epsilon, fix)


# -- representatives ---------------------------------------------------------

def quantized_angle(m: int, sign: str, k: int) -> float:
    return 2.0 * math.pi * k / m if sign == "+" else (2 * k + 1) * math.pi / m


def canonical_representative(n: int, label: ComponentLabel) -> SurfaceRep:
    """Deterministic exact representative of a component.

    A1 and the target for X are put on the i-axis with the quantized
    angles; (A3, B3) solves [A3, B3] = X A1^-1 in closed form, B1 = 1, and
    (A2, B2) solves the commutator equation forced by the relation.
    """
    _validate_label(label, n)
    if label.is_central:
        return trivial_rep()
    m = abs(n)
    theta_k = quantized_angle(m, label.sign, label.k)
    theta_l = quantized_angle(m, label.sign, label.l)
    a1 = exp_axis_angle(E1, theta_k)
    x_target = exp_axis_angle(E1, theta_l)
    a3, b3 = solve_commutator(x_target * a1.inverse())
    a2, b2 = solve_commutator(commutator(a3, b3).inverse())
    return SurfaceRep(a1, ONE, a2, b2, a3, b3)


def canonical_torus_representative(n: int, label: TorusLabel) -> TorusRep:
    if label.is_central:
        return TorusRep(ONE, trivial_rep())
    t = ONE if label.epsilon > 0 else MINUS_ONE
    return TorusRep(t, canonical_representative(n, label.fix))


def _random_abelian_rep(rng: np.random.Generator) -> SurfaceRep:
    axis = random_axis(rng)
    els = [exp_axis_angle(axis, rng.uniform(-math.pi, math.pi)) for _ in range(6)]
    return SurfaceRep(*els)


def _off_center_a1(k: int, rng: np.random.Generator) -> SU2:
    """Haar A1 with A1^k firmly away from the center."""
    for _ in range(256):
        a1 = haar_random(rng)
        if central_gap(a1.power(k))[0] > 10.0 * REFUSE_BAND:
            return a1
    raise RuntimeError(f"could not sample a1 with a1^{k} away from the center")


def _with_random_b1(a1: SU2, a3: SU2, b3: SU2, rng: np.random.Generator) -> SurfaceRep:
    """A Haar B1, then (A2, B2) from the fiber the relation forces."""
    b1 = haar_random(rng)
    c = commutator(a1, b1).inverse() * commutator(a3, b3).inverse()
    a2, b2 = sample_fiber(c, rng)
    return SurfaceRep(a1, b1, a2, b2, a3, b3)


def _random_torus_core_rep(m: int, rng: np.random.Generator) -> SurfaceRep:
    # a1^m firmly non-central; a3, b3 on a1's torus; b1 free
    a1 = _off_center_a1(m, rng)
    axis = a1.axis()
    a3 = exp_axis_angle(axis, rng.uniform(-math.pi, math.pi))
    b3 = exp_axis_angle(axis, rng.uniform(-math.pi, math.pi))
    return _with_random_b1(a1, a3, b3, rng)


def _random_quantized_rep(
    m: int, sign: str, k: int, l: int, rng: np.random.Generator
) -> SurfaceRep:
    theta_k = quantized_angle(m, sign, k)
    theta_l = quantized_angle(m, sign, l)
    a1 = exp_axis_angle(random_axis(rng), theta_k)
    x_target = exp_axis_angle(random_axis(rng), theta_l)
    a3, b3 = sample_fiber(x_target * a1.inverse(), rng)
    return _with_random_b1(a1, a3, b3, rng)


def randomized_representative(
    n: int, label: ComponentLabel, rng: np.random.Generator
) -> SurfaceRep:
    """A random point of the component named by `label`.

    Randomizes axes, B1, the commutator-fiber points, and a global
    conjugation; the classifier recovers `label` exactly.
    """
    _validate_label(label, n)
    m = abs(n)
    if label.is_central:
        if m == 0:
            rep = random_surface_rep(rng)
        else:
            flavor = int(rng.integers(3))
            if flavor == 0:
                rep = _random_abelian_rep(rng)
            elif flavor == 1:
                rep = _random_torus_core_rep(m, rng)
            else:
                sign = "+" if rng.integers(2) == 0 else "-"
                k = int(rng.integers(_index_bound(m, sign) + 1))
                rep = _random_quantized_rep(m, sign, k, k, rng)
    else:
        rep = _random_quantized_rep(m, label.sign, label.k, label.l, rng)
    return rep.conjugate(haar_random(rng))


def randomized_torus_representative(
    n: int, label: TorusLabel, rng: np.random.Generator
) -> TorusRep:
    """A random point of a mapping-torus component.

    For the merged central component the sampler mixes the three strata:
    central T over a random fixed-point sample, mutually commuting
    seven-tuples with non-central T, and tuples where T X^n is central but
    T is not.
    """
    m = abs(n)
    if not label.is_central:
        t = ONE if label.epsilon > 0 else MINUS_ONE
        return TorusRep(t, randomized_representative(n, label.fix, rng))
    flavor = int(rng.integers(3)) if m > 0 else int(rng.integers(2))
    if flavor == 0:
        t = ONE if rng.integers(2) == 0 else MINUS_ONE
        return TorusRep(t, randomized_representative(n, CENTRAL, rng))
    if flavor == 1:
        axis = random_axis(rng)
        theta = rng.uniform(0.05, math.pi - 0.05)
        t = exp_axis_angle(axis, theta if rng.integers(2) == 0 else -theta)
        els = [exp_axis_angle(axis, rng.uniform(-math.pi, math.pi)) for _ in range(6)]
        return TorusRep(t, SurfaceRep(*els))
    return random_extended_fixed_sample(n, rng)


def random_extended_fixed_sample(n: int, rng: np.random.Generator) -> TorusRep:
    """A tuple (T, rep) with non-central T conjugating the pullback of rep.

    T X^n is central but T is not: T = s * B1 A1^-n B1^-1 with random
    s, A1, B1.  A2, B2 live on the maximal torus of T, and (A3, B3) solves
    [A3, B3] = [B1, A1], forced by the relation once A2 and B2 commute.
    The surface part is generically irreducible, so it witnesses the
    two-point intertwiner fiber.
    """
    s = ONE if rng.integers(2) == 0 else MINUS_ONE
    a1 = _off_center_a1(n, rng)
    b1 = haar_random(rng)
    t = s * (b1 * a1.power(-n) * b1.inverse())
    a3, b3 = sample_fiber(commutator(b1, a1), rng)
    axis = t.axis()
    a2 = exp_axis_angle(axis, rng.uniform(-math.pi, math.pi))
    b2 = exp_axis_angle(axis, rng.uniform(-math.pi, math.pi))
    return TorusRep(t, SurfaceRep(a1, b1, a2, b2, a3, b3))
