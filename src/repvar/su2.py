"""Unit-quaternion arithmetic for SU(2).

Group elements are unit quaternions w + x*i + y*j + z*k.  The matrix trace
of the corresponding SU(2) matrix is 2*w, the center is {1, -1}, and the
rotation angle of an element is arccos(w) in [0, pi].  The product,
inverse, commutator and integer power are written once, as q-functions
over quaternion 4-tuples of floats or numpy arrays, which do not
renormalize; the SU2 methods are those functions followed by the
constructor, which renormalizes, so |norm - 1| stays below 1e-12 through
arbitrarily long chains of operations.

All values are immutable and all functions are pure; random sampling takes
an explicit numpy Generator.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SU2",
    "ONE",
    "MINUS_ONE",
    "I",
    "J",
    "K",
    "E1",
    "commutator",
    "commute_pairwise",
    "exp_axis_angle",
    "exp_tangent",
    "geodesic",
    "geodesic_distance",
    "step_between",
    "haar_random",
    "central_gap",
    "axis_rotation",
    "qmul",
    "qinv",
    "qcommutator",
    "qpow",
    "FLOAT_OPS",
    "ARRAY_OPS",
    "torus_snap",
    "random_axis",
    "MAX_STEP",
    "step_count",
    "contraction",
    "stepped",
    "contract_to_one",
    "conjugators",
    "best_conjugator",
]


def _clamp(value: float, lo: float = -1.0, hi: float = 1.0) -> float:
    return lo if value < lo else hi if value > hi else value


# -- the quaternion kernel ----------------------------------------------------

def qmul(a, b):
    """Product of quaternion 4-tuples, not renormalized."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def qinv(a):
    """Inverse of a unit quaternion 4-tuple (its conjugate)."""
    return (a[0], -a[1], -a[2], -a[3])


def qcommutator(a, b, mul=qmul, inv=qinv):
    """a b a^-1 b^-1 over `mul` and `inv`, by default of 4-tuples."""
    return mul(mul(mul(a, b), inv(a)), inv(b))


def qpow(a, k: int, ops):
    """a^k by exact angle scaling, `ops` = (sqrt, atan2, sin, cos, where, power)
    to match a's components; central a gives +-1 with the scaling's zero signs."""
    sqrt, atan2, sin, cos, where, _ = ops
    w, x, y, z = a
    vn = sqrt(x * x + y * y + z * z)
    central = vn == 0.0
    kt = k * atan2(vn, w)
    s = sin(kt) / where(central, 1.0, vn)
    sign = 1.0 if k % 2 == 0 else where(w > 0.0, 1.0, -1.0)
    return (where(central, sign, cos(kt)), s * x, s * y, s * z)


FLOAT_OPS = (math.sqrt, math.atan2, math.sin, math.cos, lambda c, a, b: a if c else b, qpow)
ARRAY_OPS = (np.sqrt, np.arctan2, np.sin, np.cos, np.where, qpow)


class SU2:
    """An element of SU(2), stored as a renormalized unit quaternion."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float, y: float, z: float):
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if not 0.5 < n < 2.0:
            raise ValueError(f"quaternion norm {n!r} too far from 1 to renormalize")
        self.w = w / n
        self.x = x / n
        self.y = y / n
        self.z = z / n

    # -- basic algebra ------------------------------------------------

    def __mul__(self, other: "SU2") -> "SU2":
        b = (other.w, other.x, other.y, other.z)
        return SU2(*qmul((self.w, self.x, self.y, self.z), b))

    def inverse(self) -> "SU2":
        return SU2(*qinv((self.w, self.x, self.y, self.z)))

    def __neg__(self) -> "SU2":
        return SU2(-self.w, -self.x, -self.y, -self.z)

    def conjugate_by(self, g: "SU2") -> "SU2":
        """g * self * g^-1."""
        return g * self * g.inverse()

    def power(self, k: int) -> "SU2":
        """Integer power by exact angle scaling (no multiplicative drift)."""
        return SU2(*qpow((self.w, self.x, self.y, self.z), k, FLOAT_OPS))

    # -- geometry -----------------------------------------------------

    @property
    def trace(self) -> float:
        return 2.0 * self.w

    def angle(self) -> float:
        """Rotation angle in [0, pi], read as atan2(|v|, w): unlike arccos(w)
        it resolves angles within rounding of 0 and pi."""
        vn = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        return math.atan2(vn, self.w)

    def axis(self) -> tuple[float, float, float]:
        """Unit 3-vector direction of the imaginary part.

        Raises ValueError for the central elements +-1, whose axis is
        undefined.
        """
        vn = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if vn == 0.0:
            raise ValueError("central element has no axis")
        return (self.x / vn, self.y / vn, self.z / vn)

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def dist(self, other: "SU2") -> float:
        """Euclidean norm of the 4-vector difference: the chord to other."""
        return math.hypot(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def dot(self, other: "SU2") -> float:
        return self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z

    def is_central(self, tol: float = 1e-9) -> bool:
        """True iff within `tol` (4-vector distance) of +1 or -1."""
        return central_gap(self)[0] < tol

    # -- conversions --------------------------------------------------

    def to_list(self) -> list[float]:
        return [self.w, self.x, self.y, self.z]

    def __repr__(self) -> str:
        return f"SU2({self.w:+.6f}, {self.x:+.6f}, {self.y:+.6f}, {self.z:+.6f})"


ONE = SU2(1.0, 0.0, 0.0, 0.0)
MINUS_ONE = SU2(-1.0, 0.0, 0.0, 0.0)
I = SU2(0.0, 1.0, 0.0, 0.0)
J = SU2(0.0, 0.0, 1.0, 0.0)
K = SU2(0.0, 0.0, 0.0, 1.0)

E1 = (1.0, 0.0, 0.0)


def central_gap(u: SU2) -> tuple[float, int]:
    """Distance to the nearer central element and its sign (+1 on ties)."""
    d_plus = u.dist(ONE)
    d_minus = u.dist(MINUS_ONE)
    return (d_plus, 1) if d_plus <= d_minus else (d_minus, -1)


def torus_snap(el: SU2, axis) -> SU2:
    """Nearest element on the maximal torus of `axis` with the same angle."""
    ux, uy, uz = axis
    dot = el.x * ux + el.y * uy + el.z * uz
    sign = 1.0 if dot >= 0.0 else -1.0
    vn = math.sqrt(el.x**2 + el.y**2 + el.z**2)
    if vn == 0.0:
        return el
    return SU2(el.w, sign * vn * ux, sign * vn * uy, sign * vn * uz)


def commutator(a: SU2, b: SU2) -> SU2:
    """a * b * a^-1 * b^-1, renormalized after each product."""
    return qcommutator(a, b, SU2.__mul__, SU2.inverse)


def commute_pairwise(els: Sequence[SU2], tol: float) -> bool:
    """True iff every commutator of two of els lies within `tol` of 1."""
    return all(
        commutator(u, v).dist(ONE) < tol for i, u in enumerate(els) for v in els[i + 1 :]
    )


def exp_axis_angle(axis: Sequence[float], theta: float) -> SU2:
    """cos(theta) + sin(theta) * (axis . (i, j, k)) for a unit axis."""
    ax, ay, az = axis
    n = math.sqrt(ax * ax + ay * ay + az * az)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"axis norm {n!r} is not 1")
    s = math.sin(theta)
    return SU2(math.cos(theta), s * ax / n, s * ay / n, s * az / n)


def exp_tangent(v: Sequence[float]) -> SU2:
    """Exponential of the pure quaternion with components v (any length)."""
    vx, vy, vz = v
    n = math.sqrt(vx * vx + vy * vy + vz * vz)
    if n == 0.0:
        return ONE
    s = math.sin(n) / n
    return SU2(math.cos(n), s * vx, s * vy, s * vz)


def geodesic(u: SU2, v: SU2, t: float) -> SU2:
    """Constant-speed shortest path on the unit 3-sphere.

    Antipodal endpoints are rejected: there is no preferred shortest path,
    and callers are expected to route around -1 explicitly.
    """
    d = _clamp(u.dot(v))
    if d < -1.0 + 1e-9:
        raise ValueError("geodesic between antipodal elements is not unique")
    omega = math.acos(d)
    if omega < 1e-9:
        # nearly identical endpoints: normalized linear interpolation
        return SU2(
            (1 - t) * u.w + t * v.w,
            (1 - t) * u.x + t * v.x,
            (1 - t) * u.y + t * v.y,
            (1 - t) * u.z + t * v.z,
        )
    so = math.sin(omega)
    cu = math.sin((1 - t) * omega) / so
    cv = math.sin(t * omega) / so
    return SU2(
        cu * u.w + cv * v.w,
        cu * u.x + cv * v.x,
        cu * u.y + cv * v.y,
        cu * u.z + cv * v.z,
    )


def geodesic_distance(u: SU2, v: SU2) -> float:
    """Arc length between u and v on the unit 3-sphere, in [0, pi], read as
    2 atan2(|u - v|, |u + v|): like SU2.angle, and unlike arccos(u . v), it
    resolves arcs within rounding of 0 and pi."""
    return 2.0 * math.atan2(u.dist(v), math.hypot(u.w + v.w, u.x + v.x, u.y + v.y, u.z + v.z))


def step_between(us: Sequence[SU2], vs: Sequence[SU2]) -> float:
    """Largest geodesic distance between paired elements of two tuples: the
    arc of the pair with the longest chord, which orders pairs as the arc does."""
    chords = [u.dist(v) for u, v in zip(us, vs)]
    i = chords.index(max(chords))
    return geodesic_distance(us[i], vs[i])


def haar_random(rng: np.random.Generator) -> SU2:
    """Uniform element of SU(2): a normalized 4-dimensional Gaussian."""
    while True:
        v = rng.standard_normal(4)
        n = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2)
        if n > 1e-6:
            return SU2(v[0] / n, v[1] / n, v[2] / n, v[3] / n)


def random_axis(rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniform unit 3-vector: a normalized 3-dimensional Gaussian."""
    v = rng.standard_normal(3)
    v = v / np.linalg.norm(v)
    return (float(v[0]), float(v[1]), float(v[2]))


# -- stepped paths ------------------------------------------------------------

MAX_STEP = 0.2  # per-coordinate geodesic step bound of every path (radians)


def step_count(dist: float) -> int:
    """Fewest equal steps, at least one, that cover dist within MAX_STEP."""
    return max(1, math.ceil(dist / MAX_STEP))


def contraction(u: SU2, axis=E1) -> tuple[Callable[[float], SU2], float]:
    """The path t -> exp((1 - t) theta axis(u)) from u (t = 0) to 1 (t = 1)
    along u's maximal torus, theta = angle(u), and its length theta.

    An element within 1e-12 of the center has no reliable axis of its own
    and contracts along `axis` (from -1 as well).
    """
    theta = u.angle()
    if math.sqrt(u.x**2 + u.y**2 + u.z**2) > 1e-12:
        axis = u.axis()
    return (lambda t: exp_axis_angle(axis, (1 - t) * theta)), theta


def stepped(path: Callable[[float], object], length: float) -> list:
    """Nodes path(i / k), i = 1..k, for k = step_count(length): within
    MAX_STEP of each other when `length` bounds the path's geodesic speed
    in every coordinate it moves.  The one place a path is cut into steps."""
    k = step_count(length)
    return [path(i / k) for i in range(1, k + 1)]


def contract_to_one(el: SU2, axis=E1) -> list[SU2]:
    """Nodes after el down to 1 along its contraction, stepped; none from 1."""
    path, theta = contraction(el, axis)
    return stepped(path, theta) if theta >= 1e-15 else []


def conjugators(g: SU2) -> list[SU2]:
    """Stepped one-parameter family from 1 (excluded) to g (included).

    Conjugating by consecutive members moves any element by at most
    MAX_STEP; empty for central g, whose conjugation is the identity map.
    """
    if g.is_central(1e-12):
        return []
    theta = g.angle()
    axis = g.axis()
    return stepped(lambda t: exp_axis_angle(axis, theta * t), 2.0 * theta)


def best_conjugator(us: Sequence[SU2], vs: Sequence[SU2]) -> SU2:
    """The g, with w >= 0, whose simultaneous conjugation best aligns the
    vector parts of us with those of vs: the top eigenvector of Horn's
    symmetric 4x4 matrix ("Closed-form solution of absolute orientation
    using unit quaternions", JOSA A 4, 1987)."""
    v0 = np.array([(u.x, u.y, u.z) for u in us])
    v1 = np.array([(v.x, v.y, v.z) for v in vs])
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = v0.T @ v1
    horn = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, syy - sxx - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, szz - sxx - syy],
    ])
    q = np.linalg.eigh(horn)[1][:, -1]
    return SU2(*(q if q[0] >= 0 else -q).tolist())


def _orthogonal_axis(a: tuple[float, float, float]) -> tuple[float, float, float]:
    # smallest-index coordinate axis closest to orthogonal, then projected
    dots = [abs(a[0]), abs(a[1]), abs(a[2])]
    i = dots.index(min(dots))
    e = [0.0, 0.0, 0.0]
    e[i] = 1.0
    d = a[i]
    v = (e[0] - d * a[0], e[1] - d * a[1], e[2] - d * a[2])
    n = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    return (v[0] / n, v[1] / n, v[2] / n)


def axis_rotation(a0, a1, tol: float = 1e-15):
    """(unit axis, angle) of the rotation carrying unit vector a0 onto a1
    about their cross product; by pi about a deterministic orthogonal axis
    when anti-parallel, None when equal (cross product below `tol`)."""
    d = _clamp(a0[0] * a1[0] + a0[1] * a1[1] + a0[2] * a1[2])
    cx = a0[1] * a1[2] - a0[2] * a1[1]
    cy = a0[2] * a1[0] - a0[0] * a1[2]
    cz = a0[0] * a1[1] - a0[1] * a1[0]
    cn = math.sqrt(cx * cx + cy * cy + cz * cz)
    if cn < tol:
        return None if d > 0.0 else (_orthogonal_axis(a0), math.pi)
    return (cx / cn, cy / cn, cz / cn), math.atan2(cn, d)
