"""Output checks computed apart from the program, and their self-test.

Census documents are checked against closed forms and a label enumeration
written here from the index ranges.  Certificates are checked with the
word-level pullback (the images of the generators under
``phi_substitution(n)``, evaluated at each point) instead of the
hand-derived residual equations the program uses, and with step lengths
recomputed here from the raw quaternion components.

Every check returns a list of ``(kind, message)`` problems; an empty list
means the output passed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import replace

import numpy as np

from repvar import components, connectivity, su2, words
from repvar.varieties import TorusRep

# the step bound every certificate must state at most (PathConfig.max_step)
STEP_BOUND = 0.2


# -- census documents ---------------------------------------------------------

def expected_fix_labels(n: int) -> set[str]:
    m = abs(n)
    out = {"central"}
    for sign, top in (("+", m // 2), ("-", (m - 1) // 2)):
        for k in range(top + 1):
            for l in range(top + 1):
                if k != l:
                    out.add(f"{sign},{k},{l}")
    return out


def expected_labels(n: int, system: str) -> set[str]:
    fix = expected_fix_labels(n)
    if system == "fix":
        return fix
    lifts = {f"eps={eps},{lab}" for lab in fix - {"central"} for eps in ("+1", "-1")}
    return lifts | {"central"}


def expected_count(n: int, system: str) -> int:
    half = (n * n) // 2
    return half + 1 if system == "fix" else 2 * half + 1


def check_census(doc: dict, system: str, n: int, samples: int) -> list[tuple[str, str]]:
    problems = []
    labels = expected_labels(n, system)
    count = expected_count(n, system)
    if len(labels) != count:
        problems.append(("count", f"enumeration gives {len(labels)} labels, closed form {count}"))
    for key in ("closed_form", "estimated_components"):
        if doc[key] != count:
            problems.append(("count", f"{system} n={n}: {key} {doc[key]} != {count}"))
    observed = set(doc["labels_observed"])
    if observed != labels:
        problems.append((
            "labels",
            f"{system} n={n}: missing {sorted(labels - observed)}, extra {sorted(observed - labels)}",
        ))
    rows = {row["label"] for row in doc["rows"]}
    if rows != labels or len(doc["rows"]) != count:
        problems.append(("labels", f"{system} n={n}: report rows do not cover the labels once each"))
    if any(row["samples"] != samples for row in doc["rows"]):
        problems.append(("count", f"{system} n={n}: a row has other than {samples} samples"))
    for key in ("cross_label_certificates", "label_anomalies"):
        if doc[key] != 0:
            problems.append(("labels", f"{system} n={n}: {key} = {doc[key]}"))
    return problems


def digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# -- certificates -------------------------------------------------------------

def _qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _gap(a, b) -> float:
    return math.sqrt(sum((u - v) ** 2 for u, v in zip(a, b)))


def _arc(a, b) -> float:
    d = sum(u * v for u, v in zip(a, b))
    return math.acos(max(-1.0, min(1.0, d)))


def _coords(point) -> list[tuple[float, ...]]:
    return [tuple(el.to_list()) for el in point.elements()]


@functools.cache
def _pullback_words(n: int):
    sub = words.phi_substitution(n)
    return [(g, sub.image(g)) for g in words.SURFACE_GENERATORS]


def pullback_gap(point, n: int) -> float:
    """Largest gap in phi^n(g) = g (or T^-1 g T) and in the relator = 1."""
    if isinstance(point, TorusRep):
        t = tuple(point.t.to_list())
        t_inv = (t[0], -t[1], -t[2], -t[3])
        images = point.rep.images()
    else:
        t = t_inv = None
        images = point.images()
    worst = _gap(tuple(words.evaluate(words.relator(), images).to_list()), (1.0, 0.0, 0.0, 0.0))
    for gen, image in _pullback_words(n):
        lhs = tuple(words.evaluate(image, images).to_list())
        rhs = tuple(images[gen].to_list())
        if t is not None:
            rhs = _qmul(_qmul(t_inv, rhs), t)
        worst = max(worst, _gap(lhs, rhs))
    return worst


def check_certificate(cert, endpoints=None) -> list[tuple[str, str]]:
    """Steps, stated bound, pullback at every point, and optionally endpoints."""
    problems = []
    pts = cert.points
    if endpoints is not None:
        for name, got, want in (("first", pts[0], endpoints[0]), ("last", pts[-1], endpoints[1])):
            if _coords(got) != _coords(want):
                problems.append(("endpoint", f"{name} point differs from the input"))
    if cert.max_step > STEP_BOUND:
        problems.append(("step", f"stated step bound {cert.max_step} above {STEP_BOUND}"))
    coords = [_coords(p) for p in pts]
    for i, (p, q) in enumerate(zip(coords, coords[1:])):
        step = max(_arc(u, v) for u, v in zip(p, q))
        if step > cert.max_step + 1e-12:
            problems.append(("step", f"step {i}->{i + 1} is {step:.4f} > {cert.max_step:.4f}"))
    for i, p in enumerate(pts):
        gap = pullback_gap(p, cert.n)
        if not gap <= cert.tol:
            problems.append(("pullback", f"point {i}: pullback gap {gap:.2e} > {cert.tol:.1e}"))
    return problems


# -- self-test ----------------------------------------------------------------

def self_test() -> list[str]:
    """Show that each check rejects a corrupted output; returns failures."""
    failures = []

    def expect(what: str, problems, kind: str, absent: str | None = None) -> None:
        kinds = {k for k, _ in problems}
        if kind not in kinds or (absent is not None and absent in kinds):
            failures.append(f"{what}: expected {kind!r} problems, got {sorted(kinds)}")

    rng = np.random.default_rng(20251015)
    for system, label, sample in (
        ("fix", components.ComponentLabel("+", 0, 1), components.randomized_representative),
        ("torus", components.TorusLabel(-1, components.ComponentLabel("-", 1, 0)),
         components.randomized_torus_representative),
    ):
        r0 = sample(3, label, rng)
        r1 = r0.conjugate(su2.exp_axis_angle((0.0, 0.6, 0.8), 0.3))
        cert = connectivity.probe_path(r0, r1, system, 3)
        kinds = {k for k, _ in check_certificate(cert, (r0, r1))}
        if kinds:
            failures.append(f"{system}: a genuine certificate was rejected ({sorted(kinds)})")
        mid = len(cert.points) // 2
        pts = list(cert.points)
        nudged = su2.exp_tangent((1e-5, 0.0, 0.0))
        if system == "fix":
            pts[mid] = replace(pts[mid], a2=nudged * pts[mid].a2)
        else:
            pts[mid] = replace(pts[mid], rep=replace(pts[mid].rep, a2=nudged * pts[mid].rep.a2))
        expect(f"{system}: point moved off the variety",
               check_certificate(replace(cert, points=tuple(pts)), (r0, r1)), "pullback")
        pts = list(cert.points)
        pts[mid] = pts[mid].conjugate(su2.exp_axis_angle((0.0, 0.0, 1.0), 0.5))
        expect(f"{system}: step stretched past its bound",
               check_certificate(replace(cert, points=tuple(pts)), (r0, r1)), "step", "pullback")

    doc = connectivity.census(2, "fix", 1, 0).to_dict()
    if check_census(doc, "fix", 2, 1):
        failures.append("a genuine census document was rejected")
    expect("census with one label removed",
           check_census({**doc, "labels_observed": doc["labels_observed"][1:]}, "fix", 2, 1),
           "labels")
    expect("census with a wrong count",
           check_census({**doc, "estimated_components": doc["estimated_components"] + 1},
                        "fix", 2, 1),
           "count")
    return failures
