"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here and match the library's construction
guarantees with a 10x safety margin where the criteria allow one.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repvar.commutator import fricke_trace, sample_fiber, solve_commutator
from repvar.components import (
    CENTRAL,
    ComponentLabel,
    canonical_representative,
    canonical_torus_representative,
    classify_fix,
    classify_torus,
    count_fix,
    count_fix_char,
    count_torus,
    enumerate_fix_labels,
    enumerate_torus_labels,
    floor_count_identity,
    random_extended_fixed_sample,
    randomized_representative,
)
from repvar.connectivity import (
    TOL,
    canonical_path,
    census,
    certificate_from_dict,
    certificate_to_dict,
    verify_certificate,
)
from repvar.su2 import (
    MINUS_ONE,
    ONE,
    SU2,
    commutator,
    exp_axis_angle,
    exp_tangent,
    haar_random,
    step_between,
)
from repvar.varieties import (
    CentralizerType,
    SurfaceRep,
    TorusRep,
    centralizer_type,
    fixed_point_residual,
    random_surface_rep,
    rep_from_dict,
    rep_to_dict,
    residual_array,
    solve_intertwiner,
    torus_residual,
)
from repvar.words import chi, compose_substitution, evaluate, phi_substitution, relator


def test_criterion_1_torus_counts_closed_form():
    for n in range(0, 65):
        expected = n * n + 1 if n % 2 == 0 else n * n
        assert count_torus(n) == expected == 2 * ((n * n) // 2) + 1
        assert count_torus(-n) == count_torus(n)
    assert count_torus(2) == 5
    assert count_torus(3) == 9
    assert count_torus(4) == 17
    print("PASS criterion 1: mapping-torus counts match the parity closed form, n <= 64")


def test_criterion_2_fixed_point_counts_closed_form():
    for n in range(0, 65):
        expected = n * n // 2 + 1 if n % 2 == 0 else (n * n + 1) // 2
        assert count_fix(n) == count_fix_char(n) == expected == (n * n) // 2 + 1
    assert count_fix(1) == 1
    assert count_fix(2) == 3
    assert count_fix(3) == 5
    print("PASS criterion 2: fixed-point counts match the parity closed form, n <= 64")


def test_criterion_3_label_enumeration_consistency():
    for n in range(0, 17):
        assert len(enumerate_fix_labels(n)) == count_fix(n)
        assert len(enumerate_torus_labels(n)) == count_torus(n)
    assert all(floor_count_identity(n) for n in range(10_001))
    print("PASS criterion 3: label enumerations and the index-pair identity check out")


def test_criterion_4_constructive_representatives():
    for n in range(1, 7):
        for label in enumerate_fix_labels(n):
            rep = canonical_representative(n, label)
            assert fixed_point_residual(rep, n).max < 1e-9
            assert classify_fix(rep, n) == label
        for tlabel in enumerate_torus_labels(n):
            trep = canonical_torus_representative(n, tlabel)
            assert torus_residual(trep, n).max < 1e-9
            assert classify_torus(trep, n) == tlabel
    print("PASS criterion 4: exact representatives with classifier round-trips, n = 1..6")


def test_criterion_5_symbolic_substitution_checks():
    subs = {k: phi_substitution(k) for k in range(-8, 9)}
    for a in range(-4, 5):
        for b in range(-4, 5):
            assert compose_substitution(subs[a], subs[b]) == subs[a + b]
    for k in range(-8, 9):
        assert subs[k].apply(chi()) == chi()
    rng = np.random.default_rng(2024)
    reps = [random_surface_rep(rng) for _ in range(100)]
    for n in range(0, 5):
        image = subs[n].apply(relator())
        for rep in reps:
            assert evaluate(image, rep.images()).dist(ONE) < 1e-8
    print("PASS criterion 5: power law, fixed word, and twisted relator checks")


def test_criterion_6_commutator_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        c = haar_random(rng)
        a, b = solve_commutator(c)
        assert commutator(a, b).dist(c) < 1e-10
    for _ in range(10_000):
        a, b = haar_random(rng), haar_random(rng)
        predicted = fricke_trace(a.trace, b.trace, (a * b).trace)
        assert abs(predicted - commutator(a, b).trace) < 1e-10
    for _ in range(1000):
        v1 = rng.standard_normal(3)
        v1 /= np.linalg.norm(v1)
        v2 = rng.standard_normal(3)
        v2 -= v1 * (v1 @ v2)
        v2 /= np.linalg.norm(v2)
        a = SU2(0.0, *v1)
        b = SU2(0.0, *v2)
        assert commutator(a, b).dist(MINUS_ONE) < 1e-10
    for _ in range(1000):
        a, b = sample_fiber(MINUS_ONE, rng)
        assert abs(a.trace) < 1e-5
        assert abs(b.trace) < 1e-5
        assert abs((a * b).trace) < 1e-5
    print("PASS criterion 6: commutator solver, trace identity, and the -1 fiber")


def test_criterion_7_abelian_representations_are_fixed_and_central():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        v = rng.standard_normal(3)
        axis = tuple(v / np.linalg.norm(v))
        rep = SurfaceRep(
            *(exp_axis_angle(axis, rng.uniform(-math.pi, math.pi)) for _ in range(6))
        )
        for n in range(0, 9):
            assert fixed_point_residual(rep, n).max < 1e-8
            assert classify_fix(rep, n, tol=1e-8) == CENTRAL
    print("PASS criterion 7: 1000 abelian tuples are fixed points in the central component")


def test_criterion_8_census_reproduces_the_counts():
    for n in (1, 2, 3):
        for system in ("fix", "torus"):
            report = census(n, system, 50, 2026, TOL)
            assert report.agrees_with_closed_form, (n, system, report.to_dict())
            assert report.estimated_components == report.closed_form
            assert report.overall_success_rate >= 0.95, (n, system)
            assert report.cross_label_certificates == 0
            for row in report.rows:
                assert row.success_rate >= 0.95, (n, system, row.label)
    print("PASS criterion 8: census matches closed forms at >= 95% path success")


def test_criterion_9_certificate_soundness():
    certs = []
    for n in (1, 2, 3):
        for li, label in enumerate(enumerate_fix_labels(n)):
            rng = np.random.default_rng([31, n, li])
            rep = randomized_representative(n, label, rng)
            certs.append(canonical_path(rep, n, TOL))
    for cert in certs:
        assert verify_certificate(cert).ok
    # fuzz against a certificate whose bounds are genuinely active, so that
    # understating them falsifies it: canonical paths are exact up to
    # rounding, and their residuals can sit within the verifier's 1e-14
    # slack, so one interior node is kicked 1e-9 off the variety and both
    # bounds are restated
    src = next(c for c in certs if c.n >= 2 and c.label != "central")
    pts = list(src.points)
    mid = len(pts) // 2
    pts[mid] = replace(pts[mid], a2=exp_tangent((1e-9, 0.0, 0.0)) * pts[mid].a2)
    base = replace(
        src,
        points=tuple(pts),
        max_residual=float(residual_array(pts, "fix", src.n).max()),
        max_step=max(step_between(p.elements(), q.elements()) for p, q in zip(pts, pts[1:])),
    )
    assert verify_certificate(base).ok
    assert base.max_residual > 1e-13 and base.max_step > 1e-3
    wrong_label = (
        ComponentLabel("+", 0, 1) if base.label != "+,0,1" else ComponentLabel("+", 1, 0)
    )
    rng = np.random.default_rng(33)
    rejected = 0
    for case in range(100):
        doc = json.loads(json.dumps(certificate_to_dict(base)))
        kind = case % 4
        if kind == 0:
            # kick one group element along a tangent direction that breaks
            # the stated residual bound (some coordinates are genuinely
            # free, e.g. B1 over A1 = 1, and kicking those stays valid)
            for _ in range(64):
                idx = int(rng.integers(len(doc["points"])))
                _, point = rep_from_dict(doc["points"][idx])
                els = list(point.elements())
                j = int(rng.integers(len(els)))
                v = rng.standard_normal(3)
                v *= rng.uniform(0.03, 0.3) / np.linalg.norm(v)
                els[j] = exp_tangent(v) * els[j]
                mutated = SurfaceRep.from_elements(els)
                if fixed_point_residual(mutated, base.n).max > 3 * base.max_residual:
                    doc["points"][idx] = rep_to_dict(mutated, base.n)
                    break
            else:
                pytest.fail("could not build a residual-violating mutant")
        elif kind == 1:
            other = canonical_representative(base.n, wrong_label)
            doc["points"][-1] = rep_to_dict(other, base.n)
        elif kind == 2:
            doc["max_residual"] = doc["max_residual"] / 3.0
        else:
            doc["max_step"] = doc["max_step"] / 2.0
        mutant = certificate_from_dict(doc)
        if not verify_certificate(mutant).ok:
            rejected += 1
    assert rejected == 100
    print("PASS criterion 9: all emitted certificates verify; all 100 mutants rejected")


def test_criterion_10_intertwiner_and_centralizer():
    for n in (2, 3):
        for i in range(10):
            rng = np.random.default_rng([41, n, i])
            trep = random_extended_fixed_sample(n, rng)
            assert centralizer_type(trep.rep) is CentralizerType.CENTER_ONLY
            result = solve_intertwiner(trep.rep, n)
            assert result.ok
            # recovered up to the center: the fiber over an irreducible
            # representation is exactly two points
            assert min(result.t.dist(trep.t), result.t.dist(-trep.t)) < 1e-6
            assert torus_residual(TorusRep(result.t, trep.rep), n).max < 1e-9
    # fixed points recover a central intertwiner
    rep = canonical_representative(3, ComponentLabel("-", 1, 0))
    result = solve_intertwiner(rep, 3)
    assert result.ok
    assert min(result.t.dist(ONE), result.t.dist(MINUS_ONE)) < 1e-6
    print("PASS criterion 10: intertwiners recovered up to sign on irreducible points")
