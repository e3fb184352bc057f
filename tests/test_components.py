import math

import numpy as np
import pytest

from repvar import components
from repvar.components import (
    CENTRAL,
    TORUS_CENTRAL,
    ComponentLabel,
    TorusLabel,
    Unclassifiable,
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
    randomized_torus_representative,
    read_torus_label,
)
from repvar.su2 import E1, MINUS_ONE, ONE, commutator, exp_axis_angle, haar_random
from repvar.varieties import (
    SurfaceRep,
    TorusRep,
    derived_x,
    fixed_point_residual,
    torus_residual,
    trivial_rep,
)


def test_count_spot_values():
    assert count_fix(2) == 3
    assert count_fix(1) == 1
    assert count_fix(0) == 1
    assert count_fix(3) == 5
    assert count_fix(4) == 9
    assert count_fix_char(3) == 5
    assert count_fix_char(0) == 1
    assert count_fix_char(4) == 9
    assert count_torus(2) == 5
    assert count_torus(3) == 9
    assert count_torus(0) == 1
    assert count_torus(4) == 17


@pytest.mark.parametrize("n", range(0, 65))
def test_parity_forms(n):
    if n % 2 == 0:
        assert count_fix(n) == n * n // 2 + 1
        assert count_torus(n) == n * n + 1
    else:
        assert count_fix(n) == (n * n + 1) // 2
        assert count_torus(n) == n * n
    assert count_fix_char(n) == count_fix(n)
    assert count_fix(-n) == count_fix(n)
    assert count_torus(-n) == count_torus(n)


def test_enumerate_fix_labels_small():
    assert enumerate_fix_labels(1) == [CENTRAL]
    got = set(lab.text() for lab in enumerate_fix_labels(2))
    assert got == {"central", "+,0,1", "+,1,0"}
    got = set(lab.text() for lab in enumerate_fix_labels(3))
    assert got == {"central", "+,0,1", "+,1,0", "-,0,1", "-,1,0"}


def test_enumerate_sizes():
    for n in range(0, 17):
        assert len(enumerate_fix_labels(n)) == count_fix(n)
        assert len(enumerate_torus_labels(n)) == count_torus(n)
        assert len(set(enumerate_fix_labels(n))) == count_fix(n)
        assert len(set(enumerate_torus_labels(n))) == count_torus(n)
    assert enumerate_torus_labels(1) == [TORUS_CENTRAL]
    assert len(enumerate_torus_labels(4)) == 17


def test_floor_count_identity():
    assert all(floor_count_identity(n) for n in range(10_001))


def test_label_validation():
    with pytest.raises(ValueError):
        ComponentLabel("+", 1, 1)
    with pytest.raises(ValueError):
        ComponentLabel("", 1, 0)
    with pytest.raises(ValueError):
        ComponentLabel("?", 0, 1)
    with pytest.raises(ValueError):
        TorusLabel(2, CENTRAL)
    with pytest.raises(ValueError):
        TorusLabel(1, CENTRAL)
    with pytest.raises(ValueError):
        canonical_representative(2, ComponentLabel("+", 0, 2))
    with pytest.raises(ValueError):
        canonical_representative(3, ComponentLabel("-", 2, 0))


def test_label_text_roundtrip():
    for n in (2, 3, 4):
        for lab in enumerate_fix_labels(n):
            assert ComponentLabel.parse(lab.text()) == lab
        for lab in enumerate_torus_labels(n):
            assert TorusLabel.parse(lab.text()) == lab
    with pytest.raises(ValueError):
        ComponentLabel.parse("bogus")
    with pytest.raises(ValueError):
        TorusLabel.parse("eps=0,+,0,1")


def test_classify_trivial_and_zero():
    for n in (0, 1, 2, 5):
        assert classify_fix(trivial_rep(), n) == CENTRAL
    assert classify_torus(TorusRep(ONE, trivial_rep()), 2) == TORUS_CENTRAL


def test_classify_abelian_is_central():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        for _ in range(20):
            v = rng.standard_normal(3)
            axis = tuple(v / np.linalg.norm(v))
            rep = SurfaceRep(
                *(exp_axis_angle(axis, rng.uniform(-math.pi, math.pi)) for _ in range(6))
            )
            assert classify_fix(rep, n) == CENTRAL


def test_annulus_agreement_classifies_central():
    # an abelian tuple with a1^2 about 5e-5 from the center: both readings
    # of the centrality of a1^2 give the central label, so no refusal
    delta = 5e-5
    a1 = exp_axis_angle(E1, math.pi + delta / 2.0)
    rep = SurfaceRep(a1, ONE, ONE, ONE, ONE, ONE)
    assert fixed_point_residual(rep, 2).max() < 1e-12
    assert classify_fix(rep, 2) == CENTRAL


def test_classifier_refuses_inconsistent_annulus_points():
    # a1^2 in the annulus while the indices claim distinct quantized
    # angles: impossible on the variety, so classification refuses
    from repvar.commutator import solve_commutator

    delta = 5e-5
    a1 = exp_axis_angle(E1, delta / 2.0)
    x_t = exp_axis_angle(E1, math.pi + delta / 2.0)
    a3, b3 = solve_commutator(x_t * a1.inverse())
    a2, b2 = solve_commutator(commutator(a3, b3).inverse())
    rep = SurfaceRep(a1, ONE, a2, b2, a3, b3)
    assert fixed_point_residual(rep, 2).max() < 1e-3
    with pytest.raises(Unclassifiable):
        classify_fix(rep, 2, tol=1e-3)


def test_classifier_checks_residual_precondition():
    rng = np.random.default_rng(1)
    junk = SurfaceRep(*(haar_random(rng) for _ in range(6)))
    with pytest.raises(ValueError):
        classify_fix(junk, 2)


def test_a_point_of_the_other_system_is_refused():
    # a point's class names its system: the one-system entry points refuse
    # a point of the other one with a plain ValueError, not a reading
    surface = canonical_representative(3, ComponentLabel("+", 0, 1))
    torus = TorusRep(ONE, surface)
    assert (surface.system, torus.system) == ("fix", "torus")
    for fn, point, kind in (
        (fixed_point_residual, torus, "TorusRep"),
        (classify_fix, torus, "TorusRep"),
        (torus_residual, surface, "SurfaceRep"),
        (classify_torus, surface, "SurfaceRep"),
    ):
        with pytest.raises(ValueError, match=f"system does not take a {kind}$") as err:
            fn(point, 3)
        assert type(err.value) is ValueError


def test_torus_reading_of_a_surface_part_off_the_fixed_point_set():
    # the surface part's fixed-point residual is above tol: with T in the
    # annulus, T is then not exactly central and the point lies in the
    # merged component; with T within SNAP_BAND the reading refuses
    rep = canonical_representative(3, ComponentLabel("+", 0, 1))
    annulus = TorusRep(exp_axis_angle(E1, 1e-5), rep)
    assert read_torus_label(annulus, 3, 0.0, 1.0, 1e-7) == TORUS_CENTRAL
    with pytest.raises(Unclassifiable, match="T central but the surface tuple is off"):
        read_torus_label(TorusRep(ONE, rep), 3, 0.0, 1.0, 1e-7)


@pytest.mark.parametrize("t_angle", [1e-5, 0.0], ids=["annulus", "snap-band"])
def test_torus_reading_lets_programming_errors_through(t_angle, monkeypatch):
    # only the fixed-point reading's refusals are read as a label or a
    # refusal; a plain ValueError from it is a bug and propagates as it is
    def bug(*args):
        raise ValueError("a programming error")

    monkeypatch.setattr(components, "read_fix_label", bug)
    rep = canonical_representative(3, ComponentLabel("+", 0, 1))
    with pytest.raises(ValueError, match="a programming error") as err:
        read_torus_label(TorusRep(exp_axis_angle(E1, t_angle), rep), 3, 0.0, 0.0, 1e-7)
    assert type(err.value) is ValueError


def test_canonical_representative_examples():
    rep = canonical_representative(2, ComponentLabel("+", 0, 1))
    assert rep.a1.dist(ONE) < 1e-12
    assert derived_x(rep).dist(MINUS_ONE) < 1e-12
    assert commutator(rep.a3, rep.b3).dist(MINUS_ONE) < 1e-12
    assert fixed_point_residual(rep, 2).max() < 1e-9

    rep = canonical_representative(3, ComponentLabel("-", 1, 0))
    assert abs(rep.a1.angle() - math.pi) < 1e-12
    assert abs(derived_x(rep).angle() - math.pi / 3.0) < 1e-12
    assert fixed_point_residual(rep, 3).max() < 1e-9

    for n in (1, 4):
        assert canonical_representative(n, CENTRAL).dist(trivial_rep()) == 0.0


def test_canonical_torus_representative_examples():
    trep = canonical_torus_representative(3, TORUS_CENTRAL)
    assert trep.t.dist(ONE) == 0.0
    assert torus_residual(trep, 3).max() == 0.0

    trep = canonical_torus_representative(2, TorusLabel(-1, ComponentLabel("+", 1, 0)))
    assert torus_residual(trep, 2).max() < 1e-9
    assert classify_torus(trep, 2) == TorusLabel(-1, ComponentLabel("+", 1, 0))

    trep = canonical_torus_representative(3, TorusLabel(1, ComponentLabel("-", 0, 1)))
    assert torus_residual(trep, 3).max() < 1e-9


@pytest.mark.parametrize("n", range(0, 9))
def test_constructor_classifier_roundtrip(n):
    for label in enumerate_fix_labels(n):
        rep = canonical_representative(n, label)
        assert fixed_point_residual(rep, n).max() < 1e-9
        assert classify_fix(rep, n) == label
    for label in enumerate_torus_labels(n):
        trep = canonical_torus_representative(n, label)
        assert torus_residual(trep, n).max() < 1e-9
        assert classify_torus(trep, n) == label


def test_classifier_conjugation_invariance_and_negative_n():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        for label in enumerate_fix_labels(n):
            rep = randomized_representative(n, label, rng)
            g = haar_random(rng)
            assert classify_fix(rep.conjugate(g), n) == label
            assert classify_fix(rep, -n) == label


def test_randomized_representative_roundtrip():
    for n in (1, 2, 3, 4):
        for li, label in enumerate(enumerate_fix_labels(n)):
            for i in range(10):
                rng = np.random.default_rng([3, n, li, i])
                rep = randomized_representative(n, label, rng)
                assert fixed_point_residual(rep, n).max() < 1e-8
                assert classify_fix(rep, n, 1e-8) == label


def test_randomized_representatives_are_distinct():
    label = ComponentLabel("+", 0, 1)
    r1 = randomized_representative(2, label, np.random.default_rng(10))
    r2 = randomized_representative(2, label, np.random.default_rng(11))
    assert r1.dist(r2) > 1e-3


def test_randomized_torus_representative_roundtrip():
    for n in (0, 1, 2, 3):
        for li, label in enumerate(enumerate_torus_labels(n)):
            for i in range(6):
                rng = np.random.default_rng([4, n, li, i])
                trep = randomized_torus_representative(n, label, rng)
                assert torus_residual(trep, n).max() < 1e-8
                assert classify_torus(trep, n, 1e-8) == label


def test_extended_fixed_sample_is_on_the_torus_variety():
    for i in range(10):
        rng = np.random.default_rng([5, i])
        trep = random_extended_fixed_sample(3, rng)
        assert torus_residual(trep, 3).max() < 1e-10
        assert not trep.t.is_central(1e-3)
        assert classify_torus(trep, 3) == TORUS_CENTRAL
