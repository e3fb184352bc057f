import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repvar.su2 import ONE, haar_random
from repvar.varieties import random_surface_rep, residual_array, TorusRep
from repvar.words import (
    Generator,
    SURFACE_GENERATORS,
    Substitution,
    Word,
    chi,
    compose_substitution,
    evaluate,
    free_reduce,
    identity_substitution,
    phi_substitution,
    relator,
    twist_gamma1,
    twist_gamma1_inverse,
    twist_gamma2,
    twist_gamma2_inverse,
)

A1, B1, A2, B2, A3, B3 = SURFACE_GENERATORS


def test_free_reduction():
    assert (Word.of(A1) * Word.of(A1, -1)).is_identity
    assert Word.of(A1) * Word.of(A1, 2) == Word.of(A1, 3)
    assert (chi() * chi().inverse()).is_identity
    assert Word([(A1, 0), (B1, 1), (B1, -1)]).is_identity
    assert free_reduce([(A1, 1), (A1, -1)]).is_identity
    assert free_reduce([(A1, 1), (A1, 2)]) == Word.of(A1, 3)
    assert free_reduce(chi()) == chi()


def test_word_text_forms():
    assert str(Word()) == "1"
    assert str(Word([(A1, 1), (B1, -1), (A3, 2)])) == "a1 b1^-1 a3^2"


def test_relator_and_chi():
    assert relator().length() == 12
    expected = (
        Word.of(A3) * Word.of(B3) * Word.of(A3, -1) * Word.of(B3, -1) * Word.of(A1)
    )
    assert chi() == expected


def test_apply_substitution():
    s1 = phi_substitution(1)
    assert s1.apply(Word.of(B2)) == Word.of(B2)
    assert s1.apply(Word.of(B1)) == Word.of(B1) * Word.of(A1) * chi().inverse()
    w = Word([(A1, 2), (B3, -1)])
    assert identity_substitution().apply(w) == w


def test_phi_substitution_table():
    assert phi_substitution(0) == identity_substitution()
    s1 = phi_substitution(1)
    assert s1.image(A3) == chi() * Word.of(A3) * chi().inverse()
    assert compose_substitution(s1, s1) == phi_substitution(2)


def test_phi_matches_twist_composition():
    assert compose_substitution(twist_gamma1(), twist_gamma2_inverse()) == phi_substitution(1)
    # inverse tables invert
    assert (
        compose_substitution(twist_gamma1(), twist_gamma1_inverse())
        == identity_substitution()
    )
    assert (
        compose_substitution(twist_gamma2(), twist_gamma2_inverse())
        == identity_substitution()
    )


@pytest.mark.parametrize(
    "sign, step, k_max",
    [
        (1, compose_substitution(twist_gamma1(), twist_gamma2_inverse()), 8),
        (-1, compose_substitution(twist_gamma2(), twist_gamma1_inverse()), 16),
    ],
    ids=["positive", "negative"],
)
def test_phi_closed_form_matches_twist_powers(sign, step, k_max):
    # the one closed-form table against k-fold compositions of the twists
    power = identity_substitution()
    for k in range(1, k_max + 1):
        power = compose_substitution(step, power)
        assert phi_substitution(sign * k) == power, k


def test_compose_substitution():
    s = phi_substitution(2)
    assert compose_substitution(identity_substitution(), s) == s
    assert compose_substitution(phi_substitution(1), phi_substitution(-1)) == identity_substitution()
    assert compose_substitution(phi_substitution(2), phi_substitution(3)) == phi_substitution(5)


@pytest.mark.parametrize("n", range(-8, 9))
def test_chi_is_fixed(n):
    assert phi_substitution(n).apply(chi()) == chi()


def test_power_law():
    subs = {k: phi_substitution(k) for k in range(-4, 5)}
    for a in range(-4, 5):
        for b in range(-4, 5):
            if -4 <= a + b <= 4:
                assert compose_substitution(subs[a], subs[b]) == subs[a + b]


def test_tau_fixed_and_rejected_without_image():
    s = phi_substitution(3)
    assert s.apply(Word.of(Generator.TAU)) == Word.of(Generator.TAU)
    with pytest.raises(ValueError):
        Substitution({Generator.TAU: Word.of(A1)})
    rep = random_surface_rep(np.random.default_rng(0))
    with pytest.raises(ValueError):
        evaluate(Word.of(Generator.TAU), rep.images())


def test_evaluate():
    assert evaluate(Word(), {}).dist(ONE) == 0.0
    rep = random_surface_rep(np.random.default_rng(1))
    assert evaluate(relator(), rep.images()).dist(ONE) < 1e-9
    # chi at a representation with trivial third handle gives the a1 image
    images = rep.images()
    images[A3] = ONE
    images[B3] = ONE
    assert evaluate(chi(), images).dist(images[A1]) < 1e-12
    # left-to-right order
    w = Word.of(A1) * Word.of(B1)
    assert evaluate(w, rep.images()).dist(rep.a1 * rep.b1) < 1e-12


@pytest.mark.parametrize("n", range(-4, 5))
def test_twisted_relator_still_evaluates_to_identity(n):
    sub = phi_substitution(n)
    image = sub.apply(relator())
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        rep = random_surface_rep(rng)
        assert residual_array([rep], 0).max() < 1e-10
        assert evaluate(image, rep.images()).dist(ONE) < 1e-8


def _random_word(rng, max_syllables=10):
    gens = list(SURFACE_GENERATORS) + [Generator.TAU]
    pairs = [
        (gens[rng.integers(len(gens))], int(rng.integers(-2, 3)))
        for _ in range(rng.integers(0, max_syllables + 1))
    ]
    return Word(pairs)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_evaluation_is_a_homomorphism(seed):
    rng = np.random.default_rng(seed)
    trep = TorusRep(haar_random(rng), random_surface_rep(rng))
    images = trep.images()
    w1 = _random_word(rng)
    w2 = _random_word(rng)
    lhs = evaluate(w1 * w2, images)
    rhs = evaluate(w1, images) * evaluate(w2, images)
    assert lhs.dist(rhs) < 1e-10


def test_word_power_and_inverse():
    w = Word([(A1, 2), (B1, -1)])
    assert w ** 0 == Word()
    assert w ** 2 == w * w
    assert w ** -1 == w.inverse()
    assert (w * w.inverse()).is_identity
