import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repvar.su2 import (
    ARRAY_OPS,
    E1,
    SU2,
    I,
    J,
    K,
    MINUS_ONE,
    ONE,
    axis_rotation,
    best_conjugator,
    commutator,
    conjugators,
    contract_to_one,
    contraction,
    exp_axis_angle,
    geodesic_distance,
    haar_random,
    qpow,
    random_torus_element,
    step_count,
    stepped,
)


def rand_elements(seed, count=1):
    rng = np.random.default_rng(seed)
    return [haar_random(rng) for _ in range(count)]


su2s = st.integers(min_value=0, max_value=10_000).map(lambda s: rand_elements(s)[0])


def test_identity_and_quaternion_table():
    u = rand_elements(1)[0]
    assert (ONE * u).dist(u) == 0.0
    assert (I * J).dist(K) < 1e-15
    assert (J * K).dist(I) < 1e-15
    assert (K * I).dist(J) < 1e-15
    assert (I * I).dist(MINUS_ONE) < 1e-15


def test_long_product_chain_keeps_unit_norm():
    rng = np.random.default_rng(7)
    acc = ONE
    factors = [haar_random(rng) for _ in range(64)]
    for i in range(1_000_000):
        acc = acc * factors[i % 64]
    assert abs(acc.norm() - 1.0) < 1e-12


def test_inverse():
    assert ONE.inverse().dist(ONE) == 0.0
    assert I.inverse().dist(-I) < 1e-15
    for u in rand_elements(3, 50):
        assert (u * u.inverse()).dist(ONE) < 1e-12


def test_commutator_values():
    u = rand_elements(4)[0]
    assert commutator(u, u).dist(ONE) < 1e-12
    # oracle: direct quaternion multiplication i j (-i) (-j)
    direct = I * J * (-I) * (-J)
    assert direct.dist(MINUS_ONE) < 1e-15
    assert commutator(I, J).dist(direct) < 1e-15
    # powers of one element commute
    assert commutator(u.power(2), u.power(5)).dist(ONE) < 1e-12


def test_exp_axis_angle():
    assert exp_axis_angle(E1, 0.0).dist(ONE) == 0.0
    assert exp_axis_angle(E1, math.pi).dist(MINUS_ONE) < 1e-15
    assert exp_axis_angle(E1, math.pi / 2).dist(I) < 1e-15
    with pytest.raises(ValueError):
        exp_axis_angle((1.0, 1.0, 0.0), 0.5)


def test_angle_resolves_rotations_near_the_center():
    # arccos(w) reads a 1e-9 rotation as 0.0; atan2(|v|, w) does not
    assert exp_axis_angle(E1, 1e-9).angle() == pytest.approx(1e-9, rel=1e-12)
    assert math.pi - exp_axis_angle(E1, math.pi - 1e-9).angle() == pytest.approx(
        1e-9, rel=1e-6
    )
    assert ONE.angle() == 0.0 and MINUS_ONE.angle() == math.pi


def test_power_exact_angle_scaling():
    u = exp_axis_angle(E1, 0.3)
    assert u.power(7).dist(exp_axis_angle(E1, 2.1)) < 1e-12
    assert u.power(0).dist(ONE) == 0.0
    assert u.power(-1).dist(u.inverse()) < 1e-15
    assert MINUS_ONE.power(3).dist(MINUS_ONE) == 0.0
    assert MINUS_ONE.power(4).dist(ONE) == 0.0
    v = rand_elements(9)[0]
    by_mult = v * v * v * v * v
    assert v.power(5).dist(by_mult) < 1e-12
    # against k-fold products: Haar elements, +-1, 1 with signed zeros
    # (1.inverse()) and an element within 1e-15 of -1
    near_minus_one = SU2(-1.0, 6e-16, -8e-16, 0.0)
    els = rand_elements(9, 4) + [ONE, MINUS_ONE, ONE.inverse(), near_minus_one]
    for u in els:
        for k in range(-8, 9):
            factor = u if k >= 0 else u.inverse()
            by_mult = ONE
            for _ in range(abs(k)):
                by_mult = by_mult * factor
            assert u.power(k).dist(by_mult) < 5e-15, (u, k)
    # the array ops power a stack of the same elements row by row
    stack = tuple(np.array(c) for c in zip(*(u.to_list() for u in els)))
    for k in range(-8, 9):
        rows = np.array(qpow(stack, k, ARRAY_OPS)).T
        for u, row in zip(els, rows):
            assert max(abs(a - b) for a, b in zip(u.power(k).to_list(), row)) < 5e-16, (u, k)


def test_geodesic_distance():
    u = rand_elements(5)[0]
    # arcs read from chords: exact 0 on identical elements, and arcs within
    # rounding of 0 and pi resolved (pi's spacing 4.4e-16 bounds the latter)
    assert geodesic_distance(u, u) == 0.0
    for v in (ONE, K):
        assert geodesic_distance(v, v * exp_axis_angle(E1, 1e-12)) == pytest.approx(
            1e-12, rel=1e-6
        )
        far = v * exp_axis_angle(E1, math.pi - 1e-12)
        assert geodesic_distance(v, far) == pytest.approx(math.pi - 1e-12, rel=1e-6)
        assert math.pi - geodesic_distance(v, far) == pytest.approx(1e-12, rel=1e-3)


def test_haar_determinism_and_moments():
    a = haar_random(np.random.default_rng(11))
    b = haar_random(np.random.default_rng(11))
    assert a.dist(b) == 0.0
    rng = np.random.default_rng(12)
    traces = np.array([haar_random(rng).trace for _ in range(100_000)])
    assert abs(traces.mean()) < 0.05
    assert abs((traces**2).mean() - 1.0) < 0.05


def test_random_torus_element_draws_one_angle():
    # one uniform angle on the axis's maximal torus, as the samplers draw it
    axis = (0.0, 0.6, 0.8)
    rng, twin = np.random.default_rng(13), np.random.default_rng(13)
    for _ in range(20):
        el = random_torus_element(axis, rng)
        assert el.dist(exp_axis_angle(axis, twin.uniform(-math.pi, math.pi))) == 0.0
        assert commutator(el, exp_axis_angle(axis, 0.7)).dist(ONE) < 1e-15
    assert rng.random() == twin.random()


def _carry(rot):
    """The conjugator of an axis_rotation result: half its angle about its axis."""
    return ONE if rot is None else exp_axis_angle(rot[0], rot[1] / 2.0)


def test_axis_rotation():
    assert axis_rotation(I.axis(), I.axis()) is None
    g = _carry(axis_rotation(I.axis(), J.axis()))
    assert I.conjugate_by(g).dist(J) < 1e-15
    # anti-parallel axes: pi about an axis orthogonal to both
    u = exp_axis_angle(E1, 0.9)
    v = exp_axis_angle((-1.0, 0.0, 0.0), 0.9)
    axis, angle = axis_rotation(u.axis(), v.axis())
    assert angle == math.pi
    assert abs(np.dot(axis, E1)) < 1e-15 and abs(np.linalg.norm(axis) - 1.0) < 1e-15
    assert u.conjugate_by(_carry((axis, angle))).dist(v) < 1e-15


def test_axis_rotation_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(200):
        u = haar_random(rng)
        v = u.conjugate_by(haar_random(rng))
        g = _carry(axis_rotation(u.axis(), v.axis()))
        assert u.conjugate_by(g).dist(v) < 1e-14


def test_stepped_paths_respect_the_step_bound():
    u, g, x = rand_elements(17, 3)
    axis = (0.0, 0.6, 0.8)
    # contraction: along u's torus, or along `axis` from -1
    for el, along in ((u, u.axis()), (MINUS_ONE, axis)):
        nodes = contract_to_one(el, axis)
        assert nodes[-1].dist(ONE) < 1e-15
        for p, q in zip([el, *nodes], nodes):
            assert geodesic_distance(p, q) <= 0.2 + 1e-12
        for node in nodes[:-1]:
            assert max(abs(a - b) for a, b in zip(node.axis(), along)) < 1e-12
    assert contract_to_one(ONE) == []
    # conjugators: from 1 to g, each step moving a conjugate within the bound
    hs = conjugators(g)
    assert hs[-1].dist(g) < 1e-12
    for h0, h1 in zip([ONE, *hs], hs):
        assert geodesic_distance(x.conjugate_by(h0), x.conjugate_by(h1)) <= 0.2 + 1e-12
    assert conjugators(MINUS_ONE) == []
    # contraction to 1 within its length, along `axis` from within 1e-12 of
    # -1; stepped cuts it into step_count(length) nodes ending at path(1)
    near_minus_one = SU2(-1.0, 3e-14, -4e-14, 0.0)
    for start in (u, MINUS_ONE, near_minus_one):
        path, length = contraction(start, axis)
        ts = [i / 64 for i in range(65)]
        assert path(0.0).dist(start) < 1e-12 and path(1.0).dist(ONE) == 0.0
        for s, t in zip(ts, ts[1:]):
            assert geodesic_distance(path(s), path(t)) <= length * (t - s) + 1e-12
        nodes = stepped(path, length)
        assert len(nodes) == step_count(length) and nodes[-1].dist(path(1.0)) == 0.0
    for start in (MINUS_ONE, near_minus_one):
        path, _ = contraction(start, axis)
        assert path(0.5).dist(exp_axis_angle(axis, math.pi / 2)) < 1e-12


def test_best_conjugator():
    # recovers a conjugation, taken with w >= 0, from a tuple and its image
    rng = np.random.default_rng(23)
    for _ in range(20):
        us = [haar_random(rng) for _ in range(3)]
        g = haar_random(rng)
        g = g if g.w >= 0.0 else -g
        got = best_conjugator(us, [u.conjugate_by(g) for u in us])
        assert got.w >= 0.0 and got.dist(g) < 1e-12
    # Horn's matrix is 0 on central tuples, which every conjugation fixes
    for us, vs in (([ONE, MINUS_ONE], [MINUS_ONE, ONE]), ([ONE], [I])):
        assert best_conjugator(us, vs) is ONE


def test_is_central():
    assert ONE.is_central()
    assert MINUS_ONE.is_central()
    assert not I.is_central()
    assert exp_axis_angle(E1, 1e-12).is_central(1e-9)
    assert not exp_axis_angle(E1, 1e-4).is_central(1e-9)


def test_centralizer_is_abelian():
    rng = np.random.default_rng(14)
    for _ in range(50):
        u = haar_random(rng)
        if u.is_central(1e-3):
            continue
        axis = u.axis()
        v = exp_axis_angle(axis, rng.uniform(-math.pi, math.pi))
        w = exp_axis_angle(axis, rng.uniform(-math.pi, math.pi))
        assert commutator(u, v).dist(ONE) < 1e-10
        assert commutator(u, w).dist(ONE) < 1e-10
        assert commutator(v, w).dist(ONE) < 1e-9


@settings(max_examples=200, deadline=None)
@given(su2s, su2s)
def test_products_stay_unit_and_trace_is_conjugation_invariant(g, u):
    p = g * u
    assert abs(p.norm() - 1.0) < 1e-12
    assert abs(u.conjugate_by(g).trace - u.trace) < 1e-12


@settings(max_examples=100, deadline=None)
@given(su2s, su2s, st.floats(min_value=0.0, max_value=1.0))
def test_translated_contraction_is_a_geodesic(u, v, t):
    # v times the contraction of v^-1 u runs from u to v at constant speed
    path, theta = contraction(v.inverse() * u)
    p = v * path(t)
    assert abs(p.norm() - 1.0) < 1e-12
    assert (v * path(0.0)).dist(u) < 1e-14
    assert (v * path(1.0)).dist(v) < 1e-15
    assert theta == pytest.approx(geodesic_distance(u, v), abs=1e-14)
    assert geodesic_distance(u, p) == pytest.approx(t * theta, abs=1e-14)
