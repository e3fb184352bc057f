import math

import numpy as np
import pytest

from repvar.commutator import (
    continue_fiber,
    fricke_trace,
    project_pair_to_fiber,
    randomize_in_fiber,
    sample_fiber,
    snap_commuting_pair,
    solve_commutator,
    connect_in_fiber,
)
from repvar.su2 import (
    E1,
    MAX_STEP,
    MINUS_ONE,
    ONE,
    SU2,
    commutator,
    contraction,
    exp_axis_angle,
    exp_tangent,
    geodesic_distance,
    haar_random,
    random_axis,
)


def test_solve_commutator_identity_and_minus_one():
    a, b = solve_commutator(ONE)
    assert a.dist(ONE) == 0.0 and b.dist(ONE) == 0.0
    a, b = solve_commutator(MINUS_ONE)
    assert abs(a.trace) < 1e-12
    assert abs(b.trace) < 1e-12
    assert abs((a * b).trace) < 1e-12
    assert commutator(a, b).dist(MINUS_ONE) < 1e-12


def test_solve_commutator_haar_targets():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        c = haar_random(rng)
        a, b = solve_commutator(c)
        assert commutator(a, b).dist(c) < 1e-10


def test_solve_commutator_near_the_center():
    # within rounding of +-1, where arccos of the real part loses the angle
    rng = np.random.default_rng(13)
    distances = (1e-11, 3e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6)
    for pole in (ONE, MINUS_ONE):
        for d in distances:
            for _ in range(20):
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                c = pole * exp_axis_angle(axis, d)
                a, b = solve_commutator(c)
                assert commutator(a, b).dist(c) < 1e-14


@pytest.mark.parametrize("d", [5e-14, 1e-13, 3e-13, 1e-12, 3e-12])
def test_section_and_sampler_exact_near_minus_one(d):
    # just outside the band where c counts as -1: the section turns its
    # frame onto c's axis, and the sampler's conjugation stays on that
    # axis instead of a Haar draw, so both meet c to rounding
    rng = np.random.default_rng([14, int(d * 1e15)])
    for _ in range(100):
        c = MINUS_ONE * exp_axis_angle(random_axis(rng), d)
        assert c.dist(MINUS_ONE) == pytest.approx(d, rel=1e-2)
        for a, b in (solve_commutator(c), sample_fiber(c, rng)):
            assert commutator(a, b).dist(c) < 1e-14


def test_fricke_trace_values():
    assert fricke_trace(2.0, 2.0, 2.0) == pytest.approx(2.0)
    assert fricke_trace(0.0, 0.0, 0.0) == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        fricke_trace(2.5, 0.0, 0.0)


def test_fricke_trace_matches_direct_multiplication():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b = haar_random(rng), haar_random(rng)
        predicted = fricke_trace(a.trace, b.trace, (a * b).trace)
        assert abs(predicted - commutator(a, b).trace) < 1e-10


def test_sample_fiber():
    rng = np.random.default_rng(2)
    # minus one: the three trace-zero conditions
    a, b = sample_fiber(MINUS_ONE, rng)
    assert abs(a.trace) < 1e-8 and abs(b.trace) < 1e-8 and abs((a * b).trace) < 1e-8
    # identity: a commuting pair
    a, b = sample_fiber(ONE, rng)
    assert commutator(a, b).dist(ONE) < 1e-12
    # distinct seeds, same residual bound
    c = haar_random(rng)
    p1 = sample_fiber(c, np.random.default_rng(10))
    p2 = sample_fiber(c, np.random.default_rng(11))
    assert p1[0].dist(p2[0]) > 1e-3
    for a, b in (p1, p2):
        assert commutator(a, b).dist(c) < 1e-12
    # within rounding of 1, where the fiber is nearly singular
    c = exp_axis_angle(E1, 1e-9)
    a, b = sample_fiber(c, rng)
    assert commutator(a, b).dist(c) < 1e-14


def test_minus_one_characterization_both_ways():
    rng = np.random.default_rng(3)
    for _ in range(200):
        # orthogonal trace-zero pairs map to -1
        v1 = rng.standard_normal(3)
        v1 /= np.linalg.norm(v1)
        v2 = rng.standard_normal(3)
        v2 -= v1 * (v1 @ v2)
        v2 /= np.linalg.norm(v2)
        a = SU2(0.0, *v1)
        b = SU2(0.0, *v2)
        assert commutator(a, b).dist(MINUS_ONE) < 1e-10
    for _ in range(200):
        # points of the fiber have all three traces near zero
        a, b = sample_fiber(MINUS_ONE, rng)
        assert commutator(a, b).dist(MINUS_ONE) < 1e-12
        assert abs(a.trace) < 1e-5 and abs(b.trace) < 1e-5 and abs((a * b).trace) < 1e-5


def test_randomize_in_fiber_is_exact():
    rng = np.random.default_rng(4)
    for _ in range(100):
        c = haar_random(rng)
        a, b = solve_commutator(c)
        a2, b2 = randomize_in_fiber(a, b, rng)
        assert commutator(a2, b2).dist(c) < 1e-12
        assert a2.dist(a) + b2.dist(b) > 1e-6  # actually moved


def test_project_pair_to_fiber_basin():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = haar_random(rng)
        a, b = solve_commutator(c)
        a = exp_tangent(0.05 * rng.standard_normal(3)) * a
        b = exp_tangent(0.05 * rng.standard_normal(3)) * b
        a, b, res, ok = project_pair_to_fiber(a, b, c)
        assert ok and res < 1e-12


def test_snap_commuting_pair():
    u = exp_axis_angle(E1, 0.7)
    v = exp_tangent((0.0, 1e-8, 0.0)) * exp_axis_angle(E1, 1.2)
    a, b = snap_commuting_pair(u, v)
    assert commutator(a, b).dist(ONE) < 1e-14
    assert a.dist(u) + b.dist(v) < 1e-6
    # near -1 the larger angle is the element nearer the center: it moves
    u = exp_axis_angle(E1, 3.1415)
    v = exp_axis_angle((0.0, 1.0, 0.0), 1.5)
    a, b = snap_commuting_pair(u, v)
    assert commutator(a, b).dist(ONE) < 1e-14
    assert a.dist(u) + b.dist(v) < 1e-3


def _assert_fiber_path(path, p0, p1, c):
    assert path[0] == p0 and path[-1] == p1
    for a, b in path:
        assert commutator(a, b).dist(c) <= 1e-13
    for p, q in zip(path, path[1:]):
        assert max(
            geodesic_distance(p[0], q[0]), geodesic_distance(p[1], q[1])
        ) <= MAX_STEP + 1e-12


def test_connect_in_fiber_stays_in_fiber(monkeypatch):
    import repvar.commutator as module

    def no_newton(*args, **kwargs):
        raise AssertionError("connect_in_fiber projected a node")

    monkeypatch.setattr(module, "project_pair_to_fiber", no_newton)
    rng = np.random.default_rng(6)
    # a Haar target, the fiber over -1, and log-spaced angles above the
    # snap angle up to pi, each joined to a sample and to its (-A, B) partner
    targets = [haar_random(rng), MINUS_ONE] + [
        exp_axis_angle(random_axis(rng), t) for t in np.geomspace(1.01e-11, math.pi, 17)
    ]
    for c in targets:
        p0 = sample_fiber(c, rng)
        for p1 in (sample_fiber(c, rng), (-p0[0], p0[1])):
            path = connect_in_fiber(p0, p1, c)
            _assert_fiber_path(path, p0, p1, c)


@pytest.mark.parametrize("end_angle", [1e-9, 0.0])
def test_continue_fiber_nodes_are_exact(end_angle):
    # (A3, B3) over y(t) and (A2, B2) over y(t)^-1 as y(t) runs from a Haar
    # element to within end_angle of 1: every node, the walks onto the
    # section at t = 0 included, lies on its fiber up to rounding
    for seed in range(30):
        rng = np.random.default_rng([12, seed])
        y0 = haar_random(rng)
        y1 = exp_axis_angle(random_axis(rng), end_angle)
        pairs = (sample_fiber(y0, rng), sample_fiber(y0.inverse(), rng))

        def targets(t):
            y = y1 * contraction(y1.inverse() * y0)[0](t)
            return (y, y.inverse())

        nodes = continue_fiber(pairs, targets, init_steps=4)
        assert nodes[0] == (0.0, pairs)
        assert nodes[-1][0] == 1.0
        for t, node in nodes:
            for (a, b), c in zip(node, targets(t)):
                assert commutator(a, b).dist(c) <= 1e-14
        for (_, p), (_, q) in zip(nodes, nodes[1:]):
            for (a0, b0), (a1, b1) in zip(p, q):
                assert max(geodesic_distance(a0, a1), geodesic_distance(b0, b1)) <= MAX_STEP + 1e-12


def test_continue_fiber_rests_over_the_center():
    # a commuting pair over a target that stays at 1 until t = 1/2 does not
    # move; then it walks through the commuting stratum to the section and
    # follows it, every node on its fiber
    c1 = haar_random(np.random.default_rng(14))
    pair = (exp_axis_angle(E1, 0.4), exp_axis_angle(E1, 1.3))

    def targets(t):
        return (c1 * contraction(c1.inverse())[0](max(0.0, 2.0 * t - 1.0)),)

    nodes = continue_fiber((pair,), targets, init_steps=4)
    resting = [node for t, node in nodes if t < 0.5]
    assert len(resting) >= 2 and all(node == (pair,) for node in resting)
    assert nodes[-1][0] == 1.0
    for t, ((a, b),) in nodes:
        assert commutator(a, b).dist(targets(t)[0]) <= 1e-14


def test_package_attribute_is_the_submodule():
    # the package re-exports no name that shadows its commutator submodule
    import repvar.commutator as module

    assert module.__name__ == "repvar.commutator"
