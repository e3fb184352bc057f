import math

import numpy as np
import pytest

from repvar import components
from repvar.commutator import solve_commutator
from repvar.solvers import tangent_jacobian
from repvar.components import (
    enumerate_fix_labels,
    enumerate_torus_labels,
    random_extended_fixed_sample,
    randomized_representative,
    randomized_torus_representative,
)
from repvar.su2 import (
    E1,
    FLOAT_OPS,
    MINUS_ONE,
    ONE,
    SU2,
    commutator,
    exp_axis_angle,
    exp_tangent,
    haar_random,
)
from repvar.varieties import (
    CentralizerType,
    ResidualError,
    SurfaceRep,
    TorusRep,
    centralizer_type,
    check_system,
    derived_x,
    fixed_point_residual,
    load_rep,
    project_to_variety,
    random_surface_rep,
    rep_from_dict,
    rep_to_dict,
    residual_array,
    save_rep,
    solve_intertwiner,
    torus_residual,
    trivial_rep,
    _table_gaps,
)
from repvar.words import SURFACE_GENERATORS, evaluate, phi_substitution, relator


def abelian_rep(rng, axis=None):
    if axis is None:
        v = rng.standard_normal(3)
        axis = tuple(v / np.linalg.norm(v))
    return SurfaceRep(
        *(exp_axis_angle(axis, rng.uniform(-math.pi, math.pi)) for _ in range(6))
    )


def test_derived_x():
    assert derived_x(trivial_rep()).dist(ONE) == 0.0
    rng = np.random.default_rng(0)
    rep = random_surface_rep(rng)
    with_trivial_handle = SurfaceRep(rep.a1, rep.b1, rep.a2, rep.b2, ONE, ONE)
    assert derived_x(with_trivial_handle).dist(rep.a1) < 1e-12
    g = haar_random(rng)
    assert abs(derived_x(rep.conjugate(g)).trace - derived_x(rep).trace) < 1e-12


def surface_residual(rep):
    """The surface relation's residual: the fixed-point system at n = 0."""
    return residual_array([rep], 0).max()


def test_surface_residual():
    assert surface_residual(trivial_rep()) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert surface_residual(random_surface_rep(rng)) < 1e-10
    # flip the sign of the product: residual exactly 2
    rep = random_surface_rep(rng)
    flipped_target = MINUS_ONE * (commutator(rep.a1, rep.b1) * commutator(rep.a2, rep.b2)).inverse()
    a3, b3 = solve_commutator(flipped_target)
    flipped = SurfaceRep(rep.a1, rep.b1, rep.a2, rep.b2, a3, b3)
    assert surface_residual(flipped) == pytest.approx(2.0, abs=1e-9)


def test_fixed_point_residual():
    for n in range(0, 5):
        assert fixed_point_residual(trivial_rep(), n).max() == 0.0
    rng = np.random.default_rng(2)
    for n in range(0, 9):
        rep = abelian_rep(rng)
        assert fixed_point_residual(rep, n).max() < 1e-10


def test_torus_residual():
    assert torus_residual(TorusRep(ONE, trivial_rep()), 3).max() == 0.0
    # non-central T over the trivial surface tuple solves every equation
    assert torus_residual(TorusRep(SU2(0, 1, 0, 0), trivial_rep()), 1).max() < 1e-15
    # an all-commuting seven-tuple solves the system for every n
    rng = np.random.default_rng(3)
    axis = (0.0, 1.0, 0.0)
    for n in range(0, 5):
        trep = TorusRep(exp_axis_angle(axis, 0.9), abelian_rep(rng, axis))
        assert torus_residual(trep, n).max() < 1e-12


def test_fix_embeds_in_torus_system():
    rng = np.random.default_rng(4)
    from repvar.components import enumerate_fix_labels, randomized_representative

    for n in (1, 2, 3):
        for label in enumerate_fix_labels(n):
            rep = randomized_representative(n, label, rng)
            fix_res = fixed_point_residual(rep, n).max()
            torus_res = torus_residual(TorusRep(ONE, rep), n).max()
            assert torus_res <= 4 * max(fix_res, 1e-12)


def test_residuals_are_conjugation_invariant():
    rng = np.random.default_rng(5)
    rep = random_surface_rep(rng)
    trep = TorusRep(haar_random(rng), rep)
    g = haar_random(rng)
    for n in (0, 1, 3):
        a = fixed_point_residual(rep, n)
        b = fixed_point_residual(rep.conjugate(g), n)
        assert a.shape == b.shape == (len(FIX_ROWS),) and np.max(np.abs(a - b)) < 1e-10
        a = torus_residual(trep, n)
        b = torus_residual(trep.conjugate(g), n)
        assert a.shape == b.shape == (len(TORUS_ROWS),) and np.max(np.abs(a - b)) < 1e-10


# the equations of each table, in the order of its rows
FIX_ROWS = ("relator", "a1", "b1", "a3", "b3")
TORUS_ROWS = ("relator", "a1", "b1", "a2", "b2", "a3", "b3")


def _pullback_gaps(rep: SurfaceRep, n: int, t: SU2 | None) -> dict[str, float]:
    """Word-level oracle: |phi^n(g) - g| (or T^-1 g T) per generator, and the relator."""
    images = rep.images()
    sub = phi_substitution(n)
    gaps = {"relator": evaluate(relator(), images).dist(ONE)}
    for g in SURFACE_GENERATORS:
        target = images[g] if t is None else t.inverse() * images[g] * t
        gaps[g.name.lower()] = evaluate(sub.image(g), images).dist(target)
    return gaps


def test_tables_match_word_level_pullback():
    # each table entry is the pullback gap of one generator, so the two
    # agree equation by equation on and off the variety; generators the
    # fixed-point table leaves out must be fixed by the pullback
    rng = np.random.default_rng(12)
    checked = 0
    for n in range(-4, 5):
        fix_points = [randomized_representative(n, lab, rng) for lab in enumerate_fix_labels(n)]
        fix_points += [random_surface_rep(rng) for _ in range(3)]
        # A1 = +-1 exactly, once with X central too ([I, J] = -1)
        for a1 in (ONE, MINUS_ONE):
            a2, b2 = haar_random(rng), haar_random(rng)
            a3, b3 = solve_commutator(commutator(a2, b2).inverse())
            fix_points.append(SurfaceRep(a1, haar_random(rng), a2, b2, a3, b3))
            i, j = SU2(0, 1, 0, 0), SU2(0, 0, 1, 0)
            fix_points.append(SurfaceRep(a1, haar_random(rng), i, j, i, j))
        for rep in fix_points:
            oracle = _pullback_gaps(rep, n, None)
            table = dict(zip(FIX_ROWS, fixed_point_residual(rep, n), strict=True))
            for tag, gap in oracle.items():
                assert abs(table.get(tag, 0.0) - gap) <= 1e-11, (n, tag)
            checked += 1
        torus_points = [
            randomized_torus_representative(n, lab, rng) for lab in enumerate_torus_labels(n)
        ]
        torus_points += [TorusRep(haar_random(rng), rep) for rep in fix_points[-7:]]
        torus_points += [TorusRep(t, rep) for t in (ONE, MINUS_ONE) for rep in fix_points[-4:]]
        for trep in torus_points:
            oracle = _pullback_gaps(trep.rep, n, trep.t)
            table = dict(zip(TORUS_ROWS, torus_residual(trep, n), strict=True))
            assert set(table) == set(oracle)
            for tag, gap in oracle.items():
                assert abs(table[tag] - gap) <= 1e-11, (n, tag)
            checked += 1
    assert checked > 100


def _signed(elements, system, n):
    """The table's signed 4-vector differences at the elements, on floats."""
    return _table_gaps([el.to_list() for el in elements], system, n, FLOAT_OPS)


def _central_difference_jacobian(elements, system, n, h=1e-6):
    cols = []
    for i, el in enumerate(elements):
        for axis in range(3):
            step = [0.0, 0.0, 0.0]
            step[axis] = h
            plus = [*elements[:i], exp_tangent(step) * el, *elements[i + 1 :]]
            step[axis] = -h
            minus = [*elements[:i], exp_tangent(step) * el, *elements[i + 1 :]]
            diff = _signed(plus, system, n) - _signed(minus, system, n)
            cols.append(diff / (2 * h))
    return np.array(cols).T


def test_table_jacobian_matches_central_differences():
    # the complex-step Jacobian is exact to rounding; central differences
    # agree to their own O(h^2 n^3) error (a few 1e-9 here), while a
    # forward difference with a 1e-7 step is off by 7e-7 and more
    rng = np.random.default_rng(5)
    i, j = SU2(0, 1, 0, 0), SU2(0, 0, 1, 0)
    # within rounding of -1, where the angle atan2(|v|, w) rounds to pi
    near_minus_one = SU2(-1.0, 3e-17, -2e-17, 1e-17)
    for n in (*range(-4, 5), 8):
        fix_points = [randomized_representative(n, lab, rng) for lab in enumerate_fix_labels(n)[:4]]
        for a1 in (ONE, MINUS_ONE, near_minus_one):
            a2, b2 = haar_random(rng), haar_random(rng)
            a3, b3 = solve_commutator(commutator(a2, b2).inverse())
            fix_points.append(SurfaceRep(a1, haar_random(rng), a2, b2, a3, b3))
            # X = [A3, B3] A1 = -A1 is central
            fix_points.append(SurfaceRep(a1, haar_random(rng), i, j, i, j))
        torus_points = [
            randomized_torus_representative(n, lab, rng) for lab in enumerate_torus_labels(n)[:4]
        ]
        torus_points += [TorusRep(t, rep) for t in (ONE, MINUS_ONE) for rep in fix_points[-6:]]
        for system, points in (("fix", fix_points), ("torus", torus_points)):
            for rep in points:
                on = list(rep.elements())
                off = [exp_tangent(0.05 * rng.standard_normal(3) / math.sqrt(3)) * el for el in on]
                for els in (on, off):
                    exact = tangent_jacobian(lambda q, ops: _table_gaps(q, system, n, ops), els)
                    assert exact.shape == (4 * (7 if system == "torus" else 5), 3 * len(els))
                    reference = _central_difference_jacobian(els, system, n)
                    assert np.max(np.abs(exact - reference)) <= 1e-7, (system, n)


def test_random_surface_rep_statistics():
    seen = set()
    total = 0.0
    count = 10_000
    rng = np.random.default_rng(6)
    for _ in range(count):
        rep = random_surface_rep(rng)
        total += rep.a1.trace
        seen.add(round(rep.a1.w, 12))
    assert abs(total / count) < 0.05
    assert len(seen) == count  # distinct samples


def test_project_to_variety():
    rng = np.random.default_rng(7)
    rep = random_surface_rep(rng)
    # already admissible: returned unchanged with zero iterations
    out = project_to_variety(rep, 0, tol=1e-9)
    assert out.iterations == 0 and out.rep is rep
    # perturbed fixed-point representative reconverges
    from repvar.components import ComponentLabel, randomized_representative

    start = randomized_representative(3, ComponentLabel("+", 1, 0), rng)
    els = [exp_tangent(1e-3 * rng.standard_normal(3)) * el for el in start.elements()]
    out = project_to_variety(SurfaceRep.from_elements(els), 3, tol=1e-9)
    assert out.converged and out.residual < 1e-9
    # from a random seven-tuple: converges or honestly reports failure
    trep = TorusRep(haar_random(rng), random_surface_rep(rng))
    out = project_to_variety(trep, 1, tol=1e-9, max_iter=40)
    assert out.converged == (out.residual <= 1e-9)
    assert out.residual == torus_residual(out.rep, 1).max()


def test_solve_intertwiner_on_fixed_points():
    from repvar.components import ComponentLabel, canonical_representative

    rep = canonical_representative(2, ComponentLabel("+", 0, 1))
    result = solve_intertwiner(rep, 2)
    assert result.ok
    assert min(result.t.dist(ONE), result.t.dist(MINUS_ONE)) < 1e-6
    assert torus_residual(TorusRep(result.t, rep), 2).max() < 1e-9


def test_solve_intertwiner_recovers_conjugator():
    for i in range(10):
        rng = np.random.default_rng([20, i])
        trep = random_extended_fixed_sample(2, rng)
        assert not trep.t.is_central(1e-3)
        assert centralizer_type(trep.rep) is CentralizerType.CENTER_ONLY
        result = solve_intertwiner(trep.rep, 2)
        assert result.ok
        # intertwiner unique up to sign on an irreducible representation
        assert min(result.t.dist(trep.t), result.t.dist(-trep.t)) < 1e-6
        assert torus_residual(TorusRep(result.t, trep.rep), 2).max() < 1e-9


def test_solve_intertwiner_rejects_generic_points():
    rng = np.random.default_rng(8)
    result = solve_intertwiner(random_surface_rep(rng), 2)
    assert not result.ok
    assert result.gap > 1e-3


def test_solve_intertwiner_checks_precondition():
    rng = np.random.default_rng(9)
    junk = SurfaceRep(*(haar_random(rng) for _ in range(6)))
    with pytest.raises(ResidualError, match="surface residual"):
        solve_intertwiner(junk, 1)
    # the one refusal class, re-exported where the classifiers raise it
    assert components.ResidualError is ResidualError


def test_centralizer_type():
    assert centralizer_type(trivial_rep()) is CentralizerType.FULL_GROUP
    signs = SurfaceRep(ONE, MINUS_ONE, ONE, ONE, MINUS_ONE, ONE)
    assert centralizer_type(signs) is CentralizerType.FULL_GROUP
    powers = SurfaceRep(
        *(exp_axis_angle(E1, 0.4 * (i + 1)) for i in range(6))
    )
    assert centralizer_type(powers) is CentralizerType.CIRCLE
    rng = np.random.default_rng(10)
    assert centralizer_type(random_surface_rep(rng)) is CentralizerType.CENTER_ONLY


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    rep = random_surface_rep(rng)
    path = tmp_path / "rep.json"
    save_rep(path, rep, 3)
    n, loaded = load_rep(path)
    assert n == 3 and isinstance(loaded, SurfaceRep)
    assert loaded.dist(rep) < 1e-15
    trep = TorusRep(haar_random(rng), rep)
    save_rep(path, trep, -2)
    n, loaded = load_rep(path)
    assert n == -2 and isinstance(loaded, TorusRep)
    assert loaded.dist(trep) < 1e-15


def test_serialization_errors_name_the_offending_key():
    with pytest.raises(ValueError, match="format"):
        rep_from_dict({"format": "nope"})
    good = rep_to_dict(trivial_rep(), 1)
    bad = dict(good)
    bad["A"] = good["A"][:2]
    with pytest.raises(ValueError, match="A"):
        rep_from_dict(bad)
    bad = dict(good)
    bad["n"] = "three"
    with pytest.raises(ValueError, match="n"):
        rep_from_dict(bad)
    bad = dict(good)
    bad["B"] = [good["B"][0], good["B"][1], [1.0, 0.0, 0.0]]
    with pytest.raises(ValueError, match=r"B\[2\]"):
        rep_from_dict(bad)
    # a JSON bool is an int to Python, and a string converts with float()
    bad = dict(good)
    bad["n"] = True
    with pytest.raises(ValueError, match="^n: missing or not an integer$"):
        rep_from_dict(bad)
    for value in ("1", True):
        bad = dict(good)
        bad["A"] = [good["A"][0], [value, 0.0, 0.0, 0.0], good["A"][2]]
        with pytest.raises(ValueError, match=r"^A\[1\]: expected a list of 4 floats$"):
            rep_from_dict(bad)
    bad = dict(good)
    bad["T"] = [True, 0, 0, 0]
    with pytest.raises(ValueError, match="^T: expected a list of 4 floats$"):
        rep_from_dict(bad)
