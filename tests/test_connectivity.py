import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from repvar.components import (
    SNAP_BAND,
    ComponentLabel,
    ResidualError,
    TorusLabel,
    Unclassifiable,
    canonical_representative,
    canonical_torus_representative,
    enumerate_fix_labels,
    enumerate_torus_labels,
    random_extended_fixed_sample,
    randomized_representative,
    randomized_torus_representative,
)
from repvar.connectivity import (
    TOL,
    LabelMismatchError,
    canonical_path,
    canonical_torus_path,
    census,
    certificate_from_dict,
    certificate_to_dict,
    load_certificate,
    probe_path,
    save_certificate,
    verify_certificate,
)
from repvar import cli, components, connectivity, solvers, varieties
from repvar.commutator import sample_fiber, solve_commutator
from repvar.su2 import (
    E1,
    MAX_STEP,
    MINUS_ONE,
    ONE,
    SU2,
    central_gap,
    commutator,
    contraction,
    exp_axis_angle,
    exp_tangent,
    haar_random,
    random_axis,
    step_between,
)
from repvar.varieties import (
    SurfaceRep,
    TorusRep,
    random_surface_rep,
    rep_to_dict,
    residual_array,
    residual_for,
    save_rep,
    trivial_rep,
)


def test_probe_single_point():
    for n, label in ((2, ComponentLabel("+", 0, 1)), (0, ComponentLabel()),
                     (-3, ComponentLabel("-", 1, 0))):
        rep = canonical_representative(n, label)
        cert = probe_path(rep, rep, "fix", n, TOL)
        assert len(cert.points) == 1
        assert verify_certificate(cert).ok


def test_probe_same_label_pair():
    for n, label in ((2, ComponentLabel("+", 0, 1)), (0, ComponentLabel()),
                     (-3, ComponentLabel("-", 1, 0)), (-1, ComponentLabel())):
        r0 = randomized_representative(n, label, np.random.default_rng([0, 1]))
        r1 = randomized_representative(n, label, np.random.default_rng([0, 2]))
        cert = probe_path(r0, r1, "fix", n, TOL)
        assert verify_certificate(cert).ok
        assert cert.label == label.text()
        assert cert.max_step <= MAX_STEP + 1e-12
        assert cert.points[0] is r0 and cert.points[-1] is r1


def test_probe_refuses_mismatched_labels():
    for n in (2, -2):
        r0 = randomized_representative(n, ComponentLabel("+", 0, 1), np.random.default_rng(3))
        r1 = randomized_representative(n, ComponentLabel("+", 1, 0), np.random.default_rng(4))
        with pytest.raises(LabelMismatchError, match=r"labels differ: '\+,0,1' vs '\+,1,0'"):
            probe_path(r0, r1, "fix", n, TOL)


def test_probe_refuses_off_variety_endpoints():
    # an endpoint off the variety is the readings' refusal, not a plain ValueError
    for system, n, label in (("fix", 3, ComponentLabel("-", 1, 0)),
                             ("torus", -2, TorusLabel(-1, ComponentLabel("+", 0, 1)))):
        sample = randomized_representative if system == "fix" else randomized_torus_representative
        r0 = sample(n, label, np.random.default_rng(3))
        els = list(r0.elements())
        els[3] = exp_tangent((1e-3, 0.0, 0.0)) * els[3]
        r1 = type(r0).from_elements(els)
        with pytest.raises(ResidualError, match="second endpoint residual"):
            probe_path(r0, r1, system, n, TOL)


def test_probe_mismatch_fuzz():
    labels = enumerate_fix_labels(3)
    off = [lab for lab in labels if not lab.is_central]
    for i, lab_a in enumerate(off):
        lab_b = off[(i + 1) % len(off)]
        ra = randomized_representative(3, lab_a, np.random.default_rng([5, i]))
        rb = randomized_representative(3, lab_b, np.random.default_rng([6, i]))
        with pytest.raises(LabelMismatchError):
            probe_path(ra, rb, "fix", 3, TOL)


@pytest.mark.parametrize("system", ["fix", "torus"])
def test_probe_joins_independent_samples_of_smooth_components(system):
    # two independent samples of one smooth component at n = 3, several
    # radians apart: no conjugation aligns them, so the join runs through
    # the canonical representative
    n = 3
    if system == "fix":
        labels, sample = enumerate_fix_labels(n), randomized_representative
    else:
        labels, sample = enumerate_torus_labels(n), randomized_torus_representative
    joined = set()
    for li, label in enumerate(labels):
        fix = label if system == "fix" else label.fix
        if fix.is_central or fix.k + fix.l != 1:
            continue
        for i in range(5):
            rng = np.random.default_rng([11, li, i])
            r0, r1 = sample(n, label, rng), sample(n, label, rng)
            cert = probe_path(r0, r1, system, n, TOL)
            assert verify_certificate(cert).ok and cert.label == label.text()
            joined.add(label.text())
    assert len(joined) == (4 if system == "fix" else 8)


def test_probe_joins_the_ends_of_the_torus_central_component():
    # (-1, trivial) and (1, trivial) are fixed by every conjugation and lie
    # 3.14 rad apart in T: the conjugation leg is empty and the staged
    # paths, with their bridge from T = -1, join them
    start, end = TorusRep(MINUS_ONE, trivial_rep()), TorusRep(ONE, trivial_rep())
    for n in (1, 2, 0, -3):
        cert = probe_path(start, end, "torus", n, TOL)
        assert verify_certificate(cert).ok and cert.label == "central"
        assert cert.points[0] is start and cert.points[-1] is end


def test_probe_surface_system():
    # the surface relation is the fixed-point system at n = 0
    r0 = random_surface_rep(np.random.default_rng(7))
    r1 = random_surface_rep(np.random.default_rng(8))
    cert = probe_path(r0, r1, "fix", 0, TOL)
    assert verify_certificate(cert).ok
    assert cert.label == "central"


@pytest.mark.parametrize("system", ["fix", "torus"])
def test_canonical_certificates_end_on_the_canonical_representative(system):
    # the last node is the representative itself, not a near-duplicate of it
    for n in (2, -3):
        if system == "fix":
            labels, sample = enumerate_fix_labels(n), randomized_representative
            path, target = canonical_path, canonical_representative
        else:
            labels, sample = enumerate_torus_labels(n), randomized_torus_representative
            path, target = canonical_torus_path, canonical_torus_representative
        for li, label in enumerate(labels):
            cert = path(sample(n, label, np.random.default_rng([23, li])), n, TOL)
            end = target(n, label)
            assert [e.to_list() for e in cert.points[-1].elements()] == [
                e.to_list() for e in end.elements()
            ], (n, label)


def test_canonical_path_from_canonical_point_is_short():
    rep = canonical_representative(3, ComponentLabel("-", 0, 1))
    cert = canonical_path(rep, 3, TOL)
    assert verify_certificate(cert).ok
    assert len(cert.points) <= 3
    assert cert.points[-1].dist(rep) < 1e-12


def test_canonical_path_randomized():
    rng = np.random.default_rng(9)
    rep = randomized_representative(3, ComponentLabel("-", 0, 1), rng)
    cert = canonical_path(rep, 3, TOL)
    assert verify_certificate(cert).ok
    target = canonical_representative(3, ComponentLabel("-", 0, 1))
    assert cert.points[-1].dist(target) < 1e-9
    assert cert.points[0].dist(rep) < 1e-12


def test_moving_fiber_legs_take_no_newton_step(monkeypatch):
    # every moving-fiber leg runs, and no path construction calls the
    # fiber projection or the least-squares engine: each node is exact
    seen: set[str] = set()
    calls: list[str] = []
    continuation = connectivity._continuation

    def staged(pairs, targets, init_steps, stage):
        seen.add(stage)
        return continuation(pairs, targets, init_steps, stage)

    def counting(name):
        def counted(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"path construction called {name}")

        return counted

    monkeypatch.setattr(connectivity, "_continuation", staged)
    for name in ("project_pair_to_fiber", "refine_elements"):
        for module in list(sys.modules.values()):
            if module and module.__name__.startswith("repvar") and hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name))
    starts = [
        (0, ComponentLabel(), [19, 0, 0, 0]),  # descend-n0
        (3, ComponentLabel("+", 0, 1), [19, 3, 1, 0]),  # rotate-x
        (2, ComponentLabel(), [19, 2, 4]),  # diagonal-merge
        (2, ComponentLabel("+", 1, 0), [19, 2, 2, 0]),
    ]
    for n, label, seed in starts:
        rep = randomized_representative(n, label, np.random.default_rng(seed))
        assert verify_certificate(canonical_path(rep, n, TOL)).ok
    trep = randomized_torus_representative(2, TorusLabel(-1, ComponentLabel("+", 1, 0)),
                                           np.random.default_rng(11))
    assert verify_certificate(canonical_torus_path(trep, 2, TOL)).ok
    assert seen == {"move-b1", "rotate-x", "diagonal-merge", "descend-n0"}
    assert calls == []


@pytest.mark.parametrize(
    "init_steps, jump, message",
    [(8192, False, "node budget exhausted"), (8, True, "continuation step underflow")],
)
def test_continuation_failures_report_t_and_stage(init_steps, jump, message):
    # 4096 nodes, the start and 27 of a walk onto the section at t = 0
    # among them, take steps of 1/8192 short of t = 0.5; a target whose
    # angle jumps at t = 0.5 moves B of the section by 1 rad however small
    # the step, down to the last float below 0.5
    y0, y1 = exp_axis_angle(E1, 0.5), exp_axis_angle(E1, 2.5)
    pair = sample_fiber(y0, np.random.default_rng(22))

    path = contraction(y1.inverse() * y0)[0]

    def targets(t):
        return ((y1 if t >= 0.5 else y0) if jump else y1 * path(t),)

    with pytest.raises(connectivity.PathError) as err:
        connectivity._continuation((pair,), targets, init_steps, "rotate-x")
    t = err.value.__cause__.t
    assert err.value.stage == "rotate-x"
    assert str(err.value) == f"[rotate-x] {message} (t={t:.6f})"
    assert t == (math.nextafter(0.5, 0.0) if jump else (4096 - 28) / 8192)


@pytest.mark.parametrize("n, sample", [(1, 38), (1, 62), (1, 71), (1, 79), (2, 6), (2, 15)])
def test_blind_samples_path_and_verify(n, sample):
    # label-blind starts: a Haar surface tuple projected onto the fixed-point
    # set.  Their move-b1 targets end within 1e-6 of 1, where snapping the
    # pair broke the relation or underflowed the continuation (38, 79, 6,
    # 15), or pass and end within 1e-13 of it, where the frame must be
    # dropped and taken again (62, 71)
    rng = np.random.default_rng([7, sample])
    proj = varieties.project_to_variety(random_surface_rep(rng), n, "fix", tol=1e-10, max_iter=200)
    assert proj.converged
    cert = canonical_path(proj.rep, n, TOL)
    assert verify_certificate(cert).ok
    assert cert.max_residual < 1e-9


def test_canonical_path_abelian_stays_commuting():
    rng = np.random.default_rng(10)
    v = rng.standard_normal(3)
    axis = tuple(v / np.linalg.norm(v))
    rep = SurfaceRep(
        *(exp_axis_angle(axis, rng.uniform(-math.pi, math.pi)) for _ in range(6))
    )
    cert = canonical_path(rep, 2, TOL)
    assert verify_certificate(cert).ok
    assert cert.points[-1].dist(trivial_rep()) < 1e-9
    for point in cert.points:
        els = point.elements()
        worst = max(
            commutator(els[i], els[j]).dist(ONE)
            for i in range(6)
            for j in range(i + 1, 6)
        )
        assert worst < 1e-6


def test_canonical_torus_path_flavors():
    # epsilon = -1 over an off-diagonal label
    rng = np.random.default_rng(11)
    label = TorusLabel(-1, ComponentLabel("+", 1, 0))
    trep = randomized_torus_representative(2, label, rng)
    cert = canonical_torus_path(trep, 2, TOL)
    assert verify_certificate(cert).ok
    assert cert.points[-1].dist(canonical_torus_representative(2, label)) < 1e-9

    # all-commuting tuple with non-central T
    axis = (0.0, 0.0, 1.0)
    tup = SurfaceRep(*(exp_axis_angle(axis, 0.3 * (i + 1)) for i in range(6)))
    trep = TorusRep(exp_axis_angle(axis, 1.1), tup)
    cert = canonical_torus_path(trep, 3, TOL)
    assert verify_certificate(cert).ok


def _assert_descends_to_plus_one(cert, descent):
    """cert verifies within the step bound; it and the descent's last node
    end at (1, trivial)."""
    plus_one = TorusRep(ONE, trivial_rep())
    assert verify_certificate(cert).ok
    assert cert.max_step <= MAX_STEP + 1e-12
    assert cert.points[-1].dist(plus_one) < 1e-12
    assert descent[-1].dist(plus_one) < 1e-12


@pytest.mark.parametrize("n", [0, 2, 3, -4])
def test_bridge_to_plus_one(n):
    # central T = -1 needs the bridge to (1, trivial)
    cert = canonical_torus_path(TorusRep(MINUS_ONE, trivial_rep()), n, TOL)
    _assert_descends_to_plus_one(cert, connectivity._bridge_to_plus_one(n))


@pytest.mark.parametrize("n, seed", [(2, 12), (3, 11), (-3, 12)])
def test_boundary_stratum_descent(n, seed):
    # T X^n central with T non-central; seed 11 draws s = 1, seed 12 s = -1
    trep = random_extended_fixed_sample(n, np.random.default_rng(seed))
    cert = canonical_torus_path(trep, n, TOL)
    assert cert.label == "central"
    descent = connectivity._boundary_stratum_descent(trep, n)
    _assert_descends_to_plus_one(cert, descent)


def _antipodal_starts():
    """(system, n, start, end) with B1 or [A3, B3] at -1, where the
    staged legs detour through a quarter turn."""
    rng = np.random.default_rng(41)
    for n, label in ((3, ComponentLabel("-", 0, 1)), (4, ComponentLabel("+", 2, 0))):
        end = canonical_representative(n, label)
        yield "fix", n, replace(end.conjugate(haar_random(rng)), b1=MINUS_ONE), end
    a2, b2 = solve_commutator(MINUS_ONE)
    a3, b3 = sample_fiber(MINUS_ONE, rng)
    yield "fix", 0, SurfaceRep(haar_random(rng), ONE, a2, b2, a3, b3), trivial_rep()
    # T X^n central with T not: T = B1 A1^-n B1^-1 = A1^-n for B1 = -1
    a1 = exp_axis_angle((0.0, 0.6, 0.8), 0.9)
    a3, b3 = sample_fiber(ONE, rng)
    t = a1.power(-2)
    a2, b2 = exp_axis_angle(t.axis(), 0.4), exp_axis_angle(t.axis(), -1.3)
    tup = SurfaceRep(a1, MINUS_ONE, a2, b2, a3, b3)
    yield "torus", 2, TorusRep(t, tup), TorusRep(ONE, trivial_rep())


@pytest.mark.parametrize(
    "system, n, start, end",
    list(_antipodal_starts()),
    ids=["b1-n3", "b1-n4", "commutators-n0", "boundary-b1-n2"],
)
def test_antipodal_starts_detour_and_verify(system, n, start, end):
    assert residual_for(start, system, n).max < 1e-12
    path = canonical_path if system == "fix" else canonical_torus_path
    cert = path(start, n, TOL)
    assert verify_certificate(cert).ok
    assert cert.max_step <= MAX_STEP + 1e-12
    assert cert.points[0].dist(start) < 1e-12
    assert cert.points[-1].dist(end) < 1e-9


def test_verify_rejects_corrupted_point():
    rng = np.random.default_rng(14)
    rep = randomized_representative(2, ComponentLabel("+", 0, 1), rng)
    cert = canonical_path(rep, 2, TOL)
    assert verify_certificate(cert).ok
    doc = certificate_to_dict(cert)
    broken = json.loads(json.dumps(doc))
    idx = len(broken["points"]) // 2
    broken["points"][idx]["A"][0][1] += 0.05
    bad = certificate_from_dict(broken)
    report = verify_certificate(bad)
    assert not report.ok
    assert any(f"point {idx}" in p for p in report.problems)


def test_verify_rejects_mismatched_endpoint():
    rng = np.random.default_rng(15)
    rep = randomized_representative(2, ComponentLabel("+", 0, 1), rng)
    cert = canonical_path(rep, 2, TOL)
    doc = certificate_to_dict(cert)
    # swap the final point for a representative of a different component
    other = canonical_representative(2, ComponentLabel("+", 1, 0))
    doc["points"][-1] = rep_to_dict(other, 2)
    report = verify_certificate(certificate_from_dict(doc))
    assert not report.ok


def _sample_certificate(system):
    rng = np.random.default_rng(18)
    if system == "fix":
        rep = randomized_representative(2, ComponentLabel("+", 0, 1), rng)
        return canonical_path(rep, 2, TOL)
    label = TorusLabel(-1, ComponentLabel("+", 1, 0))
    return canonical_torus_path(randomized_torus_representative(2, label, rng), 2, TOL)


def _refuse_reading_at(monkeypatch, system, refused, error=Unclassifiable("refused")):
    """Make the label reading of `system` raise `error` at the points `refused(p)` picks."""
    name = "read_fix_label" if system == "fix" else "read_torus_label"
    read = getattr(connectivity, name)

    def reading(p, *args):
        if refused(p):
            raise error
        return read(p, *args)

    monkeypatch.setattr(connectivity, name, reading)


@pytest.mark.parametrize("system", ["fix", "torus"])
def test_verify_rejects_unclassifiable_interior_point(monkeypatch, system):
    cert = _sample_certificate(system)
    assert verify_certificate(cert).ok
    idx = len(cert.points) // 2
    assert 0 < idx < len(cert.points) - 1
    _refuse_reading_at(monkeypatch, system, lambda p: p is cert.points[idx])
    report = verify_certificate(cert)
    assert report.problems == (f"point {idx} is unclassifiable",)


@pytest.mark.parametrize("system", ["fix", "torus"])
def test_verify_raises_a_reading_bug(monkeypatch, system):
    # only the readings' refusals mark a point unclassifiable: a plain
    # ValueError is a programming error and propagates
    cert = _sample_certificate(system)
    bug = ValueError("a programming error")
    _refuse_reading_at(monkeypatch, system, lambda p: p is cert.points[1], bug)
    with pytest.raises(ValueError, match="a programming error"):
        verify_certificate(cert)


@pytest.mark.parametrize("system", ["fix", "torus"])
def test_probe_certificate_with_unreadable_interior_is_rejected(
    monkeypatch, tmp_path, capsys, system
):
    # probe reads only its endpoints' labels; with every interior reading
    # refused, the verifier rejects its certificate and `repvar probe` exits 1
    cert = _sample_certificate(system)
    r0 = cert.points[0]
    r1 = r0.conjugate(exp_axis_angle((0.0, 0.6, 0.8), 0.5))
    probed = probe_path(r0, r1, system, 2, TOL)
    assert verify_certificate(probed).ok and len(probed.points) > 2
    _refuse_reading_at(monkeypatch, system, lambda p: min(p.dist(r0), p.dist(r1)) > 1e-12)
    report = verify_certificate(probed)
    assert report.problems == tuple(
        f"point {i} is unclassifiable" for i in range(1, len(probed.points) - 1)
    )
    files = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, rep in zip(files, (r0, r1)):
        save_rep(path, rep, 2)
    assert cli.main(["probe", *map(str, files)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("probe produced an invalid certificate:")
    assert "is unclassifiable" in err


def test_path_construction_draws_no_random_numbers(monkeypatch):
    # non-central, central and n = 0 fix starts; torus starts over a
    # non-central label, the central label, the boundary stratum, the
    # bridge from T = -1 and the all-commuting stratum
    rng = np.random.default_rng(19)
    fix_starts = [
        (3, randomized_representative(3, ComponentLabel("-", 0, 1), rng)),
        (2, randomized_representative(2, ComponentLabel(), rng)),
        (0, randomized_representative(0, ComponentLabel(), rng)),
    ]
    off_center = TorusLabel(-1, ComponentLabel("+", 1, 0))
    axis = (0.0, 0.0, 1.0)
    commuting = SurfaceRep(*(exp_axis_angle(axis, 0.3 * (i + 1)) for i in range(6)))
    torus_starts = [
        (2, randomized_torus_representative(2, off_center, rng)),
        (-3, randomized_torus_representative(-3, TorusLabel(), rng)),
        (2, random_extended_fixed_sample(2, rng)),
        (2, TorusRep(MINUS_ONE, trivial_rep())),
        (3, TorusRep(exp_axis_angle(axis, 1.1), commuting)),
    ]

    def no_generators(*args, **kwargs):
        raise AssertionError("path construction created a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generators)
    certs = [canonical_path(rep, n, TOL) for n, rep in fix_starts]
    certs += [canonical_torus_path(trep, n, TOL) for n, trep in torus_starts]
    assert all(verify_certificate(cert).ok for cert in certs)
    assert [cert.label for cert in certs] == ["-,0,1"] + ["central"] * 2 + [
        off_center.text()
    ] + ["central"] * 4


def _kicked(cert):
    """cert with A2 of its middle node moved 1e-9 off the variety and both
    bounds restated: a certificate whose residual bound is genuinely active
    (exact staged paths can sit wholly inside the verifier's 1e-14 slack)."""
    pts = list(cert.points)
    mid = len(pts) // 2
    pts[mid] = replace(pts[mid], a2=exp_tangent((1e-9, 0.0, 0.0)) * pts[mid].a2)
    steps = [step_between(p.elements(), q.elements()) for p, q in zip(pts, pts[1:])]
    residual = float(residual_array(pts, cert.system, cert.n).max())
    return replace(cert, points=tuple(pts), max_residual=residual, max_step=max(steps))


def test_verify_rejects_understated_bounds():
    rng = np.random.default_rng(16)
    rep = randomized_representative(2, ComponentLabel("+", 1, 0), rng)
    cert = _kicked(canonical_path(rep, 2, TOL))
    assert verify_certificate(cert).ok
    assert cert.max_residual > 1e-13
    doc = certificate_to_dict(cert)
    doc["max_residual"] = 1e-300
    assert not verify_certificate(certificate_from_dict(doc)).ok
    doc = certificate_to_dict(cert)
    doc["tol"] = doc["max_residual"] / 2.0
    assert not verify_certificate(certificate_from_dict(doc)).ok


def test_verify_rejects_step_bound_above_max_step():
    # the two endpoints of a path, 2.45 rad apart, with that step stated
    rep = randomized_representative(3, ComponentLabel("+", 0, 1), np.random.default_rng(5))
    cert = canonical_path(rep, 3, TOL)
    ends = (cert.points[0], cert.points[-1])
    step = step_between(ends[0].elements(), ends[1].elements())
    assert step > 2.4
    report = verify_certificate(replace(cert, points=ends, max_step=step))
    assert report.problems == (
        f"stated step bound {step:.3f} exceeds MAX_STEP = {MAX_STEP}",
    )


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: [doc], "certificate document must be a JSON object"),
        (lambda doc: {**doc, "format": "pathcert-0"}, "format: expected 'pathcert-1', found 'pathcert-0'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "max_step"}, "max_step: missing"),
        (lambda doc: {**doc, "system": "knot"}, "system: unknown 'knot'"),
        (lambda doc: {**doc, "system": "surface"}, "system: unknown 'surface'"),
        (
            lambda doc: {**doc, "points": [doc["points"][0], {**doc["points"][1], "A": [[1.0, 0.0]] * 3}]},
            "points[1]: A[0]: expected a list of 4 floats",
        ),
        (lambda doc: {**doc, "system": "torus"}, "points[0]: wrong representation kind for system"),
        (lambda doc: {**doc, "points": 5}, "points: expected list, found 5"),
        (lambda doc: {**doc, "points": None}, "points: expected list, found None"),
        (lambda doc: {**doc, "n": None}, "n: expected int, found None"),
        (lambda doc: {**doc, "n": 2.7}, "n: expected int, found 2.7"),
        (lambda doc: {**doc, "tol": None}, "tol: expected float, found None"),
        (lambda doc: {**doc, "tol": [1]}, "tol: expected float, found [1]"),
        (lambda doc: {**doc, "max_residual": None}, "max_residual: expected float, found None"),
        (lambda doc: {**doc, "max_residual": [1]}, "max_residual: expected float, found [1]"),
        (lambda doc: {**doc, "max_step": None}, "max_step: expected float, found None"),
        (lambda doc: {**doc, "max_step": [1]}, "max_step: expected float, found [1]"),
        (lambda doc: {**doc, "label": None}, "label: expected str, found None"),
        (lambda doc: {**doc, "n": True}, "n: expected int, found True"),
        (lambda doc: {**doc, "tol": True}, "tol: expected float, found True"),
        (lambda doc: {**doc, "tol": False}, "tol: expected float, found False"),
        (lambda doc: {**doc, "max_residual": True}, "max_residual: expected float, found True"),
        (lambda doc: {**doc, "max_residual": False}, "max_residual: expected float, found False"),
        (lambda doc: {**doc, "max_step": True}, "max_step: expected float, found True"),
        (lambda doc: {**doc, "max_step": False}, "max_step: expected float, found False"),
    ],
    ids=[
        "not-object", "format", "missing-key", "system", "system-surface", "bad-point", "kind",
        "points-int", "points-null", "n-null", "n-float", "tol-null", "tol-list",
        "max-residual-null", "max-residual-list", "max-step-null", "max-step-list",
        "label-null", "n-true", "tol-true", "tol-false", "max-residual-true",
        "max-residual-false", "max-step-true", "max-step-false",
    ],
)
def test_certificate_from_dict_rejects_malformed_documents(mutate, message):
    doc = certificate_to_dict(_sample_certificate("fix"))
    certificate_from_dict(json.loads(json.dumps(doc)))
    with pytest.raises(ValueError) as err:
        certificate_from_dict(mutate(json.loads(json.dumps(doc))))
    assert str(err.value) == message


def test_certificate_file_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    rep = randomized_representative(2, ComponentLabel("+", 0, 1), rng)
    cert = canonical_path(rep, 2, TOL)
    path = tmp_path / "cert.json"
    save_certificate(path, cert)
    loaded = load_certificate(path)
    assert verify_certificate(loaded).ok
    assert loaded.label == cert.label
    assert len(loaded.points) == len(cert.points)
    with pytest.raises(ValueError, match="format"):
        certificate_from_dict({"format": "wrong"})


def test_census_small():
    report = census(2, "fix", 8, 99, TOL)
    assert report.agrees_with_closed_form
    assert report.estimated_components == 3
    assert report.path_classes == 3
    assert report.cross_label_certificates == 0
    assert report.label_anomalies == 0
    assert report.overall_success_rate >= 0.95
    report = census(2, "torus", 6, 99, TOL)
    assert report.agrees_with_closed_form
    assert report.estimated_components == 5
    assert report.cross_label_certificates == 0
    # one class per label anchor plus one per sample left without a path
    unpathed = sum(row.samples - row.path_ok for row in report.rows)
    assert report.path_classes == len(report.rows) + unpathed


def test_census_path_classes_count_unpathed_samples(monkeypatch):
    verify = connectivity.verify_certificate
    calls = []

    def every_third_rejected(cert):
        calls.append(1)
        if len(calls) % 3 == 0:
            return connectivity.VerificationReport(False, ("rejected for the test",))
        return verify(cert)

    monkeypatch.setattr(connectivity, "verify_certificate", every_third_rejected)
    report = census(2, "fix", 3, 4, TOL)
    unpathed = sum(row.samples - row.path_ok for row in report.rows)
    assert unpathed == 3
    assert report.unresolved_samples == 3
    assert report.path_classes == len(report.rows) + unpathed
    assert report.estimated_components == len(report.labels_observed)


@pytest.mark.parametrize(
    "error, counted",
    [
        (connectivity.PathError("refused for the test", stage="test"), True),
        # a path breaking its bounds arrives as an assembly-stage PathError
        (connectivity.PathError("bound violated", stage="assembly"), True),
        # a continuation that underflows arrives as a PathError of its leg
        (connectivity.PathError("continuation step underflow", stage="move-b1"), True),
        (Unclassifiable("refused for the test"), True),
        (ResidualError("refused for the test"), True),
        (TypeError("a programming error"), False),
        (ValueError("math domain error"), False),
        (RuntimeError("a programming error"), False),
    ],
)
def test_census_counts_sample_failures_and_raises_bugs(monkeypatch, error, counted):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(connectivity, "_fix_path_points", failing)
    if counted:
        report = census(2, "fix", 1, 0, TOL)
        assert report.unresolved_samples == len(report.rows) == 3
    else:
        with pytest.raises(type(error)):
            census(2, "fix", 1, 0, TOL)


def test_census_classifies_each_sample_once(monkeypatch):
    calls = {"fix": [], "torus": []}

    def counting(kind, classify):
        def wrapper(rep, n, tol):
            calls[kind].append(rep)
            return classify(rep, n, tol)

        return wrapper

    for kind, name in (("fix", "classify_fix"), ("torus", "classify_torus")):
        wrapper = counting(kind, getattr(components, name))
        for module in (components, connectivity):
            monkeypatch.setattr(module, name, wrapper)
    report = census(2, "fix", 3, 5, TOL)
    assert len(calls["fix"]) == 3 * len(report.rows) and not calls["torus"]
    calls["fix"].clear()
    report = census(3, "torus", 2, 5, TOL)
    assert len(calls["torus"]) == 2 * len(report.rows) and not calls["fix"]
    # the torus census includes samples with central T, which lift fix paths
    assert sum(central_gap(trep.t)[0] <= SNAP_BAND for trep in calls["torus"]) > 2
    assert report.overall_success_rate == 1.0


def test_census_determinism():
    a = census(2, "fix", 4, 7, TOL).to_dict()
    b = census(2, "fix", 4, 7, TOL).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_census_rejects_unknown_system():
    with pytest.raises(ValueError):
        census(2, "nope", 4, 7, TOL)


def test_probe_makes_no_projection(monkeypatch):
    # every node of a join is exact (the conjugation leg and the staged
    # paths), so neither the projection nor its solver runs
    def refused(*args, **kwargs):
        raise AssertionError("probe_path projected a point")

    for module in (connectivity, varieties, solvers):
        for name in ("project_to_variety", "refine_elements"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    g = exp_axis_angle((0.0, 0.6, 0.8), 0.2)
    for system, n, label in (
        ("fix", 3, ComponentLabel("-", 1, 0)),
        ("fix", -2, ComponentLabel()),
        ("fix", 0, ComponentLabel()),
        ("torus", 3, TorusLabel(1, ComponentLabel("+", 0, 1))),
        ("torus", -2, TorusLabel()),
    ):
        sample = randomized_representative if system == "fix" else randomized_torus_representative
        rng = np.random.default_rng([5, 9])
        r0, r1 = sample(n, label, rng), sample(n, label, rng)
        for end in (r1, r0.conjugate(g)):
            assert verify_certificate(probe_path(r0, end, system, n, TOL)).ok


def test_probe_points_stable_under_last_bit_residual_changes(monkeypatch):
    # project_to_variety steps by the minimum-norm solution, which leaves
    # the variety's own tangent directions (the Jacobian's null space)
    # alone; solving the damped normal equations instead moves projected
    # points by 1e-13 to 8e-12 when the residual's last bit changes.  The
    # projections start from per-coordinate geodesic midpoints of the
    # pairs; probe_path reads residuals only in its checks, so its points
    # do not move at all
    rng = np.random.default_rng(0)
    pairs = []
    for system, n in (("fix", 4), ("fix", -3), ("torus", 4), ("torus", -5)):
        if system == "fix":
            labels = [lab for lab in enumerate_fix_labels(n) if not lab.is_central]
            sample = randomized_representative
        else:
            labels = [lab for lab in enumerate_torus_labels(n) if not lab.is_central]
            sample = randomized_torus_representative
        for _ in range(3):
            r0 = sample(n, labels[int(rng.integers(len(labels)))], rng)
            g = exp_axis_angle(random_axis(rng), 0.2)
            pairs.append((system, n, r0, r0.conjugate(g)))

    def outputs():
        projections = []
        for system, n, r0, r1 in pairs:
            els = [
                v * contraction(v.inverse() * u)[0](0.5)
                for u, v in zip(r0.elements(), r1.elements())
            ]
            mid = type(r0).from_elements(els)
            projections.append(varieties.project_to_variety(mid, n, system, tol=1e-10))
        return projections, [probe_path(r0, r1, system, n) for system, n, r0, r1 in pairs]

    projected, probed = outputs()
    signed = varieties._signed_residual
    monkeypatch.setattr(
        varieties,
        "_signed_residual",
        lambda els, system, n: np.nextafter(signed(els, system, n), np.inf),
    )
    projected_after, probed_after = outputs()
    for a, b in zip(projected, projected_after):
        assert a.converged and b.converged
        assert a.rep.dist(b.rep) <= 1e-13
    for a, b in zip(probed, probed_after):
        assert len(a.points) == len(b.points) > 2
        assert max(p.dist(q) for p, q in zip(a.points, b.points)) == 0.0


def _edge_cases(rng):
    """(system, n, points) batches on the special branches of the table."""
    g = haar_random(rng)
    central_x = [
        SurfaceRep(a1, g, g.inverse(), haar_random(rng), c, c)
        for a1 in (ONE, MINUS_ONE)
        for c in (ONE, MINUS_ONE)
    ]
    surface = [trivial_rep(), *central_x, random_surface_rep(rng)]
    t = haar_random(rng)
    ts = [ONE, MINUS_ONE, SU2(-1.0, 1e-9, 0.0, 0.0), t, -t]
    for n in (-3, -1, 0, 1, 2, 5):
        yield "fix", n, surface
        yield "torus", n, [TorusRep(tt, rep) for tt in ts for rep in surface]


def test_batched_residuals_match_float_path(monkeypatch):
    rng = np.random.default_rng(31)
    batches = list(_edge_cases(rng))
    rep = randomized_representative(3, ComponentLabel("-", 1, 0), rng)
    batches.append(("fix", 3, canonical_path(rep, 3, TOL).points))
    for label in (TorusLabel(-1, ComponentLabel("+", 1, 0)), TorusLabel()):
        for _ in range(2):
            trep = randomized_torus_representative(-3, label, rng)
            batches.append(("torus", -3, canonical_torus_path(trep, -3, TOL).points))
    # the float path serves small batches; force the array kernel throughout
    monkeypatch.setattr(varieties, "_BATCH_MIN", 0)
    for system, n, points in batches:
        batch = residual_array(points, system, n)
        assert batch.shape[0] == len(points)
        for row, p in zip(batch, points):
            single = [value for _, value in residual_for(p, system, n).entries]
            assert np.max(np.abs(row - single)) <= 1e-14, (system, n)
    # the trivial tuple is an exact solution on both paths
    for n in (-2, 0, 3):
        triv = [trivial_rep()]
        assert residual_array(triv, "fix", n).max() == 0.0
        assert residual_for(triv[0], "fix", n).max == 0.0
        ttriv = [TorusRep(ONE, trivial_rep())]
        assert residual_array(ttriv, "torus", n).max() == 0.0
        assert residual_for(ttriv[0], "torus", n).max == 0.0
