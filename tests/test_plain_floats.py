"""SU2 components are plain Python floats from every source.

A product on numpy.float64 components costs about 2.7x one on floats, and
every node derived from a numpy-valued element inherits the type, so the
samplers, the solver's retraction and the loaders must all hand out
floats.  The second half pins down that the type is representation only:
the same coordinates held as numpy.float64 build and verify the same
certificates, coordinate for coordinate.
"""

import numpy as np
import pytest

from repvar.commutator import sample_fiber
from repvar.components import (
    ComponentLabel,
    enumerate_fix_labels,
    enumerate_torus_labels,
    randomized_representative,
    randomized_torus_representative,
)
from repvar.connectivity import (
    TOL,
    _finish,
    _path_points,
    canonical_path,
    canonical_torus_path,
    probe_path,
    verify_certificate,
)
from repvar.su2 import SU2, best_conjugator, haar_random
from repvar.varieties import (
    SurfaceRep,
    TorusRep,
    project_to_variety,
    random_surface_rep,
    rep_from_dict,
    rep_to_dict,
)


def _all_plain(els) -> bool:
    return all(type(c) is float for el in els for c in el.to_list())


def _as_numpy(el: SU2) -> SU2:
    # the same four values as numpy.float64, bypassing the renormalization
    out = SU2.__new__(SU2)
    out.w, out.x, out.y, out.z = np.array(el.to_list())
    return out


def test_samplers_and_loaders_give_plain_floats():
    rng = np.random.default_rng(40)
    assert _all_plain([haar_random(rng) for _ in range(8)])
    rep = random_surface_rep(rng)
    assert _all_plain(rep.elements())
    assert _all_plain(sample_fiber(haar_random(rng), rng))
    assert _all_plain([best_conjugator(rep.elements(), random_surface_rep(rng).elements())])
    for n, r in ((2, rep), (-3, TorusRep(haar_random(rng), rep))):
        assert _all_plain(rep_from_dict(rep_to_dict(r, n))[1].elements())


@pytest.mark.parametrize("n", [3, -2])
def test_randomized_representatives_give_plain_floats(n):
    for li, label in enumerate(enumerate_fix_labels(n)):
        rng = np.random.default_rng([41, li])
        assert _all_plain(randomized_representative(n, label, rng).elements()), label
    for li, label in enumerate(enumerate_torus_labels(n)):
        rng = np.random.default_rng([42, li])
        assert _all_plain(randomized_torus_representative(n, label, rng).elements()), label


def test_projection_gives_plain_floats():
    rng = np.random.default_rng(43)
    start = TorusRep(haar_random(rng), random_surface_rep(rng))
    out = project_to_variety(start, 1, tol=1e-9, max_iter=20)
    assert out.iterations > 0
    assert _all_plain(out.rep.elements())


def test_certificate_points_are_plain_floats():
    rng = np.random.default_rng(44)
    label = ComponentLabel("+", 1, 0)
    r0 = randomized_representative(3, label, rng)
    r1 = randomized_representative(3, label, rng)
    torus = randomized_torus_representative(3, enumerate_torus_labels(3)[0], rng)
    for cert in (
        canonical_path(r0, 3),
        canonical_torus_path(torus, 3),
        probe_path(r0, r1, "fix", 3),
    ):
        assert all(_all_plain(p.elements()) for p in cert.points)


def _coordinates(cert):
    return [[el.to_list() for el in p.elements()] for p in cert.points]


@pytest.mark.parametrize("system", ["fix", "torus"])
def test_numpy_components_build_the_same_certificates(system):
    n = 3
    labels = enumerate_fix_labels(n) if system == "fix" else enumerate_torus_labels(n)
    sample = randomized_representative if system == "fix" else randomized_torus_representative
    rebuild = SurfaceRep.from_elements if system == "fix" else TorusRep.from_elements
    for li, label in enumerate(labels):
        rep = sample(n, label, np.random.default_rng([45, li]))
        twin = rebuild([_as_numpy(el) for el in rep.elements()])
        certs = [
            _finish(_path_points(r, n, label, TOL), n, label.text(), TOL)
            for r in (rep, twin)
        ]
        # the twin's path really runs on numpy components
        assert not _all_plain(el for p in certs[1].points for el in p.elements())
        assert _coordinates(certs[1]) == _coordinates(certs[0]), label
        assert certs[1].max_residual == certs[0].max_residual
        assert certs[1].max_step == certs[0].max_step
        assert verify_certificate(certs[1]) == verify_certificate(certs[0])
