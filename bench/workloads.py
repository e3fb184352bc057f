"""The three benchmark workloads: inputs from a seed, a warm-up, and one round.

A round is the workload's fixed work.  Every round of a run repeats the
same operations on the same inputs, so the share of failed operations is
the same in every round and in every run.

* ``census-fix``: ``census(n, "fix", ...)`` for n = 2, 3, -3, 4 with many
  samples per label (22 labels).  Repeated labels at small n put most of
  the time into path construction (fiber Newton in the moving-fiber
  stages, the fiber endgames, the central descents).
* ``census-torus``: ``census(n, "torus", ...)`` for n = 8 (one sample per
  label, 65 labels) and n = -5 (two per label, 25 labels).  Every sample
  pays for the 7-equation residual, ``classify_torus`` and two certificate
  assemblies, and adjacent components sit only 2*pi/8 apart.
* ``probe-local``: ``probe_path`` plus ``verify_certificate`` between a
  random representative and its conjugate by a small fixed rotation, over
  both systems and n of both signs.  It is the only workload that runs
  ``project_to_variety`` and the Levenberg-Marquardt solver.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repvar import components, connectivity, su2

# Conjugating by exp_axis_angle(axis, a) moves each coordinate by up to 2a
# on the sphere.  probe_path's cost has a tail that grows with the offset:
# at 0.3 rad a few pairs in a thousand take 20-50 times the median, and
# from about 0.6 rad a pair can run for minutes.  At 0.2 rad the slowest
# of 8,640 pairs took three times the median, so the seed barely moves the
# round time.
PROBE_ANGLE = 0.2
PROBE_NS = (2, -3, 4, -5)
PROBE_PAIRS = 32  # per (system, n)

CENSUS_PLANS = {
    "census-fix": (("fix", 2, 6), ("fix", 3, 6), ("fix", -3, 6), ("fix", 4, 6)),
    "census-torus": (("torus", 8, 1), ("torus", -5, 2)),
}

NAMES = ("census-fix", "census-torus", "probe-local")


@dataclass
class RoundResult:
    attempted: int
    failed: int
    certs: int  # verified, same-label certificates
    census_docs: list = field(default_factory=list)  # (system, n, samples, doc)
    probe_certs: list = field(default_factory=list)  # one entry per pair
    errors: Counter = field(default_factory=Counter)  # exception class -> count

    def fingerprint(self) -> str:
        """Digest of every output, to show that rounds repeat exactly."""
        h = hashlib.sha256()
        for _, _, _, doc in self.census_docs:
            h.update(json.dumps(doc, sort_keys=True).encode())
        for cert in self.probe_certs:
            points = None if cert is None else [
                [el.to_list() for el in p.elements()] for p in cert.points]
            h.update(repr(points).encode())
        return h.hexdigest()

    def drop_outputs(self) -> None:
        self.census_docs.clear()
        self.probe_certs.clear()


@dataclass
class Workload:
    name: str
    inputs: object
    warm_up: Callable[[], None]
    run_round: Callable[[], RoundResult]


# -- census workloads ---------------------------------------------------------

def _census_round(plan, seed: int) -> RoundResult:
    out = RoundResult(0, 0, 0)
    for system, n, samples in plan:
        report = connectivity.census(n, system, samples, seed)
        attempted = sum(row.samples for row in report.rows)
        ok = sum(row.path_ok for row in report.rows)
        out.attempted += attempted
        out.failed += attempted - ok
        out.certs += ok
        out.census_docs.append((system, n, samples, report.to_dict()))
    return out


def _census_workload(name: str, seed: int) -> Workload:
    plan = CENSUS_PLANS[name]
    system = plan[0][0]
    return Workload(
        name,
        plan,
        warm_up=lambda: connectivity.census(2, system, 1, seed),
        run_round=lambda: _census_round(plan, seed),
    )


# -- probe workload -----------------------------------------------------------

@dataclass(frozen=True)
class ProbePair:
    system: str
    n: int
    label: str
    r0: object
    r1: object


def _random_axis(rng: np.random.Generator) -> tuple[float, float, float]:
    v = rng.standard_normal(3)
    v = v / np.linalg.norm(v)
    return (float(v[0]), float(v[1]), float(v[2]))


def make_probe_pairs(seed: int) -> list[ProbePair]:
    """Same-label endpoint pairs: r1 is r0 conjugated by a small rotation.

    Labels are drawn from the non-central components; points of the
    merged central component lie on singular strata, where probe_path is
    documented to fail.
    """
    rng = np.random.default_rng([seed, 0x70726F6265])
    pairs = []
    for system in ("fix", "torus"):
        for n in PROBE_NS:
            if system == "fix":
                labels = [lab for lab in components.enumerate_fix_labels(n) if not lab.is_central]
                sample = components.randomized_representative
            else:
                labels = [lab for lab in components.enumerate_torus_labels(n) if not lab.is_central]
                sample = components.randomized_torus_representative
            for _ in range(PROBE_PAIRS):
                label = labels[int(rng.integers(len(labels)))]
                r0 = sample(n, label, rng)
                g = su2.exp_axis_angle(_random_axis(rng), PROBE_ANGLE)
                pairs.append(ProbePair(system, n, label.text(), r0, r0.conjugate(g)))
    return pairs


def probe_one(pair: ProbePair, errors: Counter):
    """probe_path then verify_certificate; the certificate, or None on failure.

    Any exception counts as a failed operation, by class in `errors`.
    """
    try:
        cert = connectivity.probe_path(pair.r0, pair.r1, pair.system, pair.n)
        ok = connectivity.verify_certificate(cert).ok and cert.label == pair.label
    except Exception as exc:  # an operation failure, counted and reported
        errors[type(exc).__name__] += 1
        return None
    if not ok:
        errors["rejected certificate"] += 1
        return None
    return cert


def _probe_round(pairs: list[ProbePair]) -> RoundResult:
    out = RoundResult(len(pairs), 0, 0)
    for pair in pairs:
        cert = probe_one(pair, out.errors)
        out.probe_certs.append(cert)
        if cert is None:
            out.failed += 1
        else:
            out.certs += 1
    return out


def _probe_workload(seed: int) -> Workload:
    pairs = make_probe_pairs(seed)
    warm = pairs[0]
    return Workload(
        "probe-local",
        pairs,
        warm_up=lambda: probe_one(warm, Counter()),
        run_round=lambda: _probe_round(pairs),
    )


def build(name: str, seed: int) -> Workload:
    """Generate the workload's inputs from `seed` (part of set-up time)."""
    if name in CENSUS_PLANS:
        return _census_workload(name, seed)
    if name == "probe-local":
        return _probe_workload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
