"""Command-line interface.

Subcommands: count, enumerate, representative, classify, probe, census,
verify.  Every command is a thin deterministic wrapper over the library:
exit code 0 on success, 1 on verification failure, 2 on input error.
Machine-readable output (--format json) is a single JSON document with a
`format` version key and no timestamps, so identical configurations give
byte-identical reports.  Environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

import numpy as np

from .components import (
    ComponentLabel,
    ResidualError,
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
)
from .connectivity import (
    LabelMismatchError,
    PathError,
    census,
    probe_path,
    save_certificate,
    verify_certificate,
    certificate_to_dict,
)
from .su2 import ONE
from .varieties import (
    TorusRep,
    load_rep,
    random_surface_rep,
    rep_to_dict,
    residual_for,
    save_rep,
)
from .words import (
    chi,
    compose_substitution,
    evaluate,
    phi_substitution,
    relator,
    twist_gamma1,
    twist_gamma2_inverse,
)

OK, VERIFY_FAILED, INPUT_ERROR = 0, 1, 2


def _emit(doc: dict, lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)


# -- commands ----------------------------------------------------------------

def cmd_count(args) -> int:
    n = args.n
    fix = count_fix(n)
    torus = count_torus(n)
    even = n % 2 == 0
    parity_ok = fix == (
        n * n // 2 + 1 if even else (n * n + 1) // 2
    ) and torus == (n * n + 1 if even else n * n)
    doc = {
        "format": "repvar-count-1",
        "n": n,
        "fix": fix,
        "fix_char": count_fix_char(n),
        "torus": torus,
        "parity_forms_match": parity_ok,
    }
    lines = [
        f"n = {n}",
        f"fixed-point set components:        {fix}",
        f"fixed-point character components:  {count_fix_char(n)}",
        f"mapping-torus components:          {torus}",
        f"parity forms match:                {parity_ok}",
    ]
    _emit(doc, lines, args.format)
    return OK if parity_ok else VERIFY_FAILED


def cmd_enumerate(args) -> int:
    n = args.n
    fix = [lab.text() for lab in enumerate_fix_labels(n)]
    torus = [lab.text() for lab in enumerate_torus_labels(n)]
    doc = {
        "format": "repvar-enumerate-1",
        "n": n,
        "fix_labels": fix,
        "torus_labels": torus,
    }
    lines = [f"n = {n}", f"fixed-point labels ({len(fix)}):"]
    lines += [f"  {t}" for t in fix]
    lines.append(f"mapping-torus labels ({len(torus)}):")
    lines += [f"  {t}" for t in torus]
    _emit(doc, lines, args.format)
    return OK


def _parse_any_label(text: str):
    if text.strip().startswith("eps="):
        return TorusLabel.parse(text)
    return ComponentLabel.parse(text)


def cmd_representative(args) -> int:
    try:
        label = _parse_any_label(args.label)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    system = "torus" if isinstance(label, TorusLabel) else "fix"
    make = canonical_torus_representative if system == "torus" else canonical_representative
    try:
        rep = make(args.n, label)
        residual = residual_for(rep, system, args.n).max
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    if residual > args.tol:
        print(f"error: representative residual {residual:.3e} above tolerance", file=sys.stderr)
        return VERIFY_FAILED
    if args.out:
        save_rep(args.out, rep, args.n)
        print(f"wrote {args.out} (residual {residual:.3e})")
    else:
        print(json.dumps(rep_to_dict(rep, args.n), sort_keys=True))
    return OK


def cmd_classify(args) -> int:
    try:
        n, rep = load_rep(args.rep)
    except (OSError, ValueError) as exc:
        print(f"error: {args.rep}: {exc}", file=sys.stderr)
        return INPUT_ERROR
    if args.n is not None and args.n != n:
        print(f"error: file was written for n={n}, got --n {args.n}", file=sys.stderr)
        return INPUT_ERROR
    kind = "torus" if isinstance(rep, TorusRep) else "fix"
    try:
        label = (classify_torus if kind == "torus" else classify_fix)(rep, n, args.tol)
        residual = residual_for(rep, kind, n).max
    except Unclassifiable as exc:
        print(f"unclassifiable: {exc}", file=sys.stderr)
        return VERIFY_FAILED
    except ResidualError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFY_FAILED
    doc = {
        "format": "repvar-classify-1",
        "n": n,
        "system": kind,
        "label": label.text(),
        "residual": residual,
    }
    _emit(doc, [label.text()], args.format)
    return OK


def cmd_probe(args) -> int:
    try:
        n0, r0 = load_rep(args.rep0)
        n1, r1 = load_rep(args.rep1)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    if n0 != n1:
        print(f"error: files disagree on n ({n0} vs {n1})", file=sys.stderr)
        return INPUT_ERROR
    if isinstance(r0, TorusRep) != isinstance(r1, TorusRep):
        print("error: cannot probe between torus and surface representations", file=sys.stderr)
        return INPUT_ERROR
    system = "torus" if isinstance(r0, TorusRep) else "fix"
    try:
        cert = probe_path(r0, r1, system, n0, args.tol)
    except LabelMismatchError as exc:
        print(f"label mismatch: {exc}", file=sys.stderr)
        return VERIFY_FAILED
    except (PathError, Unclassifiable, ResidualError) as exc:
        print(f"probe failed: {exc}", file=sys.stderr)
        return VERIFY_FAILED
    check = verify_certificate(cert)
    if not check.ok:
        print("probe produced an invalid certificate:", file=sys.stderr)
        for problem in check.problems:
            print(f"  {problem}", file=sys.stderr)
        return VERIFY_FAILED
    doc = certificate_to_dict(cert)
    if args.out:
        save_certificate(args.out, cert)
        print(
            f"wrote {args.out}: {len(cert.points)} points, "
            f"max residual {cert.max_residual:.3e}, max step {cert.max_step:.3f}"
        )
    else:
        print(json.dumps(doc, sort_keys=True))
    return OK


def cmd_census(args) -> int:
    reports = []
    ok = True
    lines = []
    for system in ("fix", "torus"):
        report = census(args.n, system, args.samples, args.seed, args.tol)
        reports.append(report.to_dict())
        ok = ok and report.passes_gate
        lines.append(
            f"{system}: components {report.estimated_components}"
            f"/{report.closed_form} (closed form), path classes {report.path_classes}, "
            f"success {report.overall_success_rate:.1%}, "
            f"cross-label {report.cross_label_certificates}"
        )
        for row in report.rows:
            lines.append(
                f"  {row.label:>12}  samples {row.samples:3d}  "
                f"classified {row.classified:3d}  paths {row.path_ok:3d}"
            )
    doc = {"format": "repvar-census-1", "n": args.n, "reports": reports, "ok": ok}
    _emit(doc, lines, args.format)
    return OK if ok else VERIFY_FAILED


def _verify_checks(args):
    """Yield (name, ok, detail) rows for the verification table."""
    n_max = args.n
    tol = args.tol

    # symbolic preflight: twist-table composition and the power law
    composed = compose_substitution(twist_gamma1(), twist_gamma2_inverse())
    yield (
        "substitution table matches twist composition",
        composed == phi_substitution(1),
        "",
    )
    power_ok = all(
        compose_substitution(phi_substitution(a), phi_substitution(b))
        == phi_substitution(a + b)
        for a in range(-4, 5)
        for b in range(-4, 5)
    )
    yield ("substitution power law |m|,|n| <= 4", power_ok, "")
    chi_ok = all(
        phi_substitution(k).apply(chi()) == chi() for k in range(-8, 9)
    )
    yield ("chi fixed by all powers |n| <= 8", chi_ok, "")

    rng = np.random.default_rng([args.seed, 999])
    relator_ok = True
    for k in range(min(n_max, 4) + 1):
        sub = phi_substitution(k)
        for _ in range(10):
            rep = random_surface_rep(rng)
            img = evaluate(sub.apply(relator()), rep.images())
            if img.dist(ONE) > 1e-8:
                relator_ok = False
    yield ("twisted relator evaluates to 1 on random points", relator_ok, "")

    identity_ok = all(floor_count_identity(k) for k in range(10_001))
    yield ("index-pair count identity up to n = 10^4", identity_ok, "")

    for n in range(n_max + 1):
        fix_labels = enumerate_fix_labels(n)
        torus_labels = enumerate_torus_labels(n)
        counts_ok = (
            len(fix_labels) == count_fix(n)
            and len(torus_labels) == count_torus(n)
            and count_fix(n) == count_fix_char(n)
        )
        yield (f"n={n}: label counts match closed forms", counts_ok, "")
        if n <= 6:
            bad = ""
            for labels, make, system, classify in (
                (fix_labels, canonical_representative, "fix", classify_fix),
                (torus_labels, canonical_torus_representative, "torus", classify_torus),
            ):
                for label in labels:
                    if bad:
                        break
                    rep = make(n, label)
                    res = residual_for(rep, system, n).max
                    if res > 1e-9:
                        bad = f"{label} residual {res:.2e}"
                    elif classify(rep, n, tol).text() != label.text():
                        bad = f"{label} classifier round-trip failed"
            yield (f"n={n}: representatives and round-trips", not bad, bad)
        if args.samples > 0:
            for system in ("fix", "torus"):
                report = census(n, system, args.samples, args.seed, tol)
                detail = (
                    f"components {report.estimated_components}/{report.closed_form}, "
                    f"success {report.overall_success_rate:.1%}"
                )
                yield (f"n={n}: {system} census", report.passes_gate, detail)


def cmd_verify(args) -> int:
    rows = []
    all_ok = True
    for name, ok, detail in _verify_checks(args):
        rows.append({"check": name, "ok": ok, "detail": detail})
        all_ok = all_ok and ok
        if args.format != "json":
            status = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            print(f"{status}  {name}{suffix}")
    if args.format == "json":
        print(
            json.dumps(
                {"format": "repvar-verify-1", "n_max": args.n, "ok": all_ok, "checks": rows},
                sort_keys=True,
            )
        )
    else:
        print(f"{'ALL CHECKS PASSED' if all_ok else 'FAILURES PRESENT'}")
    return OK if all_ok else VERIFY_FAILED


# -- parser ------------------------------------------------------------------

def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repvar",
        description=(
            "SU(2) representation varieties of mapping tori of bounding-pair "
            "map powers on a genus-3 surface: counts, representatives, "
            "classification, path certificates, and a Monte Carlo census."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-form component counts")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list all component labels")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("representative", help="write a canonical representative")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--label",
        type=str,
        required=True,
        help="central, +,0,1, eps=-1,+,0,1, ... (use --label=-,k,l for minus signs)",
    )
    p.add_argument("--tol", type=float, default=1e-9, help="residual tolerance")
    p.add_argument("--out", type=str, default="", help="output file (default: stdout)")
    p.set_defaults(func=cmd_representative)

    p = sub.add_parser("classify", help="classify a representation file")
    p.add_argument("rep", type=str, help="representation file (repvar-1)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9, help="residual tolerance")
    _add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("probe", help="search for a path certificate between two files")
    p.add_argument("rep0", type=str)
    p.add_argument("rep1", type=str)
    p.add_argument("--tol", type=float, default=1e-7, help="residual tolerance")
    p.add_argument("--out", type=str, default="", help="output file (default: stdout)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("census", help="Monte Carlo component census (fix and torus)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=_int_at_least(1), default=20, help="samples per label")
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--tol", type=float, default=1e-7, help="residual tolerance")
    _add_format(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run the verification table up to n")
    p.add_argument("--n", type=int, default=4, help="largest twist power checked")
    p.add_argument(
        "--samples", type=_int_at_least(0), default=0, help="census samples per label (0: none)"
    )
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--tol", type=float, default=1e-9, help="residual tolerance")
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return OK


if __name__ == "__main__":
    sys.exit(main())
