import argparse
import json
import math
import re
from pathlib import Path

import pytest

from repvar import cli
from repvar.cli import build_parser, main
from repvar.su2 import exp_axis_angle
from repvar.varieties import load_rep, save_rep


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["fix"], doc["fix_char"], doc["torus"]) == (3, 3, 5)
    code, out, _ = run(capsys, "count", "--n", "3", "--format", "json")
    assert json.loads(out)["torus"] == 9
    code, out, _ = run(capsys, "count", "--n", "0", "--format", "json")
    doc = json.loads(out)
    assert (doc["fix"], doc["fix_char"], doc["torus"]) == (1, 1, 1)


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["fix_labels"]) == 5
    assert len(doc["torus_labels"]) == 9
    assert "central" in doc["fix_labels"]


def test_representative_classify_roundtrip(tmp_path, capsys):
    rep_file = tmp_path / "rep.json"
    code, out, _ = run(
        capsys, "representative", "--n", "2", "--label", "+,0,1", "--out", str(rep_file)
    )
    assert code == 0 and rep_file.exists()
    code, out, _ = run(capsys, "classify", str(rep_file))
    assert code == 0
    assert out.strip() == "+,0,1"


def test_minus_sign_label_equals_form(tmp_path, capsys):
    rep_file = tmp_path / "rep.json"
    code, _, _ = run(
        capsys, "representative", "--n", "3", "--label=-,0,1", "--out", str(rep_file)
    )
    assert code == 0
    code, out, _ = run(capsys, "classify", str(rep_file))
    assert code == 0 and out.strip() == "-,0,1"


def test_torus_representative_roundtrip(tmp_path, capsys):
    rep_file = tmp_path / "trep.json"
    code, _, _ = run(
        capsys, "representative", "--n", "3", "--label", "eps=-1,-,0,1",
        "--out", str(rep_file),
    )
    assert code == 0
    code, out, _ = run(capsys, "classify", str(rep_file), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "eps=-1,-,0,1"
    assert doc["system"] == "torus"


def test_bad_label_is_input_error(capsys):
    code, _, err = run(capsys, "representative", "--n", "2", "--label", "nonsense")
    assert code == 2
    code, _, err = run(capsys, "representative", "--n", "2", "--label", "+,0,9")
    assert code == 2 and "out of range for n=2" in err
    code, _, err = run(capsys, "representative", "--n", "2", "--label", "eps=-1,-,3,0")
    assert code == 2 and "out of range for n=2" in err


def test_builder_value_errors_escape_representative(capsys, monkeypatch):
    # only the label range check is an input error (exit 2); a plain
    # ValueError from inside the builder is a programming error and escapes
    def bug(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "canonical_representative", bug)
    with pytest.raises(ValueError, match="bug"):
        main(["representative", "--n", "2", "--label", "+,0,1"])


def test_classify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}')
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2
    assert "format" in err
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "classify", str(missing))
    assert code == 2


def test_probe_roundtrip_and_refusal(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "representative", "--n", "2", "--label", "+,0,1", "--out", str(a))
    run(capsys, "representative", "--n", "2", "--label", "+,1,0", "--out", str(b))
    cert = tmp_path / "cert.json"
    code, _, err = run(capsys, "probe", str(a), str(b), "--out", str(cert))
    assert code == 1
    assert "label mismatch" in err
    code, out, _ = run(capsys, "probe", str(a), str(a), "--out", str(cert))
    assert code == 0 and cert.exists()
    doc = json.loads(cert.read_text())
    assert doc["format"] == "pathcert-1"


def test_probe_input_errors(tmp_path, capsys):
    # an unreadable file, files written for different n, and a torus file
    # against a surface one are input errors, before any probing
    fix2, fix3, torus2 = (tmp_path / name for name in ("fix2.json", "fix3.json", "torus2.json"))
    run(capsys, "representative", "--n", "2", "--label", "+,0,1", "--out", str(fix2))
    run(capsys, "representative", "--n", "3", "--label", "+,0,1", "--out", str(fix3))
    run(capsys, "representative", "--n", "2", "--label", "eps=1,+,0,1", "--out", str(torus2))
    for other, message in (
        (tmp_path / "missing.json", "error: "),
        (fix3, "error: files disagree on n (2 vs 3)"),
        (torus2, "error: cannot probe between torus and surface representations"),
    ):
        code, out, err = run(capsys, "probe", str(fix2), str(other))
        assert code == 2 and err.startswith(message) and out == "", other


def test_representative_and_probe_print_to_stdout(tmp_path, capsys):
    # without --out the document goes to stdout, as the file would hold it
    rep = tmp_path / "rep.json"
    code, out, _ = run(capsys, "representative", "--n", "3", "--label=-,1,0")
    assert code == 0
    run(capsys, "representative", "--n", "3", "--label=-,1,0", "--out", str(rep))
    assert json.loads(out) == json.loads(rep.read_text())
    cert = tmp_path / "cert.json"
    code, out, _ = run(capsys, "probe", str(rep), str(rep))
    assert code == 0
    run(capsys, "probe", str(rep), str(rep), "--out", str(cert))
    assert json.loads(out) == json.loads(cert.read_text())


def test_classify_n_mismatch_and_representative_above_tol(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    run(capsys, "representative", "--n", "3", "--label", "+,0,1", "--out", str(rep))
    code, _, err = run(capsys, "classify", str(rep), "--n", "2")
    assert code == 2 and err.startswith("error: file was written for n=3, got --n 2")
    # the canonical representative's residual is a few ulps, not 0
    out_file = tmp_path / "strict.json"
    argv = ("representative", "--n", "3", "--label", "+,0,1", "--tol", "1e-17")
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert code == 1 and out == "" and not out_file.exists()
    assert err.startswith("error: representative residual")


@pytest.mark.parametrize("command, target", [("classify", "classify_fix"), ("probe", "probe_path")])
def test_plain_value_errors_escape_the_cli(command, target, tmp_path, capsys, monkeypatch):
    # only the readings' refusals are verification failures (exit 1); a
    # plain ValueError from the library is a programming error and escapes
    rep = tmp_path / "rep.json"
    run(capsys, "representative", "--n", "2", "--label", "+,0,1", "--out", str(rep))

    def bug(*args, **kwargs):
        raise ValueError("a programming error")

    monkeypatch.setattr(cli, target, bug)
    argv = [command, str(rep)] + ([str(rep)] if command == "probe" else [])
    with pytest.raises(ValueError, match="a programming error"):
        main(argv)


def _negative_zeros(doc) -> int:
    if isinstance(doc, float):
        return int(doc == 0.0 and math.copysign(1.0, doc) < 0.0)
    if isinstance(doc, (list, dict)):
        return sum(map(_negative_zeros, doc.values() if isinstance(doc, dict) else doc))
    return 0


def test_documents_carry_no_negative_zero(tmp_path, capsys):
    # the readings power central elements (A1 = 1 on the trivial tuple),
    # and a power of +-1 keeps the zero signs of its scaling; none of them
    # may reach a document
    for n in ("3", "-4"):
        _, out, _ = run(capsys, "enumerate", "--n", n, "--format", "json")
        labels = json.loads(out)
        for label in labels["fix_labels"] + labels["torus_labels"]:
            rep = tmp_path / "rep.json"
            argv = ("representative", "--n", n, f"--label={label}", "--out", str(rep))
            code, _, _ = run(capsys, *argv)
            assert code == 0 and _negative_zeros(json.loads(rep.read_text())) == 0, label
            code, out, _ = run(capsys, "classify", str(rep), "--format", "json")
            assert code == 0 and _negative_zeros(json.loads(out)) == 0, label
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "representative", "--n", "2", "--label", "eps=-1,+,0,1", "--out", str(a))
    n, rep = load_rep(a)
    save_rep(b, rep.conjugate(exp_axis_angle((0.0, 0.6, 0.8), 0.2)), n)
    cert = tmp_path / "cert.json"
    code, _, _ = run(capsys, "probe", str(a), str(b), "--out", str(cert))
    assert code == 0 and _negative_zeros(json.loads(cert.read_text())) == 0


def test_census_cli(capsys):
    code, out, _ = run(
        capsys, "census", "--n", "1", "--samples", "4", "--seed", "5",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["reports"]) == 2


def test_census_determinism(capsys):
    args = ("census", "--n", "1", "--samples", "3", "--seed", "9", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(row["ok"] for row in doc["checks"])


def test_verify_text_and_census_rows(capsys):
    # --samples 1 adds a fix and a torus census row for every n up to --n
    code, out, _ = run(capsys, "verify", "--n", "1", "--samples", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS  substitution table matches twist composition"
    assert lines[-1] == "ALL CHECKS PASSED"
    for n in (0, 1):
        for system in ("fix", "torus"):
            row = f"PASS  n={n}: {system} census  (components 1/1, success 100.0%)"
            assert row in lines
    code, out, _ = run(capsys, "verify", "--n", "1", "--samples", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and len(doc["checks"]) == len(lines) - 1
    rows = [row for row in doc["checks"] if row["check"].endswith(" census")]
    assert [row["check"] for row in rows] == [
        "n=0: fix census", "n=0: torus census", "n=1: fix census", "n=1: torus census",
    ]
    assert all(
        row["ok"] and row["detail"] == "components 1/1, success 100.0%" for row in rows
    )


def test_off_variety_file_fails_classify_and_probe(tmp_path, capsys):
    on = tmp_path / "on.json"
    off = tmp_path / "off.json"
    run(capsys, "representative", "--n", "2", "--label", "+,0,1", "--out", str(on))
    doc = json.loads(on.read_text())
    assert doc["A"][0] == [1.0, 0.0, 0.0, 0.0]
    doc["A"][0] = [math.cos(1e-3), math.sin(1e-3), 0.0, 0.0]  # A1 moved 1e-3 off 1
    off.write_text(json.dumps(doc))
    code, _, err = run(capsys, "classify", str(off))
    assert code == 1 and err.startswith("verification failure:")
    code, _, err = run(capsys, "probe", str(off), str(on))
    assert code == 1 and err.startswith("probe failed:")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "2", "--seed", "1"),
        ("enumerate", "--n", "2", "--out", "labels.txt"),
        ("representative", "--n", "2", "--label", "central", "--format", "json"),
        ("probe", "a.json", "b.json", "--n", "2"),
        ("probe", "a.json", "b.json", "--depth", "5"),
        ("census", "--n", "1", "--samples", "0"),
        ("census", "--n", "1", "--samples", "1", "--iters", "5"),
        ("verify", "--n", "1", "--iters", "5"),
        ("verify", "--n", "1", "--samples", "-1"),
    ],
)
def test_unread_flags_and_bad_samples_are_input_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("representative", "--n", "3", "--label", "+,0,1"),
        ("classify", "rep.json"),
        ("probe", "a.json", "b.json"),
        ("census", "--n", "2", "--samples", "1"),
        ("verify", "--n", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_tol_must_be_finite_and_positive(argv, value, capsys):
    # with --tol=nan every residual comparison is false, so an off-variety
    # point would read as central; --tol=inf passes everything the same way
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--tol={value}"])
    assert exc.value.code == 2
    assert f"--tol: must be a finite positive number, got {value}" in capsys.readouterr().err


def _readme_options_table() -> dict[str, tuple[int, set[str]]]:
    """Subcommand -> (positional count, option flags) from the README table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = text.split("| subcommand | options |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for row in rows.splitlines():
        commands, options = row.strip("|").split("|")
        flags = set(re.findall(r"`(--[a-z-]+)`", options))
        for command in re.findall(r"`([^`]+)`", commands):
            name, *positionals = command.split()
            table[name] = (len(positionals), flags)
    return table


def test_readme_options_table_matches_the_parser():
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    parsed = {}
    for name, sub in subparsers.choices.items():
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        flags = {s for a in actions for s in a.option_strings}
        parsed[name] = (sum(not a.option_strings for a in actions), flags)
    assert _readme_options_table() == parsed
