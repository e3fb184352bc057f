"""Golden documents: the SHA-256 of `--format json` outputs that must not change.

The documents hold counts, labels and census tallies but no float
coordinates, so they do not depend on the machine's libm.  A change that
alters one on purpose updates its digest here and says why in CHANGES.md.
"""

import hashlib

import pytest

from repvar.cli import main

CENSUS_ARGS = ("--samples", "2", "--seed", "0")

GOLDEN = {
    ("count", -3): "0c1ca29c2da1a5dbe38b8b14e48eaffb8ac16728caf9e5776794ac8972c9e9ee",
    ("count", -2): "02f2ce6e837931f8f7df0c50df83de3a9eee4f1d2573c1110567dc813687acc6",
    ("count", -1): "2596091aae8c6fd4b3510eaf2847ee41935dc0e286b4659b3da21cd9bbd51072",
    ("count", 0): "4361ef72a8bd64a43f8b30e1a55246af5188e9ad2633b11a2502840f250328ed",
    ("count", 1): "3201bf7c3e42b7b4ec0512045303cc12e57ad9858146896328a8c3ea9d5b8e6e",
    ("count", 2): "292349eb0e4877d658ae8d025a9cc789a30b67e87f5c2617614eea689bf05f04",
    ("count", 3): "0e35d0addcbd35e11d99ca17d496f3c26ae1d5aa0b00d5d1033d98ed76b20dcd",
    ("count", 4): "7d9323c952ed9af3a8fbb7815a2c7f600d1a9852e164e930d1b5fee80970625e",
    ("enumerate", -3): "6e4a96527261595c4df2984fe1c2dcccd65ff2d8acb165f9b9d5d6d684155a07",
    ("enumerate", -2): "9e03d559d25654fa2a02ffe5c12c10e36c78c5079d7ce7f1b1a2619ab7aadbe2",
    ("enumerate", -1): "aa438f060d39ac71dadc6034d771886075666da38b3869ca22503802047a0d8e",
    ("enumerate", 0): "ada306aceeaf2020f4a067c024f829cbbb1f17cfd1b5bdc1303485139e5d130f",
    ("enumerate", 1): "8251115acfc435e51af539eaefd09fe4b5d1720b42f4d30cc2c641239ec15eae",
    ("enumerate", 2): "e6f99e2ab3422512b58fd65162b25e3cd8d188bc6bc2f1bd6e1b127c87ff3cd4",
    ("enumerate", 3): "86ea28a3cc22923ff73a91e54a48dfef3d788881ac0ade96364c7b64712737eb",
    ("enumerate", 4): "3551f3db6ed16389d824ed74337be19d7a3a5facbf8fca747f154a9215e86441",
    ("census", 1): "c8d87343f1c7d273d3edc238ec217826b1f5240ce4ecb5239472f673af0da061",
    ("census", 2): "c78c326400aa801a653260eaed340410ddd2b5b39e9111a5bc97f52f67347bd9",
    ("census", -3): "dfb720e8cffba6e25c3fe6c1e0eb5b8c8c58f70d81addaf7627fae36aa5c882a",
}


@pytest.mark.parametrize("command, n", list(GOLDEN), ids=[f"{c}-n{n}" for c, n in GOLDEN])
def test_golden_document(command, n, capsys):
    extra = CENSUS_ARGS if command == "census" else ()
    assert main([command, "--n", str(n), "--format", "json", *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command, n]
