"""The `groupoid` report bytes, pinned by sha256.

Each input runs `kgraphs groupoid ... --out FILE`; the digest of FILE and the
exit code must not move.  The report lists every element with its orbit, the
axiom and etale failures in order, and the isotropy of every unit, so a
change to the element order, to a failure string or to the composition by
labels shows up here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from kgraphs.cli import main

from conftest import instance_path
from test_verify_digests import grid_document, tree_document

# name: (instance, options, exit code, sha256 of the report)
PINS = {
    "b": (
        "b", [], 0,
        "800c0a12611429e5bd9e2722848ad4e3a653f607aa1cc6707c65416e2228f344",
    ),
    "e": (
        "e", [], 0,
        "a379dfc3c861a6236864cdd6a61defbd80a42834c399abca4ca20d6fb3812e34",
    ),
    "e-boundary": (
        "e", ["--boundary"], 0,
        "309a2b76c84913fd95b3c4f248ec495a3130445ac847da904e40a7d122c604fa",
    ),
    "grid-2x2": (
        grid_document((2, 2)), [], 0,
        "fee76c93bf024344c22d5d5d50e7e23cf1a1ee5c94ac60ee7ec41ff693da2ac1",
    ),
    "grid-3x3": (
        grid_document((3, 3)), [], 0,
        "bd191ba7401b0ca651f2f7a0e05d2712086f7c4e71394d8f8018780cfc7b6eca",
    ),
    "tree-13": (
        tree_document(1, 13), [], 0,
        "7d08bbd5e3cefed5bc5e369f647d1f4e5015d24157aef326fb28ebc56046ab0e",
    ),
    "a-bound-2-2": (
        "a", ["--bound", "2,2"], 0,
        "d39273065d7f97ed3c8a35af0d92467a7220cb071d5b96c7becaf27b04186e1d",
    ),
    "c-bound-1-1-1": (
        "c", ["--bound", "1,1,1"], 0,
        "d0637372e0bee610c00833ca7651ec98fb94f845aff78f386e6924af345fcea9",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_groupoid_report_bytes_are_pinned(tmp_path, capsys, name):
    instance, options, code, digest = PINS[name]
    if isinstance(instance, str):
        path = instance_path(instance)
    else:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["groupoid", str(path), *options, "--out", str(out)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
