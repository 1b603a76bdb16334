"""The `boundary` report bytes, pinned by sha256.

Each input runs `kgraphs boundary ... --out FILE`; the digest of FILE and the
exit code must not move.  The report lists every element with its prefixes
and its boundary verdict, the vertex classes and the minimal exhaustive sets,
so a change to the element order, to the factorization table or to the
exhaustive-set search shows up here.  The exact reports pin the text that
`boundary_text.boundary_chunks` writes from its fragments.  The truncated pins
cover the markers a bound adds: finite degrees and sources that receive no
edge (e at 1), rank 3 (c), and "inf" beside finite coordinates with
`extendable` differing by source (one cycling colour).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from kgraphs.cli import main

from conftest import instance_path, one_cycling_colour_document
from test_verify_digests import grid_document, tree_document

# name: (instance, options, exit code, sha256 of the report)
PINS = {
    "b": (
        "b", [], 0,
        "7245b0fdea41d91d83e61a7b22257daf139cc80da16e7478e0e293273be357e0",
    ),
    "e": (
        "e", [], 0,
        "1b5f6df837fc31425dc6cb40ca8a0b9e48bb7a2fd16d3054a9f8cdb35d343346",
    ),
    "a-bound-2-2": (
        "a", ["--bound", "2,2"], 0,
        "9218c61b759c54dd653c933f1abc3a4d224047ee41842d36b0ade001cff33a63",
    ),
    "c-bound-1-1-1": (
        "c", ["--bound", "1,1,1"], 0,
        "2bd5c32bca03111c26f4acb25be227ddb6a7939bb81bddc0a6208e926ad574a2",
    ),
    "e-bound-1": (
        "e", ["--bound", "1"], 0,
        "1d77159710d546d6aa23d5e662448c8c18d15df11649b1a364a97947482b03d8",
    ),
    "one-cycling-colour-bound-2-1": (
        one_cycling_colour_document(), ["--bound", "2,1"], 0,
        "b1014c1dcc44649059390c2e8f8172128de81b2a7ccbb971e6e42dc97cc65168",
    ),
    "tree-13": (
        tree_document(1, 13), [], 0,
        "616c79e4bef6ab9ea06357152c0ce7984ebc864c968d414b49efab2b698d79a0",
    ),
    "grid-2x2": (
        grid_document((2, 2)), [], 0,
        "cdde807a3e0aecb15d636650febbcc238aceea84e8ac2eb8cc05133b0203c8a9",
    ),
    "grid-3x3": (
        grid_document((3, 3)), [], 0,
        "b5a2458701c38e40f7071a1137232dd897952edbeac6b725bfad37eb27274867",
    ),
}

# The pins short enough to rerun at tiny block sizes (tests/test_report_encoder.py).
SHORT = ("a-bound-2-2", "b", "e")


@pytest.mark.parametrize("name", sorted(PINS))
def test_boundary_report_bytes_are_pinned(tmp_path, capsys, name):
    instance, options, code, digest = PINS[name]
    if isinstance(instance, str):
        path = instance_path(instance)
    else:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["boundary", str(path), *options, "--out", str(out)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
