"""`verify` report bytes where the stacked suites' chunks begin and end.

With one sample every chunk holds one row; 257 samples is prime, so on every
groupoid that takes more than one row per chunk the last chunk is a short
one.  The digests were taken from the one-sample-at-a-time suites; the
stacked suites must reproduce them byte for byte.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from kgraphs.cli import main

from conftest import instance_path, line_document

# name: (instance, options, sha256 of the report); every run exits 0
PINS = {
    "line-4-samples-1": (
        line_document(4), ["--seed", "1", "--samples", "1"],
        "f27d58c3b7d043d163cb94e59912b47c28f23b94303fd3a6509c7f8964cf604a",
    ),
    "line-4-samples-257": (
        line_document(4), ["--seed", "1", "--samples", "257"],
        "7799f73de18bdc2e6b8295b92ac783af4d8d2c36e815d76e3b0f833d961014db",
    ),
    "e-samples-1": (
        "e", ["--samples", "1"],
        "0b45a3b57fb1fa03f95d90660bf4c6bd3c488d273b35402c109732169ddd9fff",
    ),
    "e-samples-257": (
        "e", ["--samples", "257"],
        "ced2c4c83b93c8ea1c8607146db1ea5fb5852799a168a279c1d29ac254f0c7c3",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_verify_bytes_hold_at_chunk_boundaries(tmp_path, capsys, name):
    instance, options, digest = PINS[name]
    if isinstance(instance, str):
        path = instance_path(instance)
    else:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["verify", str(path), *options, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
