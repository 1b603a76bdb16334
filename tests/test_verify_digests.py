"""The `verify` report bytes, pinned by sha256.

Each input runs `kgraphs verify ... --out FILE`; the digest of FILE and the
exit code must not move.  The floats in these reports are sums of products of
seeded samples, so any change to the order or the rounding of a convolution
shows up here, not only a change of verdict.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

import kgraphs as kg
from kgraphs.cli import main
from kgraphs.skeleton import Degree

from conftest import instance_path, line_document


def tree_document(seed: int, size: int) -> dict:
    """A rooted tree: edge t_i runs from vertex i to a seeded earlier vertex."""
    rng = random.Random(seed)
    return {
        "rank": 1,
        "vertices": [{"id": f"n{i}"} for i in range(size)],
        "edges": [
            {"id": f"t{i}", "color": 1, "range": f"n{rng.randrange(i)}", "source": f"n{i}"}
            for i in range(1, size)
        ],
        "squares": [],
    }


def grid_document(shape: tuple[int, ...]) -> dict:
    sk = kg.grid_skeleton(len(shape), Degree(shape)).skeleton
    return {
        "rank": sk.rank,
        "vertices": [{"id": v.id} for v in sk.vertices],
        "edges": [
            {"id": e.id, "color": e.color, "range": e.range, "source": e.source}
            for e in sk.edges
        ],
        "squares": [
            {
                "first": r.first,
                "second": r.second,
                "swapped_first": r.swapped_first,
                "swapped_second": r.swapped_second,
            }
            for r in sk.rules
        ],
    }


# name: (instance, options, exit code, sha256 of the report)
PINS = {
    "b": (
        "b", [], 0,
        "b03bb14f1c36db7dfd44ba7fa5fd115bc3534545979f480c2ea447551a87640b",
    ),
    "d": (
        "d", [], 1,
        "cf313f9a2e00b0962c865abb3470e184e269509fdd556fd36aef0fb92b02fa77",
    ),
    "e": (
        "e", [], 0,
        "9cbb68db6dbe3ec9615d6f2aec9a7b6dcd8e4930257596f81ee679fa24ba9e78",
    ),
    "e-samples-20": (
        "e", ["--samples", "20", "--seed", "7", "--tol", "1e-6"], 0,
        "a65e0df9965f4f467d13f19e2f7357d2008695979f7e9905f57e5acabd3d8904",
    ),
    "line-3": (
        line_document(3), ["--seed", "1"], 0,
        "9c2540f249faf254d5c0403d47ad3e78c7f6a0a1113b6cb2a9ffb3a8a1d51ceb",
    ),
    "line-4": (
        line_document(4), ["--seed", "1"], 0,
        "52ef96d3c909be6280339bfcc734f2518599b3a7f63471e5d783518ab7d71067",
    ),
    "grid-2x2": (
        grid_document((2, 2)), ["--samples", "30"], 0,
        "8b5496ad211c47feec7427effaebf24fb5dee618a4ca6681ea38156622d8c3d6",
    ),
    "tree-13": (
        tree_document(1, 13), ["--seed", "1"], 0,
        "9980c344e08f2661f1290f39691e5d2781a7085ee7400d6b49628daad710158c",
    ),
    "vertex-free": (
        {"rank": 1, "vertices": [], "edges": [], "squares": []}, [], 0,
        "9c85a2b19d1cf910825f27d859587ea6786a73bbef040c30468d153d013bec5d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_verify_report_bytes_are_pinned(tmp_path, capsys, name):
    instance, options, code, digest = PINS[name]
    if isinstance(instance, str):
        path = instance_path(instance)
    else:
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["verify", str(path), *options, "--out", str(out)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
