"""The `validate` report bytes, pinned by sha256.

Each input runs `kgraphs validate FILE --out REPORT`, as JSON and under
`--format text`; the digest of REPORT and the exit code must not move.  The
JSON names the instance as given on the command line, so each run passes the
file's bare name from inside its directory.  Besides the bundled instances,
small malformed presentations produce every square failure kind
(`invalid_colors`, `endpoint_mismatch`, `missing_square`,
`duplicate_square`), so a change to a verdict, a failure string or the order
of the failures shows up here.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import pytest

from kgraphs.cli import main

from conftest import instance_path, line_document


def loops_document(rank: int, colors: dict[str, int], squares: list[tuple[str, ...]]) -> dict:
    """One vertex u with a loop per named edge, and the given squares."""
    return {
        "rank": rank,
        "vertices": [{"id": "u"}],
        "edges": [
            {"id": eid, "color": c, "range": "u", "source": "u"} for eid, c in colors.items()
        ],
        "squares": [
            dict(zip(("first", "second", "swapped_first", "swapped_second"), square))
            for square in squares
        ],
    }


def endpoint_document() -> dict:
    """A blue and a red loop at u and a red loop at v; one square ends at v."""
    return {
        "rank": 2,
        "vertices": [{"id": "u"}, {"id": "v"}],
        "edges": [
            {"id": "b", "color": 1, "range": "u", "source": "u"},
            {"id": "r", "color": 2, "range": "u", "source": "u"},
            {"id": "s", "color": 2, "range": "v", "source": "v"},
        ],
        "squares": [
            {"first": "b", "second": "r", "swapped_first": "s", "swapped_second": "b"},
            {"first": "b", "second": "r", "swapped_first": "r", "swapped_second": "b"},
        ],
    }


def cycle_document(n: int) -> dict:
    """The rank-1 cycle v0 <- v1 <- ... <- v(n-1) <- v0."""
    return {
        "rank": 1,
        "vertices": [{"id": f"v{i}"} for i in range(n)],
        "edges": [
            {"id": f"e{i}", "color": 1, "range": f"v{i}", "source": f"v{(i + 1) % n}"}
            for i in range(n)
        ],
        "squares": [],
    }


DOCUMENTS = {
    "invalid-colors": loops_document(
        2, {"b": 1, "r": 2}, [("b", "r", "b", "r"), ("b", "b", "r", "r")]
    ),
    "endpoint-mismatch": endpoint_document(),
    "missing-square": loops_document(3, {"b": 1, "r": 2, "g": 3}, [("b", "r", "r", "b")]),
    "duplicate-square": loops_document(
        2,
        {"b1": 1, "b2": 1, "b3": 1, "r": 2},
        [("b1", "r", "r", "b1"), ("b2", "r", "r", "b1"), ("b1", "r", "r", "b2")],
    ),
    "cycle-3": cycle_document(3),
    "line-4": line_document(4),
}

# name: (instance, exit code, sha256 of the JSON report, sha256 of the text report)
PINS = {
    "a": (
        "a", 0,
        "423a99cc47e67de627da148923761d0511863b5ff559b05567be99c0b658e817",
        "48cacbe9b7bfebcddfa86802c9ae98304f7349a2c376dbe1f672a7a9ae2a83ea",
    ),
    "b": (
        "b", 0,
        "cd453c0b88394f0fba5b7c97552c8b8aff1b3ed75e6a55e9031e895ddf918e7b",
        "48cacbe9b7bfebcddfa86802c9ae98304f7349a2c376dbe1f672a7a9ae2a83ea",
    ),
    "c": (
        "c", 0,
        "423a99cc47e67de627da148923761d0511863b5ff559b05567be99c0b658e817",
        "48cacbe9b7bfebcddfa86802c9ae98304f7349a2c376dbe1f672a7a9ae2a83ea",
    ),
    "d": (
        "d", 1,
        "417a3e1c4ba799981e1bd5db149958053cc3fa6c2a5d256512158ce8003ce51a",
        "1fc573b9299b1a8ad3602dba85d09dabe1c37faa2ba01180a621ff330e93a9a2",
    ),
    "e": (
        "e", 0,
        "cd453c0b88394f0fba5b7c97552c8b8aff1b3ed75e6a55e9031e895ddf918e7b",
        "48cacbe9b7bfebcddfa86802c9ae98304f7349a2c376dbe1f672a7a9ae2a83ea",
    ),
    "cycle-3": (
        "cycle-3", 0,
        "423a99cc47e67de627da148923761d0511863b5ff559b05567be99c0b658e817",
        "48cacbe9b7bfebcddfa86802c9ae98304f7349a2c376dbe1f672a7a9ae2a83ea",
    ),
    "duplicate-square": (
        "duplicate-square", 1,
        "50600939efa18130726ac2d1577b2d8bf5efadf4063c6cac496c0ffee5c38ccf",
        "aa2631d1948caec09d67a37cfa1c2e124674538a6001996f37a5fa7198fb05f5",
    ),
    "endpoint-mismatch": (
        "endpoint-mismatch", 1,
        "49217e69d75156f72f98f6572a49763f44ed9bcfcc49e0b210a7dfa9f95e1a83",
        "2ede85626bbae336328929f06a162177a96ab2e69f9578bad0db3cfe10434e59",
    ),
    "invalid-colors": (
        "invalid-colors", 1,
        "9d5b7a24530329cdc7ada3d44f47efdf395e8b306cb6ffcbeb4417bdac5c6e0f",
        "dd7ec65aa9094034124fd8d28e5c0e4c5c8d5136344568dcee913a3646856804",
    ),
    "line-4": (
        "line-4", 0,
        "cd453c0b88394f0fba5b7c97552c8b8aff1b3ed75e6a55e9031e895ddf918e7b",
        "48cacbe9b7bfebcddfa86802c9ae98304f7349a2c376dbe1f672a7a9ae2a83ea",
    ),
    "missing-square": (
        "missing-square", 1,
        "1a23b83519dc962b26330070ff49d8c310b921d2e34773c48e4ab6042958f9a9",
        "3fa4aae0c868b2d76c00ff26913612cc7b23766ef0019b3f7573caae40d7198c",
    ),
}


def run_validate(tmp_path, monkeypatch, capsys, instance, options) -> tuple[int, str]:
    name = "instance.json"
    if isinstance(instance, str):
        shutil.copyfile(instance_path(instance), tmp_path / name)
    else:
        (tmp_path / name).write_text(json.dumps(instance), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(["validate", name, *options, "--out", "report"])
    capsys.readouterr()
    return code, hashlib.sha256((tmp_path / "report").read_bytes()).hexdigest()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", sorted(PINS))
def test_validate_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, name, fmt):
    instance, code, json_digest, text_digest = PINS[name]
    instance = DOCUMENTS.get(instance, instance)
    options = ["--format", "text"] if fmt == "text" else []
    digest = json_digest if fmt == "json" else text_digest
    assert run_validate(tmp_path, monkeypatch, capsys, instance, options) == (code, digest)
