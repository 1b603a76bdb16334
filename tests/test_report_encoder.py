"""The report encoder against `json.dumps(sort_keys=True, indent=2)`.

Reports longer than one block are encoded compactly by the C encoder and
re-indented block by block (`indent.indent_blocks`).  Generated values stress the
string masking (structural characters, quotes after runs of backslashes,
non-ASCII and control characters), the special floats and the nesting, at
block sizes small enough that every carry across a block boundary is taken.
The groupoid, verify and validate digest pins and the short boundary pins
are run again at block sizes 1 and 7, since at the default size most pinned
reports are short enough to go through `json.dumps`.  Payloads that share one
list or dict from several places, as `element_json`'s memo does, are
checked too, since the compact encoder skips the cycle check.

The compact text itself is encoded by item and by slice (`cli._compact`), and
must equal one call of the C encoder at every slice size.

The property runs are derandomized and keep no example database, so tier-1
sees the same examples every time.
"""

from __future__ import annotations

import argparse
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgraphs import cli
from kgraphs.indent import indent_blocks

from conftest import instance_path
import test_boundary_digests as boundary_pins
import test_groupoid_digests as groupoid_pins
import test_validate_digests as validate_pins
import test_verify_digests as verify_pins

BLOCKS = (1, 2, 3, 7, cli._BLOCK)

texts = st.lists(
    st.sampled_from(["\\" * k + '"' for k in range(5)] + ["\\", "[", "]", "{", "}", ",", ":", " "])
    | st.text(max_size=4)
    | st.characters(codec="utf-8")
    | st.characters(max_codepoint=0x1F),
    max_size=8,
).map("".join)
scalars = (
    texts
    | st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 1e300, True, False, None])
    | st.floats()
    | st.integers()
)


def deep(depth: int, inner):
    """`inner` under `depth` levels of alternating one-item lists and dicts."""
    for level in range(depth):
        inner = [inner] if level % 2 else {"d": inner}
    return inner


def nested(children):
    return (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(texts, children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.builds(deep, st.integers(1, 40), children)
    )


values = st.recursive(scalars, nested, max_leaves=30)


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(values)
def test_reindented_compact_text_equals_json_dumps(value):
    want = json.dumps(value, sort_keys=True, indent=2) + "\n"
    compact = cli._COMPACT.encode(value)
    for block in BLOCKS:
        assert "".join(indent_blocks(compact, block)) == want, block


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(values)
def test_compact_text_by_items_and_slices_equals_one_encoding(value):
    """`cli._compact` encodes a dict of str keys by item and a long list by slices; at every
    slice size it writes what one call of the C encoder writes."""
    want, saved = cli._COMPACT.encode(value), cli._SLICE
    try:
        for size in (1, 2, 3, saved):
            cli._SLICE = size
            assert cli._compact(value) == want, size
    finally:
        cli._SLICE = saved


def shared_in(container, depths, key):
    """A payload referencing `container` at each depth, once keyed and once listed."""
    return {
        "keyed": {f"{key}{i}": deep(d, container) for i, d in enumerate(depths)},
        "listed": [deep(d, container) for d in depths],
    }


small_values = st.recursive(scalars, nested, max_leaves=5)
shared_payloads = st.builds(
    shared_in,
    st.lists(small_values, max_size=3) | st.dictionaries(texts, small_values, max_size=3),
    st.lists(st.integers(0, 6), min_size=2, max_size=3),
    texts,
)


@settings(
    max_examples=30,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(shared_payloads)
def test_a_payload_sharing_one_container_equals_json_dumps(payload):
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    compact = cli._COMPACT.encode(payload)
    for block in BLOCKS:
        assert "".join(indent_blocks(compact, block)) == want, block


@pytest.mark.parametrize("size", [1, 9000], ids=["short", "past-a-block"])
def test_a_circular_report_raises_and_writes_no_file(tmp_path, size):
    payload = {"elements": list(range(size))}
    payload["elements"].append(payload)
    out = tmp_path / "report.json"
    with pytest.raises(RecursionError):
        cli._emit(argparse.Namespace(out=str(out), format="json"), payload)
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [{"elements": list(range(9000)), 1: "mixed key types"}, {"a": {0, 1}}, {"b": [[]] * 9000 + [{1, 2}]}],
    ids=["mixed-keys", "set", "set-past-a-block"],
)
def test_an_unencodable_report_raises_as_json_dumps_and_writes_no_file(tmp_path, payload):
    with pytest.raises(TypeError) as want:
        json.dumps(payload, sort_keys=True, indent=2)
    out = tmp_path / "report.json"
    with pytest.raises(TypeError) as got:
        cli._emit(argparse.Namespace(out=str(out), format="json"), payload)
    assert str(got.value) == str(want.value)
    assert not out.exists()


def test_stdout_gets_the_bytes_of_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK", 7)
    out = tmp_path / "report.json"
    assert cli.main(["groupoid", str(instance_path("e")), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["groupoid", str(instance_path("e"))]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("name", sorted(groupoid_pins.PINS))
def test_groupoid_pins_hold_in_small_blocks(tmp_path, capsys, monkeypatch, block, name):
    monkeypatch.setattr(cli, "_BLOCK", block)
    groupoid_pins.test_groupoid_report_bytes_are_pinned(tmp_path, capsys, name)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("name", boundary_pins.SHORT)
def test_boundary_pins_hold_in_small_blocks(tmp_path, capsys, monkeypatch, block, name):
    monkeypatch.setattr(cli, "_BLOCK", block)
    boundary_pins.test_boundary_report_bytes_are_pinned(tmp_path, capsys, name)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("name", sorted(verify_pins.PINS))
def test_verify_pins_hold_in_small_blocks(tmp_path, capsys, monkeypatch, block, name):
    monkeypatch.setattr(cli, "_BLOCK", block)
    verify_pins.test_verify_report_bytes_are_pinned(tmp_path, capsys, name)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("name", sorted(validate_pins.PINS))
def test_validate_pins_hold_in_small_blocks(tmp_path, capsys, monkeypatch, block, name):
    monkeypatch.setattr(cli, "_BLOCK", block)
    validate_pins.test_validate_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, name, "json")
