from __future__ import annotations

import argparse
import json

import pytest

import kgraphs as kg
from kgraphs.boundary import FinitePathSpace
from kgraphs.cli import build_parser, main
from kgraphs.paths import Path

import oracles as orc
from conftest import instance_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_passes_clean_instance(capsys):
    code, out, _ = run(capsys, "validate", str(instance_path("a")))
    assert code == 0
    payload = json.loads(out)
    assert payload["squares"]["passed"] and payload["associativity"]["passed"]


def test_validate_reports_missing_square(capsys):
    code, out, _ = run(capsys, "validate", str(instance_path("d")))
    assert code == 1
    payload = json.loads(out)
    assert ["b2", "r"] in [f["items"] for f in payload["squares"]["failures"]]


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "validate", "no_such_file.json")
    assert code == 2
    assert "error" in err


def test_malformed_instance_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "bad instance" in err


def test_paths_command_lists_normal_forms(capsys):
    code, out, _ = run(
        capsys, "paths", str(instance_path("a")), "--degree", "2,1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["paths"] == [{"range": "u", "blocks": [["b", "b"], ["r"]]}]


def test_lambda_min_command(capsys):
    code, out, _ = run(
        capsys, "lambda-min", str(instance_path("a")), "--left", "b", "--right", "r"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pairs"] == [
        [
            {"range": "u", "blocks": [[], ["r"]]},
            {"range": "u", "blocks": [["b"], []]},
        ]
    ]


def test_exhaustive_command_minimal_sets(capsys):
    code, out, _ = run(
        capsys, "exhaustive", str(instance_path("b")), "--vertex", "v", "--minimal"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["minimal_exhaustive_sets"]) == 2


def test_exhaustive_command_membership_check(capsys):
    code, out, _ = run(
        capsys,
        "exhaustive",
        str(instance_path("b")),
        "--vertex",
        "w",
        "--members",
        "",
    )
    assert code == 1
    assert json.loads(out)["status"] == "not_exhaustive"


def test_path_literals_may_carry_spaces(capsys):
    """A vertex literal is stripped before the lookup, as each edge token is."""
    b = str(instance_path("b"))
    code, out, err = run(capsys, "exhaustive", b, "--vertex", "v", "--members", "e; v")
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "exhaustive"
    code, out, err = run(capsys, "lambda-min", b, "--left", " v", "--right", "e")
    assert (code, err) == (0, "")
    assert json.loads(out)["left"] == {"blocks": [[]], "range": "v"}


def test_boundary_command_two_vertex(capsys):
    code, out, _ = run(capsys, "boundary", str(instance_path("b")))
    assert code == 0
    payload = json.loads(out)
    assert payload["boundary_size"] == 2
    assert payload["classification"]["regular"] == ["v"]


def test_boundary_command_builds_text_lines_only_for_text(capsys, instance_b):
    code, out, _ = run(capsys, "boundary", str(instance_path("b")), "--format", "text")
    assert code == 0
    assert out == (
        "vertex classes: regular=['v']\n"
        '  {"blocks": [["e"]], "range": "v"}: boundary\n'
        '  {"blocks": [[]], "range": "v"}: interior\n'
        '  {"blocks": [[]], "range": "w"}: boundary\n'
        "boundary size: 2\n"
    )
    code, out, _ = run(capsys, "boundary", str(instance_path("b")))
    # JSON output is the report alone: no element line is written beside it.
    assert code == 0 and "interior" not in out
    report = orc.boundary_report(kg.enumerate_path_space(instance_b))
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_boundary_command_rejects_cycles_without_bound(capsys):
    code, _, err = run(capsys, "boundary", str(instance_path("a")))
    assert code == 2
    assert "truncation bound" in err


def test_boundary_command_truncated(capsys):
    code, out, _ = run(
        capsys, "boundary", str(instance_path("a")), "--bound", "1,1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["boundary_size"] is None
    assert len(payload["elements"]) == 4


def test_groupoid_command_sizes(capsys):
    code, out, _ = run(capsys, "groupoid", str(instance_path("b")))
    assert code == 0
    payload = json.loads(out)
    assert payload["path_groupoid_size"] == 5
    assert payload["boundary_groupoid_size"] == 4
    assert payload["axioms"]["passed"] and payload["etale"]["passed"]


def test_verify_command_passes(capsys):
    code, out, _ = run(
        capsys, "verify", str(instance_path("b")), "--samples", "10"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["groupoid_sizes"] == {"full": 5, "boundary": 4}
    assert payload["generation"]["boundary"]["generated_dimension"] == 4
    assert payload["generation"]["full"]["generated_dimension"] == 5


def test_verify_command_line_instance(capsys):
    code, out, _ = run(
        capsys, "verify", str(instance_path("e")), "--samples", "10"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["generation"]["boundary"]["generated_dimension"] == 9


def test_verify_rejects_invalid_instance(capsys):
    code, out, _ = run(capsys, "verify", str(instance_path("d")))
    assert code == 1
    assert "fails validation" in json.loads(out)["error"]


def test_verify_output_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out_file in (out1, out2):
        code = main(
            [
                "verify",
                str(instance_path("b")),
                "--samples",
                "10",
                "--seed",
                "99",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", str(instance_path("b")))
    assert code == 0
    assert out.startswith("digraph skeleton {")
    assert '"w" -> "v"' in out


@pytest.mark.parametrize("command", ["groupoid", "boundary"])
def test_invalid_instance_is_refused_before_the_path_space(capsys, command):
    code, out, err = run(capsys, command, str(instance_path("d")), "--bound", "1,1")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "instance fails validation"
    assert ["b2", "r"] in [f["items"] for f in payload["squares"]["failures"]]
    assert err == ""


def test_dot_is_not_a_report_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(instance_path("b")), "--format", "dot"])
    assert exc.value.code == 2
    assert "invalid choice: 'dot'" in capsys.readouterr().err


def test_exhaustive_unknown_vertex_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "exhaustive", str(instance_path("b")), "--vertex", "nope", "--minimal"
    )
    assert code == 2
    assert out == ""
    assert err == "error: unknown vertex 'nope'\n"


# A loop l at u, and e from w to v: v and w reach no cycle, u does.
CYCLIC = {
    "rank": 1,
    "vertices": [{"id": "u"}, {"id": "v"}, {"id": "w"}],
    "edges": [
        {"id": "l", "color": 1, "range": "u", "source": "u"},
        {"id": "e", "color": 1, "range": "v", "source": "w"},
    ],
}


def test_exhaustive_minimal_on_a_cyclic_skeleton_answers_where_the_paths_are_finite(capsys, tmp_path):
    instance = tmp_path / "cyclic.json"
    instance.write_text(json.dumps(CYCLIC), encoding="utf-8")
    code, out, err = run(capsys, "exhaustive", str(instance), "--vertex", "v", "--minimal")
    assert (code, err) == (0, "")
    e, v = {"blocks": [["e"]], "range": "v"}, {"blocks": [[]], "range": "v"}
    assert json.loads(out)["minimal_exhaustive_sets"] == [[e], [v]]
    assert out == (
        '{\n  "minimal_exhaustive_sets": [\n    [\n      {\n        "blocks": [\n          [\n'
        '            "e"\n          ]\n        ],\n        "range": "v"\n      }\n    ],\n'
        '    [\n      {\n        "blocks": [\n          []\n        ],\n        "range": "v"\n'
        '      }\n    ]\n  ],\n  "vertex": "v"\n}\n'
    )
    code, out, err = run(capsys, "exhaustive", str(instance), "--vertex", "u", "--minimal")
    assert (code, out) == (2, "")
    assert err.startswith("error: vertex 'u' reaches a cycle")


@pytest.mark.parametrize(
    "argv",
    [
        ["paths", "--degree", "1,1"],
        ["lambda-min", "--left", "b1", "--right", "r"],
        ["exhaustive", "--vertex", "u", "--members", "u"],
    ],
    ids=["paths", "lambda-min", "exhaustive"],
)
def test_path_commands_refuse_an_invalid_instance(capsys, argv):
    code, out, err = run(capsys, argv[0], str(instance_path("d")), *argv[1:])
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "instance fails validation"
    assert ["b2", "r"] in [f["items"] for f in payload["squares"]["failures"]]
    assert err == ""


LINE = {
    "rank": 1,
    "vertices": [{"id": "u"}, {"id": "v"}],
    "edges": [{"id": "e", "color": 1, "range": "u", "source": "v"}],
}


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"edges": [{"id": "e", "range": "u", "source": "v"}]}, "edges[0] is missing key 'color'"),
        ({"vertices": ["u", "v"]}, "vertices[0] must be an object, got 'u'"),
        ({"rank": True}, "rank must be a positive integer, got True"),
        ({"edges": [{"id": "e", "color": True, "range": "u", "source": "v"}]}, "edges[0].color must be int, got True"),
        ({"vertices": [{"id": "u"}, {"id": 2}]}, "vertices[1].id must be str, got 2"),
        ({"edges": {"id": "e"}}, "edges must be a list"),
        ({"squares": [{"first": "e", "second": "e", "swapped_first": "e"}]}, "squares[0] is missing key 'swapped_second'"),
    ],
    ids=["no-color", "string-vertices", "bool-rank", "bool-color", "int-id", "edges-object", "short-square"],
)
def test_schema_errors_are_one_line_usage_errors(tmp_path, capsys, patch, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**LINE, **patch}), encoding="utf-8")
    for command in ("validate", "boundary"):
        code, out, err = run(capsys, command, str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: bad instance: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err


# Each subcommand's options besides the instance, as the README table lists them.
OPTIONS = {
    "validate": {"--format", "--out"},
    "paths": {"--degree", "--vertex", "--format", "--out"},
    "lambda-min": {"--left", "--right", "--out"},
    "exhaustive": {"--vertex", "--members", "--minimal", "--bound", "--out"},
    "boundary": {"--bound", "--format", "--out"},
    "groupoid": {"--bound", "--boundary", "--out"},
    "verify": {"--samples", "--tol", "--seed", "--format", "--out"},
    "export": {"--out"},
}
REQUIRED = {
    "paths": ["--degree", "1"],
    "lambda-min": ["--left", "e", "--right", "w"],
    "exhaustive": ["--vertex", "v", "--minimal"],
}
VALUES = {"--bound": "1", "--samples": "10", "--tol": "1e-6", "--seed": "1", "--format": "text"}
DROPPED = [
    (command, option) for command in OPTIONS for option in VALUES if option not in OPTIONS[command]
]


def test_each_command_declares_only_the_options_it_reads():
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in commands.items()
    }
    assert declared == OPTIONS
    assert sum(map(len, declared.values())) == 26
    assert len(DROPPED) == 30


@pytest.mark.parametrize("command, option", DROPPED, ids=[f"{c}{o}" for c, o in DROPPED])
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, command, option):
    argv = [command, str(instance_path("b")), *REQUIRED.get(command, []), option, VALUES[option]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} {VALUES[option]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--samples", "0", "samples must be at least 1, got 0"),
        ("--tol", "-1", "tolerance must be finite and positive, got '-1'"),
        ("--tol", "nan", "tolerance must be finite and positive, got 'nan'"),
        ("--tol", "inf", "tolerance must be finite and positive, got 'inf'"),
    ],
    ids=["samples-0", "tol-negative", "tol-nan", "tol-inf"],
)
def test_out_of_range_verify_options_are_usage_errors(capsys, option, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(instance_path("b")), option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.endswith(f"error: argument {option}: {message}\n")


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["paths", str(instance_path("b")), "--degree", "3000000000"], "--degree", "3000000000"),
        (["boundary", str(instance_path("a")), "--bound", "3000000000,1"], "--bound", "3000000000,1"),
    ],
    ids=["paths-degree", "boundary-bound"],
)
def test_an_out_of_range_degree_is_a_usage_error(capsys, argv, option, text):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    coords = tuple(int(c) for c in text.split(","))
    assert err.endswith(
        f"error: argument {option}: bad degree {text!r}: "
        f"degree coordinate out of 32-bit range in {coords}\n"
    )


@pytest.mark.parametrize("where", ["instance", "out"])
def test_a_directory_path_is_a_one_line_usage_error(tmp_path, capsys, where):
    paths = [str(tmp_path)] if where == "instance" else [str(instance_path("b")), "--out", str(tmp_path)]
    code, out, err = run(capsys, "validate", *paths)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_the_boundary_groupoid_of_a_truncated_space_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["groupoid", str(instance_path("a")), "--bound", "1,1", "--boundary", "--out", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err == "error: the boundary groupoid needs an exact space: --boundary takes no --bound\n"


def test_a_truncated_boundary_listing_in_text_is_a_usage_error(tmp_path, capsys):
    """Refused before the instance is read: a missing file gives the same line."""
    for instance in (instance_path("a"), tmp_path / "missing.json"):
        out = tmp_path / "report.txt"
        argv = ["boundary", str(instance), "--bound", "1,1", "--format", "text", "--out", str(out)]
        code, stdout, err = run(capsys, *argv)
        assert code == 2
        assert stdout == "" and not out.exists()
        assert err == "error: a truncated listing is written as JSON only: --bound takes no --format text\n"


@pytest.mark.parametrize(
    "instance, options",
    [
        ("e", ["--vertex", "v1", "--minimal", "--bound", "1", "--members", "v1"]),
        ("e", ["--vertex", "v1", "--minimal", "--members", "v1"]),
        ("a", ["--vertex", "u", "--minimal", "--bound", "1,1"]),
        ("missing", ["--vertex", "u", "--minimal", "--bound", "1,1"]),
    ],
    ids=["members-and-bound", "members", "bound", "before-loading"],
)
def test_minimal_sets_with_members_or_a_bound_are_a_usage_error(tmp_path, capsys, instance, options):
    path = tmp_path / "missing.json" if instance == "missing" else instance_path(instance)
    code, out, err = run(capsys, "exhaustive", str(path), *options)
    assert (code, out) == (2, "")
    assert err == "error: --minimal lists the sets at a finite vertex: it takes no --members or --bound\n"


def test_paths_command_builds_text_lines_only_for_text(capsys, monkeypatch):
    dumps, calls = json.dumps, []
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
    code, out, _ = run(capsys, "paths", str(instance_path("e")), "--degree", "1")
    assert code == 0 and len(json.loads(out)["paths"]) == 2
    json_calls = len(calls)
    calls.clear()
    code, out, _ = run(capsys, "paths", str(instance_path("e")), "--degree", "1", "--format", "text")
    assert code == 0
    assert out == '{"blocks": [["f2"]], "range": "v1"}\n{"blocks": [["f3"]], "range": "v2"}\n'
    # JSON output dumps the report once and none of the two path lines.
    assert len(calls) - json_calls == 2 - 1


@pytest.mark.parametrize("instance", ["d", "missing"])
def test_exhaustive_without_members_or_minimal_is_refused_before_loading(tmp_path, capsys, instance):
    """Instance d fails validation and a missing file cannot be read: the missing option is named first."""
    path = tmp_path / "missing.json" if instance == "missing" else instance_path(instance)
    out = tmp_path / "report.json"
    code, stdout, err = run(capsys, "exhaustive", str(path), "--vertex", "u", "--out", str(out))
    assert (code, stdout) == (2, "") and not out.exists()
    assert err == "error: --members is required unless --minimal is given\n"


def test_a_truncated_boundary_listing_converts_each_prefix_once(tmp_path, monkeypatch, instance_a):
    """Instance a at 8,8: 81 elements, 2,025 prefixes, 81 distinct paths among them."""
    to_json, element_json, calls, listed = Path.to_json, FinitePathSpace.element_json, [], []

    def listing(space, i, memo=None):
        before = len(calls)
        out = element_json(space, i, memo)
        listed.append(len(calls) - before)
        return out

    monkeypatch.setattr(Path, "to_json", lambda p: calls.append(p) or to_json(p))
    monkeypatch.setattr(FinitePathSpace, "element_json", listing)
    out = tmp_path / "report.json"
    assert main(["boundary", str(instance_path("a")), "--bound", "8,8", "--out", str(out)]) == 0
    assert (len(listed), sum(listed)) == (81, 81)
    monkeypatch.undo()
    space = kg.enumerate_path_space(instance_a, bound=kg.Degree((8, 8)))
    listing = json.loads(out.read_text(encoding="utf-8"))["elements"]
    assert listing == [space.element_json(i) for i in range(len(space))]


# Instance documents that each trip one schema check of `load_skeleton`.
BAD_INSTANCES = {
    "root-not-object": ([LINE], "document root must be an object"),
    "no-edges": ({"rank": 1, "vertices": LINE["vertices"]}, "missing key 'edges'"),
    "duplicate-edge": ({**LINE, "edges": LINE["edges"] * 2}, "duplicate edge id 'e'"),
    "unknown-square-edge": (
        {**LINE, "squares": [{"first": "e", "second": "e", "swapped_first": "e", "swapped_second": "zz"}]},
        "square references unknown edge 'zz'",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INSTANCES))
def test_a_bad_instance_is_a_one_line_usage_error(tmp_path, capsys, case):
    document, message = BAD_INSTANCES[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out, err) == (2, "", f"error: bad instance: {message}\n")


def test_a_negative_bound_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["boundary", str(instance_path("a")), "--bound=-1,2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error:") == 1
    assert err.endswith("error: argument --bound: bad degree '-1,2': negative degree coordinate in (-1, 2)\n")


def test_an_unknown_edge_in_a_path_literal_is_a_usage_error(capsys):
    code, out, err = run(capsys, "lambda-min", str(instance_path("a")), "--left", "b,zz", "--right", "r")
    assert (code, out, err) == (2, "", "error: 'zz' is neither a vertex nor an edge id\n")


VERIFY_B_TEXT = [
    "full.convolution_associativity: pass (max deviation 3.972e-15)",
    "full.convolution_distributive: pass (max deviation 3.553e-15)",
    "full.involution_antimultiplicative: pass (max deviation 0.000e+00)",
    "full.i_norm_submultiplicative: pass (max deviation 0.000e+00)",
    "full.regular_representation_multiplicative: pass (max deviation 9.930e-16)",
    "full.regular_representation_adjoint: pass (max deviation 0.000e+00)",
    "full.gauge_automorphism: pass (max deviation 1.986e-15)",
    "full.gauge_grading: pass (max deviation 0.000e+00)",
    "full.gauge_scales_generators: pass (max deviation 0.000e+00)",
    "full.toeplitz_inner_product: pass (max deviation 0.000e+00)",
    "full.toeplitz_left_action: pass (max deviation 0.000e+00)",
    "boundary.convolution_associativity: pass (max deviation 3.972e-15)",
    "boundary.convolution_distributive: pass (max deviation 1.986e-15)",
    "boundary.involution_antimultiplicative: pass (max deviation 0.000e+00)",
    "boundary.i_norm_submultiplicative: pass (max deviation 0.000e+00)",
    "boundary.regular_representation_multiplicative: pass (max deviation 9.930e-16)",
    "boundary.regular_representation_adjoint: pass (max deviation 0.000e+00)",
    "boundary.gauge_automorphism: pass (max deviation 1.790e-15)",
    "boundary.gauge_grading: pass (max deviation 0.000e+00)",
    "boundary.gauge_scales_generators: pass (max deviation 0.000e+00)",
    "boundary.toeplitz_inner_product: pass (max deviation 0.000e+00)",
    "boundary.toeplitz_left_action: pass (max deviation 0.000e+00)",
    "boundary.cuntz_krieger: pass (max deviation 0.000e+00)",
    "full.quotient_multiplicative: pass (max deviation 0.000e+00)",
    "overall: pass",
]


def test_verify_text_lines_are_pinned(capsys):
    code, out, err = run(capsys, "verify", str(instance_path("b")), "--format", "text")
    assert (code, err) == (0, "")
    assert out.splitlines() == VERIFY_B_TEXT and out.endswith("\n")


def test_verify_text_lines_of_a_failing_run_are_pinned(capsys):
    """At tol 1e-300 every nonzero deviation fails; the zero-tolerance identities pass at 0."""
    code, out, err = run(capsys, "verify", str(instance_path("b")), "--format", "text", "--tol", "1e-300")
    assert (code, err) == (1, "")
    zero = [line.endswith("(max deviation 0.000e+00)") for line in VERIFY_B_TEXT]
    failing = [line if ok else line.replace(": pass", ": FAIL") for line, ok in zip(VERIFY_B_TEXT, zero)]
    assert out.splitlines() == failing and failing[-1] == "overall: FAIL"
    assert sum(": FAIL" in line for line in failing) == 9
