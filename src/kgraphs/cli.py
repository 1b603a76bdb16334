"""Command-line front end: load instances, run checks, emit reports.

Every subcommand takes an instance file and only the options it reads:

    validate    --format --out
    paths       --degree --vertex --format --out
    lambda-min  --left --right --out
    exhaustive  --vertex --members --minimal --bound --out
    boundary    --bound --format --out
    groupoid    --bound --boundary --out
    verify      --samples --tol --seed --format --out
    export      --out

Any other option is a usage error.  Exit codes: 0 all checks passed, 1 a
validation or verification failed, 2 usage or I/O trouble.  JSON output is
deterministic for a fixed (instance, options, seed) triple; `kgraphs.indent`
tells how it is written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import replace
from functools import cache

from . import algebra as alg
from . import boundary as bnd
from . import groupoid as gpd
from . import paths as pth
from .skeleton import (
    Degree,
    ExactModeError,
    Skeleton,
    SkeletonFormatError,
    export_dot,
    is_acyclic,
    load_skeleton,
    validate,
)


def _parse_degree(text: str) -> Degree:
    try:
        return Degree(tuple(int(c) for c in text.split(",")))
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad degree {text!r}: {exc}") from exc


def _sample_count(text: str) -> int:
    if (samples := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"samples must be at least 1, got {samples}")
    return samples


def _tolerance(text: str) -> float:
    if not (math.isfinite(tol := float(text)) and tol > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return tol


def _load(args: argparse.Namespace) -> Skeleton:
    with open(args.instance, encoding="utf-8") as fh:
        return load_skeleton(fh.read())


def _write(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ": "), check_circular=False)
# Characters of compact text re-indented at a time (see `indent`), and list items encoded at a time.
_BLOCK, _SLICE = 16 * 1024, 256


def _compact(value) -> str:
    """`_COMPACT.encode(value)` by dict item and list slice: the C encoder keeps its pieces to the end."""
    if isinstance(value, dict) and all(type(k) is str for k in value):
        return "{" + ",".join(f"{_COMPACT.encode(k)}: {_compact(value[k])}" for k in sorted(value)) + "}"
    if isinstance(value, list) and len(value) > _SLICE:
        return "[" + ",".join(_compact(value[i:i + _SLICE])[1:-1] for i in range(0, len(value), _SLICE)) + "]"
    return _COMPACT.encode(value)


def _json_chunks(payload) -> Iterable[str]:
    """`json.dumps(payload, sort_keys=True, indent=2) + "\n"` in pieces, encoded before the first is
    read, so it raises before anything is written (as `json.dumps`, or `RecursionError` if circular)."""
    compact = _compact(payload)
    if len(compact) <= _BLOCK:
        return json.dumps(payload, sort_keys=True, indent=2), "\n"
    # Imported here: where bytecode is not cached, compiling the module at
    # import raised the peak RSS of runs that write only short reports.
    from .indent import indent_blocks

    return indent_blocks(compact, _BLOCK)


def _emit(args: argparse.Namespace, payload, text_lines=None) -> None:
    """Write the payload as JSON, or under `--format text` the lines `text_lines()` yields."""
    if text_lines is None or args.format == "json":
        _write(args, _json_chunks(payload))
    else:
        _write(args, ("\n".join(text_lines()) + "\n",))


def _load_valid(args: argparse.Namespace) -> Skeleton | None:
    """The instance, or None once its validation failures are emitted."""
    sk = _load(args)
    squares, hexagons = validate(sk)
    if squares.passed and hexagons.passed:
        return sk
    failures = {"squares": squares.to_json(), "associativity": hexagons.to_json()}
    _emit(args, {"error": "instance fails validation", **failures})
    return None


def _parse_path(sk: Skeleton, text: str) -> pth.Path:
    """A path literal: a vertex id, or comma-separated edge ids."""
    if (text := text.strip()) in sk.vertex_ids:
        return pth.vertex_path(sk, text)
    word = [tok.strip() for tok in text.split(",")]
    for tok in word:
        if tok not in sk.edge_by_id:
            raise ValueError(f"{tok!r} is neither a vertex nor an edge id")
    return pth.path_from_word(sk, word)


def cmd_validate(args: argparse.Namespace) -> int:
    sk = _load(args)
    squares, hexagons = validate(sk)
    payload = {
        "instance": args.instance,
        "squares": squares.to_json(),
        "associativity": hexagons.to_json(),
        "acyclic": is_acyclic(sk),
    }

    def lines():
        for name, report in (("squares", squares), ("associativity", hexagons)):
            yield f"{name}: {'pass' if report.passed else 'FAIL'} ({len(report.failures)} failures)"
        for report in (squares, hexagons):
            for f in report.failures:
                yield f"  {f.kind}: {' '.join(f.items)} {f.message}"

    _emit(args, payload, lines)
    return 0 if squares.passed and hexagons.passed else 1


def cmd_paths(args: argparse.Namespace) -> int:
    if (sk := _load_valid(args)) is None:
        return 1
    degree = args.degree
    found = (
        pth.paths_from(sk, args.vertex, degree) if args.vertex else pth.all_paths(sk, degree)
    )
    payload = {"degree": list(degree.coords), "paths": [p.to_json() for p in found]}
    _emit(args, payload, lambda: (json.dumps(p, sort_keys=True) for p in payload["paths"]))
    return 0


def cmd_lambda_min(args: argparse.Namespace) -> int:
    if (sk := _load_valid(args)) is None:
        return 1
    a, b = _parse_path(sk, args.left), _parse_path(sk, args.right)
    pairs = pth.minimal_extension_pairs(sk, a, b)
    payload = {
        "left": a.to_json(),
        "right": b.to_json(),
        "pairs": [[p.alpha.to_json(), p.beta.to_json()] for p in pairs],
    }
    _emit(args, payload)
    return 0


def cmd_exhaustive(args: argparse.Namespace) -> int:
    vertex, members = args.vertex, args.members
    if args.minimal and (members is not None or args.bound is not None):
        raise ValueError("--minimal lists the sets at a finite vertex: it takes no --members or --bound")
    if not args.minimal and members is None:
        raise ValueError("--members is required unless --minimal is given")
    if (sk := _load_valid(args)) is None:
        return 1
    if args.minimal:
        sets = bnd.minimal_exhaustive_sets(sk, vertex)
        payload = {
            "vertex": vertex,
            "minimal_exhaustive_sets": [
                [p.to_json() for p in s.members] for s in sets
            ],
        }
        _emit(args, payload)
        return 0
    member_paths = [
        _parse_path(sk, tok) for tok in members.split(";") if tok.strip()
    ]
    result = bnd.is_exhaustive(sk, vertex, member_paths, bound=args.bound)
    payload = {
        "vertex": vertex,
        "status": result.status,
        "witness": None if result.witness is None else result.witness.to_json(),
        "bound": None if result.bound is None else list(result.bound.coords),
    }
    _emit(args, payload)
    return 0 if result.status != "not_exhaustive" else 1


def cmd_boundary(args: argparse.Namespace) -> int:
    if args.bound is not None and args.format == "text":
        raise ValueError("a truncated listing is written as JSON only: --bound takes no --format text")
    if (sk := _load_valid(args)) is None:
        return 1
    space = bnd.enumerate_path_space(sk, bound=args.bound)
    from .boundary_text import boundary_chunks, boundary_lines  # imported here, as in `_json_chunks`
    _write(args, boundary_lines(space) if args.format == "text" else boundary_chunks(space, args.bound))
    return 0


def cmd_groupoid(args: argparse.Namespace) -> int:
    if args.boundary and args.bound is not None:
        raise ValueError("the boundary groupoid needs an exact space: --boundary takes no --bound")
    if (sk := _load_valid(args)) is None:
        return 1
    space = bnd.enumerate_path_space(sk, bound=args.bound)
    G = gpd.build_path_groupoid(space)
    payload: dict = {"path_groupoid_size": len(G), "complete": G.complete}
    reports_ok = True
    if space.is_exact:
        Gb = gpd.build_boundary_groupoid(space)
        axioms = gpd.verify_groupoid_axioms(G)
        etale = gpd.verify_etale(G)
        reports_ok = axioms.passed and etale.passed
        payload.update(
            {
                "boundary_groupoid_size": len(Gb),
                "axioms": axioms.to_json(),
                "etale": etale.to_json(),
                "orbits": [list(o) for o in gpd.orbits(G)],
                "isotropy": {str(u): 1 for u in G.units()},  # (u, m, u) is (u, 0, u) alone
                "groupoid": (Gb if args.boundary else G).to_json(),
            }
        )
    else:
        payload["groupoid"] = G.to_json()
        payload["note"] = "truncated build: element list is not complete"
    del space, G  # freed before encoding: `tree-grid-torus` peaks 0.6 MB higher without it
    _emit(args, payload)
    return 0 if reports_ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    if (sk := _load_valid(args)) is None:
        return 1
    space = bnd.enumerate_path_space(sk)
    G = gpd.build_path_groupoid(space)
    Gb = gpd.build_boundary_groupoid(space)
    samples, tol, seed = args.samples, args.tol, args.seed
    reports: list[alg.RelationReport] = []
    for name, groupoid_obj in (("full", G), ("boundary", Gb)):
        for rep in alg.verify_algebra_identities(groupoid_obj, samples, tol, seed):
            reports.append(_tag(rep, name))
        for rep in alg.verify_gauge_action(groupoid_obj, samples, tol, seed):
            reports.append(_tag(rep, name))
        if sk.rank == 1:
            for rep in alg.verify_toeplitz_identities(groupoid_obj, samples, tol, seed):
                reports.append(_tag(rep, name))
    if sk.rank == 1:
        reports.append(_tag(alg.verify_cuntz_krieger(Gb, samples, tol, seed), "boundary"))
    reports.append(_tag(alg.verify_quotient(G, Gb, samples, seed), "full"))
    payload: dict = {
        "groupoid_sizes": {"full": len(G), "boundary": len(Gb)},
        "reports": [r.to_json() for r in reports],
    }
    dims_ok = True
    if sk.rank == 1:
        gen_full = alg.generation_check(G)
        gen_boundary = alg.generation_check(Gb)
        payload["generation"] = {
            "full": gen_full.to_json(),
            "boundary": gen_boundary.to_json(),
        }
        dims_ok = gen_full.passed and gen_boundary.passed
    ok = all(r.passed for r in reports) and dims_ok
    payload["passed"] = ok

    def lines():
        for r in reports:
            yield f"{r.identity}: {'pass' if r.passed else 'FAIL'} (max deviation {r.max_deviation:.3e})"
        yield f"overall: {'pass' if ok else 'FAIL'}"

    _emit(args, payload, lines)
    return 0 if ok else 1


def _tag(report: alg.RelationReport, groupoid_name: str) -> alg.RelationReport:
    return replace(report, identity=f"{groupoid_name}.{report.identity}")


def cmd_export(args: argparse.Namespace) -> int:
    _write(args, (export_dot(_load(args)),))
    return 0


@cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgraphs",
        description="Validate, explore, and verify finite higher-rank graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--bound": {"type": _parse_degree, "default": None, "help": "truncation bound, e.g. 2,2"},
        "--samples": {"type": _sample_count, "default": alg.DEFAULT_SAMPLES},
        "--tol": {"type": _tolerance, "default": alg.DEFAULT_TOL},
        "--seed": {"type": int, "default": alg.DEFAULT_SEED},
        "--format": {"choices": ("json", "text"), "default": "json"},
    }

    def command(name: str, run, about: str, *options: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=run)
        p.add_argument("instance", help="instance JSON file")
        for option in options:
            p.add_argument(option, **shared[option])
        p.add_argument("--out", default=None, help="write output to a file")
        return p

    command("validate", cmd_validate, "check squares and associativity", "--format")
    p_paths = command("paths", cmd_paths, "list paths of a degree", "--format")
    p_paths.add_argument("--degree", type=_parse_degree, required=True)
    p_paths.add_argument("--vertex", default=None)
    p_lmin = command("lambda-min", cmd_lambda_min, "minimal common extension pairs")
    p_lmin.add_argument("--left", required=True, help="path literal")
    p_lmin.add_argument("--right", required=True, help="path literal")
    p_ex = command("exhaustive", cmd_exhaustive, "exhaustiveness of a path set", "--bound")
    p_ex.add_argument("--vertex", required=True)
    p_ex.add_argument("--members", default=None, help="semicolon-separated path literals")
    p_ex.add_argument("--minimal", action="store_true", help="list minimal exhaustive sets")
    command("boundary", cmd_boundary, "boundary-path listing", "--bound", "--format")
    p_gpd = command("groupoid", cmd_groupoid, "build and verify the path groupoid", "--bound")
    p_gpd.add_argument("--boundary", action="store_true", help="emit the boundary groupoid")
    command(
        "verify", cmd_verify, "run the algebra verification suites",
        "--samples", "--tol", "--seed", "--format",
    )
    command("export", cmd_export, "emit DOT")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SkeletonFormatError as exc:
        print(f"error: bad instance: {exc}", file=sys.stderr)
        return 2
    except (OSError, ExactModeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
