"""Command-line front end: load instances, run checks, emit reports.

Exit codes: 0 all checks passed, 1 a validation or verification failed,
2 usage or I/O trouble.  JSON output is deterministic for a fixed
(instance, options, seed) triple.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace

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
    validate,
)


@dataclass
class RunConfig:
    instance: str
    bound: Degree | None = None
    samples: int = 100
    tolerance: float = 1e-9
    seed: int = 0
    format: str = "json"
    out: str | None = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


def _parse_degree(text: str) -> Degree:
    try:
        return Degree(tuple(int(c) for c in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad degree {text!r}: {exc}") from exc


def _load(config: RunConfig) -> Skeleton:
    from .skeleton import load_skeleton

    with open(config.instance, encoding="utf-8") as fh:
        return load_skeleton(fh.read())


def _emit(config: RunConfig, payload, text_lines=None) -> None:
    if config.format == "json" or text_lines is None:
        rendered = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        rendered = "\n".join(text_lines) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def _load_valid(config: RunConfig) -> Skeleton | None:
    """The instance, or None once its validation failures are emitted."""
    sk = _load(config)
    squares, hexagons = validate(sk)
    if squares.passed and hexagons.passed:
        return sk
    failures = {"squares": squares.to_json(), "associativity": hexagons.to_json()}
    _emit(config, {"error": "instance fails validation", **failures})
    return None


def _parse_path(sk: Skeleton, text: str) -> pth.Path:
    """A path literal: a vertex id, or comma-separated edge ids."""
    if text in sk.vertex_ids:
        return pth.vertex_path(sk, text)
    word = [tok.strip() for tok in text.split(",")]
    for tok in word:
        if tok not in sk.edge_by_id:
            raise ValueError(f"{tok!r} is neither a vertex nor an edge id")
    return pth.path_from_word(sk, word)


def cmd_validate(config: RunConfig) -> int:
    sk = _load(config)
    squares, hexagons = validate(sk)
    payload = {
        "instance": config.instance,
        "squares": squares.to_json(),
        "associativity": hexagons.to_json(),
        "acyclic": is_acyclic(sk),
    }
    ok = squares.passed and hexagons.passed
    lines = [
        f"squares: {'pass' if squares.passed else 'FAIL'} ({len(squares.failures)} failures)",
        f"associativity: {'pass' if hexagons.passed else 'FAIL'} ({len(hexagons.failures)} failures)",
    ]
    for report in (squares, hexagons):
        for f in report.failures:
            lines.append(f"  {f.kind}: {' '.join(f.items)} {f.message}")
    _emit(config, payload, lines)
    return 0 if ok else 1


def cmd_paths(config: RunConfig, degree: Degree, vertex: str | None) -> int:
    if (sk := _load_valid(config)) is None:
        return 1
    found = (
        pth.paths_from(sk, vertex, degree) if vertex else pth.all_paths(sk, degree)
    )
    payload = {"degree": list(degree.coords), "paths": [p.to_json() for p in found]}
    _emit(config, payload, [json.dumps(p.to_json(), sort_keys=True) for p in found])
    return 0


def cmd_lambda_min(config: RunConfig, left: str, right: str) -> int:
    if (sk := _load_valid(config)) is None:
        return 1
    a, b = _parse_path(sk, left), _parse_path(sk, right)
    pairs = pth.minimal_extension_pairs(sk, a, b)
    payload = {
        "left": a.to_json(),
        "right": b.to_json(),
        "pairs": [[p.alpha.to_json(), p.beta.to_json()] for p in pairs],
    }
    _emit(config, payload)
    return 0


def cmd_exhaustive(
    config: RunConfig, vertex: str, members: str | None, minimal: bool
) -> int:
    if (sk := _load_valid(config)) is None:
        return 1
    if minimal:
        sets = bnd.minimal_exhaustive_sets(sk, vertex)
        payload = {
            "vertex": vertex,
            "minimal_exhaustive_sets": [
                [p.to_json() for p in s.members] for s in sets
            ],
        }
        _emit(config, payload)
        return 0
    if members is None:
        raise ValueError("--members is required unless --minimal is given")
    member_paths = [
        _parse_path(sk, tok) for tok in members.split(";") if tok.strip()
    ]
    result = bnd.is_exhaustive(sk, vertex, member_paths, bound=config.bound)
    payload = {
        "vertex": vertex,
        "status": result.status,
        "witness": None if result.witness is None else result.witness.to_json(),
        "bound": None if result.bound is None else list(result.bound.coords),
    }
    _emit(config, payload)
    return 0 if result.status != "not_exhaustive" else 1


def cmd_boundary(config: RunConfig) -> int:
    if (sk := _load_valid(config)) is None:
        return 1
    space = bnd.enumerate_path_space(sk, bound=config.bound)
    if space.is_exact:
        payload = bnd.boundary_report(space)
        lines = None
        if config.format == "text":
            lines = [f"vertex classes: regular={list(payload['classification']['regular'])}"]
            for member in payload["elements"]:
                path = json.dumps(member["element"]["prefixes"][-1][1], sort_keys=True)
                lines.append(f"  {path}: {'boundary' if member['boundary'] else 'interior'}")
            lines.append(f"boundary size: {payload['boundary_size']}")
        _emit(config, payload, lines)
        return 0
    payload = {
        "classification": bnd.classify_vertices(sk).to_json(),
        "mode": "truncated",
        "bound": list(config.bound.coords),
        "elements": [el.to_json(sk) for el in space.elements],
        "boundary_size": None,
        "note": "boundary membership is undecided at a truncation bound",
    }
    _emit(config, payload)
    return 0


def cmd_groupoid(config: RunConfig, boundary_only: bool) -> int:
    if (sk := _load_valid(config)) is None:
        return 1
    space = bnd.enumerate_path_space(sk, bound=config.bound)
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
                "isotropy": {
                    str(u): len(gpd.isotropy(G, u)) for u in G.units()
                },
                "groupoid": (Gb if boundary_only else G).to_json(),
            }
        )
    else:
        payload["groupoid"] = G.to_json()
        payload["note"] = "truncated build: element list is not complete"
    _emit(config, payload)
    return 0 if reports_ok else 1


def cmd_verify(config: RunConfig) -> int:
    if (sk := _load_valid(config)) is None:
        return 1
    space = bnd.enumerate_path_space(sk)
    G = gpd.build_path_groupoid(space)
    Gb = gpd.build_boundary_groupoid(space)
    samples, tol, seed = config.samples, config.tolerance, config.seed
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
    lines = [
        f"{r.identity}: {'pass' if r.passed else 'FAIL'} (max deviation {r.max_deviation:.3e})"
        for r in reports
    ]
    lines.append(f"overall: {'pass' if ok else 'FAIL'}")
    _emit(config, payload, lines)
    return 0 if ok else 1


def _tag(report: alg.RelationReport, groupoid_name: str) -> alg.RelationReport:
    return replace(report, identity=f"{groupoid_name}.{report.identity}")


def cmd_export(config: RunConfig) -> int:
    sk = _load(config)
    rendered = export_dot(sk)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgraphs",
        description="Validate, explore, and verify finite higher-rank graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("--bound", type=_parse_degree, default=None,
                       help="truncation bound, e.g. 2,2")
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write output to a file")

    common(sub.add_parser("validate", help="check squares and associativity"))
    p_paths = sub.add_parser("paths", help="list paths of a degree")
    common(p_paths)
    p_paths.add_argument("--degree", type=_parse_degree, required=True)
    p_paths.add_argument("--vertex", default=None)
    p_lmin = sub.add_parser("lambda-min", help="minimal common extension pairs")
    common(p_lmin)
    p_lmin.add_argument("--left", required=True, help="path literal")
    p_lmin.add_argument("--right", required=True, help="path literal")
    p_ex = sub.add_parser("exhaustive", help="exhaustiveness of a path set")
    common(p_ex)
    p_ex.add_argument("--vertex", required=True)
    p_ex.add_argument("--members", default=None, help="semicolon-separated path literals")
    p_ex.add_argument("--minimal", action="store_true", help="list minimal exhaustive sets")
    common(sub.add_parser("boundary", help="boundary-path listing"))
    p_gpd = sub.add_parser("groupoid", help="build and verify the path groupoid")
    common(p_gpd)
    p_gpd.add_argument("--boundary", action="store_true", help="emit the boundary groupoid")
    common(sub.add_parser("verify", help="run the algebra verification suites"))
    common(sub.add_parser("export", help="emit DOT"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        instance=args.instance,
        bound=args.bound,
        samples=args.samples,
        tolerance=args.tol,
        seed=args.seed,
        format=args.format,
        out=args.out,
    )
    try:
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "paths":
            return cmd_paths(config, args.degree, args.vertex)
        if args.command == "lambda-min":
            return cmd_lambda_min(config, args.left, args.right)
        if args.command == "exhaustive":
            return cmd_exhaustive(config, args.vertex, args.members, args.minimal)
        if args.command == "boundary":
            return cmd_boundary(config)
        if args.command == "groupoid":
            return cmd_groupoid(config, args.boundary)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "export":
            return cmd_export(config)
        parser.error(f"unknown command {args.command!r}")
    except SkeletonFormatError as exc:
        print(f"error: bad instance: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ExactModeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
