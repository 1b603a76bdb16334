"""Data model and axiom checks for finitely presented rank-k graphs.

A rank-k graph is presented by a k-colored directed multigraph (the
1-skeleton) together with factorization squares: for every composable pair
of edges of distinct colors, exactly one rule records how to traverse the
same two-colored path in the opposite color order.  Completeness of the
squares gives unique factorization at mixed degree 2; coherence of the
squares on three-colored triples (the hexagon condition) extends it to all
degrees.  This module loads presentations and validates both conditions by
enumeration: one count of the square sides, one pass over the composable
pairs.  One table, `Skeleton.cycle_colors`, built by one pass of Tarjan's
strongly-connected-component algorithm, records which colors can grow
forever from each vertex; acyclicity, exact mode and the truncated markers
all read it.  DOT export remains.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator

MAX_COORD = 2**31 - 1
SQUARE_KEYS = ("first", "second", "swapped_first", "swapped_second")


class SkeletonFormatError(ValueError):
    """The document cannot be read as a structurally valid skeleton."""


class ExactModeError(RuntimeError):
    """An exact enumeration was requested where only truncation is possible."""


@dataclass(frozen=True)
class Degree:
    """A shape vector in N^k, partially ordered coordinatewise.

    `<=` is the coordinatewise partial order (two degrees may be
    incomparable); sums and joins/meets are always defined, differences only
    for comparable arguments.  Coordinates are capped at 32 bits.
    """

    coords: tuple[int, ...]

    def __post_init__(self):
        coords = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if not coords:
            raise ValueError("degree needs at least one coordinate")
        for c in coords:
            if c < 0:
                raise ValueError(f"negative degree coordinate in {coords}")
            if c > MAX_COORD:
                raise OverflowError(f"degree coordinate out of 32-bit range in {coords}")

    @classmethod
    def zero(cls, k: int) -> Degree:
        return cls((0,) * k)

    @classmethod
    def basis(cls, k: int, color: int) -> Degree:
        if not 1 <= color <= k:
            raise ValueError(f"color {color} out of range 1..{k}")
        return cls(tuple(1 if c == color else 0 for c in range(1, k + 1)))

    @property
    def k(self) -> int:
        return len(self.coords)

    @property
    def total(self) -> int:
        return sum(self.coords)

    def __le__(self, other: Degree) -> bool:
        return all(a <= b for a, b in zip(self.coords, other.coords, strict=True))

    def __ge__(self, other: Degree) -> bool:
        return other <= self

    def __add__(self, other: Degree) -> Degree:
        return Degree(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: Degree) -> Degree:
        if not other <= self:
            raise ValueError(f"difference {self.coords} - {other.coords} undefined")
        return Degree(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def join(self, other: Degree) -> Degree:
        return Degree(tuple(max(a, b) for a, b in zip(self.coords, other.coords, strict=True)))

    def meet(self, other: Degree) -> Degree:
        return Degree(tuple(min(a, b) for a, b in zip(self.coords, other.coords, strict=True)))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.coords)) + ")"


def degree_box(bound: Degree) -> Iterator[Degree]:
    """All degrees <= bound, in lexicographic order."""
    for coords in product(*(range(c + 1) for c in bound.coords)):
        yield Degree(coords)


@dataclass(frozen=True)
class Vertex:
    id: str


@dataclass(frozen=True)
class Edge:
    id: str
    color: int
    range: str
    source: str


@dataclass(frozen=True)
class FactorizationRule:
    """first.second = swapped_first.swapped_second, read left to right.

    In a two-letter word g.h the range of the word is r(g) and composability
    means s(g) = r(h).  Canonical storage orients color(first) < color(second).
    """

    first: str
    second: str
    swapped_first: str
    swapped_second: str


@dataclass(frozen=True)
class Skeleton:
    """A k-colored multigraph with factorization squares."""

    rank: int
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    rules: tuple[FactorizationRule, ...]

    @cached_property
    def vertex_ids(self) -> frozenset[str]:
        return frozenset(v.id for v in self.vertices)

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def edges_by_range(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            out[e.range].append(e)
        return {v: tuple(sorted(es, key=lambda e: e.id)) for v, es in out.items()}

    @cached_property
    def edges_by_source(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            out[e.source].append(e)
        return {v: tuple(sorted(es, key=lambda e: e.id)) for v, es in out.items()}

    @cached_property
    def swap_map(self) -> dict[tuple[str, str], tuple[str, str]]:
        """Word rewriting table: (a, b) -> (c, d) meaning a.b = c.d, both directions."""
        table: dict[tuple[str, str], tuple[str, str]] = {}
        for rule in self.rules:
            table[(rule.first, rule.second)] = (rule.swapped_first, rule.swapped_second)
            table[(rule.swapped_first, rule.swapped_second)] = (rule.first, rule.second)
        return table

    @cached_property
    def cycle_colors(self) -> dict[str, frozenset[int]]:
        """Colors of the cycle edges that range-to-source walks from each vertex reach.

        One iterative pass of Tarjan's strongly-connected-component algorithm,
        O(V + E).  An edge lies on a cycle iff its ends share a component, and
        a component closes after every component it steps to: its set is its
        own edges' colors joined with theirs.
        """
        number: dict[str, int] = {}
        low: dict[str, int] = {}
        at: dict[str, int] = {}  # stack position of each vertex still on the stack
        stack: list[str] = []
        work: list[tuple[str, Iterator[Edge]]] = []  # the walk's frames: vertex, edges left
        out: dict[str, frozenset[int]] = {}

        def push(v: str) -> None:
            number[v] = low[v] = len(number)
            at[v] = len(stack)
            stack.append(v)
            work.append((v, iter(self.edges_by_range[v])))

        for root in self.vertices:
            if root.id not in number:
                push(root.id)
            while work:
                v, steps = work[-1]
                for e in steps:
                    if e.source not in number:
                        push(e.source)
                        break
                    if e.source in at:
                        low[v] = min(low[v], number[e.source])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[v])
                    if low[v] == number[v]:
                        # v roots the component stack[at[v]:], exactly the edge ends still in `at`.
                        component = stack[at[v] :]
                        del stack[at[v] :]
                        colors: set[int] = set()
                        for w in component:
                            for e in self.edges_by_range[w]:
                                if e.source in at:
                                    colors.add(e.color)
                                else:
                                    colors |= out[e.source]
                        for w in component:
                            del at[w]
                        out.update(dict.fromkeys(component, frozenset(colors)))
        return out

    def color_of(self, edge_id: str) -> int:
        return self.edge_by_id[edge_id].color


@dataclass(frozen=True)
class Failure:
    kind: str
    items: tuple[str, ...]
    message: str = ""

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "items": list(self.items)}
        if self.message:
            out["message"] = self.message
        return out


@dataclass(frozen=True)
class ValidationReport:
    check: str
    passed: bool
    failures: tuple[Failure, ...]

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "failures": [f.to_json() for f in self.failures],
        }


def _check_items(key: str, items, fields: dict[str, type]) -> None:
    """Raise unless items is a list of objects holding each field at exactly its type."""
    if not isinstance(items, list):
        raise SkeletonFormatError(f"{key} must be a list, got {items!r}")
    for n, item in enumerate(items):
        if not isinstance(item, dict):
            raise SkeletonFormatError(f"{key}[{n}] must be an object, got {item!r}")
        for name, kind in fields.items():
            if name not in item:
                raise SkeletonFormatError(f"{key}[{n}] is missing key {name!r}")
            if type(item[name]) is not kind:
                raise SkeletonFormatError(
                    f"{key}[{n}].{name} must be {kind.__name__}, got {item[name]!r}"
                )


def load_skeleton(document: str | dict) -> Skeleton:
    """Parse a skeleton document (JSON text or an equivalent dict).

    Only structural validity is checked here: item shapes (string ids, int
    rank and colors, never bool), unique ids, colors in range, and no
    dangling references.  The k-graph axioms are the business of
    validate_squares / validate_associativity.
    """
    if isinstance(document, str):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SkeletonFormatError(f"not valid JSON: {exc}") from exc
    else:
        data = document
    if not isinstance(data, dict):
        raise SkeletonFormatError("document root must be an object")

    try:
        rank = data["rank"]
        raw_vertices = data["vertices"]
        raw_edges = data["edges"]
        raw_squares = data.get("squares", [])
    except KeyError as exc:
        raise SkeletonFormatError(f"missing key {exc.args[0]!r}") from exc
    if type(rank) is not int or rank < 1:
        raise SkeletonFormatError(f"rank must be a positive integer, got {rank!r}")
    _check_items("vertices", raw_vertices, {"id": str})
    _check_items("edges", raw_edges, {"id": str, "color": int, "range": str, "source": str})
    _check_items("squares", raw_squares, dict.fromkeys(SQUARE_KEYS, str))

    vertices = []
    seen_v: set[str] = set()
    for item in raw_vertices:
        vid = item["id"]
        if vid in seen_v:
            raise SkeletonFormatError(f"duplicate vertex id {vid!r}")
        seen_v.add(vid)
        vertices.append(Vertex(vid))

    edges = []
    seen_e: set[str] = set()
    for item in raw_edges:
        eid, color = item["id"], item["color"]
        if eid in seen_e:
            raise SkeletonFormatError(f"duplicate edge id {eid!r}")
        seen_e.add(eid)
        if not 1 <= color <= rank:
            raise SkeletonFormatError(f"edge {eid!r}: color {color!r} out of range 1..{rank}")
        for endpoint in ("range", "source"):
            if item[endpoint] not in seen_v:
                raise SkeletonFormatError(
                    f"edge {eid!r}: {endpoint} references unknown vertex {item[endpoint]!r}"
                )
        edges.append(Edge(eid, color, item["range"], item["source"]))

    color = {e.id: e.color for e in edges}
    squares: set[FactorizationRule] = set()
    for item in raw_squares:
        ids = tuple(item[key] for key in SQUARE_KEYS)
        for eid in ids:
            if eid not in seen_e:
                raise SkeletonFormatError(f"square references unknown edge {eid!r}")
        rule = FactorizationRule(*ids)
        # Canonical orientation: color(first) < color(second) when the colors
        # allow it; malformed color patterns are kept and flagged by validation.
        if color[rule.first] > color[rule.second]:
            rule = FactorizationRule(
                rule.swapped_first, rule.swapped_second, rule.first, rule.second
            )
        squares.add(rule)

    return Skeleton(
        rank=rank,
        vertices=tuple(sorted(vertices, key=lambda v: v.id)),
        edges=tuple(sorted(edges, key=lambda e: e.id)),
        rules=tuple(sorted(squares, key=lambda r: (r.first, r.second))),
    )


def validate_squares(sk: Skeleton) -> ValidationReport:
    """Check that the factorization squares are complete and bijective.

    Passes iff every rule respects the colors and the range/source equations
    a square must satisfy, and every composable two-colored pair of edges is
    a side of exactly one such rule.  The sides are counted in one pass over
    the rules and the composable pairs enumerated in one pass over the edges;
    a well-formed rule's sides are composable, so no count is left over.
    """
    failures: list[Failure] = []
    sides: Counter[tuple[str, str]] = Counter()
    for rule in sk.rules:
        items = (rule.first, rule.second, rule.swapped_first, rule.swapped_second)
        f, s, sf, ss = (sk.edge_by_id[i] for i in items)
        if f.color == s.color or sf.color != s.color or ss.color != f.color:
            failures.append(
                Failure(
                    "invalid_colors",
                    items,
                    f"square must exchange two distinct colors, got "
                    f"({f.color},{s.color}) vs ({sf.color},{ss.color})",
                )
            )
        elif (f.source, sf.source, sf.range, ss.source) != (s.range, ss.range, f.range, s.source):
            failures.append(
                Failure("endpoint_mismatch", items, "square sides do not share range and source")
            )
        else:
            sides.update((items[:2], items[2:]))

    # Report order: by color pair i < j, the (i, j) pairs before the (j, i)
    # pairs, each side by edge ids.
    composable = sorted(
        (min(g.color, h.color), max(g.color, h.color), g.color > h.color, g.id, h.id)
        for g in sk.edges
        for h in sk.edges_by_range[g.source]
        if g.color != h.color
    )
    for *_, g, h in composable:
        pair = f"for the composable pair {g}.{h}"
        if (n := sides[g, h]) == 0:
            failures.append(Failure("missing_square", (g, h), f"no factorization {pair}"))
        elif n > 1:
            failures.append(Failure("duplicate_square", (g, h), f"{n} factorizations {pair}"))

    return ValidationReport("squares", not failures, tuple(failures))


def validate_associativity(sk: Skeleton) -> ValidationReport:
    """Check the hexagon condition on all three-colored composable triples.

    For every composable word g.h.f with three distinct colors, rewriting to
    any color order must be independent of the order in which adjacent
    transpositions are applied.  Vacuous for rank < 3.
    """
    failures: list[Failure] = []
    swap = sk.swap_map
    color = {e.id: e.color for e in sk.edges}

    def check_triple(word: tuple[str, str, str]) -> None:
        start = tuple(color[w] for w in word)
        assigned: dict[tuple[int, ...], tuple[str, str, str]] = {start: word}
        stack = [word]
        while stack:
            w = stack.pop()
            for t in (0, 1):
                pair = (w[t], w[t + 1])
                if pair not in swap:
                    failures.append(
                        Failure(
                            "missing_square",
                            pair,
                            "hexagon check hit an unfactorable pair",
                        )
                    )
                    continue
                a, b = swap[pair]
                w2 = (a, b, w[2]) if t == 0 else (w[0], a, b)
                key = tuple(color[x] for x in w2)
                if key in assigned:
                    if assigned[key] != w2:
                        failures.append(
                            Failure(
                                "hexagon_divergence",
                                word,
                                f"color order {key} reached as "
                                f"{'.'.join(assigned[key])} and as {'.'.join(w2)}",
                            )
                        )
                else:
                    assigned[key] = w2
                    stack.append(w2)

    for g in sk.edges:
        for h in sk.edges_by_range[g.source]:
            if h.color == g.color:
                continue
            for f in sk.edges_by_range[h.source]:
                if f.color in (g.color, h.color):
                    continue
                check_triple((g.id, h.id, f.id))

    return ValidationReport("associativity", not failures, tuple(failures))


def validate(sk: Skeleton) -> tuple[ValidationReport, ValidationReport]:
    squares = validate_squares(sk)
    hexagons = validate_associativity(sk)
    return squares, hexagons


def is_acyclic(sk: Skeleton) -> bool:
    """True iff the underlying directed multigraph has no directed cycle."""
    return not any(sk.cycle_colors.values())


def export_dot(sk: Skeleton) -> str:
    """Deterministic DOT rendering; edges drawn source -> range, labeled id:color."""
    lines = ["digraph skeleton {"]
    for v in sorted(sk.vertices, key=lambda v: v.id):
        lines.append(f'  "{v.id}";')
    for e in sorted(sk.edges, key=lambda e: e.id):
        lines.append(f'  "{e.source}" -> "{e.range}" [label="{e.id}:{e.color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
