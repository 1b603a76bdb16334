"""The path groupoid of an enumerated path space, and its boundary reduction.

Elements are triples (x, m, y): two space elements whose tails agree after
shifts differing by m in Z^k.  Finite paths share a tail exactly when they
share a source, so the elements pair up each source block, m = d(x) - d(y),
each with its least witnessing shift pair from the path space's
factorization table (`FinitePathSpace.factors`); equality ignores witnesses.
Composition is label arithmetic, (x, m, y)(y, n, z) = (x, m + n, z), looked
up in the label index; `by_range` lists the elements that can follow a
given one.  Since integer addition is associative, the axiom check needs
closure, units, inverses and distinct labels, never a walk over composable
triples.  The module also verifies, at finite scale, the structure that
makes the groupoid etale: cylinder sets cover it and the range and source
maps are injective on each cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import product
from operator import add, sub
from typing import Iterator

from .skeleton import Degree, ExactModeError
from . import paths as pth
from .paths import Path
from .boundary import FinitePathSpace, boundary_paths


@dataclass(frozen=True)
class GroupoidElement:
    """(x, m, y): x and y are space indices, m in Z^k; witness = (p, q)."""

    x: int
    m: tuple[int, ...]
    y: int
    witness: tuple[Degree, Degree] = field(compare=False)

    def label(self) -> tuple[int, tuple[int, ...], int]:
        return (self.x, self.m, self.y)


def composite_label(a: GroupoidElement, b: GroupoidElement) -> tuple[int, tuple[int, ...], int]:
    """(x, m, y)(y, n, z) = (x, m + n, z), for a composable pair."""
    return (a.x, tuple(map(add, a.m, b.m)), b.y)


class FiniteGroupoid:
    """An enumerated groupoid over a finite path space."""

    def __init__(self, space: FinitePathSpace, elements):
        self.space = space
        self.elements: tuple[GroupoidElement, ...] = tuple(
            sorted(elements, key=lambda g: g.label())
        )
        self._index: dict[tuple[int, tuple[int, ...], int], int] = {
            g.label(): i for i, g in enumerate(self.elements)
        }
        self.unit_index: dict[int, int] = {
            g.x: i for i, g in enumerate(self.elements) if g.x == g.y and not any(g.m)
        }

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def complete(self) -> bool:
        """Only an exact space shows every witness, so only there is the list whole."""
        return self.space.is_exact

    @property
    def rank(self) -> int:
        return self.space.skeleton.rank

    def index_of(self, label: tuple[int, tuple[int, ...], int]) -> int:
        return self._index[label]

    def __contains__(self, label: tuple[int, tuple[int, ...], int]) -> bool:
        return label in self._index

    def units(self) -> tuple[int, ...]:
        return tuple(sorted(self.unit_index))

    @cached_property
    def by_range(self) -> dict[int, list[int]]:
        """by_range[u] lists the indices of the elements (u, m, y), ascending."""
        out: dict[int, list[int]] = {}
        for i, g in enumerate(self.elements):
            out.setdefault(g.x, []).append(i)
        return out

    @cached_property
    def inverse(self) -> dict[int, int]:
        """inverse[a] is the index of a's inverse; a missing inverse has no key."""
        labels = ((i, (g.y, tuple(-c for c in g.m), g.x)) for i, g in enumerate(self.elements))
        return {i: self._index[label] for i, label in labels if label in self._index}

    def composites(self) -> Iterator[tuple[int, int, int | None]]:
        """(a, b, index of ab) over the composable pairs, ascending; None if ab is missing."""
        index, elements = self._index, self.elements
        for a, g in enumerate(elements):
            for b in self.by_range.get(g.y, ()):
                yield a, b, index.get(composite_label(g, elements[b]))

    def product(self, a: int, b: int) -> int:
        """Index of ab = (x, m+n, z): ValueError if not composable, KeyError if missing."""
        ga, gb = self.elements[a], self.elements[b]
        if ga.y != gb.x:
            raise ValueError(f"not composable: {ga.label()} then {gb.label()}")
        if (label := composite_label(ga, gb)) not in self._index:
            raise KeyError(f"composite of {ga.label()} and {gb.label()} missing")
        return self._index[label]

    def to_json(self) -> dict:
        orbit_of: dict[int, int] = {}
        for label, members in enumerate(orbits(self)):
            for u in members:
                orbit_of[u] = label
        return {
            "complete": self.complete,
            "elements": [
                {
                    "x": g.x,
                    "m": list(g.m),
                    "y": g.y,
                    "unit": g.x == g.y and not any(g.m),
                    "orbit": orbit_of[g.x],
                }
                for g in self.elements
            ],
            "units": [self.unit_index[u] for u in self.units()],
        }


def build_path_groupoid(space: FinitePathSpace) -> FiniteGroupoid:
    """Pair the elements of each source block as (x, d(x) - d(y), y).

    x and y have a common tail exactly when they have a common source (the
    tail at p = d(x)), so the groupoid is the same-source relation.  The
    witness is the lexicographically least p with equal tails of x at p and
    of y at p - m.  Only an exact space gives the whole groupoid (`complete`).
    """
    factors = space.factors
    blocks: dict[Path, list[int]] = {}
    for x, row in enumerate(factors):
        blocks.setdefault(row[space.elements[x].degree.coords][1], []).append(x)
    degree = cache(Degree)  # one Degree per distinct witness keeps the groupoid small
    elements = []
    for block in blocks.values():
        for x in block:
            dx = space.elements[x].degree.coords
            for y in block:
                m = tuple(map(sub, dx, space.elements[y].degree.coords))
                for p in product(*(range(max(c, 0), d + 1) for c, d in zip(m, dx))):
                    if factors[x][p][1] == factors[y][q := tuple(map(sub, p, m))][1]:
                        elements.append(GroupoidElement(x, m, y, witness=(degree(p), degree(q))))
                        break
    return FiniteGroupoid(space, elements)


def build_boundary_groupoid(space: FinitePathSpace) -> FiniteGroupoid:
    """The path groupoid restricted to boundary elements."""
    restricted = space if space.boundary_only else boundary_paths(space)
    return build_path_groupoid(restricted)


def invert_element(G: FiniteGroupoid, g: GroupoidElement) -> GroupoidElement:
    return G.elements[G.inverse[G.index_of(g.label())]]


def compose_elements(
    G: FiniteGroupoid, g1: GroupoidElement, g2: GroupoidElement
) -> GroupoidElement:
    """The composite (x, m+n, z) of (x, m, y) and (y, n, z)."""
    return G.elements[G.product(G.index_of(g1.label()), G.index_of(g2.label()))]


def cocycle(g: GroupoidElement) -> tuple[int, ...]:
    return g.m


def orbits(G: FiniteGroupoid) -> tuple[tuple[int, ...], ...]:
    """Partition of the unit space under the range/source relation."""
    parent = {u: u for u in range(len(G.space.elements))}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in G.elements:
        ra, rb = find(g.x), find(g.y)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for u in parent:
        groups.setdefault(find(u), []).append(u)
    return tuple(tuple(sorted(g)) for _, g in sorted(groups.items()))


def isotropy(G: FiniteGroupoid, unit: int) -> tuple[GroupoidElement, ...]:
    """All elements looping at the given unit (space index)."""
    return tuple(G.elements[i] for i in G.by_range.get(unit, ()) if G.elements[i].y == unit)


@dataclass(frozen=True)
class GroupoidReport:
    """Outcome of the axiom or the etale check: failure messages, if any."""

    passed: bool
    failures: tuple[str, ...]

    def to_json(self) -> dict:
        return {"passed": self.passed, "failures": list(self.failures)}


def verify_groupoid_axioms(G: FiniteGroupoid) -> GroupoidReport:
    """Closure, units, inverses, witness validity, and one element per label."""
    failures: list[str] = []
    factors = G.space.factors

    for u in range(len(G.space.elements)):
        if u not in G.unit_index:
            failures.append(f"missing unit at space index {u}")
    for i, g in enumerate(G.elements):
        p, q = g.witness
        xpath, ypath = G.space.elements[g.x].path, G.space.elements[g.y].path
        if (
            not p <= xpath.degree
            or not q <= ypath.degree
            or tuple(a - b for a, b in zip(p.coords, q.coords)) != g.m
            or factors[g.x][p.coords][1] != factors[g.y][q.coords][1]
        ):
            failures.append(f"invalid witness on {g.label()}")
        if i not in G.inverse:
            failures.append(f"inverse of {g.label()} missing")
        elif g.x not in G.unit_index or g.y not in G.unit_index:
            failures.append(f"unit for {g.label()} missing")

    for a, b, ab in G.composites():
        if ab is None:
            failures.append(f"composite of {G.elements[a].label()} and {G.elements[b].label()} missing")

    if not failures:
        # Products are label sums, so associativity and the inverse law hold
        # outright, and the unit law fails exactly where a label is repeated:
        # g.u and u.g are the element the index holds for g's label.
        for i, g in enumerate(G.elements):
            if G._index[g.label()] != i:
                failures.append(f"unit law fails at {g.label()}")
    return GroupoidReport(not failures, tuple(failures))


@dataclass(frozen=True)
class CylinderSet:
    """Z(lam, mu): elements (lam.x, d(lam)-d(mu), mu.x) over common tails x."""

    lam: Path
    mu: Path
    members: tuple[int, ...]


def cylinder(G: FiniteGroupoid, lam: Path, mu: Path) -> CylinderSet:
    """The elements (lam.z, d(lam)-d(mu), mu.z), looked up in the factorization table."""
    sk = G.space.skeleton
    at = pth.source(sk, lam)
    if at != pth.source(sk, mu):
        raise ValueError("cylinder needs paths with a common source")
    if not G.space.is_exact:
        raise ExactModeError("cylinders are only enumerable in exact mode")
    m = tuple(a - b for a, b in zip(lam.degree.coords, mu.degree.coords))
    joined = G.space.index_of_factors
    members = [
        G.index_of((joined[(lam, el.path)], m, joined[(mu, el.path)]))
        for el in G.space.elements
        if el.path.range == at
    ]
    return CylinderSet(lam, mu, tuple(sorted(members)))


def verify_etale(G: FiniteGroupoid) -> GroupoidReport:
    """Cylinders cover G, are bisections, and unit cylinders give the units.

    These are the finite shadows of the groupoid being etale: every element
    sits in a basic cylinder on which range and source are injective, and
    the unit space is the union of the vertex cylinders.
    """
    if not G.space.is_exact:
        raise ExactModeError("etale verification requires an exact space")
    sk = G.space.skeleton
    factors = G.space.factors
    failures: list[str] = []
    cylinders: dict[tuple[Path, Path], CylinderSet] = {}
    for i, g in enumerate(G.elements):
        p, q = g.witness
        lam_mu = (factors[g.x][p.coords][0], factors[g.y][q.coords][0])
        if lam_mu not in cylinders:
            cylinders[lam_mu] = cylinder(G, *lam_mu)
        if i not in cylinders[lam_mu].members:
            failures.append(f"element {g.label()} not covered by its witness cylinder")
    for (lam, mu), cyl in sorted(cylinders.items(), key=lambda kv: tuple(map(pth.path_sort_key, kv[0]))):
        ranges = [G.elements[i].x for i in cyl.members]
        sources = [G.elements[i].y for i in cyl.members]
        if len(set(ranges)) != len(ranges):
            failures.append(f"range map not injective on cylinder ({lam.to_json()}, {mu.to_json()})")
        if len(set(sources)) != len(sources):
            failures.append(f"source map not injective on cylinder ({lam.to_json()}, {mu.to_json()})")
    unit_union: set[int] = set()
    for v in sk.vertices:
        vp = pth.vertex_path(sk, v.id)
        if any(el.path.range == v.id for el in G.space.elements):
            unit_union.update((cylinders.get((vp, vp)) or cylinder(G, vp, vp)).members)
    if unit_union != set(G.unit_index.values()):
        failures.append("unit space differs from the union of vertex cylinders")
    return GroupoidReport(not failures, tuple(failures))
