"""The path groupoid of an enumerated path space, and its boundary reduction.

Elements are triples (x, m, y): two space elements whose tails agree after
shifts differing by m in Z^k, found by a join on the tails of the path
space's factorization table (`FinitePathSpace.factors`).  Each element stores
one witnessing shift pair; equality ignores witnesses.  Composition and
inversion live in `FiniteGroupoid` as one table, built on first use: each
element's successors in ascending order with their composites, and each
element's inverse.  The module also verifies, at finite scale, the structure
that makes the groupoid etale: cylinder sets cover it and the range and
source maps are injective on each cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    def successors(self) -> tuple[dict[int, int | None], ...]:
        """successors[a] maps each b with b.x == a.y, ascending, to the index of ab.

        A composite missing from a hand-built element list maps to None.
        """
        by_range: dict[int, list[int]] = {}
        for i, g in enumerate(self.elements):
            by_range.setdefault(g.x, []).append(i)
        table = []
        for a in self.elements:
            row: dict[int, int | None] = {}
            for ib in by_range.get(a.y, ()):
                b = self.elements[ib]
                row[ib] = self._index.get((a.x, tuple(p + q for p, q in zip(a.m, b.m)), b.y))
            table.append(row)
        return tuple(table)

    @cached_property
    def inverse(self) -> dict[int, int]:
        """inverse[a] is the index of a's inverse; a missing inverse has no key."""
        labels = ((i, (g.y, tuple(-c for c in g.m), g.x)) for i, g in enumerate(self.elements))
        return {i: self._index[label] for i, label in labels if label in self._index}

    def product(self, a: int, b: int) -> int:
        """Index of ab: ValueError if not composable, KeyError if recorded missing."""
        row = self.successors[a]
        if row.get(b) is not None:
            return row[b]
        la, lb = self.elements[a].label(), self.elements[b].label()
        if b in row:
            raise KeyError(f"composite of {la} and {lb} missing")
        raise ValueError(f"not composable: {la} then {lb}")

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
    """Enumerate all (x, p - q, y) with matching tails at shifts p, q.

    A join: each (x, p) is bucketed under its tail, pairs within a bucket are
    elements, and the least p is kept as the witness.  On an exact space this
    is the whole path groupoid.  On a truncated space only witnesses within
    the recorded prefixes are visible, so the result is not `complete`.
    """
    buckets: dict[Path, list[tuple[int, tuple[int, ...]]]] = {}
    for i, row in enumerate(space.factors):
        for p, (_, tail) in row.items():
            buckets.setdefault(tail, []).append((i, p))
    found: dict[tuple[int, tuple[int, ...], int], tuple] = {}
    for entries in buckets.values():
        for ix, p in entries:
            for iy, q in entries:
                label = (ix, tuple(a - b for a, b in zip(p, q)), iy)
                if label not in found or p < found[label][0]:
                    found[label] = (p, q)
    elements = [
        GroupoidElement(x, m, y, witness=(Degree(p), Degree(q)))
        for (x, m, y), (p, q) in found.items()
    ]
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
    return tuple(g for g in G.elements if g.x == unit and g.y == unit)


@dataclass(frozen=True)
class GroupoidReport:
    """Outcome of the axiom or the etale check: failure messages, if any."""

    passed: bool
    failures: tuple[str, ...]

    def to_json(self) -> dict:
        return {"passed": self.passed, "failures": list(self.failures)}


def verify_groupoid_axioms(G: FiniteGroupoid) -> GroupoidReport:
    """Closure, units, inverses, witness validity, and associativity."""
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

    for g1, successors in zip(G.elements, G.successors):
        for i2, i12 in successors.items():
            if i12 is None:
                failures.append(f"composite of {g1.label()} and {G.elements[i2].label()} missing")

    if not failures:
        # With closure established, check the unit and inverse laws on every
        # element and associativity on every composable triple of the table.
        for i, g in enumerate(G.elements):
            ux, uy = G.unit_index[g.x], G.unit_index[g.y]
            if G.product(i, uy) != i or G.product(ux, i) != i:
                failures.append(f"unit law fails at {g.label()}")
            if G.product(i, G.inverse[i]) != ux:
                failures.append(f"inverse law fails at {g.label()}")
        table = G.successors
        for i1, successors in enumerate(table):
            for i2, i12 in successors.items():
                for i3, i23 in table[i2].items():
                    if table[i12][i3] != successors[i23]:
                        failures.append(
                            "associativity fails at "
                            f"{G.elements[i1].label()},{G.elements[i2].label()},{G.elements[i3].label()}"
                        )
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
