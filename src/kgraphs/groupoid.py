"""The path groupoid of an enumerated path space, and its boundary reduction.

Elements (x, m, y) pair space elements whose tails agree after shifts m apart:
for finite paths, a common source.  A source block of n_v elements gives n_v^2
labels (x, d(x) - d(y), y), held as int arrays `x`, `m` (|G| x k), `y` in label
order; witnesses (`least_witness`) and element objects are made on first use.
A hand-built list is sorted into the same arrays and keeps its witnesses.
Products are label sums, so the axiom check needs closure (`is_full`), units,
inverses and distinct labels, never triples.  The index arrays that the
convolution algebra gathers through are cached properties, built on first use;
each one's table of stacked bins (`bins`) is too, at the height asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate, product
from operator import add, sub

import numpy as np

from .skeleton import Degree, ExactModeError
from . import paths as pth
from .paths import Path
from .boundary import FinitePathSpace, boundary_paths

Label = tuple[int, tuple[int, ...], int]

MAX_ELEMENTS = 10**7  # labels built at most: 8.4 x torus 32, 0.3 GB at rank 2


@dataclass(frozen=True)
class GroupoidElement:
    """(x, m, y): x and y are space indices, m in Z^k; witness = (p, q)."""

    x: int
    m: tuple[int, ...]
    y: int
    witness: tuple[Degree, Degree] = field(compare=False)

    def label(self) -> Label:
        return (self.x, self.m, self.y)


class FiniteGroupoid:
    """An enumerated groupoid over a finite path space: columns x, m, y in label order."""

    def __init__(self, space: FinitePathSpace, elements=(), columns=None):
        self.space = space
        if columns is None:  # a hand-built list keeps its own witnesses
            self.elements = tuple(sorted(elements, key=GroupoidElement.label))
            self.witnesses = [g.witness for g in self.elements]
            columns = [[getattr(g, c) for g in self.elements] for c in "xmy"]
        x, m, y = (np.asarray(c, dtype=np.intp) for c in columns)
        self.x, self.m, self.y = x, m.reshape(len(x), self.rank), y
        self._bins: dict[str, np.ndarray] = {}  # `bins`, per index array at the tallest height asked for

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self):
        return iter(self.elements)

    @property
    def complete(self) -> bool:
        """Only an exact space gives the whole groupoid."""
        return self.space.is_exact

    @property
    def rank(self) -> int:
        return self.space.skeleton.rank

    def _xy(self) -> list[list[int]]:
        ints = list(range(len(self.space)))  # shared ints: smaller labels, reports
        return [[ints[i] for i in c.tolist()] for c in (self.x, self.y)]

    @cached_property
    def labels(self) -> list[Label]:
        x, y = self._xy()
        return list(zip(x, zip(*self.m.T.tolist()), y))

    @cached_property
    def witnesses(self) -> list[tuple[Degree, Degree]]:
        rows, degree = self.space.factors, cache(Degree)  # one Degree per distinct shift
        dx = [el.degree.coords for el in self.space.elements]
        return [tuple(map(degree, least_witness(rows[x], rows[y], m, dx[x]))) for x, m, y in self.labels]

    @cached_property
    def elements(self) -> tuple[GroupoidElement, ...]:
        return tuple(GroupoidElement(*label, w) for label, w in zip(self.labels, self.witnesses))

    @cached_property
    def _index(self) -> dict[Label, int]:
        return {label: i for i, label in enumerate(self.labels)}  # a repeated label: its last

    def index_of(self, label: Label) -> int:
        return self._index[label]

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    @cached_property
    def unit_index(self) -> dict[int, int]:
        return {x: i for i, (x, m, y) in enumerate(self.labels) if x == y and not any(m)}

    def units(self) -> tuple[int, ...]:
        return tuple(sorted(self.unit_index))

    @cached_property
    def is_full(self) -> bool:
        """Are the elements exactly the labels (x, d(x) - d(y), y) with s(x) = s(y), each once?"""
        built = build_path_groupoid(self.space)  # full by construction
        return all(map(np.array_equal, (self.x, self.m, self.y), (built.x, built.m, built.y)))

    @cached_property
    def by_range(self) -> dict[int, list[int]]:
        """by_range[u] lists the indices of the elements (u, m, y), ascending."""
        xs = self.x.tolist()
        return dict(zip(dict.fromkeys(xs), _blocks(xs)))

    @cached_property
    def inverse(self) -> dict[int, int]:
        """inverse[a] is the index of a's inverse; a missing inverse has no key."""
        labels = ((i, (y, tuple(-c for c in m), x)) for i, (x, m, y) in enumerate(self.labels))
        return {i: self._index[label] for i, label in labels if label in self._index}

    @cached_property
    def composition(self) -> tuple[tuple[np.ndarray, ...], list[tuple[int, int]]]:
        """(pairs, missing) from one pass over `by_range`, each ascending (a, b): pairs holds a, b, ab
        over the composable pairs whose composite label (x, m+n, z) is an element, missing the rest."""
        index, labels, known, missing = self._index, self.labels, [], []
        for a, (x, m, y) in enumerate(labels):
            for b in self.by_range.get(y, ()):
                if (ab := index.get((x, tuple(map(add, m, labels[b][1])), labels[b][2]))) is None:
                    missing.append((a, b))
                else:
                    known.append((a, b, ab))
        return tuple(np.array(known, dtype=np.intp).reshape(-1, 3).T), missing

    def bins(self, name: str, rows: int) -> np.ndarray:
        """Flat bins for `rows` stacked rows of the index array `name`: at + width r in row r.

        `name` is "ab", the composites of `composition` (width |G|), or "x" or "y" (width |space|).
        A table is built on first use and kept until more rows are asked for; fewer rows read its
        prefix (rows are stored row-major), and one row reads the index array itself: no table.
        """
        at = self.composition[0][2] if name == "ab" else getattr(self, name)
        if rows == 1:
            return at
        size, table = rows * len(at), self._bins.get(name)
        if table is None or len(table) < size:  # read off an arange: numpy's integer adds page in 64 KiB more
            width = len(self) if name == "ab" else len(self.space)
            table = self._bins[name] = np.arange(rows * width).reshape(rows, width)[:, at].ravel()
        return table[:size]

    @cached_property
    def inverse_array(self) -> np.ndarray:
        """Each element's inverse; KeyError if one is missing."""
        return np.array([self.inverse[i] for i in range(len(self))], dtype=np.intp)

    @cached_property
    def grading(self) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
        """(levels, level): the distinct m, ascending, and each element's position of m in them."""
        levels = tuple(sorted({m for _, m, _ in self.labels}))
        at = {m: j for j, m in enumerate(levels)}
        return levels, np.array([at[m] for _, m, _ in self.labels], dtype=np.intp)

    @cached_property
    def unit_vertex(self) -> tuple[np.ndarray, np.ndarray]:
        """Per unit, its element and its range's column in `sk.vertices`."""
        vertex, points = _columns(self.space.skeleton.vertices), self.space.elements
        units = [(i, vertex[points[p].range]) for p, i in self.unit_index.items()]
        return tuple(np.array(units, dtype=np.intp).reshape(-1, 2).T)

    @cached_property
    def arrows(self) -> tuple[np.ndarray, np.ndarray, list]:
        """Rank 1 only: per path x of positive length, (x, 1, tail of x) and x's first edge's column in
        `sk.edges`.  (elements, columns) of those G has, and (label, column) of those it lacks."""
        space, edge = self.space, _columns(self.space.skeleton.edges)
        arrows = [((x, (1,), space.index_of(space.factors[x][(1,)][1])), edge[p.blocks[0][0]])
                  for x, p in enumerate(space.elements) if p.blocks[0]]
        kept = [(self.index_of(label), e) for label, e in arrows if label in self]
        return (*np.array(kept, dtype=np.intp).reshape(-1, 2).T, [a for a in arrows if a[0] not in self])

    def product(self, a: int, b: int) -> int:
        """Index of ab = (x, m+n, z): ValueError if not composable, KeyError if missing."""
        (x, m, y), (u, n, z) = ga, gb = self.labels[a], self.labels[b]
        if y != u:
            raise ValueError(f"not composable: {ga} then {gb}")
        if (label := (x, tuple(map(add, m, n)), z)) not in self._index:
            raise KeyError(f"composite of {ga} and {gb} missing")
        return self._index[label]

    def to_json(self) -> dict:
        orbit, (xs, ys), ms = {u: j for j, o in enumerate(orbits(self)) for u in o}, self._xy(), {}
        return {
            "complete": self.complete,
            "elements": [  # one list per m
                {"x": x, "m": ms.get(m) or ms.setdefault(m, list(m)), "y": y, "unit": x == y and not any(m),
                 "orbit": orbit[x]} for x, m, y in zip(xs, zip(*self.m.T.tolist()), ys)
            ],
            "units": [self.unit_index[u] for u in self.units()],
        }


def least_witness(row_x, row_y, m: tuple[int, ...], dx: tuple[int, ...]):
    """The least (p, p - m) with equal tails in the `factors` rows of x and y."""
    for p in product(*(range(max(c, 0), d + 1) for c, d in zip(m, dx))):
        if row_x[p][1] == row_y[q := tuple(map(sub, p, m))][1]:
            return p, q


def _columns(items) -> dict[str, int]:
    """Each id's position in `items` (`sk.vertices` or `sk.edges`)."""
    return {a.id: j for j, a in enumerate(items)}


def _ends(space: FinitePathSpace) -> tuple[list, list]:
    """Per space element, its source's number (in order met) and its degree."""
    sk, number = space.skeleton, {}
    source = [number.setdefault(pth.source(sk, x), len(number)) for x in space.elements]
    return source, [x.degree.coords for x in space.elements]


def _blocks(keys) -> list[list[int]]:
    """The indices with each key, ascending, keys in order met."""
    blocks: dict = {}
    for u, key in enumerate(keys):
        blocks.setdefault(key, []).append(u)
    return list(blocks.values())


def build_path_groupoid(space: FinitePathSpace) -> FiniteGroupoid:
    """Pair each source block's elements as (x, d(x) - d(y), y), in label order: common tails are
    common sources, so no witness is sought.  ValueError above `MAX_ELEMENTS`."""
    source, degree = _ends(space)
    rows = [sorted(b, key=lambda y: ([-c for c in degree[y]], y)) for b in _blocks(source)]
    if (size := sum(len(row) ** 2 for row in rows)) > MAX_ELEMENTS:
        raise ValueError(f"the path groupoid would have {size} elements, over {MAX_ELEMENTS}")
    at = {u: j for row in rows for j, u in enumerate(row)}  # rows: d(y) descending, then y
    rows = [np.array(row, dtype=np.intp) for row in rows]
    x = np.repeat(np.arange(len(source)), lengths := [len(rows[s]) for s in source])
    y = np.concatenate([np.zeros(0, dtype=np.intp), *(rows[s] for s in source)])
    deg = np.array(degree, dtype=np.intp).reshape(len(source), space.skeleton.rank)
    span = range(max(map(max, degree), default=0) + 1)  # a - b from a table: numpy int ops page in code
    minus = np.array([[a - b for b in span] for a in span], dtype=np.intp)
    G, start = FiniteGroupoid(space, columns=(x, minus[deg[x], deg[y]], y)), [0, *accumulate(lengths)]
    G.is_full, G.unit_index = True, {u: start[u] + at[u] for u in range(len(source))}  # by construction
    return G


def build_boundary_groupoid(space: FinitePathSpace) -> FiniteGroupoid:
    """The path groupoid restricted to boundary elements."""
    return build_path_groupoid(space if space.parent is not None else boundary_paths(space))


def orbits(G: FiniteGroupoid) -> tuple[tuple[int, ...], ...]:
    """Partition of the unit space under the range/source relation: if G is full, its source blocks."""
    root = _ends(G.space)[0] if G.is_full else list(range(len(G.space)))
    while not G.is_full and any(root[x] != root[y] for x, _, y in G.labels):
        for x, _, y in G.labels:
            root[x] = root[y] = min(root[x], root[y])
    return tuple(map(tuple, _blocks(root)))


@dataclass(frozen=True)
class GroupoidReport:
    """Outcome of the axiom or the etale check: failure messages, if any."""

    passed: bool
    failures: tuple[str, ...]

    def to_json(self) -> dict:
        return {"passed": self.passed, "failures": list(self.failures)}


def verify_groupoid_axioms(G: FiniteGroupoid) -> GroupoidReport:
    """Closure, units, inverses, witness validity, and one element per label."""
    factors, points = G.space.factors, G.space.elements
    failures = [f"missing unit at space index {u}" for u in range(len(points)) if u not in G.unit_index]
    for i, (label, (p, q)) in enumerate(zip(G.labels, G.witnesses)):
        x, m, y = label
        if not (p <= points[x].degree and q <= points[y].degree and tuple(map(sub, p.coords, q.coords)) == m
                and factors[x][p.coords][1] == factors[y][q.coords][1]):
            failures.append(f"invalid witness on {label}")
        if i not in G.inverse:
            failures.append(f"inverse of {label} missing")
        elif x not in G.unit_index or y not in G.unit_index:
            failures.append(f"unit for {label} missing")

    for a, b in () if G.is_full else G.composition[1]:  # a full groupoid is closed
        failures.append(f"composite of {G.labels[a]} and {G.labels[b]} missing")

    if not failures:
        # Label sums are associative; g.u = u.g is the last copy of g's label.
        failures += [f"unit law fails at {g}" for i, g in enumerate(G.labels) if G._index[g] != i]
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
    m = tuple(map(sub, lam.degree.coords, mu.degree.coords))
    elements, joined = G.space.elements, G.space.index_of_factors
    members = [
        G.index_of((joined[(lam, elements[z])], m, joined[(mu, elements[z])]))
        for z in G.space.by_range.get(at, ())
    ]
    return CylinderSet(lam, mu, tuple(sorted(members)))


def verify_etale(G: FiniteGroupoid) -> GroupoidReport:
    """Cylinders cover G and are bisections; the vertex cylinders give the units."""
    if not G.space.is_exact:
        raise ExactModeError("etale verification requires an exact space")
    sk, factors, failures = G.space.skeleton, G.space.factors, []
    cylinders: dict[tuple[Path, Path], CylinderSet] = {}
    for i, (label, (p, q)) in enumerate(zip(G.labels, G.witnesses)):
        lam_mu = (factors[label[0]][p.coords][0], factors[label[2]][q.coords][0])
        if lam_mu not in cylinders:
            cylinders[lam_mu] = cylinder(G, *lam_mu)
        if i not in cylinders[lam_mu].members:
            failures.append(f"element {label} not covered by its witness cylinder")
    broken = []  # (cylinder, end) per map not injective: usually none, so sorted
    for lam_mu, cyl in cylinders.items():
        for end, axis in (("range", 0), ("source", 2)):
            if len(ends := [G.labels[i][axis] for i in cyl.members]) != len(set(ends)):
                broken.append((lam_mu, end))
    for (lam, mu), end in sorted(broken, key=lambda b: tuple(map(pth.path_sort_key, b[0]))):
        failures.append(f"{end} map not injective on cylinder ({lam.to_json()}, {mu.to_json()})")
    unit_union: set[int] = set()
    for v in G.space.by_range:
        vp = pth.vertex_path(sk, v)
        unit_union.update((cylinders.get((vp, vp)) or cylinder(G, vp, vp)).members)
    if unit_union != set(G.unit_index.values()):
        failures.append("unit space differs from the union of vertex cylinders")
    return GroupoidReport(not failures, tuple(failures))
