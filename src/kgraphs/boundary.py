"""Exhaustive sets, vertex classification, the path space and its boundary.

In exact mode (acyclic skeleton) the path space is the finite set of all
paths, and a set is exhaustive at v iff it holds a prefix of every maximal
path at v, the one rule of `is_exhaustive`, `minimal_exhaustive_sets` and
the boundary certificates (`_prefix_rows`); only a bounded `is_exhaustive`
sweeps paths pairwise, as its paths may have no maximal extension.  On
cyclic skeletons only a truncated view is available: its elements are the
paths up to a degree bound, each standing for its class of extensions.  The
per-color markers of a class, whether extensions continue past the bound or
run forever (`Skeleton.cycle_colors`), are properties of the path's source,
read off there where the element is written (`FinitePathSpace.element_json`).

Each `FinitePathSpace` owns the one table of its elements' (head, tail)
splits, built on first use from one-letter splits (`factors`,
`index_of_factors`), which the exhaustive-set search, the groupoid build
and checks and the edge operators read; per element, it keeps the members
its exhaustive sets have among its prefixes (`obligations`), and a
boundary certificate joins those of an element's tails.  A boundary
restriction reads both from the space it restricts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .skeleton import Degree, ExactModeError, Skeleton, degree_box, is_acyclic
from . import paths as pth
from .paths import Path


@dataclass(frozen=True)
class VertexClassification:
    """Vertices split by how they receive edges.

    sources receive none; every vertex of a finite skeleton receives
    finitely many, so the regular vertices are exactly the non-sources.
    """

    sources: tuple[str, ...]
    finitely_receiving: tuple[str, ...]
    regular: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "sources": list(self.sources),
            "finitely_receiving": list(self.finitely_receiving),
            "regular": list(self.regular),
        }


def classify_vertices(sk: Skeleton) -> VertexClassification:
    sources = tuple(sorted(v.id for v in sk.vertices if not sk.edges_by_range[v.id]))
    finite = tuple(sorted(v.id for v in sk.vertices))
    regular = tuple(sorted(set(finite) - set(sources)))
    return VertexClassification(sources, finite, regular)


@dataclass(frozen=True)
class ExhaustiveSet:
    """A set of paths ranged at one vertex, exhaustive for it."""

    vertex: str
    members: tuple[Path, ...]


@dataclass(frozen=True)
class ExhaustivenessResult:
    status: str  # "exhaustive" | "not_exhaustive" | "unknown"
    witness: Path | None = None
    bound: Degree | None = None


def is_exhaustive(
    sk: Skeleton, vertex_id: str, members, bound: Degree | None = None
) -> ExhaustivenessResult:
    """Decide whether the member paths are exhaustive at the vertex.

    Without a bound the paths at the vertex must be finite, and the witness
    is the first of them in no `_prefix_rows` row holding a member (the rule
    of `minimal_exhaustive_sets`).  With a bound, where paths may be
    infinite, each path of degree <= bound is swept against the members with
    `minimal_extension_pairs`: a witness is definitive, but a clean sweep is
    "unknown", as the checked prefixes say nothing about longer paths.
    """
    members = dict.fromkeys(members)  # in order, with a hashed membership test
    for m in members:
        if m.range != vertex_id:
            raise ValueError(f"member ranges at {m.range!r}, not {vertex_id!r}")
    if bound is None:
        pool, rows = _prefix_rows(sk, vertex_id)
        covered = {i for row in rows if any(pool[i] in members for i in row) for i in row}
        witness = next((p for i, p in enumerate(pool) if i not in covered), None)
        return ExhaustivenessResult("exhaustive" if witness is None else "not_exhaustive", witness)
    candidates = [
        p for n in degree_box(bound) for p in pth.paths_from(sk, vertex_id, n)
    ]
    for lam in candidates:
        if not any(pth.minimal_extension_pairs(sk, lam, mu) for mu in members):
            return ExhaustivenessResult("not_exhaustive", witness=lam, bound=bound)
    return ExhaustivenessResult("unknown", bound=bound)


def _prefix_rows(sk: Skeleton, vertex_id: str, space: FinitePathSpace | None = None):
    """The paths at a finite vertex, and per maximal path the indices of its prefixes: the
    heads of its row of `factors` in an exact `space` that holds them (`by_range`), else
    itself and the prefixes of its `_one_letter_cuts` among `paths_with_range`."""
    if space is None:
        pool = pth.paths_with_range(sk, vertex_id)
        at = {p: i for i, p in enumerate(pool)}
        heads: list = [set() for _ in pool]
        for i in sorted(range(len(pool)), key=lambda i: pool[i].degree.total):
            heads[i] = {i}.union(*(heads[at[h]] for _, h, _ in _one_letter_cuts(sk, pool[i])))
    else:
        ids = space.by_range[vertex_id]
        pool = [space.elements[i] for i in ids]
        at = {id(p): i for i, p in enumerate(pool)}  # the heads in `factors` are these objects
        heads = [(at[id(h)] for h, _ in space.factors[i].values()) for i in ids]
    rows = [
        sorted(heads[i])
        for i, g in enumerate(pool)
        if not sk.edges_by_range[pth.source(sk, g)]
    ]
    return pool, rows


def minimal_exhaustive_sets(
    sk: Skeleton, vertex_id: str, space: FinitePathSpace | None = None
) -> tuple[ExhaustiveSet, ...]:
    """All inclusion-minimal exhaustive subsets of the paths at a vertex.

    Monotonicity (supersets of exhaustive sets are exhaustive) means these
    suffice for boundary checking.  The paths at the vertex are finite and
    acyclic, so each extends to a maximal path (its source receives no
    edge), and a path shares an extension with a maximal path only as its
    prefix.  So a set is exhaustive iff it holds a prefix of every maximal
    path: the minimal ones are the minimal transversals of the maximal
    paths' prefix sets (`_prefix_rows`).  Branch on the first maximal path
    not yet hit, bar each member from its later sibling branches, and drop
    a choice that leaves a chosen member hitting no maximal path alone;
    list by (size, pool indices), the order of a smallest-first search over
    subsets.  Each branch counts per maximal path the chosen members it
    holds, so a choice is checked against the chosen members' rows alone.
    """
    pool, rows = _prefix_rows(sk, vertex_id, space)
    bits = [sum(1 << i for i in row) for row in rows]
    holding: list[list[int]] = [[] for _ in pool]  # per pool index, the rows holding it
    for r, row in enumerate(rows):
        for i in row:
            holding[i].append(r)
    found: list[tuple[int, ...]] = []
    # chosen, banned, and per row the number of chosen members it holds
    branches: list[tuple[tuple[int, ...], int, list[int]]] = [((), 0, [0] * len(rows))]
    while branches:
        chosen, banned, counts = branches.pop()
        if 0 not in counts:
            found.append(tuple(sorted(chosen)))
            continue
        for i in rows[counts.index(0)]:
            if banned >> i & 1:
                continue
            # Each chosen member must still hold some row alone that i is not in.
            if all(
                any(counts[r] == 1 and not bits[r] >> i & 1 for r in holding[c]) for c in chosen
            ):
                grown = counts.copy()
                for r in holding[i]:
                    grown[r] += 1
                branches.append((chosen + (i,), banned, grown))
            banned |= 1 << i
    found.sort(key=lambda combo: (len(combo), combo))
    return tuple(
        ExhaustiveSet(vertex_id, tuple(pool[i] for i in combo)) for combo in found
    )


class FinitePathSpace:
    """An enumerated path space, exact or truncated at a bound; or a `parent`'s restriction.

    Its elements are paths.  In a truncated space each stands for the class of
    its extensions; what the bound hides depends on the path's source alone,
    and `element_json` reads it off there.
    """

    def __init__(
        self,
        skeleton: Skeleton,
        mode: str,
        elements,
        parent: FinitePathSpace | None = None,
    ):
        if mode not in ("exact", "truncated"):
            raise ValueError(f"mode must be 'exact' or 'truncated', got {mode!r}")
        self.skeleton = skeleton
        self.mode = mode
        self.elements: tuple[Path, ...] = tuple(elements)
        self.parent = parent
        self._index = {p: i for i, p in enumerate(self.elements)}
        self._sets: dict[str, tuple[ExhaustiveSet, ...]] = {}
        self._obligations: dict[int, list] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def index_of(self, p: Path) -> int:
        return self._index[p]

    def __contains__(self, p: Path) -> bool:
        return p in self._index

    def element_json(self, i: int, memo: dict | None = None) -> dict:
        """Element i's degree, prefixes (its row of `factors`) and truncation; a shared
        `memo` converts each prefix once.  In a truncated space, its source's markers:
        per color whether an edge extends it (`extendable`), and an "inf" degree
        coordinate where the color grows forever (`Skeleton.cycle_colors`)."""
        memo, x, row = {} if memo is None else memo, self.elements[i], self.factors[i]
        out: dict = {
            "degree": list(x.degree.coords),
            "prefixes": [[list(m), _json(memo, head)] for m, (head, _) in sorted(row.items())],
            "truncated": not self.is_exact,
        }
        if not self.is_exact:
            sk = self.skeleton
            tail, colors = pth.source(sk, x), range(1, sk.rank + 1)
            grows = sk.cycle_colors[tail]
            out["degree"] = ["inf" if c in grows else n for c, n in zip(colors, out["degree"])]
            out["extendable"] = [any(e.color == c for e in sk.edges_by_range[tail]) for c in colors]
        return out

    @cached_property
    def factors(self) -> tuple[dict[tuple[int, ...], tuple[Path, Path]], ...]:
        """factors[i][m.coords] is factorize(x_i, m), for every m <= d(x_i).

        Each color c of each path x splits off its last color-c letter g, x = x'.g
        (`_one_letter_cuts`): x splits at d(x) as (x, s(x)), at m with m_c < d(x)_c
        as (h, t.g) for the split (h, t) of x' at m.  Needs the elements closed
        under prefixes and tails; a restriction is not, and reads its parent's rows.
        """
        if self.parent is not None:
            rows, at = self.parent.factors, self.parent.index_of
            return tuple(rows[at(x)] for x in self.elements)
        sk, paths, index = self.skeleton, self.elements, self._index
        cuts: dict[tuple[int, int], tuple[int, str]] = {}  # (x, c) -> (index of x', letter g)
        appended: dict[tuple[int, str], int] = {}  # (id of x', letter g) -> index of x'.g
        for i, x in enumerate(paths):
            for c, head, g in _one_letter_cuts(sk, x):
                cuts[i, c] = index[head], g
                appended[id(paths[index[head]]), g] = i
        rows: list[dict] = [{} for _ in paths]  # heads and tails are elements, so an id names one
        boxes: dict = {}  # per degree d: each m < d, in `degree_box` order, with a c where m_c < d_c
        for i in sorted(range(len(paths)), key=lambda i: paths[i].degree.total):
            x, d = paths[i], paths[i].degree.coords
            if d not in boxes:
                boxes[d] = [(m.coords, next(c for c, (a, b) in enumerate(zip(m.coords, d)) if a < b))
                            for m in degree_box(x.degree) if m.coords != d]
            for m, c in boxes[d]:
                j, g = cuts[i, c]
                rows[i][m] = rows[j][m][0], paths[appended[id(rows[j][m][1]), g]]
            rows[i][d] = x, paths[index[pth.vertex_path(sk, pth.source(sk, x))]]
        return tuple(rows)

    @cached_property
    def index_of_factors(self) -> dict[tuple[Path, Path], int]:
        """index_of_factors[(head, tail)] is the index of the element head.tail."""
        return {split: i for i, row in enumerate(self.factors) for split in row.values()}

    @cached_property
    def by_range(self) -> dict[str, list[int]]:
        """by_range[v] lists the indices of the elements with range v, ascending."""
        out: dict[str, list[int]] = {}
        for i, x in enumerate(self.elements):
            out.setdefault(x.range, []).append(i)
        return out

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    def obligations(self, y: Path) -> list[tuple[tuple[Path, ...], Path | None]]:
        """(members, first member that is a prefix of y, or None) per minimal exhaustive
        set at r(y), in order, up to the first None; kept per element, the sets per vertex."""
        if self.parent is not None:
            return self.parent.obligations(y)
        if (i := self.index_of(y)) not in self._obligations:
            if y.range not in self._sets:
                self._sets[y.range] = minimal_exhaustive_sets(self.skeleton, y.range, self)
            row, found = self.factors[i], self._obligations.setdefault(i, [])
            for ex_set in self._sets[y.range]:
                prefixes = (p for p in ex_set.members if row.get(p.degree.coords, (None,))[0] is p)
                found.append((ex_set.members, next(prefixes, None)))
                if found[-1][1] is None:
                    break
        return self._obligations[i]


def _one_letter_cuts(sk: Skeleton, x: Path):
    """(c, x', g) per color c of x, where x = x'.g and g is x's last color-c letter."""
    d = x.degree.coords
    for c in (c for c, n in enumerate(d) if n):
        head, tail = pth.factorize(sk, x, Degree(d[:c] + (d[c] - 1,) + d[c + 1 :]))
        yield c, head, tail.blocks[c][0]


def enumerate_path_space(sk: Skeleton, bound: Degree | None = None) -> FinitePathSpace:
    """Enumerate the path space: exact when no bound is given (needs acyclicity)."""
    if bound is None:
        if not is_acyclic(sk):
            raise ExactModeError(
                "cyclic skeleton: the path space is infinite, pass a truncation bound"
            )
        return FinitePathSpace(sk, "exact", pth.enumerate_paths(sk))
    return FinitePathSpace(sk, "truncated", pth.enumerate_paths(sk, bound))


def prepend(sk: Skeleton, lam: Path, x: Path) -> Path:
    """Extend the element by a path on the range side, lam.x; s(lam) must be r(x)."""
    return pth.compose(sk, lam, x)


def _json(memo: dict, p: Path):
    """The JSON of a path, once per `memo` (id -> (path, JSON))."""
    if id(p) not in memo:
        memo[id(p)] = p, p.to_json()
    return memo[id(p)][1]


def boundary_paths(space: FinitePathSpace) -> FinitePathSpace:
    """The boundary restriction of an exact path space.

    On a finite acyclic graph x is a boundary path iff its source receives
    no edge.  If s(x) receives none, every tail of x is maximal, and every
    exhaustive set at its range holds one of its prefixes.  If s(x) receives
    an edge, the maximal paths at s(x) form an exhaustive set that does not
    hold the vertex path, the only prefix of the tail of x at d(x).
    """
    if not space.is_exact:
        raise ExactModeError("boundary paths are only decidable in exact mode")
    sk = space.skeleton
    kept = [x for x in space.elements if not sk.edges_by_range[pth.source(sk, x)]]
    return FinitePathSpace(sk, "exact", kept, parent=space)
