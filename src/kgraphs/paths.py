"""Path arithmetic in a validated rank-k graph.

Paths are stored in color-ascending normal form: all color-1 edges first,
then color-2, and so on.  Composition and factorization are one insertion
sort by per-letter keys (colors; for `factorize`, head letters first), each
swap a factorization square of the skeleton, a missing one a `ValueError`;
on a validated skeleton the rewriting is confluent, so the normal form is
canonical and path equality is structural equality.  Enumeration is one
walk over the composable color-ascending words and rewrites nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .skeleton import Degree, ExactModeError, Skeleton, degree_box, load_skeleton


@dataclass(frozen=True)
class Path:
    """A morphism in normal form: range vertex plus one edge word per color.

    The flattened word reads left to right from the range: the source of
    each letter is the range of the next.  A degree-0 path is a vertex.
    """

    range: str
    blocks: tuple[tuple[str, ...], ...]

    @cached_property
    def degree(self) -> Degree:
        return Degree(tuple(len(b) for b in self.blocks))

    @property
    def word(self) -> tuple[str, ...]:
        return tuple(e for block in self.blocks for e in block)

    @property
    def is_vertex(self) -> bool:
        return all(not b for b in self.blocks)

    def to_json(self) -> dict:
        return {"range": self.range, "blocks": [list(b) for b in self.blocks]}


def path_sort_key(p: Path) -> str:
    return json.dumps(p.to_json(), sort_keys=True)


def sort_paths(paths) -> tuple[Path, ...]:
    return tuple(sorted(paths, key=path_sort_key))


def vertex_path(sk: Skeleton, vertex_id: str) -> Path:
    if vertex_id not in sk.vertex_ids:
        raise ValueError(f"unknown vertex {vertex_id!r}")
    return Path(vertex_id, ((),) * sk.rank)


def edge_path(sk: Skeleton, edge_id: str) -> Path:
    e = sk.edge_by_id[edge_id]
    blocks = tuple((e.id,) if c == e.color else () for c in range(1, sk.rank + 1))
    return Path(e.range, blocks)


def source(sk: Skeleton, p: Path) -> str:
    for block in reversed(p.blocks):
        if block:
            return sk.edge_by_id[block[-1]].source
    return p.range


def _check_word(sk: Skeleton, word: list[str] | tuple[str, ...]) -> None:
    for a, b in zip(word, word[1:]):
        if sk.edge_by_id[a].source != sk.edge_by_id[b].range:
            raise ValueError(f"word not composable at {a}.{b}")


def _normalize(sk: Skeleton, word, keys=None) -> list[str]:
    """Insertion-sort by per-letter keys (colors by default): a leftmost-descent bubble's swaps."""
    w, keys = list(word), [sk.color_of(e) for e in word] if keys is None else list(keys)
    for i in range(1, len(w)):
        for t in range(i, 0, -1):
            if keys[t - 1] <= keys[t]:
                break
            if (pair := (w[t - 1], w[t])) not in sk.swap_map:
                raise ValueError(
                    f"no factorization square for the pair {pair[0]}.{pair[1]}; "
                    "skeleton does not present a rank-k graph"
                )
            w[t - 1 : t + 1], keys[t - 1 : t + 1] = sk.swap_map[pair], (keys[t], keys[t - 1])
    return w


def _from_sorted_word(sk: Skeleton, range_vertex: str, word: list[str]) -> Path:
    blocks: list[list[str]] = [[] for _ in range(sk.rank)]
    for eid in word:
        blocks[sk.color_of(eid) - 1].append(eid)
    return Path(range_vertex, tuple(tuple(b) for b in blocks))


def path_from_word(sk: Skeleton, word, at: str | None = None) -> Path:
    """Build the path of an arbitrary composable edge word (any color order).

    `at` names the range vertex and is required only for the empty word.
    """
    word = list(word)
    if not word:
        if at is None:
            raise ValueError("empty word needs an explicit vertex")
        return vertex_path(sk, at)
    _check_word(sk, word)
    rng = sk.edge_by_id[word[0]].range
    if at is not None and at != rng:
        raise ValueError(f"word ranges at {rng!r}, not {at!r}")
    return _from_sorted_word(sk, rng, _normalize(sk, word))


def compose(sk: Skeleton, a: Path, b: Path) -> Path:
    """The composite a.b; requires s(a) = r(b)."""
    if source(sk, a) != b.range:
        raise ValueError(
            f"not composable: source {source(sk, a)!r} != range {b.range!r}"
        )
    word = _normalize(sk, list(a.word) + list(b.word))
    return _from_sorted_word(sk, a.range, word)


def factorize(sk: Skeleton, p: Path, m: Degree) -> tuple[Path, Path]:
    """The unique (head, tail) with p = head.tail and d(head) = m."""
    d = p.degree
    if not m <= d:
        raise ValueError(f"cannot factor degree-{m} prefix out of degree-{d} path")
    # Each color's first m_c letters sort to the front, as the head.
    keys = [(j >= n, c) for c, (b, n) in enumerate(zip(p.blocks, m.coords)) for j in range(len(b))]
    word, cut = _normalize(sk, p.word, keys), m.total
    head = _from_sorted_word(sk, p.range, word[:cut])
    return head, _from_sorted_word(sk, source(sk, head), word[cut:])


def _walk(sk: Skeleton, vertex_id: str, low: Degree | None = None, high: Degree | None = None):
    """Every path ranged at the vertex with low <= degree <= high, unsorted.

    A path is one composable color-ascending word, so the walk grows words
    block by block and meets each path once; it rewrites nothing and reads
    no square, so on a presentation that fails validation it lists words
    where `compose` may raise.  No `low` is 0; no `high` needs a finite
    set, so the vertex may reach no cycle.
    """
    for d in (low, high):
        if d is not None and d.k != sk.rank:
            raise ValueError(f"degree has {d.k} coordinates, skeleton has rank {sk.rank}")
    if vertex_id not in sk.vertex_ids:
        raise ValueError(f"unknown vertex {vertex_id!r}")
    if high is None and sk.cycle_colors[vertex_id]:
        raise ExactModeError(f"vertex {vertex_id!r} reaches a cycle: its path set is infinite")
    found: list[tuple[str, tuple]] = [(vertex_id, ())]  # (source, blocks of the colors done)
    for c in range(1, sk.rank + 1):
        lo, hi = low.coords[c - 1] if low else 0, high.coords[c - 1] if high else None
        grown: list[tuple[str, tuple]] = []
        for at, blocks in found:
            layer, n = [(at, ())], 0
            while layer:
                if n >= lo:
                    grown += [(s, blocks + (block,)) for s, block in layer]
                if n == hi:
                    break
                layer = [(e.source, block + (e.id,)) for s, block in layer
                         for e in sk.edges_by_range[s] if e.color == c]
                n += 1
        found = grown
    return [Path(vertex_id, blocks) for _, blocks in found]


def paths_from(sk: Skeleton, vertex_id: str, n: Degree) -> tuple[Path, ...]:
    """All degree-n paths ranged at the vertex, in normal form, sorted."""
    return sort_paths(_walk(sk, vertex_id, n, n))


def all_paths(sk: Skeleton, n: Degree) -> tuple[Path, ...]:
    """All paths of degree n, in normal form, sorted."""
    return sort_paths(p for v in sk.vertices for p in _walk(sk, v.id, n, n))


def paths_with_range(sk: Skeleton, vertex_id: str) -> tuple[Path, ...]:
    """All paths (every degree) ranged at the vertex; requires that set finite."""
    return sort_paths(_walk(sk, vertex_id))


def enumerate_paths(sk: Skeleton, bound: Degree | None = None) -> tuple[Path, ...]:
    """All paths of the graph, or those of degree <= bound; no bound needs acyclicity."""
    return sort_paths(p for v in sk.vertices for p in _walk(sk, v.id, high=bound))


@dataclass(frozen=True)
class MinimalExtensionPair:
    """(alpha, beta) with a.alpha = b.beta of degree d(a) v d(b)."""

    alpha: Path
    beta: Path


def minimal_extension_pairs(sk: Skeleton, a: Path, b: Path) -> tuple[MinimalExtensionPair, ...]:
    """All minimal common extension pairs of two paths with the same range."""
    if a.range != b.range:
        return ()
    top = a.degree.join(b.degree)
    alphas = paths_from(sk, source(sk, a), top - a.degree)
    betas = paths_from(sk, source(sk, b), top - b.degree)
    left = [(alpha, compose(sk, a, alpha)) for alpha in alphas]
    right: dict[Path, list[Path]] = {}  # b.beta -> the betas
    for beta in betas:
        right.setdefault(compose(sk, b, beta), []).append(beta)
    pairs = [MinimalExtensionPair(alpha, beta) for alpha, ab in left for beta in right.get(ab, ())]
    pairs.sort(key=lambda p: (path_sort_key(p.alpha), path_sort_key(p.beta)))
    return tuple(pairs)


@dataclass(frozen=True)
class GridModel:
    """The lattice-interval rank-k graph on {p : p <= shape}.

    `morphisms` maps each path to the interval pair (range coords,
    range coords + degree); the map is a bijection onto
    {(p, q) : p <= q <= shape}.
    """

    shape: Degree
    skeleton: Skeleton
    morphisms: dict[Path, tuple[tuple[int, ...], tuple[int, ...]]]

    @property
    def morphism_count(self) -> int:
        return len(self.morphisms)


def _grid_vertex_id(coords: tuple[int, ...]) -> str:
    return ",".join(map(str, coords))


def grid_skeleton(k: int, shape: Degree) -> GridModel:
    """Present the interval category on {p <= shape} as a skeleton."""
    if k < 1:
        raise ValueError(f"rank must be >= 1, got {k}")
    if shape.k != k:
        raise ValueError(f"shape has {shape.k} coordinates, expected {k}")
    points = list(degree_box(shape))
    vertices = [{"id": _grid_vertex_id(p.coords)} for p in points]
    edges = []
    for p in points:
        for c in range(1, k + 1):
            q = p + Degree.basis(k, c)
            if q <= shape:
                edges.append(
                    {
                        "id": f"{_grid_vertex_id(p.coords)}+e{c}",
                        "color": c,
                        "range": _grid_vertex_id(p.coords),
                        "source": _grid_vertex_id(q.coords),
                    }
                )
    squares = []
    for p in points:
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                ei, ej = Degree.basis(k, i), Degree.basis(k, j)
                if not p + ei + ej <= shape:
                    continue
                pid = _grid_vertex_id(p.coords)
                squares.append(
                    {
                        "first": f"{pid}+e{i}",
                        "second": f"{_grid_vertex_id((p + ei).coords)}+e{j}",
                        "swapped_first": f"{pid}+e{j}",
                        "swapped_second": f"{_grid_vertex_id((p + ej).coords)}+e{i}",
                    }
                )
    sk = load_skeleton({"rank": k, "vertices": vertices, "edges": edges, "squares": squares})
    table: dict[Path, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for n in degree_box(shape):
        for p in all_paths(sk, n):
            lo = tuple(int(c) for c in p.range.split(","))
            hi = tuple(a + b for a, b in zip(lo, n.coords))
            table[p] = (lo, hi)
    return GridModel(shape, sk, table)
