"""Independent brute-force oracles.

Everything here works on raw edge words and the instance's square table,
never on the package's normal forms, so agreement with the library is a
genuine two-route check.  Words are tuples of edge ids read left to right
from the range; two words name the same path exactly when one rewrites to
the other by single square swaps.

The skeleton oracles sort the multigraph topologically, close every
vertex's reachable set, and rescan every pair of edges once per color pair
and side, with separate counters for the two sides of the squares, instead
of reading one strongly-connected-component pass and counting both sides in
one pass over the composable pairs.

The path rewriting oracles sort words by rescanning for the leftmost color
descent, and factorize by bubbling each head letter to the front in turn,
instead of one insertion sort over per-letter keys.  The path enumeration
oracles search breadth-first, composing each path with every edge at its
source through that rewriting, stopping at a degree bound if one is given,
and deduplicating with a set, instead of walking color-ascending words.

The groupoid oracles at the end compose labels, (x, m, y)(y, n, z) =
(x, m + n, z), pair by pair instead of reading the groupoid's index arrays,
walk every composable triple for the axioms, build the regular
representation's tables from labels per unit, and build the groupoid and its
cylinders by factorizing and composing paths afresh instead of reading the
path space's factorization table.

The sampled-suite oracles at the very end draw and check one sample at a
time through the one-element operations, instead of stacking each chunk of
samples into rows.

The boundary oracles test every path at a vertex against every member for
exhaustiveness, search every subset of a vertex's paths against the
pairwise compatibility of `minimal_extension_pairs`, and split paths with
`vertex_at` / `segment`, instead of reading maximal paths, sources and the
factorization table.  The pairwise `minimal_extension_pairs` compares every
(alpha, beta) pair instead of looking each a.alpha up among the b.beta.

The per-element reference layer before the sampled suites moved here from
`kgraphs` unchanged, once no command or check called it: `segment`,
`vertex_at`, `minimal_common_extensions` and `alignment_report` (from
`paths`), `shift` (from `boundary`; it now shifts paths), `compose_elements`, `invert_element` and
`cocycle` (from `groupoid`), and the one-element operations and draws of
`algebra` (`i_norm`, `quotient_restrict`, `gauge_automorphism`,
`homogeneous_component`, `support_levels`, the `random_*` draws,
`rank_one_lift`, `cuntz_krieger_sides`).  Each still calls the library
primitive it restates, so the tests that read them still exercise `kgraphs`.
So did the object build of the path groupoid, its union-find `orbits` and
`isotropy`, once the groupoid became columns (`object_path_groupoid`), and
`PathSpaceElement` with `_truncated_element`, once a path space's elements
became its paths (`reference_element_json`), the row kernels' per-call
bins, once the groupoid kept them (`per_call_row_sums`), and the scalar
form and the count and unit-circle checks of the gauge parameters, once the
suite formed its scales as one table per chunk (`gauge_automorphism`).
"""

from __future__ import annotations

import graphlib
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from operator import sub

import numpy as np

from kgraphs import paths as pth
from kgraphs.algebra import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    AlgebraElement,
    RegularRepresentation,
    RelationReport,
    _gauge_scales,
    _i_norms,
    _modulus,
    _multiply,
    _normal_rows,
    _report,
    _require_rank_one,
    _restriction,
    _scatter,
    convolve,
    edge_operator,
    involution,
    vertex_operator,
)
from kgraphs.bimodule import (
    EdgeFunction,
    VertexFunction,
    inner_product,
    left_action,
    rank_one_decomposition,
)
from kgraphs.boundary import (
    ExhaustiveSet,
    ExhaustivenessResult,
    FinitePathSpace,
    _json,
    classify_vertices,
    prepend,
)
from kgraphs.paths import (
    Path,
    all_paths,
    compose,
    factorize,
    minimal_extension_pairs,
    sort_paths,
    source,
)
from kgraphs.groupoid import CylinderSet, FiniteGroupoid, GroupoidElement, GroupoidReport
from kgraphs.skeleton import (
    Degree,
    ExactModeError,
    Failure,
    FactorizationRule,
    Skeleton,
    ValidationReport,
    degree_box,
)


def swap_neighbors(sk: Skeleton, word: tuple[str, ...]):
    for t in range(len(word) - 1):
        pair = (word[t], word[t + 1])
        if pair in sk.swap_map:
            a, b = sk.swap_map[pair]
            yield word[:t] + (a, b) + word[t + 2 :]


def word_class(sk: Skeleton, word) -> frozenset[tuple[str, ...]]:
    """All words reachable from this one by square swaps (the path it names)."""
    start = tuple(word)
    seen = {start}
    frontier = [start]
    while frontier:
        w = frontier.pop()
        for w2 in swap_neighbors(sk, w):
            if w2 not in seen:
                seen.add(w2)
                frontier.append(w2)
    return frozenset(seen)


def word_range(sk: Skeleton, word, at: str | None = None) -> str:
    return sk.edge_by_id[word[0]].range if word else at


def word_source(sk: Skeleton, word, at: str | None = None) -> str:
    return sk.edge_by_id[word[-1]].source if word else at


def graphlib_is_acyclic(sk: Skeleton) -> bool:
    """No directed cycle, by a topological sort of the underlying multigraph."""
    graph: dict[str, set[str]] = {v.id: set() for v in sk.vertices}
    for e in sk.edges:
        graph[e.range].add(e.source)
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError:
        return False
    return True


def reachable_cycle_colors(sk: Skeleton, vertex_id: str) -> frozenset[int]:
    """Colors of the cycle edges reachable from the vertex, by reachable sets.

    Every vertex's set of descendants (nonempty range-to-source walks) is
    closed by a frontier search; an edge lies on a cycle when it is a loop or
    its range descends from its source.
    """
    descendants: dict[str, frozenset[str]] = {}

    def reach(v: str) -> frozenset[str]:
        if v not in descendants:
            seen: set[str] = set()
            frontier = [e.source for e in sk.edges_by_range[v]]
            while frontier:
                u = frontier.pop()
                if u not in seen:
                    seen.add(u)
                    frontier.extend(e.source for e in sk.edges_by_range[u])
            descendants[v] = frozenset(seen)
        return descendants[v]

    return frozenset(
        e.color
        for v in reach(vertex_id) | {vertex_id}
        for e in sk.edges_by_range[v]
        if e.range == e.source or e.range in reach(e.source)
    )


def rescan_validate_squares(sk: Skeleton) -> ValidationReport:
    """`validate_squares` by a rescan of all edge pairs per color pair and side.

    Passes iff every composable two-colored pair of edges appears in exactly
    one rule on its side, and every rule respects the range/source equations
    a square must satisfy.
    """
    failures: list[Failure] = []
    edge = sk.edge_by_id
    well_formed: list[FactorizationRule] = []

    for rule in sk.rules:
        f, s = edge[rule.first], edge[rule.second]
        sf, ss = edge[rule.swapped_first], edge[rule.swapped_second]
        if f.color == s.color or sf.color != s.color or ss.color != f.color:
            failures.append(
                Failure(
                    "invalid_colors",
                    (rule.first, rule.second, rule.swapped_first, rule.swapped_second),
                    f"square must exchange two distinct colors, got "
                    f"({f.color},{s.color}) vs ({sf.color},{ss.color})",
                )
            )
            continue
        if (
            f.source != s.range
            or sf.source != ss.range
            or sf.range != f.range
            or ss.source != s.source
        ):
            failures.append(
                Failure(
                    "endpoint_mismatch",
                    (rule.first, rule.second, rule.swapped_first, rule.swapped_second),
                    "square sides do not share range and source",
                )
            )
            continue
        well_formed.append(rule)

    # Coverage per unordered color pair {i < j}: the rule set must hit every
    # composable (i,j) pair exactly once and every composable (j,i) pair
    # exactly once.  A color no edge carries has no pair and no rule.
    for i, j in combinations(sorted({e.color for e in sk.edges}), 2):
        forward = [
            (g.id, h.id)
            for g in sk.edges
            if g.color == i
            for h in sk.edges
            if h.color == j and g.source == h.range
        ]
        backward = [
            (g.id, h.id)
            for g in sk.edges
            if g.color == j
            for h in sk.edges
            if h.color == i and g.source == h.range
        ]
        pair_rules = [
            r
            for r in well_formed
            if edge[r.first].color == i and edge[r.second].color == j
        ]
        fwd_count: dict[tuple[str, str], int] = {}
        bwd_count: dict[tuple[str, str], int] = {}
        for r in pair_rules:
            fwd_count[(r.first, r.second)] = fwd_count.get((r.first, r.second), 0) + 1
            key = (r.swapped_first, r.swapped_second)
            bwd_count[key] = bwd_count.get(key, 0) + 1
        for side, composable, counts in (
            ("forward", forward, fwd_count),
            ("backward", backward, bwd_count),
        ):
            for pair in sorted(composable):
                n = counts.pop(pair, 0)
                if n == 0:
                    failures.append(
                        Failure(
                            "missing_square",
                            pair,
                            f"no factorization for the composable pair {pair[0]}.{pair[1]}",
                        )
                    )
                elif n > 1:
                    failures.append(
                        Failure(
                            "duplicate_square",
                            pair,
                            f"{n} factorizations for the composable pair {pair[0]}.{pair[1]}",
                        )
                    )
            for pair in sorted(counts):
                failures.append(
                    Failure(
                        "not_composable",
                        pair,
                        f"rule {side} side {pair[0]}.{pair[1]} is not a composable pair",
                    )
                )

    return ValidationReport("squares", not failures, tuple(failures))


def all_words(sk: Skeleton, n: Degree, range_vertex: str | None = None):
    """All composable words, in any color order, with color counts n.

    Restricted to words ranged at `range_vertex` when given.
    """
    out: list[tuple[str, ...]] = []
    counts = list(n.coords)

    def rec(at: str | None, acc: list[str]) -> None:
        if not any(counts):
            out.append(tuple(acc))
            return
        for e in sk.edges:
            if counts[e.color - 1] == 0:
                continue
            if at is not None and e.range != at:
                continue
            counts[e.color - 1] -= 1
            acc.append(e.id)
            rec(e.source, acc)
            acc.pop()
            counts[e.color - 1] += 1

    if n.total == 0:
        return [()]
    rec(range_vertex, [])
    return out


def brute_path_classes(sk: Skeleton, n: Degree, range_vertex: str | None = None):
    """The degree-n paths as word classes (a set of frozensets)."""
    classes: set[frozenset] = set()
    for w in all_words(sk, n, range_vertex):
        classes.add(word_class(sk, w))
    return classes


def same_path(sk: Skeleton, word_a, word_b) -> bool:
    return tuple(word_b) in word_class(sk, word_a)


def brute_minimal_extension_pairs(
    sk: Skeleton,
    word_a,
    word_b,
    deg_a: Degree,
    deg_b: Degree,
    at: str,
):
    """Word-level minimal common extension pairs of two paths ranged at `at`.

    Returns a set of (alpha class, beta class) pairs.
    """
    if word_range(sk, word_a, at) != word_range(sk, word_b, at):
        return set()
    top = deg_a.join(deg_b)
    alphas = {
        word_class(sk, w)
        for w in all_words(sk, top - deg_a, word_source(sk, word_a, at))
    }
    betas = {
        word_class(sk, w)
        for w in all_words(sk, top - deg_b, word_source(sk, word_b, at))
    }
    found = set()
    for ca in alphas:
        wa = min(ca) if ca else ()
        for cb in betas:
            wb = min(cb) if cb else ()
            if same_path(sk, tuple(word_a) + wa, tuple(word_b) + wb):
                found.add((ca, cb))
    return found


def pairwise_minimal_extension_pairs(sk: Skeleton, a: Path, b: Path):
    """`minimal_extension_pairs` comparing a.alpha with b.beta for every (alpha, beta)."""
    if a.range != b.range:
        return ()
    top = a.degree.join(b.degree)
    alphas = pth.paths_from(sk, source(sk, a), top - a.degree)
    betas = pth.paths_from(sk, source(sk, b), top - b.degree)
    left = {alpha: compose(sk, a, alpha) for alpha in alphas}
    right = {beta: compose(sk, b, beta) for beta in betas}
    pairs = [
        pth.MinimalExtensionPair(alpha, beta)
        for alpha in alphas
        for beta in betas
        if left[alpha] == right[beta]
    ]
    pairs.sort(key=lambda p: (pth.path_sort_key(p.alpha), pth.path_sort_key(p.beta)))
    return tuple(pairs)


# Rank-1 graphs: words are already canonical, so path machinery reduces to
# plain edge chains and the boundary definition can be checked literally.


def rank1_chains_from(sk: Skeleton, vertex_id: str) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = [()]
    frontier: list[tuple[str, ...]] = [()]
    while frontier:
        nxt = []
        for w in frontier:
            at = word_source(sk, w, vertex_id)
            for e in sk.edges_by_range[at]:
                nxt.append(w + (e.id,))
        out.extend(nxt)
        frontier = nxt
    return out


def rank1_boundary(sk: Skeleton) -> set[tuple[str, tuple[str, ...]]]:
    """All boundary paths of an acyclic rank-1 graph, by the raw definition.

    A chain is boundary iff at every position every exhaustive subset of the
    local chain set contains a prefix of the remaining tail.  Exhaustive
    sets are enumerated outright (for rank 1 two chains at a vertex are
    compatible iff one is a prefix of the other).
    """
    assert sk.rank == 1

    def vertex_of(word: tuple[str, ...], start: str, m: int) -> str:
        return word_source(sk, word[:m], start)

    local: dict[str, list[tuple[str, ...]]] = {
        v.id: rank1_chains_from(sk, v.id) for v in sk.vertices
    }

    def compatible(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
        shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
        return longer[: len(shorter)] == shorter

    def exhaustive_subsets(v: str):
        pool = local[v]
        for size in range(1, len(pool) + 1):
            for combo in combinations(pool, size):
                if all(any(compatible(lam, mu) for mu in combo) for lam in pool):
                    yield combo

    boundary: set[tuple[str, tuple[str, ...]]] = set()
    for v in sk.vertices:
        for chain in local[v.id]:
            ok = True
            for m in range(len(chain) + 1):
                here = vertex_of(chain, v.id, m)
                tail = chain[m:]
                for combo in exhaustive_subsets(here):
                    if not any(tail[: len(lam)] == lam for lam in combo):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                boundary.add((v.id, chain))
    return boundary


# Path rewriting by repeated scans: the references for the insertion sort of
# `paths._normalize` and for `factorize`, which sorts with it.


def bubble_normalize(sk: Skeleton, word) -> list[str]:
    """Bubble the word into color-ascending order, leftmost descent first."""
    color = sk.color_of
    swap = sk.swap_map
    w = list(word)
    while True:
        t = next((t for t in range(len(w) - 1) if color(w[t]) > color(w[t + 1])), None)
        if t is None:
            return w
        pair = (w[t], w[t + 1])
        try:
            w[t], w[t + 1] = swap[pair]
        except KeyError:
            raise ValueError(
                f"no factorization square for the pair {pair[0]}.{pair[1]}; "
                "skeleton does not present a rank-k graph"
            ) from None


def bubble_factorize(sk: Skeleton, p: Path, m: Degree) -> tuple[Path, Path]:
    """Bubble each head letter to the front, color by color; KeyError on a missing square."""
    d = p.degree
    if not m <= d:
        raise ValueError(f"cannot factor degree-{m} prefix out of degree-{d} path")
    color = sk.color_of
    swap = sk.swap_map
    word = list(p.word)
    prefix: list[str] = []
    for c in range(1, sk.rank + 1):
        for _ in range(m.coords[c - 1]):
            t = next(t for t, eid in enumerate(word) if color(eid) == c)
            while t > 0:
                word[t - 1], word[t] = swap[(word[t - 1], word[t])]
                t -= 1
            prefix.append(word.pop(0))
    head = Path(p.range, tuple(tuple(e for e in prefix if color(e) == c) for c in range(1, sk.rank + 1)))
    tail_range = sk.edge_by_id[prefix[-1]].source if prefix else p.range
    tail = bubble_normalize(sk, word)
    return head, Path(tail_range, tuple(tuple(e for e in tail if color(e) == c) for c in range(1, sk.rank + 1)))


# Path enumeration by composition: the references for the color-ascending
# walk of `paths_with_range`, `enumerate_paths` and the truncated pool.


def bfs_paths_with_range(sk: Skeleton, vertex_id: str, bound: Degree | None = None) -> tuple[Path, ...]:
    """Every path at the vertex (of degree <= bound): extend breadth-first by `compose`."""
    if vertex_id not in sk.vertex_ids:
        raise ValueError(f"unknown vertex {vertex_id!r}")
    if bound is None and sk.cycle_colors[vertex_id]:
        raise ExactModeError(f"vertex {vertex_id!r} reaches a cycle: its path set is infinite")
    collected: set[Path] = set()
    frontier = [pth.vertex_path(sk, vertex_id)]
    while frontier:
        nxt: list[Path] = []
        for p in frontier:
            if p in collected:
                continue
            collected.add(p)
            for e in sk.edges_by_range[pth.source(sk, p)]:
                q = pth.compose(sk, p, pth.edge_path(sk, e.id))
                if bound is None or q.degree <= bound:
                    nxt.append(q)
        frontier = nxt
    return pth.sort_paths(collected)


def bfs_enumerate_paths(sk: Skeleton, bound: Degree | None = None) -> tuple[Path, ...]:
    """The union of the breadth-first searches at every vertex."""
    out: set[Path] = set()
    for v in sk.vertices:
        out.update(bfs_paths_with_range(sk, v.id, bound))
    return pth.sort_paths(out)


# Groupoid labels: convolution and involution by label arithmetic, the
# reference for the composition table of `FiniteGroupoid`.


def label_composite(a, b) -> tuple:
    return (a.x, tuple(p + q for p, q in zip(a.m, b.m)), b.y)


def label_inverse(g) -> tuple:
    return (g.y, tuple(-c for c in g.m), g.x)


def label_convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Sum f(a) g(b) over every composable support pair, ascending (a, b)."""
    G = f.groupoid
    acc: dict[int, complex] = {}
    for ia, ca in f.coefficients.items():
        a = G.elements[ia]
        for ib, cb in g.coefficients.items():
            b = G.elements[ib]
            if a.y != b.x:
                continue
            idx = G.index_of(label_composite(a, b))
            acc[idx] = acc.get(idx, 0j) + ca * cb
    return AlgebraElement(G, acc)


def label_involution(f: AlgebraElement) -> AlgebraElement:
    G = f.groupoid
    return AlgebraElement(
        G,
        {
            G.index_of(label_inverse(G.elements[i])): c.conjugate()
            for i, c in f.coefficients.items()
        },
    )


# The row kernels of `kgraphs.algebra` as they were before the groupoid kept
# its bins (`FiniteGroupoid.bins`): every call builds its own bins from an
# arange.  The references for `_convolve_rows` and `_i_norms`, bit for bit.


def per_call_row_sums(at, values, width):
    """Per row r of real `values`, its entries summed into the bins at + width r, in column order."""
    bins = np.arange(len(values) * width).reshape(len(values), width)
    return np.bincount(bins[:, at].ravel(), values.ravel(), bins.size).reshape(bins.shape)


def per_call_convolve_rows(G: FiniteGroupoid, F: np.ndarray, H: np.ndarray) -> np.ndarray:
    (a, b, ab), missing = G.composition
    for ia, ib in missing:
        if np.any((F[:, ia] != 0) & (H[:, ib] != 0)):
            G.product(ia, ib)  # raises KeyError: the composite is missing
    x, y = F[:, a], H[:, b]
    out = per_call_row_sums(ab, x.real * y.real - x.imag * y.imag, len(G)).astype(complex)
    out.imag = per_call_row_sums(ab, x.real * y.imag + x.imag * y.real, len(G))
    return out


def per_call_i_norms(G: FiniteGroupoid, F: np.ndarray) -> np.ndarray:
    sums = [per_call_row_sums(at, _modulus(F), len(G.space)) for at in (G.x, G.y)]
    return np.concatenate(sums, axis=1).max(axis=1, initial=0.0)


# The groupoid axioms by exhaustive loops over a successor table built from
# labels: the unit and inverse laws on every element and associativity on
# every composable triple.  The reference for `verify_groupoid_axioms`, which
# checks closure, units, inverses and distinct labels instead.


def label_successors(G: FiniteGroupoid) -> tuple[dict[int, int | None], ...]:
    """successors[a] maps each b with b.x == a.y, ascending, to ab's index, or None if missing."""
    table = []
    for a in G.elements:
        row: dict[int, int | None] = {}
        for ib, b in enumerate(G.elements):
            if b.x == a.y:
                label = label_composite(a, b)
                row[ib] = G.index_of(label) if label in G else None
        table.append(row)
    return tuple(table)


def loop_groupoid_axioms(G: FiniteGroupoid) -> GroupoidReport:
    """Closure, units, inverses, witnesses, then the unit, inverse and associative laws."""
    failures: list[str] = []
    factors = G.space.factors
    table = label_successors(G)
    inverse = {
        i: G.index_of(label_inverse(g)) for i, g in enumerate(G.elements) if label_inverse(g) in G
    }

    for u in range(len(G.space.elements)):
        if u not in G.unit_index:
            failures.append(f"missing unit at space index {u}")
    for i, g in enumerate(G.elements):
        p, q = g.witness
        xpath, ypath = G.space.elements[g.x], G.space.elements[g.y]
        if (
            not p <= xpath.degree
            or not q <= ypath.degree
            or tuple(a - b for a, b in zip(p.coords, q.coords)) != g.m
            or factors[g.x][p.coords][1] != factors[g.y][q.coords][1]
        ):
            failures.append(f"invalid witness on {g.label()}")
        if i not in inverse:
            failures.append(f"inverse of {g.label()} missing")
        elif g.x not in G.unit_index or g.y not in G.unit_index:
            failures.append(f"unit for {g.label()} missing")
    for g1, successors in zip(G.elements, table):
        for i2, i12 in successors.items():
            if i12 is None:
                failures.append(f"composite of {g1.label()} and {G.elements[i2].label()} missing")
    if not failures:
        for i, g in enumerate(G.elements):
            ux, uy = G.unit_index[g.x], G.unit_index[g.y]
            if table[i][uy] != i or table[ux][i] != i:
                failures.append(f"unit law fails at {g.label()}")
            if table[i][inverse[i]] != ux:
                failures.append(f"inverse law fails at {g.label()}")
        for i1, successors in enumerate(table):
            for i2, i12 in successors.items():
                for i3, i23 in table[i2].items():
                    if table[i12][i3] != successors[i23]:
                        failures.append(
                            "associativity fails at "
                            f"{G.elements[i1].label()},{G.elements[i2].label()},{G.elements[i3].label()}"
                        )
    return GroupoidReport(not failures, tuple(failures))


# The regular representation's tables by label lookups, one table per unit:
# the reference for `RegularRepresentation`, which reads `product` once per
# unit off full groupoids and once per source block on them.


def label_regular_entries(G: FiniteGroupoid) -> dict[int, np.ndarray]:
    """entries[u][row, col]: index of (x, m - n, x') for the fiber's (x, m, u) and (x', n, u).

    One table per unit, each gamma beta^{-1} looked up by its label; a missing
    label raises KeyError.
    """
    entries = {}
    for u in G.units():
        heads = [(g.x, g.m) for g in G.elements if g.y == u]
        entries[u] = np.array(
            [[G.index_of((x, tuple(a - b for a, b in zip(m, n)), x2)) for x2, n in heads] for x, m in heads],
            dtype=np.intp,
        )
    return entries


# Coefficient-by-coefficient loops in plain Python over the nonzero entries:
# the references for the array arithmetic of `AlgebraElement`, `i_norm` and
# `gauge_automorphism` (Python's complex product and abs(complex)).


def loop_scale(f: AlgebraElement, c: complex) -> AlgebraElement:
    return AlgebraElement(f.groupoid, {i: c * v for i, v in f.coefficients.items()})


def loop_max_abs(f: AlgebraElement) -> float:
    return max((abs(c) for c in f.coefficients.values()), default=0.0)


def loop_i_norm(f: AlgebraElement) -> float:
    """Max over units of the larger fiberwise l1 sum, summed in ascending index order."""
    G = f.groupoid
    by_range: dict[int, float] = {}
    by_source: dict[int, float] = {}
    for i, c in f.coefficients.items():
        g = G.elements[i]
        by_range[g.x] = by_range.get(g.x, 0.0) + abs(c)
        by_source[g.y] = by_source.get(g.y, 0.0) + abs(c)
    return max(list(by_range.values()) + list(by_source.values()), default=0.0)


def loop_gauge_automorphism(f: AlgebraElement, ts: tuple[complex, ...]) -> AlgebraElement:
    """Scale the coefficient at (x, m, y) by t^m, negative powers through the conjugate."""
    G = f.groupoid
    out: dict[int, complex] = {}
    for i, coeff in f.coefficients.items():
        scale = 1 + 0j
        for base, power in zip(ts, G.elements[i].m):
            scale *= base.conjugate() ** (-power) if power < 0 else base**power
        out[i] = scale * coeff
    return AlgebraElement(G, out)


# The groupoid and its cylinders by the definition: compare every tail of x
# with every tail of y, or join the factorization table on tails, and prepend
# to every space element.  References for the source blocks and the table
# lookups of `kgraphs.groupoid`.


def all_pairs_path_groupoid(space: FinitePathSpace) -> FiniteGroupoid:
    """Every (x, p - q, y) with equal tails, witnessed by the least p."""
    sk = space.skeleton
    tails = [
        {m.coords: pth.factorize(sk, x, m)[1] for m in degree_box(x.degree)}
        for x in space.elements
    ]
    found: dict[tuple, tuple[Degree, Degree]] = {}
    for ix in range(len(space.elements)):
        for iy in range(len(space.elements)):
            for p_coords, ptail in tails[ix].items():
                for q_coords, qtail in tails[iy].items():
                    if ptail != qtail:
                        continue
                    m = tuple(a - b for a, b in zip(p_coords, q_coords))
                    label = (ix, m, iy)
                    wit = (Degree(p_coords), Degree(q_coords))
                    if label not in found or wit[0].coords < found[label][0].coords:
                        found[label] = wit
    elements = [GroupoidElement(x, m, y, witness=found[(x, m, y)]) for (x, m, y) in found]
    return FiniteGroupoid(space, elements)


def tail_join_path_groupoid(space: FinitePathSpace) -> FiniteGroupoid:
    """Every (x, p - q, y) with matching tails at shifts p, q, by a join on tails.

    A join: each (x, p) is bucketed under its tail, pairs within a bucket are
    elements, and the least p is kept as the witness.  On an exact space this
    is the whole path groupoid.  On a truncated space only witnesses within
    the recorded prefixes are visible, so the result is not `complete`.
    """
    buckets: dict[pth.Path, list[tuple[int, tuple[int, ...]]]] = {}
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


# The object build that `build_path_groupoid` replaced: one `GroupoidElement`
# per element, each witnessed by its own search over the factorization table,
# sorted by the list constructor; the union-find partition that `orbits`
# replaced; and the certificate, unit and inverse tables and report that
# `FiniteGroupoid` read off its element objects.  Moved here, as references
# for the columnar build, its on-demand witnesses and what reads its arrays.


def object_path_groupoid(space: FinitePathSpace) -> FiniteGroupoid:
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


def union_find_orbits(G: FiniteGroupoid) -> tuple[tuple[int, ...], ...]:
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


def object_is_full(G: FiniteGroupoid) -> bool:
    """Are the elements exactly the labels (x, d(x) - d(y), y) with s(x) = s(y), each once?"""
    sk, space = G.space.skeleton, G.space.elements
    source = [pth.source(sk, x) for x in space]
    deg = [x.degree.coords for x in space]
    labels = [g.label() for g in G.elements]
    return len(set(labels)) == len(G) == sum(n * n for n in Counter(source).values()) and all(
        source[g.x] == source[g.y] and g.m == tuple(map(sub, deg[g.x], deg[g.y])) for g in G.elements
    )


def object_unit_index(G: FiniteGroupoid) -> dict[int, int]:
    return {g.x: i for i, g in enumerate(G.elements) if g.x == g.y and not any(g.m)}


def object_inverse(G: FiniteGroupoid) -> dict[int, int]:
    index = {g.label(): i for i, g in enumerate(G.elements)}
    labels = ((i, (g.y, tuple(-c for c in g.m), g.x)) for i, g in enumerate(G.elements))
    return {i: index[label] for i, label in labels if label in index}


def object_groupoid_json(G: FiniteGroupoid) -> dict:
    """`FiniteGroupoid.to_json` over the element objects, with union-find orbits."""
    orbit_of: dict[int, int] = {}
    for label, members in enumerate(union_find_orbits(G)):
        for u in members:
            orbit_of[u] = label
    units = object_unit_index(G)
    return {
        "complete": G.complete,
        "elements": [
            {
                "x": g.x,
                "m": list(g.m),
                "y": g.y,
                "unit": g.x == g.y and not any(g.m),
                "orbit": orbit_of[g.x],
            }
            for g in G.elements
        ],
        "units": [units[u] for u in sorted(units)],
    }


def isotropy(G: FiniteGroupoid, unit: int) -> tuple[GroupoidElement, ...]:
    """All elements looping at the given unit (space index)."""
    return tuple(G.elements[i] for i in G.by_range.get(unit, ()) if G.elements[i].y == unit)


def prepend_cylinder(G: FiniteGroupoid, lam, mu) -> CylinderSet:
    """Z(lam, mu) from lam.z and mu.z, composed for every space element z."""
    sk = G.space.skeleton
    if pth.source(sk, lam) != pth.source(sk, mu):
        raise ValueError("cylinder needs paths with a common source")
    if not G.space.is_exact:
        raise ExactModeError("cylinders are only enumerable in exact mode")
    m = tuple(a - b for a, b in zip(lam.degree.coords, mu.degree.coords))
    members = []
    for z in G.space.elements:
        if z.range != pth.source(sk, lam):
            continue
        xl = prepend(sk, lam, z)
        xm = prepend(sk, mu, z)
        members.append(G.index_of((G.space.index_of(xl), m, G.space.index_of(xm))))
    return CylinderSet(lam, mu, tuple(sorted(members)))


# Exhaustiveness by the definition: every path at the vertex tested against
# every member for a common extension, the reference for the prefix-row rule
# of `is_exhaustive`.  Boundary membership by the definition: minimal
# exhaustive sets by a search over all subsets of a vertex's paths, and every
# tail split afresh.  The references for the transversal search, the
# factor-table reads of `is_boundary` and the source rule of
# `boundary_paths`; and the transversal
# search rescanning every row per chosen member with prefixes from
# `factorize`, the reference for its per-row counts on stars and for its
# rows, read from the factorization table or built from one-letter cuts.


def sweep_is_exhaustive(sk: Skeleton, vertex_id: str, members, bound: Degree | None = None):
    """`is_exhaustive` testing every path at the vertex (of degree <= bound, if one is
    given) against every member with `minimal_extension_pairs`, with no bound too."""
    members = list(members)
    for m in members:
        if m.range != vertex_id:
            raise ValueError(f"member ranges at {m.range!r}, not {vertex_id!r}")
    if bound is None:
        candidates = pth.paths_with_range(sk, vertex_id)
    else:
        candidates = [
            p for n in degree_box(bound) for p in pth.paths_from(sk, vertex_id, n)
        ]
    for lam in candidates:
        if not any(pth.minimal_extension_pairs(sk, lam, mu) for mu in members):
            return ExhaustivenessResult("not_exhaustive", witness=lam, bound=bound)
    if bound is None:
        return ExhaustivenessResult("exhaustive")
    return ExhaustivenessResult("unknown", bound=bound)


def subset_search_minimal_exhaustive_sets(sk: Skeleton, vertex_id: str):
    """Minimal exhaustive sets, smallest first with superset pruning."""
    pool = pth.paths_with_range(sk, vertex_id)
    compatible = [
        [bool(pth.minimal_extension_pairs(sk, a, b)) for b in pool] for a in pool
    ]
    found: list[tuple[int, ...]] = []
    for size in range(1, len(pool) + 1):
        for combo in combinations(range(len(pool)), size):
            if any(set(minimal) <= set(combo) for minimal in found):
                continue
            if all(any(compatible[i][j] for j in combo) for i in range(len(pool))):
                found.append(combo)
    return tuple(
        ExhaustiveSet(vertex_id, tuple(pool[i] for i in combo)) for combo in found
    )


def rescan_minimal_exhaustive_sets(sk: Skeleton, vertex_id: str):
    """The transversal search of `minimal_exhaustive_sets`, rescanning every row.

    Each choice re-checks every chosen member against all maximal paths
    (O(n^3) on an n-leaf star) instead of keeping per-row counts of the
    chosen members, and each row derives its prefixes with one `factorize`
    per (maximal path, m <= its degree) instead of reading the table.
    """
    pool = pth.paths_with_range(sk, vertex_id)
    index = {p: i for i, p in enumerate(pool)}
    rows = [
        sum(1 << index[pth.factorize(sk, g, m)[0]] for m in degree_box(g.degree))
        for g in pool
        if not sk.edges_by_range[pth.source(sk, g)]
    ]
    found: list[tuple[int, ...]] = []
    branches: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]  # chosen, mask, banned
    while branches:
        chosen, mask, banned = branches.pop()
        row = next((r for r in rows if not r & mask), None)
        if row is None:
            found.append(tuple(sorted(chosen)))
            continue
        for i in [i for i in range(len(pool)) if (row & ~banned) >> i & 1]:
            taken = mask | 1 << i
            if all(any(r & taken == 1 << c for r in rows) for c in chosen):
                branches.append((chosen + (i,), taken, banned))
            banned |= 1 << i
    found.sort(key=lambda combo: (len(combo), combo))
    return tuple(
        ExhaustiveSet(vertex_id, tuple(pool[i] for i in combo)) for combo in found
    )


# The element representation of the path space before its elements were
# its paths: a wrapper per element, with the truncation markers copied onto
# each at enumeration.  `reference_element_json` writes an element through it.


@dataclass(frozen=True)
class PathSpaceElement:
    """A path-space point, or in truncated mode a prefix class.

    Exact elements are plain paths.  A truncated element records the path
    seen up to the bound plus, per color, whether extensions continue past
    it (`extendable`) and whether they can continue forever (`unbounded`:
    the color is in `Skeleton.cycle_colors` at the tail's source).
    """

    path: Path
    truncated: bool = False
    extendable: tuple[bool, ...] | None = None
    unbounded: tuple[bool, ...] | None = None

    @property
    def degree(self) -> Degree:
        return self.path.degree

    @property
    def extended_degree(self) -> tuple[int | float, ...]:
        """Recorded degree with `inf` where the class grows without bound."""
        if not self.truncated or self.unbounded is None:
            return self.path.degree.coords
        return tuple(
            float("inf") if unb else c
            for c, unb in zip(self.path.degree.coords, self.unbounded)
        )

    def to_json(
        self, factors: dict[tuple[int, ...], tuple[Path, Path]], memo: dict | None = None
    ) -> dict:
        """Serialize, given the element's row of its space's `factors` table; a shared
        `memo` converts each prefix once."""
        memo = {} if memo is None else memo
        out: dict = {
            "degree": [c if c != float("inf") else "inf" for c in self.extended_degree],
            "prefixes": [[list(m), _json(memo, head)] for m, (head, _) in sorted(factors.items())],
            "truncated": self.truncated,
        }
        if self.truncated:
            out["extendable"] = list(self.extendable or ())
        return out


def _truncated_element(sk: Skeleton, p: Path) -> PathSpaceElement:
    tail, colors = pth.source(sk, p), range(1, sk.rank + 1)
    extendable = tuple(any(e.color == c for e in sk.edges_by_range[tail]) for c in colors)
    unbounded = tuple(c in sk.cycle_colors[tail] for c in colors)
    return PathSpaceElement(p, truncated=True, extendable=extendable, unbounded=unbounded)


def reference_element_json(space: FinitePathSpace, i: int) -> dict:
    """`space.element_json(i)` through the per-element wrapper."""
    p = space.elements[i]
    el = PathSpaceElement(p) if space.is_exact else _truncated_element(space.skeleton, p)
    return el.to_json(space.factors[i])


@dataclass(frozen=True)
class BoundaryEntry:
    """One (position, exhaustive set) obligation and how it was settled."""

    at: Degree
    vertex: str
    members: tuple[Path, ...]
    witness: Path | None

    def to_json(self) -> dict:
        return {
            "at": list(self.at.coords),
            "vertex": self.vertex,
            "set": [p.to_json() for p in self.members],
            "witness": None if self.witness is None else self.witness.to_json(),
        }


@dataclass(frozen=True)
class BoundaryCertificate:
    status: str  # "boundary" | "not_boundary" | "undecided_at_bound"
    entries: tuple[BoundaryEntry, ...]

    def to_json(self) -> dict:
        return {"status": self.status, "entries": [e.to_json() for e in self.entries]}


def is_boundary(space: FinitePathSpace, x: Path) -> tuple[bool | None, BoundaryCertificate]:
    """Decide boundary membership of an exact element, with a certificate: the
    reference for the records `boundary_chunks` writes.

    For every position m along the path and every minimal exhaustive set at
    the vertex there, some member must be a prefix of the tail.  The entries
    at m are the tail's `obligations`, read off the space's `factors`, so x
    must be an element of the space.  Truncated spaces cannot settle this;
    the certificate then says so and the boolean is None.
    """
    if not space.is_exact:
        return None, BoundaryCertificate("undecided_at_bound", ())
    entries: list[BoundaryEntry] = []
    for m, (_, tail) in space.factors[space.index_of(x)].items():
        at = Degree(m)
        for members, witness in space.obligations(tail):
            entries.append(BoundaryEntry(at, tail.range, members, witness))
            if witness is None:
                return False, BoundaryCertificate("not_boundary", tuple(entries))
    return True, BoundaryCertificate("boundary", tuple(entries))


def segment_is_boundary(space: FinitePathSpace, p: Path, cache: dict):
    """`is_boundary` with vertices and tail prefixes from `vertex_at` / `segment`."""
    if not space.is_exact:
        return None, BoundaryCertificate("undecided_at_bound", ())
    sk = space.skeleton
    entries = []
    for m in degree_box(p.degree):
        v = vertex_at(sk, p, m)
        if v not in cache:
            cache[v] = subset_search_minimal_exhaustive_sets(sk, v)
        for ex_set in cache[v]:
            witness = None
            for lam in ex_set.members:
                if m + lam.degree <= p.degree and segment(sk, p, m, m + lam.degree) == lam:
                    witness = lam
                    break
            entries.append(BoundaryEntry(m, v, ex_set.members, witness))
            if witness is None:
                return False, BoundaryCertificate("not_boundary", tuple(entries))
    return True, BoundaryCertificate("boundary", tuple(entries))


def filtered_boundary_paths(space: FinitePathSpace) -> FinitePathSpace:
    """The elements `segment_is_boundary` accepts."""
    cache: dict = {}
    kept = [p for p in space.elements if segment_is_boundary(space, p, cache)[0]]
    return FinitePathSpace(space.skeleton, "exact", kept, parent=space)


def boundary_report(
    space: FinitePathSpace, verdicts=is_boundary, element_json=FinitePathSpace.element_json
) -> dict:
    """The exact `boundary` report as a dict, the reference for `boundary_chunks`:
    `verdicts(space, p)` gives each element's (verdict, certificate), and
    `element_json(space, i)` its element JSON."""
    members = []
    for i, p in enumerate(space.elements):
        verdict, cert = verdicts(space, p)
        element = element_json(space, i)
        members.append({"element": element, "boundary": verdict, "certificate": cert.to_json()})
    return {
        "classification": classify_vertices(space.skeleton).to_json(),
        "elements": members,
        "boundary_size": sum(1 for m in members if m["boundary"]),
    }


def subset_search_boundary_report(space: FinitePathSpace) -> dict:
    """`boundary_report` built on `segment_is_boundary` and `reference_element_json`."""
    cache: dict = {}
    verdicts = lambda space, p: segment_is_boundary(space, p, cache)
    return boundary_report(space, verdicts, reference_element_json)


# The per-element reference layer: one path, element or function at a time,
# through the library's primitives (`factorize`, `G.product`, `convolve`, ...),
# where the commands read the factorization table, the composition table and
# the stacked row kernels.


def segment(sk: Skeleton, p: Path, lo: Degree, hi: Degree) -> Path:
    """The middle factor p(lo, hi); requires 0 <= lo <= hi <= d(p)."""
    if not (lo <= hi and hi <= p.degree):
        raise ValueError(f"segment bounds must satisfy 0 <= {lo} <= {hi} <= {p.degree}")
    head, _ = factorize(sk, p, hi)
    _, mid = factorize(sk, head, lo)
    return mid


def vertex_at(sk: Skeleton, p: Path, m: Degree) -> str:
    """The vertex p(m) = source of the degree-m prefix."""
    head, _ = factorize(sk, p, m)
    return source(sk, head)


def minimal_common_extensions(sk: Skeleton, U, V) -> tuple[Path, ...]:
    """The set of minimal common extensions of two uniform-degree path sets."""
    U, V = list(U), list(V)
    for name, group in (("U", U), ("V", V)):
        degs = {p.degree for p in group}
        if len(degs) > 1:
            raise ValueError(f"{name} mixes degrees {sorted(d.coords for d in degs)}")
    out: set[Path] = set()
    for a in U:
        for b in V:
            for pair in minimal_extension_pairs(sk, a, b):
                out.add(compose(sk, a, pair.alpha))
    return sort_paths(out)


@dataclass(frozen=True)
class AlignmentReport:
    bound: Degree
    pairs_checked: int
    max_size: int
    witness: tuple[Path, Path] | None
    rank_one_single_valued: bool | None
    passed: bool

    def to_json(self) -> dict:
        return {
            "bound": list(self.bound.coords),
            "pairs_checked": self.pairs_checked,
            "max_size": self.max_size,
            "witness": None
            if self.witness is None
            else [self.witness[0].to_json(), self.witness[1].to_json()],
            "rank_one_single_valued": self.rank_one_single_valued,
            "passed": self.passed,
        }


def alignment_report(sk: Skeleton, bound: Degree) -> AlignmentReport:
    """Survey |minimal extension pair sets| over all path pairs up to a bound.

    Finite skeletons are finitely aligned by construction, so the survey
    always completes; for rank 1 it additionally asserts that every pair set
    has at most one element.
    """
    pool = [p for n in degree_box(bound) for p in all_paths(sk, n)]
    max_size, witness, pairs = 0, None, 0
    single = True
    for a in pool:
        for b in pool:
            pairs += 1
            size = len(minimal_extension_pairs(sk, a, b))
            if size > 1:
                single = False
            if size > max_size:
                max_size, witness = size, (a, b)
    rank_one = single if sk.rank == 1 else None
    passed = rank_one is not False
    return AlignmentReport(bound, pairs, max_size, witness, rank_one, passed)


def shift(sk: Skeleton, x: Path, m: Degree) -> Path:
    """Drop the degree-m prefix: the tail element after m."""
    if not m <= x.degree:
        raise ValueError(f"cannot shift by {m} past recorded degree {x.degree}")
    _, tail = pth.factorize(sk, x, m)
    return tail


def invert_element(G: FiniteGroupoid, g: GroupoidElement) -> GroupoidElement:
    return G.elements[G.inverse[G.index_of(g.label())]]


def compose_elements(
    G: FiniteGroupoid, g1: GroupoidElement, g2: GroupoidElement
) -> GroupoidElement:
    """The composite (x, m+n, z) of (x, m, y) and (y, n, z)."""
    return G.elements[G.product(G.index_of(g1.label()), G.index_of(g2.label()))]


def cocycle(g: GroupoidElement) -> tuple[int, ...]:
    return g.m


def i_norm(f: AlgebraElement) -> float:
    """Max over units of the larger fiberwise l1 sum (range or source fiber)."""
    return float(_i_norms(f.groupoid, f.values[None])[0])


def rank_one_lift(G: FiniteGroupoid, pairs) -> AlgebraElement:
    """Lift a sum of rank-one operators: sum of S(xi) S(eta)*."""
    out = AlgebraElement.zero(G)
    for xi, eta in pairs:
        out = out + convolve(edge_operator(G, xi), involution(edge_operator(G, eta)))
    return out


def quotient_restrict(f: AlgebraElement, boundary_G: FiniteGroupoid) -> AlgebraElement:
    """Restrict coefficients to elements whose endpoints are boundary paths."""
    kept, at = _restriction(f.groupoid, boundary_G)
    return AlgebraElement(boundary_G, _scatter(len(boundary_G), at, f.values[None, kept])[0])


def gauge_automorphism(f: AlgebraElement, t) -> AlgebraElement:
    """Scale the coefficient at (x, m, y) by the monomial t^m; t is one circle parameter per
    color, or a scalar at rank 1, and |t_c| must be 1 (ValueError otherwise)."""
    G = f.groupoid
    ts = (complex(t),) if np.isscalar(t) else tuple([complex(c) for c in t])
    if len(ts) != G.rank:
        raise ValueError(f"expected {G.rank} circle parameters, got {len(ts)}")
    for c in ts:
        if abs(abs(c) - 1.0) > DEFAULT_TOL:
            raise ValueError(f"gauge parameter {c} is not on the unit circle")
    levels, level = G.grading
    scales = _gauge_scales(levels, np.array([ts], dtype=complex))[0]
    return AlgebraElement(G, _multiply(scales[level], f.values))


def homogeneous_component(f: AlgebraElement, level: tuple[int, ...]) -> AlgebraElement:
    levels, at = f.groupoid.grading
    at_level = np.array([m == tuple(level) for m in levels], dtype=bool)
    return AlgebraElement(f.groupoid, np.where(at_level[at], f.values, 0))


def support_levels(f: AlgebraElement) -> set[tuple[int, ...]]:
    levels, level = f.groupoid.grading
    return {levels[j] for j in level[f.values != 0].tolist()}


def random_vertex_function(rng: np.random.Generator, vertex_ids) -> VertexFunction:
    return VertexFunction(
        {v: complex(rng.standard_normal(), rng.standard_normal()) for v in vertex_ids}
    )


def random_edge_function(rng: np.random.Generator, edge_ids) -> EdgeFunction:
    return EdgeFunction(
        {e: complex(rng.standard_normal(), rng.standard_normal()) for e in edge_ids}
    )


def random_algebra_element(rng: np.random.Generator, G: FiniteGroupoid) -> AlgebraElement:
    """Entry i is complex(re, im) from the next two standard normals, in index order."""
    return AlgebraElement(G, _normal_rows(rng, (len(G),)))


def cuntz_krieger_sides(
    G: FiniteGroupoid, f: VertexFunction
) -> tuple[AlgebraElement, AlgebraElement]:
    """Both sides of the Cuntz-Krieger identity for one vertex function.

    Rejects functions supported outside the regular vertices: the identity
    is only imposed there.
    """
    sk = _require_rank_one(G)
    regular = set(classify_vertices(sk).regular)
    if not f.support() <= regular:
        raise ValueError(
            f"vertex function supported off the regular vertices: "
            f"{sorted(f.support() - regular)}"
        )
    return vertex_operator(G, f), rank_one_lift(G, rank_one_decomposition(sk, f))


# The sampled suites one sample at a time, as `kgraphs.algebra` ran them before
# it stacked samples into rows: the references for the stacked suites, whose
# reports must equal these, floats included.


def verify_algebra_identities(
    G: FiniteGroupoid,
    samples: int = 100,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> list[RelationReport]:
    """Convolution associativity, involution, I-norm, regular representation."""
    rng = np.random.default_rng(seed)
    rep = RegularRepresentation(G)
    tables = list({id(t): t for t in rep.entries.values()}.values())  # one per source block if full
    dev_assoc = dev_dist = dev_inv = dev_norm = dev_rep = dev_adj = 0.0
    if len(G) <= 50:
        # (delta_a delta_b) delta_c and delta_a (delta_b delta_c) are deltas or 0, so they
        # differ by 1.0 or not at all.  Row a of the product table (index n for 0) gives every
        # (ab)c and a(bc); rows compare as lists: numpy's int compare pages in 128 KB more.
        n = len(G)
        (a, b, ab), missing = G.composition
        if missing:
            G.product(*missing[0])  # raises KeyError: a composite is missing
        product = np.full((n + 1, n + 1), n, dtype=np.intp)
        product[a, b] = ab
        for row in product[:n]:
            if product[row].tolist() != row[product].tolist():
                dev_assoc = 1.0
    for _ in range(samples):
        f = random_algebra_element(rng, G)
        g = random_algebra_element(rng, G)
        h = random_algebra_element(rng, G)
        fg, fh, gh = convolve(f, g), convolve(f, h), convolve(g, h)
        dev_assoc = max(dev_assoc, (convolve(fg, h) - convolve(f, gh)).max_abs())
        dev_dist = max(
            dev_dist,
            (convolve(f, g + h) - (fg + fh)).max_abs(),
            (convolve(f + g, h) - (fh + gh)).max_abs(),
        )
        dev_inv = max(
            dev_inv,
            (involution(fg) - convolve(involution(g), involution(f))).max_abs(),
        )
        dev_norm = max(dev_norm, i_norm(fg) - i_norm(f) * i_norm(g))
        f_star = involution(f)
        for t in tables:
            mf = f.values[t]
            dev_rep = max(dev_rep, float(np.max(np.abs(fg.values[t] - mf @ g.values[t]))))
            dev_adj = max(dev_adj, float(np.max(np.abs(f_star.values[t] - mf.conj().T))))
    return [
        _report("convolution_associativity", samples, seed, dev_assoc, tol),
        _report("convolution_distributive", samples, seed, dev_dist, tol),
        _report("involution_antimultiplicative", samples, seed, dev_inv, tol),
        _report("i_norm_submultiplicative", samples, seed, max(dev_norm, 0.0), tol),
        _report("regular_representation_multiplicative", samples, seed, dev_rep, tol),
        _report("regular_representation_adjoint", samples, seed, dev_adj, tol),
    ]


def verify_toeplitz_identities(
    G: FiniteGroupoid,
    samples: int = 100,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> list[RelationReport]:
    """S(xi)* S(eta) = P(<xi, eta>) and P(f) S(xi) = S(f . xi), sampled."""
    sk = _require_rank_one(G)
    rng = np.random.default_rng(seed)
    vertex_ids = [v.id for v in sk.vertices]
    edge_ids = [e.id for e in sk.edges]
    dev_i = dev_ii = 0.0
    for _ in range(samples):
        f = random_vertex_function(rng, vertex_ids)
        xi = random_edge_function(rng, edge_ids)
        eta = random_edge_function(rng, edge_ids)
        lhs_i = convolve(involution(edge_operator(G, xi)), edge_operator(G, eta))
        rhs_i = vertex_operator(G, inner_product(sk, xi, eta))
        dev_i = max(dev_i, (lhs_i - rhs_i).max_abs())
        lhs_ii = convolve(vertex_operator(G, f), edge_operator(G, xi))
        rhs_ii = edge_operator(G, left_action(sk, f, xi))
        dev_ii = max(dev_ii, (lhs_ii - rhs_ii).max_abs())
    return [
        _report("toeplitz_inner_product", samples, seed, dev_i, tol),
        _report("toeplitz_left_action", samples, seed, dev_ii, tol),
    ]


def verify_cuntz_krieger(
    boundary_G: FiniteGroupoid,
    samples: int = 100,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> RelationReport:
    """P(f) equals the lift of left multiplication by f on the boundary groupoid.

    Also checks the degree-zero edge case: every degree-0 boundary path is a
    source vertex, so both sides vanish on those units.
    """
    sk = _require_rank_one(boundary_G)
    classes = classify_vertices(sk)
    regular = list(classes.regular)
    rng = np.random.default_rng(seed)
    deviation = 0.0
    notes = ""
    degree_zero = []
    for path_idx, elem_idx in boundary_G.unit_index.items():
        x = boundary_G.space.elements[path_idx]
        if x.degree.total == 0:
            degree_zero.append(elem_idx)
            if x.range not in classes.sources:
                notes = f"degree-0 boundary path at non-source vertex {x.range}"
    for _ in range(samples):
        f = random_vertex_function(rng, regular) if regular else VertexFunction({})
        lhs, rhs = cuntz_krieger_sides(boundary_G, f)
        at_zero = _modulus(np.concatenate([lhs.values[degree_zero], rhs.values[degree_zero]]))
        deviation = max(deviation, (lhs - rhs).max_abs(), float(at_zero.max(initial=0.0)))
    passed = deviation <= tol and not notes
    return RelationReport("cuntz_krieger", samples, seed, deviation, tol, passed, notes)


def verify_gauge_action(
    G: FiniteGroupoid,
    samples: int = 100,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> list[RelationReport]:
    """Gauge scaling is an automorphism, respects the grading, and fixes units."""
    sk = G.space.skeleton
    rng = np.random.default_rng(seed)
    dev_auto = dev_grade = dev_gen = 0.0
    for _ in range(samples):
        f = random_algebra_element(rng, G)
        g = random_algebra_element(rng, G)
        ts = tuple(
            complex(np.exp(2j * np.pi * rng.random())) for _ in range(sk.rank)
        )
        lhs = gauge_automorphism(convolve(f, g), ts)
        rhs = convolve(gauge_automorphism(f, ts), gauge_automorphism(g, ts))
        dev_auto = max(dev_auto, (lhs - rhs).max_abs())
        levels_f = support_levels(f)
        levels_g = support_levels(g)
        if levels_f and levels_g:
            mf = sorted(levels_f)[rng.integers(len(levels_f))]
            mg = sorted(levels_g)[rng.integers(len(levels_g))]
            prod = convolve(homogeneous_component(f, mf), homogeneous_component(g, mg))
            expected = tuple(a + b for a, b in zip(mf, mg))
            dev_grade = max(dev_grade, (prod - homogeneous_component(prod, expected)).max_abs())
    reports = [
        _report("gauge_automorphism", samples, seed, dev_auto, tol),
        _report("gauge_grading", samples, seed, dev_grade, tol),
    ]
    if sk.rank == 1:
        for _ in range(samples):
            t = complex(np.exp(2j * np.pi * rng.random()))
            f = random_vertex_function(rng, [v.id for v in sk.vertices])
            xi = random_edge_function(rng, [e.id for e in sk.edges])
            pf = vertex_operator(G, f)
            sxi = edge_operator(G, xi)
            dev_gen = max(
                dev_gen,
                (gauge_automorphism(pf, t) - pf).max_abs(),
                (gauge_automorphism(sxi, t) - sxi.scale(t)).max_abs(),
            )
        reports.append(
            _report("gauge_scales_generators", samples, seed, dev_gen, 0.0)
        )
    return reports


def verify_quotient(
    G: FiniteGroupoid,
    boundary_G: FiniteGroupoid,
    samples: int = 100,
    seed: int = DEFAULT_SEED,
) -> RelationReport:
    """Restriction to the boundary groupoid is multiplicative, exactly.

    Boundary invariance makes the surviving convolution terms identical on
    both sides, and convolution sums them in the composition table's
    ascending (a, b) order on both, so the float sums are identical too and
    the tolerance here is zero.
    """
    rng = np.random.default_rng(seed)
    deviation = 0.0
    for _ in range(samples):
        f = random_algebra_element(rng, G)
        g = random_algebra_element(rng, G)
        lhs = quotient_restrict(convolve(f, g), boundary_G)
        rhs = convolve(quotient_restrict(f, boundary_G), quotient_restrict(g, boundary_G))
        deviation = max(deviation, (lhs - rhs).max_abs())
    return _report("quotient_multiplicative", samples, seed, deviation, 0.0)
