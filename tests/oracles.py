"""Independent brute-force oracles.

Everything here works on raw edge words and the instance's square table,
never on the package's normal forms, so agreement with the library is a
genuine two-route check.  Words are tuples of edge ids read left to right
from the range; two words name the same path exactly when one rewrites to
the other by single square swaps.

The skeleton oracles sort the multigraph topologically and rescan every
pair of edges once per color pair and side, with separate counters for the
two sides of the squares, instead of peeling vertices and counting both
sides in one pass over the composable pairs.

The groupoid oracles at the end compose labels, (x, m, y)(y, n, z) =
(x, m + n, z), pair by pair instead of reading the groupoid's index arrays,
walk every composable triple for the axioms, and build the groupoid and its
cylinders by factorizing and composing paths afresh instead of reading the
path space's factorization table.

The boundary oracles search every subset of a vertex's paths against the
pairwise compatibility of `minimal_extension_pairs`, and split paths with
`vertex_at` / `segment`, instead of reading maximal paths, sources and the
factorization table.
"""

from __future__ import annotations

import graphlib
from itertools import combinations

from kgraphs import paths as pth
from kgraphs.algebra import AlgebraElement
from kgraphs.boundary import (
    BoundaryCertificate,
    BoundaryEntry,
    ExhaustiveSet,
    FinitePathSpace,
    PathSpaceElement,
    classify_vertices,
    prepend,
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
        xpath, ypath = G.space.elements[g.x].path, G.space.elements[g.y].path
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
        {m.coords: pth.factorize(sk, el.path, m)[1] for m in degree_box(el.path.degree)}
        for el in space.elements
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


def prepend_cylinder(G: FiniteGroupoid, lam, mu) -> CylinderSet:
    """Z(lam, mu) from lam.z and mu.z, composed for every space element z."""
    sk = G.space.skeleton
    if pth.source(sk, lam) != pth.source(sk, mu):
        raise ValueError("cylinder needs paths with a common source")
    if not G.space.is_exact:
        raise ExactModeError("cylinders are only enumerable in exact mode")
    m = tuple(a - b for a, b in zip(lam.degree.coords, mu.degree.coords))
    members = []
    for el in G.space.elements:
        if el.path.range != pth.source(sk, lam):
            continue
        xl = prepend(sk, lam, el)
        xm = prepend(sk, mu, el)
        members.append(G.index_of((G.space.index_of(xl.path), m, G.space.index_of(xm.path))))
    return CylinderSet(lam, mu, tuple(sorted(members)))


# Boundary membership by the definition: minimal exhaustive sets by a search
# over all subsets of a vertex's paths, and every tail split afresh.  The
# references for the transversal search, the factor-table reads of
# `is_boundary` and the source rule of `boundary_paths`.


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


def segment_is_boundary(space: FinitePathSpace, x, cache: dict):
    """`is_boundary` with vertices and tail prefixes from `vertex_at` / `segment`."""
    el = x if isinstance(x, PathSpaceElement) else PathSpaceElement(x)
    if not space.is_exact or el.truncated:
        return None, BoundaryCertificate("undecided_at_bound", ())
    sk = space.skeleton
    entries = []
    p = el.path
    for m in degree_box(p.degree):
        v = pth.vertex_at(sk, p, m)
        if v not in cache:
            cache[v] = subset_search_minimal_exhaustive_sets(sk, v)
        for ex_set in cache[v]:
            witness = None
            for lam in ex_set.members:
                if m + lam.degree <= p.degree and pth.segment(sk, p, m, m + lam.degree) == lam:
                    witness = lam
                    break
            entries.append(BoundaryEntry(m, v, ex_set.members, witness))
            if witness is None:
                return False, BoundaryCertificate("not_boundary", tuple(entries))
    return True, BoundaryCertificate("boundary", tuple(entries))


def filtered_boundary_paths(space: FinitePathSpace) -> FinitePathSpace:
    """The elements `segment_is_boundary` accepts."""
    cache: dict = {}
    kept = [el for el in space.elements if segment_is_boundary(space, el, cache)[0]]
    return FinitePathSpace(space.skeleton, "exact", kept, boundary_only=True)


def subset_search_boundary_report(space: FinitePathSpace) -> dict:
    """`boundary_report` built on `segment_is_boundary`."""
    sk = space.skeleton
    cache: dict = {}
    members = []
    for el, row in zip(space.elements, space.factors):
        verdict, cert = segment_is_boundary(space, el, cache)
        members.append(
            {"element": el.to_json(row), "boundary": verdict, "certificate": cert.to_json()}
        )
    return {
        "classification": classify_vertices(sk).to_json(),
        "elements": members,
        "boundary_size": sum(1 for m in members if m["boundary"]),
    }
