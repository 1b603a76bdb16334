"""The convolution *-algebra of a finite path groupoid.

Finitely supported complex functions on the groupoid form a *-algebra under
convolution; vertex functions and edge functions of a rank-1 graph represent
into it as unit-supported multipliers and degree-1 partial isometries.  The
module verifies, numerically and at finite scale, the defining identities of
Toeplitz and Cuntz-Krieger families, the gauge action, the quotient onto the
boundary groupoid, and that the generators span the whole algebra.

Each element is one complex vector indexed like the groupoid's elements;
operations gather and scatter through `index_arrays(G)`, one per groupoid.
Convolution sums the composable pairs with `np.bincount` in ascending (a, b)
order, so restricting a product to the boundary groupoid reproduces the
product of the restrictions bit for bit.  Products use the split formula
re = ar*br - ai*bi, im = ar*bi + ai*br and moduli `np.hypot`, which round as
Python's complex product and abs(complex) do (numpy's multiply and `np.abs`
differ in the last bits), so every deviation equals a coefficient loop's; the
regular-representation checks keep numpy's matmul and `np.abs`, as before.

`generation_check` certifies generation without a span closure: the |G|
cylinder words s_x s_y* are unitriangular in the delta basis, so they span
it.  Where a word does not check, the span closure `algebra_dimension` decides.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property
from operator import sub

import numpy as np

from .skeleton import Skeleton
from .boundary import classify_vertices
from .groupoid import FiniteGroupoid

DEFAULT_TOL = 1e-9
DEFAULT_SEED = 0


class IndexArrays:
    """A groupoid's elements and composition table as index arrays; holds no reference to G.

    Per element: x, y, and `level`, the position of m in `levels`.  `pairs`
    holds a, b, ab over the composable pairs whose composite label (x, m+n, z)
    is an element, ascending (a, b), from one pass of `G.composites()` over
    `G.by_range`; `missing` lists the composable pairs whose composite is not.
    """

    def __init__(self, G: FiniteGroupoid):
        self.levels = tuple(sorted({g.m for g in G.elements}))
        at = {m: j for j, m in enumerate(self.levels)}
        columns = np.array([(g.x, g.y, at[g.m]) for g in G.elements], dtype=np.intp)
        self.x, self.y, self.level = columns.reshape(-1, 3).T
        rows = list(G.composites())
        known = [row for row in rows if row[2] is not None]
        self.pairs = tuple(np.array(known, dtype=np.intp).reshape(-1, 3).T)
        self.missing = [(a, b) for a, b, ab in rows if ab is None]
        self._inverse_of = G.inverse

    @cached_property
    def inverse(self) -> np.ndarray:
        """Each element's inverse; KeyError if one is missing."""
        return np.array([self._inverse_of[i] for i in range(len(self.x))], dtype=np.intp)


_index_arrays: weakref.WeakKeyDictionary[FiniteGroupoid, IndexArrays] = weakref.WeakKeyDictionary()


def index_arrays(G: FiniteGroupoid) -> IndexArrays:
    """G's index arrays, built once and kept for as long as G lives."""
    if G not in _index_arrays:
        _index_arrays[G] = IndexArrays(G)
    return _index_arrays[G]


class AlgebraElement:
    """A function on a groupoid's elements, given as its vector or as a dict {index: value}."""

    def __init__(self, groupoid: FiniteGroupoid, values: np.ndarray | dict[int, complex]):
        self.groupoid = groupoid
        if isinstance(values, dict):
            vec = np.zeros(len(groupoid), dtype=complex)
            vec[list(values)] = list(values.values())
            values = vec
        self.values = values

    @classmethod
    def zero(cls, G: FiniteGroupoid) -> AlgebraElement:
        return cls(G, np.zeros(len(G), dtype=complex))

    @classmethod
    def delta(cls, G: FiniteGroupoid, label, coeff: complex = 1.0) -> AlgebraElement:
        return cls(G, {G.index_of(label): coeff})

    @property
    def coefficients(self) -> dict[int, complex]:
        """The nonzero entries, {index: value}, ascending."""
        return {int(i): complex(self.values[i]) for i in np.flatnonzero(self.values)}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.groupoid is other.groupoid
            and np.array_equal(self.values, other.values)
        )

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        _check_same_groupoid(self, other)
        return AlgebraElement(self.groupoid, self.values + other.values)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        _check_same_groupoid(self, other)
        return AlgebraElement(self.groupoid, self.values - other.values)

    def scale(self, c: complex) -> AlgebraElement:
        return AlgebraElement(self.groupoid, _multiply(complex(c), self.values))

    def max_abs(self) -> float:
        return float(np.max(_modulus(self.values), initial=0.0))

    def to_json(self) -> list:
        out = []
        for i, c in self.coefficients.items():
            g = self.groupoid.elements[i]
            out.append([g.x, list(g.m), g.y, c.real, c.imag])
        return out


def _multiply(x, y: np.ndarray) -> np.ndarray:
    """x * y, each float operation rounded on its own as in Python's complex product."""
    out = (x.real * y.real - x.imag * y.imag).astype(complex)
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _modulus(v: np.ndarray) -> np.ndarray:
    """|v|, entrywise, as Python's abs(complex) computes it."""
    return np.hypot(v.real, v.imag)


def _check_same_groupoid(f: AlgebraElement, g: AlgebraElement) -> None:
    if f.groupoid is not g.groupoid:
        raise ValueError("elements live on different groupoids")


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """(f * g)(gamma) = sum of f(a) g(b) over factorizations a.b = gamma.

    KeyError if f(a) and g(b) are nonzero on a pair whose composite is missing.
    """
    _check_same_groupoid(f, g)
    G = f.groupoid
    arrays = index_arrays(G)
    for ia, ib in arrays.missing:
        if f.values[ia] and g.values[ib]:
            G.product(ia, ib)  # raises KeyError: the composite is missing
    a, b, ab = arrays.pairs
    terms = _multiply(f.values[a], g.values[b])
    out = np.bincount(ab, terms.real, len(G)).astype(complex)
    out.imag = np.bincount(ab, terms.imag, len(G))
    return AlgebraElement(G, out)


def involution(f: AlgebraElement) -> AlgebraElement:
    """f*(x, m, y) = conj(f(y, -m, x)); KeyError if the groupoid lacks an inverse."""
    return AlgebraElement(f.groupoid, np.conj(f.values[index_arrays(f.groupoid).inverse]))


def i_norm(f: AlgebraElement) -> float:
    """Max over units of the larger fiberwise l1 sum (range or source fiber)."""
    arrays = index_arrays(f.groupoid)
    size = _modulus(f.values)
    sums = np.concatenate([np.bincount(arrays.x, size), np.bincount(arrays.y, size)])
    return float(sums.max(initial=0.0))


@dataclass(frozen=True)
class VertexFunction:
    """A finitely supported complex function on vertices."""

    values: dict[str, complex]

    def __post_init__(self):
        pruned = {v: complex(c) for v, c in self.values.items() if c != 0}
        object.__setattr__(self, "values", pruned)

    @classmethod
    def delta(cls, vertex_id: str, coeff: complex = 1.0) -> VertexFunction:
        return cls({vertex_id: complex(coeff)})

    @classmethod
    def indicator(cls, vertex_ids) -> VertexFunction:
        return cls({v: 1.0 for v in vertex_ids})

    def __call__(self, vertex_id: str) -> complex:
        return self.values.get(vertex_id, 0j)

    def support(self) -> frozenset[str]:
        return frozenset(v for v, c in self.values.items() if c != 0)


@dataclass(frozen=True)
class EdgeFunction:
    """A finitely supported complex function on edges."""

    values: dict[str, complex]

    def __post_init__(self):
        pruned = {e: complex(c) for e, c in self.values.items() if c != 0}
        object.__setattr__(self, "values", pruned)

    @classmethod
    def delta(cls, edge_id: str, coeff: complex = 1.0) -> EdgeFunction:
        return cls({edge_id: complex(coeff)})

    def __call__(self, edge_id: str) -> complex:
        return self.values.get(edge_id, 0j)


def vertex_operator(G: FiniteGroupoid, f: VertexFunction) -> AlgebraElement:
    """Represent a vertex function on the units: value f(r(x)) at (x, 0, x)."""
    elements = G.space.elements
    return AlgebraElement(G, {i: f(elements[p].path.range) for p, i in G.unit_index.items()})


def _require_rank_one(G: FiniteGroupoid) -> Skeleton:
    sk = G.space.skeleton
    if sk.rank != 1:
        raise ValueError(f"operation needs a rank-1 graph, skeleton has rank {sk.rank}")
    return sk


def edge_operator(G: FiniteGroupoid, xi: EdgeFunction) -> AlgebraElement:
    """Represent an edge function: value xi(first edge of x) at (x, 1, tail of x)."""
    _require_rank_one(G)
    out: dict[int, complex] = {}
    for i, el in enumerate(G.space.elements):
        if el.path.degree.total >= 1 and (c := xi(el.path.word[0])) != 0:
            tail = G.space.factors[i][(1,)][1]
            out[G.index_of((i, (1,), G.space.index_of(tail)))] = c
    return AlgebraElement(G, out)


def inner_product(sk: Skeleton, xi: EdgeFunction, eta: EdgeFunction) -> VertexFunction:
    """<xi, eta>(v) = sum over edges sourced at v of conj(xi(e)) eta(e)."""
    values: dict[str, complex] = {}
    for v in sk.vertices:
        total = 0j
        for e in sk.edges_by_source[v.id]:
            total += xi(e.id).conjugate() * eta(e.id)
        if total != 0:
            values[v.id] = total
    return VertexFunction(values)


def left_action(sk: Skeleton, f: VertexFunction, xi: EdgeFunction) -> EdgeFunction:
    """(f . xi)(e) = f(r(e)) xi(e)."""
    return EdgeFunction(
        {e: f(sk.edge_by_id[e].range) * c for e, c in xi.values.items() if c != 0}
    )


def right_action(sk: Skeleton, xi: EdgeFunction, f: VertexFunction) -> EdgeFunction:
    """(xi . f)(e) = xi(e) f(s(e))."""
    return EdgeFunction(
        {e: c * f(sk.edge_by_id[e].source) for e, c in xi.values.items() if c != 0}
    )


@dataclass(frozen=True)
class BimoduleOperator:
    """An operator on edge functions given by a finitely supported matrix."""

    matrix: dict[tuple[str, str], complex]

    def apply(self, zeta: EdgeFunction) -> EdgeFunction:
        out: dict[str, complex] = {}
        for (e, e2), c in self.matrix.items():
            term = c * zeta(e2)
            if term != 0:
                out[e] = out.get(e, 0j) + term
        return EdgeFunction({e: c for e, c in out.items() if c != 0})

    def __add__(self, other: BimoduleOperator) -> BimoduleOperator:
        out = dict(self.matrix)
        for key, c in other.matrix.items():
            out[key] = out.get(key, 0j) + c
        return BimoduleOperator({k: c for k, c in out.items() if c != 0})

    def __sub__(self, other: BimoduleOperator) -> BimoduleOperator:
        return self + BimoduleOperator({k: -c for k, c in other.matrix.items()})

    def max_abs(self) -> float:
        return max((abs(c) for c in self.matrix.values()), default=0.0)


def rank_one_operator(sk: Skeleton, xi: EdgeFunction, eta: EdgeFunction) -> BimoduleOperator:
    """xi (x) eta*: matrix xi(e) conj(eta(e')) over pairs with a common source."""
    matrix: dict[tuple[str, str], complex] = {}
    for e, ce in xi.values.items():
        for e2, ce2 in eta.values.items():
            if sk.edge_by_id[e].source != sk.edge_by_id[e2].source:
                continue
            c = ce * ce2.conjugate()
            if c != 0:
                matrix[(e, e2)] = c
    return BimoduleOperator(matrix)


def left_mult_operator(sk: Skeleton, f: VertexFunction) -> BimoduleOperator:
    """Left multiplication by a vertex function: diagonal f(r(e))."""
    matrix = {}
    for e in sk.edges:
        c = f(e.range)
        if c != 0:
            matrix[(e.id, e.id)] = c
    return BimoduleOperator(matrix)


def rank_one_decomposition(
    sk: Skeleton, f: VertexFunction
) -> list[tuple[EdgeFunction, EdgeFunction]]:
    """Write left multiplication by f as a sum of rank-one operators.

    One pair per edge in the support of f o r: (f(r(e)) delta_e, delta_e).
    The construction is checked before returning: f o r is the pointwise sum
    of the products xi_i conj(eta_i), distinct same-source edges never mix,
    and the operator sum reproduces left multiplication exactly.
    """
    if not f.support() <= set(classify_vertices(sk).regular):
        warnings.warn(
            "vertex function is not supported on regular vertices; the "
            "Cuntz-Krieger identity is not expected to hold for it",
            stacklevel=2,
        )
    pairs: list[tuple[EdgeFunction, EdgeFunction]] = []
    for e in sk.edges:
        c = f(e.range)
        if c != 0:
            pairs.append((EdgeFunction({e.id: c}), EdgeFunction.delta(e.id)))

    for e in sk.edges:
        total = sum(xi(e.id) * eta(e.id).conjugate() for xi, eta in pairs)
        if total != f(e.range):
            raise AssertionError("pointwise product identity failed")
    for xi, eta in pairs:
        for e in sk.edges:
            for e2 in sk.edges:
                if e.id != e2.id and e.source == e2.source:
                    if xi(e.id) * eta(e2.id).conjugate() != 0:
                        raise AssertionError("cross-term orthogonality failed")
    total_op = BimoduleOperator({})
    for xi, eta in pairs:
        total_op = total_op + rank_one_operator(sk, xi, eta)
    if (total_op - left_mult_operator(sk, f)).max_abs() != 0.0:
        raise AssertionError("operator sum does not reproduce left multiplication")
    return pairs


def rank_one_lift(G: FiniteGroupoid, pairs) -> AlgebraElement:
    """Lift a sum of rank-one operators: sum of S(xi) S(eta)*."""
    out = AlgebraElement.zero(G)
    for xi, eta in pairs:
        out = out + convolve(edge_operator(G, xi), involution(edge_operator(G, eta)))
    return out


def quotient_restrict(f: AlgebraElement, boundary_G: FiniteGroupoid) -> AlgebraElement:
    """Restrict coefficients to elements whose endpoints are boundary paths."""
    G = f.groupoid
    bspace = boundary_G.space
    at = [bspace.index_of(el.path) if el.path in bspace else None for el in G.space.elements]
    kept = {}
    for i in np.flatnonzero(f.values).tolist():
        g = G.elements[i]
        if at[g.x] is not None and at[g.y] is not None:
            kept[boundary_G.index_of((at[g.x], g.m, at[g.y]))] = f.values[i]
    return AlgebraElement(boundary_G, kept)


def gauge_automorphism(f: AlgebraElement, t) -> AlgebraElement:
    """Scale the coefficient at (x, m, y) by the monomial t^m; |t_c| must be 1."""
    k = f.groupoid.rank
    ts = (complex(t),) if np.isscalar(t) else tuple(complex(c) for c in t)
    if len(ts) != k:
        raise ValueError(f"expected {k} circle parameters, got {len(ts)}")
    for c in ts:
        if abs(abs(c) - 1.0) > DEFAULT_TOL:
            raise ValueError(f"gauge parameter {c} is not on the unit circle")
    arrays = index_arrays(f.groupoid)
    scales = np.ones(len(arrays.levels), dtype=complex)
    for j, m in enumerate(arrays.levels):
        scale = 1 + 0j
        for base, power in zip(ts, m):
            # Negative powers of a circle parameter via the conjugate keeps
            # the scaling exactly unimodular and involution-equivariant.
            scale *= base.conjugate() ** (-power) if power < 0 else base**power
        scales[j] = scale
    return AlgebraElement(f.groupoid, _multiply(scales[arrays.level], f.values))


def homogeneous_component(f: AlgebraElement, level: tuple[int, ...]) -> AlgebraElement:
    arrays = index_arrays(f.groupoid)
    at_level = np.array([m == tuple(level) for m in arrays.levels], dtype=bool)
    return AlgebraElement(f.groupoid, np.where(at_level[arrays.level], f.values, 0))


def support_levels(f: AlgebraElement) -> set[tuple[int, ...]]:
    arrays = index_arrays(f.groupoid)
    return {arrays.levels[j] for j in arrays.level[f.values != 0].tolist()}


class RegularRepresentation:
    """Per-unit matrix representation: convolution acting on each source fiber."""

    def __init__(self, G: FiniteGroupoid):
        self.groupoid = G
        fibers: dict[int, list[int]] = {u: [] for u in G.units()}
        for i, g in enumerate(G.elements):
            fibers.get(g.y, []).append(i)
        self.bases = {u: tuple(fiber) for u, fiber in fibers.items()}
        # entries[u][row, col] = index of gamma beta^{-1} = (x, m - n, x') for gamma = (x, m, u)
        # and beta = (x', n, u).  The unit's row holds each beta^{-1}, so a missing inverse,
        # like a missing composite, raises KeyError.
        self.entries: dict[int, np.ndarray] = {}
        index_of = G.index_of
        for u, fiber in self.bases.items():
            heads = [(G.elements[i].x, G.elements[i].m) for i in fiber]
            self.entries[u] = np.array(
                [[index_of((x, tuple(map(sub, m, n)), x2)) for x2, n in heads] for x, m in heads],
                dtype=np.intp,
            )

    def matrix(self, f: AlgebraElement, unit: int) -> np.ndarray:
        return f.values[self.entries[unit]]


def algebra_dimension(generators) -> int:
    """Dimension of the smallest *-subalgebra containing the generators.

    Iterated span closure: orthonormalize the generators, then keep adjoining
    involutions and pairwise products until the span stops growing.
    """
    generators = list(generators)
    if not generators:
        return 0
    G = generators[0].groupoid
    for g in generators:
        _check_same_groupoid(generators[0], g)
    basis_vecs: list[np.ndarray] = []
    basis_elems: list[AlgebraElement] = []

    def try_add(el: AlgebraElement) -> bool:
        vec = el.values
        residual = vec.copy()
        for b in basis_vecs:
            residual -= np.vdot(b, residual) * b
        norm = float(np.linalg.norm(residual))
        if norm <= 1e-9 * max(1.0, float(np.linalg.norm(vec))):
            return False
        basis_vecs.append(residual / norm)
        basis_elems.append(el)
        return True

    fresh = [g for g in generators if try_add(g)]
    while fresh:
        batch, fresh = fresh, []
        for a in batch:
            if try_add(involution(a)):
                fresh.append(involution(a))
            for b in list(basis_elems):
                for prod in (convolve(a, b), convolve(b, a)):
                    if try_add(prod):
                        fresh.append(prod)
    return len(basis_vecs)


@dataclass(frozen=True)
class RelationReport:
    identity: str
    samples: int
    seed: int
    max_deviation: float
    tolerance: float
    passed: bool
    notes: str = ""

    def to_json(self) -> dict:
        out = {
            "identity": self.identity,
            "samples": self.samples,
            "seed": self.seed,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "verdict": "pass" if self.passed else "fail",
        }
        if self.notes:
            out["notes"] = self.notes
        return out


def _report(identity, samples, seed, deviation, tol, notes="") -> RelationReport:
    return RelationReport(identity, samples, seed, deviation, tol, deviation <= tol, notes)


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
    return AlgebraElement(G, rng.standard_normal((len(G), 2)).view(complex)[:, 0])


def verify_algebra_identities(
    G: FiniteGroupoid,
    samples: int = 100,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> list[RelationReport]:
    """Convolution associativity, involution, I-norm, regular representation."""
    rng = np.random.default_rng(seed)
    rep = RegularRepresentation(G)
    dev_assoc = dev_dist = dev_inv = dev_norm = dev_rep = dev_adj = 0.0
    if len(G) <= 50:
        # (delta_a delta_b) delta_c and delta_a (delta_b delta_c) are deltas or 0, so they
        # differ by 1.0 or not at all.  Row a of the product table (index n for 0) gives every
        # (ab)c and a(bc); rows compare as lists: numpy's int compare pages in 128 KB more.
        n = len(G)
        arrays = index_arrays(G)
        if arrays.missing:
            G.product(*arrays.missing[0])  # raises KeyError: a composite is missing
        product = np.full((n + 1, n + 1), n, dtype=np.intp)
        a, b, ab = arrays.pairs
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
        for u in rep.entries:
            mf = rep.matrix(f, u)
            dev_rep = max(dev_rep, float(np.max(np.abs(rep.matrix(fg, u) - mf @ rep.matrix(g, u)))))
            dev_adj = max(dev_adj, float(np.max(np.abs(rep.matrix(f_star, u) - mf.conj().T))))
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
        el = boundary_G.space.elements[path_idx]
        if el.path.degree.total == 0:
            degree_zero.append(elem_idx)
            if el.path.range not in classes.sources:
                notes = f"degree-0 boundary path at non-source vertex {el.path.range}"
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


@dataclass(frozen=True)
class GenerationReport:
    generated_dimension: int
    total_dimension: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "generated_dimension": self.generated_dimension,
            "total_dimension": self.total_dimension,
            "verdict": "pass" if self.passed else "fail",
        }


def generation_check(G: FiniteGroupoid) -> GenerationReport:
    """Do the vertex and edge generators span the whole convolution algebra?

    The whole algebra has the deltas of the elements as a basis, so its
    dimension is |G|.  Let s_v be the projection at v and s_{e.x'} = s_e s_{x'}.
    Then s_x is the indicator of {(xz, d(x), z)}, and the word s_x s_y* is the
    cylinder {(xz, d(x) - d(y), yz)}: its leading 1 is at (x, m, y) (z = s(x)),
    and every other term is at an element whose x is strictly longer.  So the
    |G| words, ordered by the length of x, are unitriangular in the delta
    basis and span it.  If the table records a missing composite, or a word
    does not check or raises KeyError, the span closure `algebra_dimension`
    decides instead, so a failing report is the span closure's.
    """
    sk = _require_rank_one(G)
    vertex = {v.id: vertex_operator(G, VertexFunction.delta(v.id)) for v in sk.vertices}
    edge = {e.id: edge_operator(G, EdgeFunction.delta(e.id)) for e in sk.edges}
    try:
        if not index_arrays(G).missing and _words_are_unitriangular(G, vertex, edge):
            return GenerationReport(len(G), len(G), True)
    except KeyError:
        pass
    generated = algebra_dimension(g for g in [*vertex.values(), *edge.values()] if g.coefficients)
    return GenerationReport(generated, len(G), generated == len(G))


def _words_are_unitriangular(G: FiniteGroupoid, vertex: dict, edge: dict) -> bool:
    """Each s_x s_y* is exactly 1.0 at its element, and elsewhere only 1.0 at a longer x."""
    space = G.space
    length = [el.path.degree.total for el in space.elements]
    s: dict[int, AlgebraElement] = {}
    for i in sorted(range(len(length)), key=length.__getitem__):
        path = space.elements[i].path
        if length[i] == 0:
            s[i] = vertex[path.range]
        else:
            tail = space.index_of(space.factors[i][(1,)][1])
            s[i] = convolve(edge[path.word[0]], s[tail])
    adjoint = {i: involution(f) for i, f in s.items()}
    for g, el in enumerate(G.elements):
        word = convolve(s[el.x], adjoint[el.y]).coefficients
        if word.pop(g, None) != 1 or any(
            c != 1 or length[G.elements[h].x] <= length[el.x] for h, c in word.items()
        ):
            return False
    return True
