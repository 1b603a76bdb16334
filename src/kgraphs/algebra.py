"""The convolution *-algebra of a finite path groupoid.

Finitely supported complex functions on the groupoid form a *-algebra under
convolution; vertex functions and edge functions of a rank-1 graph represent
into it as unit-supported multipliers and degree-1 partial isometries.  The
module verifies, numerically and at finite scale, the defining identities of
Toeplitz and Cuntz-Krieger families, the gauge action, the quotient onto the
boundary groupoid, and that the generators span the whole algebra.

Each element is one complex vector indexed like the groupoid's elements;
operations and generators gather and scatter through the index arrays that
the groupoid builds once and keeps (`composition`, `inverse_array`, `grading`,
`unit_vertex`, `arrows`).  Convolution sums the composable pairs with
`np.bincount` in ascending (a, b) order, so restricting a product to the
boundary groupoid reproduces the product of the restrictions bit for bit.
Products use the split formula re = ar*br - ai*bi, im = ar*bi + ai*br and
moduli `np.hypot`, which round as Python's complex product and abs(complex)
do (numpy's multiply and `np.abs` differ in the last bits), so every deviation
equals a coefficient loop's; the regular-representation checks keep numpy's
matmul and `np.abs`.

The sampled suites (`verify_*`) evaluate each identity once per chunk of
samples stacked as rows, drawn in the order one sample at a time draws them
(normals in bulk, draws mixed with `random` or `integers` per sample).  One
`np.bincount` over the bins ab + |G| row convolves each row as one element,
so every report equals the per-sample loop's (tests/oracles.py).  The bins
are a table the groupoid keeps (`FiniteGroupoid.bins`), built once per index
array and chunk height: a short last chunk reads its prefix, one row the
index array itself.  `_CHUNK` caps a chunk's terms, rows x composable pairs,
whatever `samples` is.  The Cuntz-Krieger suite lifts one
`rank_one_decomposition` per call and sums its edge projections
S(delta_e) S(delta_e)* once per call.

`generation_check` certifies generation without a span closure: on a full
groupoid (`FiniteGroupoid.is_full`) the path operators s_x are cylinders, so
the |G| words s_x s_y* are unitriangular in the delta basis and span it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groupoid import FiniteGroupoid, _columns  # compiled before numpy loads: a lower peak RSS
import numpy as np

from .skeleton import Skeleton
from .bimodule import EdgeFunction, VertexFunction, rank_one_decomposition
from .boundary import classify_vertices
from .paths import source

DEFAULT_SAMPLES = 100
DEFAULT_TOL = 1e-9
DEFAULT_SEED = 0
_CHUNK = 2**10


def _scatter(n, at, values):
    """Rows of length n holding the rows of `values` at the columns `at`, zero elsewhere."""
    out = np.zeros((len(values), n), complex)
    out[:, at] = values
    return out


def _vertex_rows(G, f):
    """P(f) for each row of f, the values on `sk.vertices`."""
    return _scatter(len(G), G.unit_vertex[0], f[:, G.unit_vertex[1]])


def _edge_rows(G, xi):
    """S(xi) for each row of xi, the values on `sk.edges`; KeyError if it needs a missing element."""
    at, column, lacking = G.arrows
    for label, e in lacking:
        if np.any(xi[:, e] != 0):
            G.index_of(label)  # raises KeyError: the element is missing
    return _scatter(len(G), at, xi[:, column])


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
        return _max_abs(self.values)

    def to_json(self) -> list:
        out = []
        for i, c in self.coefficients.items():
            x, m, y = self.groupoid.labels[i]
            out.append([x, list(m), y, c.real, c.imag])
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


def _row_sums(G, at, values, width):
    """Per row r of real `values`, its entries summed into the bins at + width r, in column order:
    one `np.bincount` over the groupoid's flat bins of the index array `at` (`FiniteGroupoid.bins`)."""
    rows = len(values)
    return np.bincount(G.bins(at, rows), values.ravel(), rows * width).reshape(rows, width)


def _convolve_rows(G, F, H):
    """Row r of the result is F[r] * H[r]; a one-row F or H pairs with every row of the other."""
    (a, b, _), missing = G.composition
    for ia, ib in missing:
        if np.any((F[:, ia] != 0) & (H[:, ib] != 0)):
            G.product(ia, ib)  # raises KeyError: the composite is missing
    x, y = F[:, a], H[:, b]  # the split product, one part at a time: fewer temporaries
    out = _row_sums(G, "ab", x.real * y.real - x.imag * y.imag, len(G)).astype(complex)
    out.imag = _row_sums(G, "ab", x.real * y.imag + x.imag * y.real, len(G))
    return out


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """(f * g)(gamma) = sum of f(a) g(b) over factorizations a.b = gamma.

    KeyError if f(a) and g(b) are nonzero on a pair whose composite is missing.
    """
    _check_same_groupoid(f, g)
    return AlgebraElement(f.groupoid, _convolve_rows(f.groupoid, f.values[None], g.values[None])[0])


def involution(f: AlgebraElement) -> AlgebraElement:
    """f*(x, m, y) = conj(f(y, -m, x)); KeyError if the groupoid lacks an inverse."""
    return AlgebraElement(f.groupoid, np.conj(f.values[f.groupoid.inverse_array]))


def _i_norms(G, F):
    modulus = _modulus(F)
    sums = [_row_sums(G, at, modulus, len(G.space)) for at in "xy"]
    return np.concatenate(sums, axis=1).max(axis=1, initial=0.0)


def _edge_ends(sk):
    """The columns in `sk.vertices` of each edge's range and of its source, in `sk.edges` order."""
    vertex = _columns(sk.vertices)
    return np.array([(vertex[e.range], vertex[e.source]) for e in sk.edges], dtype=np.intp).reshape(-1, 2).T


def _max_abs(values):
    return float(np.max(_modulus(values), initial=0.0))


def vertex_operator(G: FiniteGroupoid, f: VertexFunction) -> AlgebraElement:
    """Represent a vertex function on the units: value f(r(x)) at (x, 0, x)."""
    values = np.array([[f(v.id) for v in G.space.skeleton.vertices]], complex)
    return AlgebraElement(G, _vertex_rows(G, values)[0])


def _require_rank_one(G: FiniteGroupoid) -> Skeleton:
    sk = G.space.skeleton
    if sk.rank != 1:
        raise ValueError(f"operation needs a rank-1 graph, skeleton has rank {sk.rank}")
    return sk


def edge_operator(G: FiniteGroupoid, xi: EdgeFunction) -> AlgebraElement:
    """Represent an edge function: value xi(first edge of x) at (x, 1, tail of x)."""
    sk = _require_rank_one(G)
    return AlgebraElement(G, _edge_rows(G, np.array([[xi(e.id) for e in sk.edges]], complex))[0])


def _restriction(G, boundary_G):
    """The elements of G whose endpoints are boundary paths, and their indices in boundary_G."""
    bspace = boundary_G.space
    at = [bspace.index_of(x) if x in bspace else None for x in G.space.elements]
    labels = [(at[x], m, at[y]) for x, m, y in G.labels]
    kept = [(i, boundary_G.index_of(x)) for i, x in enumerate(labels) if None not in x]
    return np.array(kept, dtype=np.intp).reshape(-1, 2).T


def _gauge_scales(levels, t, k):
    """The monomial t^m of each level m; |t_c| must be 1."""
    ts = (complex(t),) if np.isscalar(t) else tuple([complex(c) for c in t])
    if len(ts) != k:
        raise ValueError(f"expected {k} circle parameters, got {len(ts)}")
    for c in ts:
        if abs(abs(c) - 1.0) > DEFAULT_TOL:
            raise ValueError(f"gauge parameter {c} is not on the unit circle")
    scales = np.ones(len(levels), dtype=complex)
    for j, m in enumerate(levels):
        scale = 1 + 0j
        for base, power in zip(ts, m):
            # Negative powers of a circle parameter via the conjugate keeps
            # the scaling exactly unimodular and involution-equivariant.
            scale *= base.conjugate() ** (-power) if power < 0 else base**power
        scales[j] = scale
    return scales


class RegularRepresentation:
    """Per-unit matrix representation: convolution acting on each source fiber.

    entries[u][r, c] is `G.product` of u's r-th fiber element and the c-th one's inverse
    (KeyError if either is missing).  A full groupoid's fibers list u's source block in
    label order, so a block's units share the array of its least member, met first.
    """

    def __init__(self, G: FiniteGroupoid):
        self.groupoid = G
        fibers: dict[int, list[int]] = {u: [] for u in G.units()}
        for i, y in enumerate(G.y.tolist()):
            fibers.get(y, []).append(i)
        self.bases = {u: tuple(fiber) for u, fiber in fibers.items()}
        self.entries: dict[int, np.ndarray] = {}
        for u, fiber in self.bases.items():
            if G.is_full and (least := G.labels[fiber[0]][0]) < u:
                self.entries[u] = self.entries[least]
            else:
                self.entries[u] = np.array(
                    [[G.product(i, G.inverse[j]) for j in fiber] for i in fiber], dtype=np.intp
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


def _normal_rows(rng, shape):
    """Entries complex(re, im) from the next two standard normals each, in C order."""
    return rng.standard_normal((*shape, 2)).view(complex)[..., 0]


def _chunks(G, samples):
    """Row counts of consecutive chunks of the samples: _CHUNK terms per temporary, or one row."""
    rows = max(1, _CHUNK // max(len(G.composition[0][0]), len(G), 1))
    return (min(rows, samples - start) for start in range(0, samples, rows))


def verify_algebra_identities(
    G: FiniteGroupoid,
    samples: int = DEFAULT_SAMPLES,
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
    for rows in _chunks(G, samples):
        f, g, h = _normal_rows(rng, (rows, 3, len(G))).transpose(1, 0, 2)
        fg, fh, gh = _convolve_rows(G, f, g), _convolve_rows(G, f, h), _convolve_rows(G, g, h)
        dev_assoc = max(dev_assoc, _max_abs(_convolve_rows(G, fg, h) - _convolve_rows(G, f, gh)))
        dist = _convolve_rows(G, f, g + h) - (fg + fh), _convolve_rows(G, f + g, h) - (fh + gh)
        dev_dist = max(dev_dist, *map(_max_abs, dist))
        f_star, g_star, fg_star = (np.conj(v[:, G.inverse_array]) for v in (f, g, fg))
        dev_inv = max(dev_inv, _max_abs(fg_star - _convolve_rows(G, g_star, f_star)))
        norms = _i_norms(G, fg) - _i_norms(G, f) * _i_norms(G, g)
        dev_norm = max(dev_norm, float(np.max(norms)))
        for t in tables:
            mf = f[:, t]
            dev_rep = max(dev_rep, float(np.max(np.abs(fg[:, t] - mf @ g[:, t]))))
            dev_adj = max(dev_adj, float(np.max(np.abs(f_star[:, t] - mf.conj().transpose(0, 2, 1)))))
    names = ("convolution_associativity", "convolution_distributive", "involution_antimultiplicative")
    names += ("i_norm_submultiplicative", "regular_representation_multiplicative")
    names += ("regular_representation_adjoint",)
    deviations = (dev_assoc, dev_dist, dev_inv, max(dev_norm, 0.0), dev_rep, dev_adj)
    return [_report(name, samples, seed, dev, tol) for name, dev in zip(names, deviations)]


def verify_toeplitz_identities(
    G: FiniteGroupoid,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> list[RelationReport]:
    """S(xi)* S(eta) = P(<xi, eta>) and P(f) S(xi) = S(f . xi), sampled."""
    sk = _require_rank_one(G)
    rng = np.random.default_rng(seed)
    nv, ne, (edge_range, edge_source) = len(sk.vertices), len(sk.edges), _edge_ends(sk)
    dev_i = dev_ii = 0.0
    for rows in _chunks(G, samples):
        draw = _normal_rows(rng, (rows, nv + 2 * ne))
        f, xi, eta = draw[:, :nv], draw[:, nv : nv + ne], draw[:, nv + ne :]
        s_xi = _edge_rows(G, xi)
        lhs_i = _convolve_rows(G, np.conj(s_xi[:, G.inverse_array]), _edge_rows(G, eta))
        products, inner = _multiply(np.conj(xi), eta), np.zeros((rows, nv), complex)
        for e, v in enumerate(edge_source):  # each vertex's edges ascending, as `inner_product`
            inner[:, v] += products[:, e]
        dev_i = max(dev_i, _max_abs(lhs_i - _vertex_rows(G, inner)))
        lhs_ii = _convolve_rows(G, _vertex_rows(G, f), s_xi)
        dev_ii = max(dev_ii, _max_abs(lhs_ii - _edge_rows(G, _multiply(f[:, edge_range], xi))))
    deviations = {"toeplitz_inner_product": dev_i, "toeplitz_left_action": dev_ii}
    return [_report(name, samples, seed, dev, tol) for name, dev in deviations.items()]


def verify_cuntz_krieger(
    boundary_G: FiniteGroupoid,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> RelationReport:
    """P(f) equals the lift of left multiplication by f on the boundary groupoid.

    Also checks the degree-zero edge case: every degree-0 boundary path is a
    source vertex, so both sides vanish on those units.  The lift of f is f(r(x)) times
    the sum of the projections P_e = S(delta_e) S(delta_e)* over the frame (delta_e, delta_e)
    of one checked `rank_one_decomposition`, formed once per call, in edge order, if sampled:
    the P_e have disjoint supports ((x, 0, x') lies in that of x's first edge e; r(e) = r(x)).
    """
    sk = _require_rank_one(boundary_G)
    classes, vertex, edge = classify_vertices(sk), _columns(sk.vertices), _columns(sk.edges)
    regular = sorted({vertex[e.range] for e in sk.edges})  # columns of classes.regular: the edges' ranges
    rng = np.random.default_rng(seed)
    deviation, notes, degree_zero = 0.0, "", []
    for path_idx, elem_idx in boundary_G.unit_index.items():
        x = boundary_G.space.elements[path_idx]
        if x.degree.total == 0:
            degree_zero.append(elem_idx)
            if x.range not in classes.sources:
                notes = f"degree-0 boundary path at non-source vertex {x.range}"
    frame = rank_one_decomposition(sk, VertexFunction.indicator(classes.regular))
    at_range = np.array([vertex[x.range] for x in boundary_G.space], dtype=np.intp)[boundary_G.x]
    projections = np.zeros((1, len(boundary_G)), complex)  # the sum of the P_e
    for _, eta in frame if samples > 0 else ():
        columns, values = [edge[e] for e in eta.values], [[*eta.values.values()]]
        s = _edge_rows(boundary_G, _scatter(len(sk.edges), columns, values))
        projections += _convolve_rows(boundary_G, s, np.conj(s[:, boundary_G.inverse_array]))
    for rows in _chunks(boundary_G, samples):
        f = _scatter(len(sk.vertices), regular, _normal_rows(rng, (rows, len(regular))))
        lhs, rhs = _vertex_rows(boundary_G, f), _multiply(f[:, at_range], projections)
        at_zero = _max_abs(lhs[:, degree_zero]), _max_abs(rhs[:, degree_zero])
        deviation = max(deviation, _max_abs(lhs - rhs), *at_zero)
    passed = deviation <= tol and not notes
    return RelationReport("cuntz_krieger", samples, seed, deviation, tol, passed, notes)


def verify_gauge_action(
    G: FiniteGroupoid,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> list[RelationReport]:
    """Gauge scaling is an automorphism, respects the grading, and fixes units."""
    sk = G.space.skeleton
    rng = np.random.default_rng(seed)
    levels, level = G.grading
    at = {m: j for j, m in enumerate(levels)}
    one_hot = np.eye(len(levels) + 1, len(levels), dtype=bool)  # row -1: no level
    dev_auto = dev_grade = dev_gen = 0.0
    for rows in _chunks(G, samples):
        fg, scales = np.empty((2, rows, len(G)), complex), np.empty((rows, len(levels)), complex)
        picks = np.full((3, rows), -1)  # the levels of f's part, g's part and their product
        for r in range(rows):
            fg[:, r] = _normal_rows(rng, (2, len(G)))
            ts = [np.exp(2j * np.pi * rng.random()) for _ in range(sk.rank)]
            scales[r] = _gauge_scales(levels, ts, sk.rank)
            sf, sg = [sorted(set(level[v != 0].tolist())) for v in fg[:, r]]  # ascending, as `levels`
            if sf and sg:
                mf, mg = [s[rng.integers(len(s))] for s in (sf, sg)]
                total = tuple([a + b for a, b in zip(levels[mf], levels[mg])])
                picks[:, r] = mf, mg, at.get(total, -1)
        lhs = _multiply(scales[:, level], _convolve_rows(G, *fg))
        dev_auto = max(dev_auto, _max_abs(lhs - _convolve_rows(G, *_multiply(scales[:, level], fg))))
        at_f, at_g, at_fg = one_hot[picks][..., level]  # the elements at each row's level
        prod = _convolve_rows(G, np.where(at_f, fg[0], 0), np.where(at_g, fg[1], 0))
        dev_grade = max(dev_grade, _max_abs(prod - np.where(at_fg, prod, 0)))
    deviations = {"gauge_automorphism": dev_auto, "gauge_grading": dev_grade}
    reports = [_report(name, samples, seed, dev, tol) for name, dev in deviations.items()]
    if sk.rank == 1:
        nv, ne = len(sk.vertices), len(sk.edges)
        for rows in _chunks(G, samples):
            t, draw = np.empty((rows, 1), complex), np.empty((rows, nv + ne), complex)
            for r in range(rows):
                t[r] = np.exp(2j * np.pi * rng.random())
                draw[r] = _normal_rows(rng, (nv + ne,))
            scales = np.array([_gauge_scales(levels, c, 1) for c in t[:, 0]])[:, level]
            pf, s_xi = _vertex_rows(G, draw[:, :nv]), _edge_rows(G, draw[:, nv:])
            dev_gen = max(dev_gen, _max_abs(_multiply(scales, pf) - pf))
            dev_gen = max(dev_gen, _max_abs(_multiply(scales, s_xi) - _multiply(t, s_xi)))
        reports.append(_report("gauge_scales_generators", samples, seed, dev_gen, 0.0))
    return reports


def verify_quotient(
    G: FiniteGroupoid,
    boundary_G: FiniteGroupoid,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> RelationReport:
    """Restriction to the boundary groupoid is multiplicative, exactly.

    Boundary invariance makes the surviving terms identical on both sides, and
    both sum them in ascending (a, b) order, so the tolerance here is zero.
    """
    rng = np.random.default_rng(seed)
    kept, at = _restriction(G, boundary_G)
    deviation = 0.0
    for rows in _chunks(G, samples):
        f, g = _normal_rows(rng, (rows, 2, len(G))).transpose(1, 0, 2)
        lhs = _scatter(len(boundary_G), at, _convolve_rows(G, f, g)[:, kept])
        rhs = _convolve_rows(boundary_G, *(_scatter(len(boundary_G), at, v[:, kept]) for v in (f, g)))
        deviation = max(deviation, _max_abs(lhs - rhs))
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
    If G is full (`G.is_full`) and each s_x is 1.0 exactly on {(xz, d(x), z)},
    each word s_x s_y* is the cylinder {(xz, d(x) - d(y), yz)}: 1 at (x, m, y)
    and elsewhere only at a longer x.  So the |G| words are unitriangular in
    the delta basis and span it; none is formed.  Otherwise the span closure
    `algebra_dimension` decides, so a failing report is the span closure's.
    """
    sk = _require_rank_one(G)
    vertex = {v.id: vertex_operator(G, VertexFunction.delta(v.id)) for v in sk.vertices}
    edge = {e.id: edge_operator(G, EdgeFunction.delta(e.id)) for e in sk.edges}
    if G.is_full and _paths_are_cylinders(G, vertex, edge):
        return GenerationReport(len(G), len(G), True)
    generated = algebra_dimension(g for g in [*vertex.values(), *edge.values()] if g.coefficients)
    return GenerationReport(generated, len(G), generated == len(G))


def _paths_are_cylinders(G: FiniteGroupoid, vertex: dict, edge: dict) -> bool:
    """Is each s_x 1.0 exactly on the elements (xz, d(x), z) of G, and 0 elsewhere?"""
    space, joined = G.space, G.space.index_of_factors
    s, shorter, length = {}, {}, 0  # s_x of one length, and of the tails one edge shorter
    for i in sorted(range(len(space)), key=lambda i: space.elements[i].degree.total):
        x = space.elements[i]
        if x.degree.total > length:
            shorter, s, length = s, {}, x.degree.total
        if x.is_vertex:
            s[i] = vertex[x.range]
        else:
            s[i] = convolve(edge[x.word[0]], shorter[space.index_of(space.factors[i][(1,)][1])])
        tails = space.by_range[source(space.skeleton, x)]
        xz = [(joined.get((x, space.elements[z])), z) for z in tails]
        cylinder = [G.index_of((a, x.degree.coords, z)) for a, z in xz if a is not None]
        if s[i].coefficients != dict.fromkeys(cylinder, 1):
            return False
    return True
