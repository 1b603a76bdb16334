"""The graph correspondence of a rank-1 graph: functions on vertices and edges.

Finitely supported functions on the vertices form the coefficient algebra and
those on the edges the correspondence X(E) over it: the right inner product
<xi, eta>(v) sums conj(xi(e)) eta(e) over the edges sourced at v, and vertex
functions act on the left through the range and on the right through the
source.  Operators on edge functions are finitely supported matrices; left
multiplication by a function supported on the regular vertices is a finite sum
of rank-one operators xi (x) eta*, which `rank_one_decomposition` builds and
checks exactly.  `kgraphs.algebra` lifts these pairs into the convolution
algebra, where the Cuntz-Krieger identity compares them with the vertex
projections.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .boundary import classify_vertices
from .skeleton import Skeleton


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
    Checked before returning, in one pass over the pairs: f o r is the
    pointwise sum of the products xi_i conj(eta_i), distinct same-source edges
    never mix, and the operator sum reproduces left multiplication exactly.
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
    totals, matrix = {}, {}  # xi conj(eta) at each edge and the operator sum, in pair order
    for xi, eta in pairs:
        for e, c in xi.values.items():
            totals[e] = totals.get(e, 0) + c * eta(e).conjugate()
        for key, c in rank_one_operator(sk, xi, eta).matrix.items():
            matrix[key] = matrix.get(key, 0j) + c
    if any(totals.get(e.id, 0) != f(e.range) for e in sk.edges):
        raise AssertionError("pointwise product identity failed")
    for xi, eta in pairs:  # the support pairs of each (xi, eta) only
        for e, e2 in ((e, e2) for e in xi.values for e2 in eta.values if e != e2):
            if sk.edge_by_id[e].source == sk.edge_by_id[e2].source:
                if xi(e) * eta(e2).conjugate() != 0:
                    raise AssertionError("cross-term orthogonality failed")
    if {key: c for key, c in matrix.items() if c != 0} != left_mult_operator(sk, f).matrix:
        raise AssertionError("operator sum does not reproduce left multiplication")
    return pairs
