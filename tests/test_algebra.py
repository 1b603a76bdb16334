from __future__ import annotations

import numpy as np
import pytest

import kgraphs as kg
from kgraphs import algebra as alg
from kgraphs.algebra import AlgebraElement, EdgeFunction, VertexFunction
from kgraphs.bimodule import BimoduleOperator
from kgraphs.skeleton import Degree

import oracles as orc


@pytest.fixture(scope="module")
def setup_b(instance_b):
    space = kg.enumerate_path_space(instance_b)
    return instance_b, space, kg.build_path_groupoid(space), kg.build_boundary_groupoid(space)


@pytest.fixture(scope="module")
def setup_e(instance_e):
    space = kg.enumerate_path_space(instance_e)
    return instance_e, space, kg.build_path_groupoid(space), kg.build_boundary_groupoid(space)


def delta_at(G, sk, x_word_or_vertex, m, y_word_or_vertex, coeff=1.0):
    def path_of(spec):
        if isinstance(spec, str) and spec in sk.vertex_ids:
            return kg.vertex_path(sk, spec)
        return kg.path_from_word(sk, spec)

    space = G.space
    label = (
        space.index_of(path_of(x_word_or_vertex)),
        m,
        space.index_of(path_of(y_word_or_vertex)),
    )
    return AlgebraElement.delta(G, label, coeff)


# --- convolution and involution -----------------------------------------


def test_delta_convolution_follows_composition(setup_b):
    sk, _, G, _ = setup_b
    fwd = delta_at(G, sk, ["e"], (1,), "w")
    back = delta_at(G, sk, "w", (-1,), ["e"])
    assert kg.convolve(fwd, back) == delta_at(G, sk, ["e"], (0,), ["e"])


def test_delta_convolution_line_instance(setup_e):
    sk, _, G, _ = setup_e
    a = delta_at(G, sk, ["f2", "f3"], (1,), ["f3"])
    b = delta_at(G, sk, ["f3"], (1,), "v3")
    assert kg.convolve(a, b) == delta_at(G, sk, ["f2", "f3"], (2,), "v3")


def test_unit_delta_acts_as_local_identity(setup_b):
    sk, space, G, _ = setup_b
    rng = np.random.default_rng(7)
    f = orc.random_algebra_element(rng, G)
    e_idx = space.index_of(kg.edge_path(sk, "e"))
    unit = delta_at(G, sk, ["e"], (0,), ["e"])
    projected = kg.convolve(unit, f)
    expected = {
        i: c for i, c in f.coefficients.items() if G.elements[i].x == e_idx
    }
    assert projected.coefficients == expected


def test_involution_swaps_and_conjugates(setup_b):
    sk, _, G, _ = setup_b
    g = delta_at(G, sk, ["e"], (1,), "w", coeff=2 + 3j)
    assert kg.involution(g) == delta_at(G, sk, "w", (-1,), ["e"], coeff=2 - 3j)


def test_involution_is_involutive_and_antimultiplicative(setup_e):
    _, _, G, _ = setup_e
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = orc.random_algebra_element(rng, G)
        g = orc.random_algebra_element(rng, G)
        assert kg.involution(kg.involution(f)) == f
        lhs = kg.involution(kg.convolve(f, g))
        rhs = kg.convolve(kg.involution(g), kg.involution(f))
        assert (lhs - rhs).max_abs() < 1e-12


def test_real_unit_function_fixed_by_involution(setup_b):
    sk, _, G, _ = setup_b
    f = kg.vertex_operator(G, VertexFunction.indicator(["v", "w"]))
    assert kg.involution(f) == f


# --- norms ---------------------------------------------------------------


def test_i_norm_of_point_masses(setup_b):
    sk, _, G, _ = setup_b
    assert orc.i_norm(delta_at(G, sk, ["e"], (1,), "w")) == 1.0
    f = kg.vertex_operator(G, VertexFunction({"v": 3j, "w": -4}))
    assert orc.i_norm(f) == 4.0
    g = delta_at(G, sk, ["e"], (1,), "w")
    assert orc.i_norm(g + kg.involution(g)) == 1.0


def test_i_norm_submultiplicative(setup_e):
    _, _, G, _ = setup_e
    rng = np.random.default_rng(13)
    for _ in range(50):
        f = orc.random_algebra_element(rng, G)
        g = orc.random_algebra_element(rng, G)
        assert orc.i_norm(kg.convolve(f, g)) <= orc.i_norm(f) * orc.i_norm(g) + 1e-9


# --- regular representation ----------------------------------------------


def test_regular_representation_is_a_star_homomorphism(setup_b, setup_e):
    for sk, _, G, Gb in (setup_b, setup_e):
        for gpd in (G, Gb):
            rep = alg.RegularRepresentation(gpd)
            rng = np.random.default_rng(17)
            for _ in range(20):
                f = orc.random_algebra_element(rng, gpd)
                g = orc.random_algebra_element(rng, gpd)
                fg = kg.convolve(f, g)
                for u in rep.bases:
                    assert np.allclose(
                        rep.matrix(fg, u),
                        rep.matrix(f, u) @ rep.matrix(g, u),
                        atol=1e-9,
                    )
                    assert np.allclose(
                        rep.matrix(kg.involution(f), u),
                        rep.matrix(f, u).conj().T,
                        atol=1e-9,
                    )


def test_regular_representation_faithful_dimension(setup_b):
    _, _, G, Gb = setup_b
    # Boundary groupoid of the one-edge graph acts on one fiber of size 2.
    rep = alg.RegularRepresentation(Gb)
    sizes = sorted(len(b) for b in rep.bases.values())
    assert sizes == [2, 2]


# --- span closure dimension ----------------------------------------------


def test_dimension_of_full_delta_span(setup_b, edgeless):
    _, _, G, Gb = setup_b
    assert alg.algebra_dimension(
        [AlgebraElement.delta(Gb, g.label()) for g in Gb]
    ) == 4
    assert alg.algebra_dimension(
        [AlgebraElement.delta(G, g.label()) for g in G]
    ) == 5
    space = kg.enumerate_path_space(edgeless)
    G1 = kg.build_path_groupoid(space)
    assert alg.algebra_dimension(
        [AlgebraElement.delta(G1, g.label()) for g in G1]
    ) == 1


def test_dimension_ignores_linear_dependence(setup_b):
    sk, _, G, _ = setup_b
    a = delta_at(G, sk, "v", (0,), "v")
    assert alg.algebra_dimension([a, a.scale(2), a.scale(-1j)]) == 1


# --- generators -----------------------------------------------------------


def test_vertex_operator_uses_range_of_each_unit(setup_b):
    sk, _, G, Gb = setup_b
    f = VertexFunction.delta("v")
    on_full = kg.vertex_operator(G, f)
    assert on_full == delta_at(G, sk, "v", (0,), "v") + delta_at(
        G, sk, ["e"], (0,), ["e"]
    )
    on_boundary = kg.vertex_operator(Gb, f)
    assert on_boundary == delta_at(Gb, sk, ["e"], (0,), ["e"])


def test_vertex_operator_zero_and_identity(setup_b):
    sk, _, G, _ = setup_b
    assert kg.vertex_operator(G, VertexFunction({})) == AlgebraElement.zero(G)
    one = kg.vertex_operator(G, VertexFunction.indicator(["v", "w"]))
    assert set(one.coefficients) == set(G.unit_index.values())
    rng = np.random.default_rng(3)
    f = orc.random_algebra_element(rng, G)
    assert kg.convolve(one, f) == f
    assert kg.convolve(f, one) == f


def test_vertex_operator_is_multiplicative(setup_e):
    sk, _, G, _ = setup_e
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = orc.random_vertex_function(rng, [v.id for v in sk.vertices])
        g = orc.random_vertex_function(rng, [v.id for v in sk.vertices])
        pointwise = VertexFunction(
            {v.id: f(v.id) * g(v.id) for v in sk.vertices}
        )
        lhs = kg.convolve(kg.vertex_operator(G, f), kg.vertex_operator(G, g))
        rhs = kg.vertex_operator(G, pointwise)
        assert (lhs - rhs).max_abs() < 1e-12


def test_edge_operator_point_mass(setup_b):
    sk, _, G, _ = setup_b
    assert kg.edge_operator(G, EdgeFunction.delta("e")) == delta_at(
        G, sk, ["e"], (1,), "w"
    )
    assert kg.edge_operator(G, EdgeFunction({})) == AlgebraElement.zero(G)


def test_edge_operator_line_instance(setup_e):
    sk, _, G, Gb = setup_e
    xi = EdgeFunction.delta("f3")
    assert kg.edge_operator(G, xi) == delta_at(G, sk, ["f3"], (1,), "v3")
    assert kg.edge_operator(Gb, xi) == delta_at(Gb, sk, ["f3"], (1,), "v3")
    xi2 = EdgeFunction.delta("f2")
    on_full = kg.edge_operator(G, xi2)
    assert on_full == delta_at(G, sk, ["f2"], (1,), "v2") + delta_at(
        G, sk, ["f2", "f3"], (1,), ["f3"]
    )


def test_edge_operator_needs_rank_one(instance_a):
    space = kg.enumerate_path_space(instance_a, bound=Degree((1, 1)))
    G = kg.build_path_groupoid(space)
    with pytest.raises(ValueError, match="rank-1"):
        kg.edge_operator(G, EdgeFunction({}))


# --- bimodule operations ---------------------------------------------------


def test_inner_product_single_edge(instance_b):
    xi = EdgeFunction.delta("e")
    got = kg.inner_product(instance_b, xi, xi)
    assert got.values == {"w": 1 + 0j}


def test_inner_product_orthogonal_and_positive(instance_e):
    a = EdgeFunction.delta("f2")
    b = EdgeFunction.delta("f3")
    assert kg.inner_product(instance_e, a, b).values == {}
    rng = np.random.default_rng(23)
    for _ in range(20):
        xi = orc.random_edge_function(rng, ["f2", "f3"])
        values = kg.inner_product(instance_e, xi, xi).values
        assert all(abs(v.imag) < 1e-12 and v.real >= 0 for v in values.values())


def test_actions_read_endpoints(instance_b):
    xi = EdgeFunction.delta("e")
    assert kg.left_action(instance_b, VertexFunction.delta("v"), xi).values == {
        "e": 1 + 0j
    }
    assert kg.right_action(instance_b, xi, VertexFunction.delta("v")).values == {}
    one = VertexFunction.indicator(["v", "w"])
    assert kg.left_action(instance_b, one, xi).values == xi.values


def test_rank_one_operator_matrix(instance_b):
    xi = EdgeFunction.delta("e")
    op = kg.rank_one_operator(instance_b, xi, xi)
    assert op.matrix == {("e", "e"): 1 + 0j}
    assert kg.left_mult_operator(instance_b, VertexFunction({})).matrix == {}


def test_rank_one_operator_matches_defining_identity(instance_e):
    rng = np.random.default_rng(29)
    edges = ["f2", "f3"]
    for _ in range(50):
        xi = orc.random_edge_function(rng, edges)
        eta = orc.random_edge_function(rng, edges)
        zeta = orc.random_edge_function(rng, edges)
        direct = kg.rank_one_operator(instance_e, xi, eta).apply(zeta)
        paired = kg.right_action(
            instance_e, xi, kg.inner_product(instance_e, eta, zeta)
        )
        for e in edges:
            assert abs(direct(e) - paired(e)) < 1e-12


def test_rank_one_decomposition_single_edge(instance_b):
    pairs = kg.rank_one_decomposition(instance_b, VertexFunction.delta("v"))
    assert len(pairs) == 1
    xi, eta = pairs[0]
    assert xi.values == {"e": 1 + 0j}
    assert eta.values == {"e": 1 + 0j}


def test_rank_one_decomposition_zero_and_line(instance_b, instance_e):
    assert kg.rank_one_decomposition(instance_b, VertexFunction({})) == []
    pairs = kg.rank_one_decomposition(instance_e, VertexFunction.delta("v1"))
    assert len(pairs) == 1
    assert set(pairs[0][0].values) == {"f2"}


def test_rank_one_decomposition_warns_off_regular_support(instance_b):
    with pytest.warns(UserWarning, match="regular"):
        kg.rank_one_decomposition(instance_b, VertexFunction.delta("w"))


def test_rank_one_decomposition_properties_exact(instance_e):
    rng = np.random.default_rng(31)
    for _ in range(20):
        f = orc.random_vertex_function(rng, ["v1", "v2"])
        pairs = kg.rank_one_decomposition(instance_e, f)
        # pointwise product identity, zero deviation
        for e in instance_e.edges:
            total = sum(xi(e.id) * eta(e.id).conjugate() for xi, eta in pairs)
            assert total == f(e.range)
        # orthogonality across distinct same-source edges, zero deviation
        for xi, eta in pairs:
            for e in instance_e.edges:
                for e2 in instance_e.edges:
                    if e.id != e2.id and e.source == e2.source:
                        assert xi(e.id) * eta(e2.id).conjugate() == 0
        # operator identity, zero deviation
        total_op = BimoduleOperator({})
        for xi, eta in pairs:
            total_op = total_op + kg.rank_one_operator(instance_e, xi, eta)
        assert (total_op - kg.left_mult_operator(instance_e, f)).max_abs() == 0.0


def test_rank_one_lift_values(setup_b, setup_e):
    sk_b, _, _, Gb_b = setup_b
    pairs = kg.rank_one_decomposition(sk_b, VertexFunction.delta("v"))
    assert orc.rank_one_lift(Gb_b, pairs) == delta_at(Gb_b, sk_b, ["e"], (0,), ["e"])
    assert orc.rank_one_lift(Gb_b, []) == AlgebraElement.zero(Gb_b)
    sk_e, _, _, Gb_e = setup_e
    pairs_e = kg.rank_one_decomposition(sk_e, VertexFunction.delta("v2"))
    assert orc.rank_one_lift(Gb_e, pairs_e) == delta_at(Gb_e, sk_e, ["f3"], (0,), ["f3"])


# --- the defining identities ------------------------------------------


def test_adjoint_product_hand_example(setup_b):
    sk, _, G, _ = setup_b
    xi = EdgeFunction.delta("e")
    s = kg.edge_operator(G, xi)
    lhs = kg.convolve(kg.involution(s), s)
    assert lhs == delta_at(G, sk, "w", (0,), "w")
    rhs = kg.vertex_operator(G, kg.inner_product(sk, xi, xi))
    assert lhs == rhs


def test_left_action_identity_with_unit_function(setup_e):
    sk, _, G, _ = setup_e
    one = VertexFunction.indicator([v.id for v in sk.vertices])
    rng = np.random.default_rng(37)
    xi = orc.random_edge_function(rng, ["f2", "f3"])
    lhs = kg.convolve(kg.vertex_operator(G, one), kg.edge_operator(G, xi))
    assert lhs == kg.edge_operator(G, xi)


@pytest.mark.parametrize("which", ["b", "e"])
@pytest.mark.parametrize("boundary", [False, True])
def test_toeplitz_identities_suite(which, boundary, setup_b, setup_e):
    _, _, G, Gb = setup_b if which == "b" else setup_e
    reports = kg.verify_toeplitz_identities(Gb if boundary else G, samples=100, tol=1e-9, seed=1)
    assert all(r.passed for r in reports)
    assert {r.identity for r in reports} == {
        "toeplitz_inner_product",
        "toeplitz_left_action",
    }


def test_cuntz_krieger_hand_example(setup_b):
    sk, _, _, Gb = setup_b
    lhs, rhs = orc.cuntz_krieger_sides(Gb, VertexFunction.delta("v"))
    assert lhs == rhs == delta_at(Gb, sk, ["e"], (0,), ["e"])


def test_cuntz_krieger_rejects_singular_support(setup_b):
    _, _, _, Gb = setup_b
    with pytest.raises(ValueError, match="regular"):
        orc.cuntz_krieger_sides(Gb, VertexFunction.delta("w"))


@pytest.mark.filterwarnings("error")
def test_cuntz_krieger_sides_emit_no_warning(setup_b, setup_e):
    """Regular support warns nowhere; off-regular support raises before any warning."""
    for sk, _, _, Gb in (setup_b, setup_e):
        regular = kg.classify_vertices(sk).regular
        f = VertexFunction({v: 1 + n for n, v in enumerate(regular)})
        lhs, rhs = orc.cuntz_krieger_sides(Gb, f)
        assert lhs == rhs
        for source in kg.classify_vertices(sk).sources:
            with pytest.raises(ValueError, match="regular"):
                orc.cuntz_krieger_sides(Gb, VertexFunction({regular[0]: 1, source: 2}))


@pytest.mark.parametrize("which", ["b", "e"])
def test_cuntz_krieger_suite(which, setup_b, setup_e):
    _, _, _, Gb = setup_b if which == "b" else setup_e
    report = kg.verify_cuntz_krieger(Gb, samples=100, tol=1e-9, seed=2)
    assert report.passed
    assert report.max_deviation <= 1e-9


def test_algebra_identity_suites(setup_b, setup_e):
    for _, _, G, Gb in (setup_b, setup_e):
        for gpd in (G, Gb):
            reports = kg.verify_algebra_identities(gpd, samples=100, tol=1e-9, seed=3)
            assert all(r.passed for r in reports), [
                (r.identity, r.max_deviation) for r in reports
            ]


# --- quotient ------------------------------------------------------------


def test_quotient_drops_interior_units(setup_b):
    sk, _, G, Gb = setup_b
    interior = delta_at(G, sk, "v", (0,), "v")
    assert orc.quotient_restrict(interior, Gb) == AlgebraElement.zero(Gb)
    arrow = delta_at(G, sk, ["e"], (1,), "w")
    assert orc.quotient_restrict(arrow, Gb) == delta_at(Gb, sk, ["e"], (1,), "w")


def test_quotient_multiplicative_exactly(setup_b, setup_e):
    for _, _, G, Gb in (setup_b, setup_e):
        report = kg.verify_quotient(G, Gb, samples=100, seed=4)
        assert report.passed
        assert report.max_deviation == 0.0
        assert report.tolerance == 0.0


# --- gauge action ----------------------------------------------------------


def test_gauge_scales_by_cocycle(setup_b):
    sk, _, G, _ = setup_b
    g = delta_at(G, sk, ["e"], (1,), "w")
    t = complex(np.exp(0.7j))
    assert orc.gauge_automorphism(g, t) == g.scale(t)
    back = kg.involution(g)
    assert orc.gauge_automorphism(back, t) == back.scale(t.conjugate())


def test_gauge_at_one_is_identity(setup_e):
    _, _, G, _ = setup_e
    rng = np.random.default_rng(41)
    f = orc.random_algebra_element(rng, G)
    assert orc.gauge_automorphism(f, 1.0) == f


def test_gauge_rejects_off_circle_parameters(setup_b):
    _, _, G, _ = setup_b
    rng = np.random.default_rng(43)
    f = orc.random_algebra_element(rng, G)
    with pytest.raises(ValueError, match="unit circle"):
        orc.gauge_automorphism(f, 0.5)


def test_gauge_torus_action_on_truncated_rank_two(instance_a):
    space = kg.enumerate_path_space(instance_a, bound=Degree((1, 1)))
    G = kg.build_path_groupoid(space)
    rng = np.random.default_rng(47)
    f = orc.random_algebra_element(rng, G)
    ts = (1j, -1.0)
    twice = orc.gauge_automorphism(orc.gauge_automorphism(f, ts), ts)
    direct = orc.gauge_automorphism(f, tuple(t * t for t in ts))
    assert (twice - direct).max_abs() < 1e-12


def test_gauge_suite(setup_b, setup_e):
    for _, _, G, Gb in (setup_b, setup_e):
        for gpd in (G, Gb):
            reports = kg.verify_gauge_action(gpd, samples=100, tol=1e-9, seed=5)
            assert all(r.passed for r in reports), [
                (r.identity, r.max_deviation) for r in reports
            ]
            names = {r.identity for r in reports}
            assert "gauge_scales_generators" in names


def test_gauge_grading_of_homogeneous_products(setup_e):
    _, _, G, _ = setup_e
    rng = np.random.default_rng(53)
    for _ in range(30):
        f = orc.random_algebra_element(rng, G)
        g = orc.random_algebra_element(rng, G)
        for mf in orc.support_levels(f):
            for mg in orc.support_levels(g):
                prod = kg.convolve(
                    orc.homogeneous_component(f, mf),
                    orc.homogeneous_component(g, mg),
                )
                expected = tuple(a + b for a, b in zip(mf, mg))
                assert orc.support_levels(prod) <= {expected}


# --- generation -----------------------------------------------------------


def test_generators_span_everything(setup_b, setup_e):
    _, _, G_b, Gb_b = setup_b
    _, _, G_e, Gb_e = setup_e
    assert kg.generation_check(Gb_b) == alg.GenerationReport(4, 4, True)
    assert kg.generation_check(G_b) == alg.GenerationReport(5, 5, True)
    assert kg.generation_check(Gb_e) == alg.GenerationReport(9, 9, True)
    assert kg.generation_check(G_e) == alg.GenerationReport(14, 14, True)


def test_vertex_operator_injective_where_vertices_meet_the_space(setup_b, setup_e):
    # Structural shadow of faithfulness: the point masses at vertices that
    # range some space element map to nonzero operators with pairwise
    # disjoint supports, so the representation is injective there.
    for sk, space, G, Gb in (setup_b, setup_e):
        for gpd in (G, Gb):
            reachable = {el.range for el in gpd.space.elements}
            supports = {}
            for v in sorted(reachable):
                op = kg.vertex_operator(gpd, VertexFunction.delta(v))
                assert op.coefficients
                supports[v] = set(op.coefficients)
            flat = [i for s in supports.values() for i in s]
            assert len(flat) == len(set(flat))


def test_convolve_rejects_groupoid_mismatch(setup_b):
    _, _, G, Gb = setup_b
    with pytest.raises(ValueError, match="different groupoids"):
        kg.convolve(AlgebraElement.zero(G), AlgebraElement.zero(Gb))


def test_serialization_round_trip(setup_b):
    sk, _, G, _ = setup_b
    f = delta_at(G, sk, ["e"], (1,), "w", coeff=1 - 2j)
    row = f.to_json()
    assert len(row) == 1
    x, m, y, re, im = row[0]
    assert m == [1] and re == 1.0 and im == -2.0
