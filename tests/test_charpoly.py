import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randic_energy import charpoly
from randic_energy.charpoly import (
    Comparison,
    EvenCoefficients,
    MODE_DELETED_GRAPH,
    MODE_SUBMATRIX,
    Polynomial,
    char_poly_combinatorial,
    char_poly_numeric,
    deleted_graph_poly,
    disjoint_union_poly,
    elementary_subgraphs,
    even_coefficients,
    principal_submatrix_poly,
    quasi_order_compare,
    vertex_order_check,
)
from randic_energy.energy import vertex_energies
from randic_energy.graph import Graph, disjoint_union
from randic_energy.random_graphs import (
    random_connected_bipartite_graph,
    random_connected_graph,
)
from randic_energy.spectral import eigen_symmetric, randic_matrix

from helpers import faddeev_leverrier


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return Graph.from_edges(n, [(0, j) for j in range(1, n)])


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# ---------------------------------------------------------------- Polynomial

def test_polynomial_evaluation():
    p = Polynomial((1.0, 0.0, -1.0))  # x^2 - 1
    assert p(2.0) == 3.0
    assert p(1.0) == 0.0
    assert p.degree == 2


# ------------------------------------------------------------- numeric route

def test_numeric_k2():
    p = char_poly_numeric(randic_matrix(path(2)))
    assert p.coefficients == pytest.approx((1.0, 0.0, -1.0), abs=1e-14)


def test_numeric_c4_and_s4_coincide():
    # both have normalized-adjacency spectrum {1, 0, 0, -1}
    p_c4 = char_poly_numeric(randic_matrix(cycle(4)))
    p_s4 = char_poly_numeric(randic_matrix(star(4)))
    expected = (1.0, 0.0, -1.0, 0.0, 0.0)
    assert p_c4.coefficients == pytest.approx(expected, abs=1e-14)
    assert p_s4.coefficients == pytest.approx(expected, abs=1e-14)


def test_numeric_rejects_empty():
    with pytest.raises(ValueError):
        char_poly_numeric(np.zeros((0, 0)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=12))
def test_numeric_matches_numpy_charpoly(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    ours = char_poly_numeric(randic_matrix(g)).coefficients
    ref = np.poly(randic_matrix(g))
    np.testing.assert_allclose(ours, ref, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=14))
def test_numeric_invariants(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    p = char_poly_numeric(randic_matrix(g))
    assert p.coefficients[0] == 1.0
    assert abs(p.coefficients[1]) < 1e-10  # trace is zero
    dec = eigen_symmetric(randic_matrix(g))
    for lam in dec.values:
        assert abs(p(lam)) <= 1e-6 * (1.0 + abs(lam)) ** g.n


def exact_path_poly(n):
    """det(xI - R(path(n))) in exact arithmetic. R is tridiagonal with zero
    diagonal and off-diagonal entries 1/sqrt(d_{k-1} d_k), so
    p_k = x p_{k-1} - p_{k-2} / (d_{k-1} d_k)."""
    d = [1] + [2] * (n - 2) + [1]
    before, p = [Fraction(1)], [Fraction(1), Fraction(0)]
    for k in range(1, n):
        nxt = p + [Fraction(0)]
        for i, c in enumerate(before):
            nxt[i + 2] -= c / (d[k - 1] * d[k])
        before, p = p, nxt
    return [float(c) for c in p]


@pytest.mark.parametrize("n", [13, 30, 60, 100, 150, 200])
def test_numeric_matches_exact_path_poly(n):
    # beyond MAX_ENUMERATION_N, where the subgraph expansion is refused
    exact = np.array(exact_path_poly(n))
    ours = np.array(char_poly_numeric(randic_matrix(path(n))).coefficients)
    assert np.max(np.abs(ours - exact)) <= 1e-13 * max(1.0, np.max(np.abs(exact)))


def _randic_of_random_graph(n, seed):
    """R of a seeded connected G(n, 0.3): the spectrum the library meets,
    inside [-1, 1]. n = 1 has no edge, so it gets a 1 x 1 matrix instead."""
    if n == 1:
        return np.array([[0.5]])
    return randic_matrix(random_connected_graph(random.Random(seed), n, 0.3))


def _assert_matches_np_poly(m):
    ours = np.array(char_poly_numeric(m).coefficients)
    ref = np.poly(m)
    assert np.max(np.abs(ours - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [1, 2])
def test_numeric_block_edges_smallest(n):
    _assert_matches_np_poly(_randic_of_random_graph(n, n))


@pytest.mark.parametrize("s", [2, 3, 5, 7])
def test_numeric_block_edges_full_and_partial(s):
    # n = s^2 runs s full blocks of s steps; n = s^2 + 1 stores s + 1 powers
    # and ends in a partial block
    assert charpoly._stored_powers(s * s) == s
    assert charpoly._stored_powers(s * s + 1) == s + 1
    assert (s * s + 1) % (s + 1) != 0
    for n in (s * s, s * s + 1):
        _assert_matches_np_poly(_randic_of_random_graph(n, n))


@pytest.mark.parametrize("budget, n, s", [(0, 6, 1), (98, 7, 2), (147, 7, 3)])
def test_numeric_block_sizes_under_a_smaller_budget(monkeypatch, budget, n, s):
    # the budget, not ceil(sqrt(n)) = 3, sets s; at n = 7 the last block is partial
    monkeypatch.setattr(charpoly, "_POWERS_BUDGET", budget)
    assert charpoly._stored_powers(n) == s
    _assert_matches_np_poly(_randic_of_random_graph(n, budget))


def test_stored_powers_within_budget():
    for n in (1, 10, 50, 100, 150, 200, 201, 400, 1000):
        s = charpoly._stored_powers(n)
        assert 1 <= s <= math.isqrt(n - 1) + 1
        assert s == 1 or s * n * n <= charpoly._POWERS_BUDGET
    assert charpoly._stored_powers(200) == 8


@pytest.mark.parametrize("g", [
    path(200),
    complete_bipartite(40, 60),
    star(150),
    random_connected_bipartite_graph(random.Random(7), 100, 0.1),
], ids=["path(200)", "K_{40,60}", "star(150)", "bipartite(100)"])
def test_numeric_bipartite_odd_coefficients_exactly_zero(g):
    coeffs = char_poly_numeric(randic_matrix(g)).coefficients
    assert all(c == 0.0 for c in coeffs[1::2])


@pytest.mark.parametrize("n", [5, 17, 40])
def test_numeric_general_matrices(n):
    # np.poly goes through eigvals and is itself off by up to 5e-13 at n = 40,
    # so the tight reference is the unblocked recurrence in extended precision
    for seed in range(5):
        m = np.random.default_rng(1000 * n + seed).standard_normal((n, n)) / math.sqrt(n)
        ours = np.array(char_poly_numeric(m).coefficients)
        exact = faddeev_leverrier(m, np.longdouble).astype(float)
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(ours - exact)) <= 1e-13 * scale
        ref = np.poly(np.linalg.eigvals(m)).real
        assert np.max(np.abs(ours - ref)) <= 1e-12 * scale


# ------------------------------------------------------- combinatorial route

def test_enumeration_counts():
    # triangle: empty + 3 single edges + 1 cycle
    assert sum(1 for _ in elementary_subgraphs(cycle(3))) == 5
    # P_3: empty + 2 single edges
    assert sum(1 for _ in elementary_subgraphs(path(3))) == 3
    # C_4: empty + 4 edges + 2 perfect matchings + 1 cycle
    assert sum(1 for _ in elementary_subgraphs(cycle(4))) == 8


def test_enumeration_order2_count_is_edge_count():
    for seed in range(6):
        g = random_connected_graph(random.Random(seed), 7)
        count = sum(1 for s in elementary_subgraphs(g) if s.order == 2)
        assert count == g.m


def test_enumeration_components_disjoint():
    for sub in elementary_subgraphs(cycle(6)):
        seen = []
        for u, v in sub.edges:
            seen += [u, v]
        for c in sub.cycles:
            seen += list(c)
            assert len(c) >= 3
        assert len(seen) == len(set(seen))


def test_combinatorial_k2():
    p = char_poly_combinatorial(path(2))
    assert p.coefficients == pytest.approx((1.0, 0.0, -1.0), abs=1e-15)


def test_combinatorial_c3():
    # three edges at weight 1/4 each and one triangle at 2/8
    p = char_poly_combinatorial(cycle(3))
    assert p.coefficients == pytest.approx((1.0, 0.0, -0.75, -0.25), abs=1e-15)


def test_combinatorial_s3():
    p = char_poly_combinatorial(path(3))
    assert p.coefficients == pytest.approx((1.0, 0.0, -1.0, 0.0), abs=1e-15)


def test_combinatorial_respects_cap():
    big = path(13)
    with pytest.raises(ValueError, match="capped"):
        char_poly_combinatorial(big)
    with pytest.raises(ValueError, match="capped"):
        list(elementary_subgraphs(big))


def test_combinatorial_handles_disconnected():
    g = Graph.from_edges(4, [(0, 1)])  # one edge plus two isolated vertices
    p = char_poly_combinatorial(g)
    assert p.coefficients == pytest.approx((1.0, 0.0, -1.0, 0.0, 0.0), abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=8))
def test_routes_agree(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    pn = char_poly_numeric(randic_matrix(g)).coefficients
    pc = char_poly_combinatorial(g).coefficients
    assert pc == pytest.approx(pn, abs=1e-8)


def test_routes_agree_on_families():
    graphs = (
        [cycle(n) for n in range(3, 9)]
        + [path(n) for n in range(2, 9)]
        + [star(n) for n in range(2, 9)]
        + [complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 5) if a + b <= 8]
        + [Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
           for n in range(2, 9)]
    )
    for g in graphs:
        pn = char_poly_numeric(randic_matrix(g)).coefficients
        pc = char_poly_combinatorial(g).coefficients
        assert pc == pytest.approx(pn, abs=1e-8), g.edges


# ----------------------------------------------------------- removal polys

def test_principal_submatrix_poly_star():
    # striking the hub row/column of a star leaves the zero matrix
    p = principal_submatrix_poly(star(4), 0)
    assert p.coefficients == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-14)
    # striking a leaf keeps weights 1/sqrt(3) on the surviving spokes
    p = principal_submatrix_poly(star(4), 1)
    assert p.coefficients == pytest.approx((1.0, 0.0, -2.0 / 3.0, 0.0), abs=1e-12)


def test_deleted_graph_poly_star():
    # the literal S_4 minus a leaf is S_3, whose weights renormalize to 1/sqrt(2)
    p = deleted_graph_poly(star(4), 1)
    assert p.coefficients == pytest.approx((1.0, 0.0, -1.0, 0.0), abs=1e-12)
    p = deleted_graph_poly(star(4), 0)
    assert p.coefficients == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-14)


def test_disjoint_union_poly_is_product():
    g1, g2 = path(3), cycle(4)
    u = disjoint_union(g1, g2)
    direct = char_poly_numeric(randic_matrix(u)).coefficients
    conv = disjoint_union_poly(
        char_poly_numeric(randic_matrix(g1)),
        char_poly_numeric(randic_matrix(g2)),
    ).coefficients
    assert conv == pytest.approx(direct, abs=1e-12)


# ------------------------------------------------------------- even form

def test_even_coefficients_examples():
    assert even_coefficients(Polynomial((1.0, 0.0, -1.0))).b == (1.0, 1.0)
    assert even_coefficients(Polynomial((1.0, 0.0, -1.0, 0.0, 0.0))).b == (1.0, 1.0, 0.0)


def test_even_coefficients_rejects_odd_spectrum():
    c3 = char_poly_combinatorial(cycle(3))
    with pytest.raises(ValueError, match="not symmetric"):
        even_coefficients(c3)


def test_even_coefficients_clamps_noise():
    p = Polynomial((1.0, 0.0, 5e-11))  # b_1 = -5e-11, inside the noise band
    assert even_coefficients(p).b == (1.0, 0.0)


def test_even_coefficients_rejects_large_negative():
    p = Polynomial((1.0, 0.0, 1e-3))
    with pytest.raises(ValueError, match="negative"):
        even_coefficients(p)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=12))
def test_bipartite_polys_have_even_form(seed, n):
    g = random_connected_bipartite_graph(random.Random(seed), n)
    p = char_poly_numeric(randic_matrix(g))
    coeffs = even_coefficients(p)
    assert all(b >= 0.0 for b in coeffs.b)
    assert coeffs.b[0] == 1.0


# ------------------------------------------------------------- quasi-order

def b(*values):
    return EvenCoefficients(b=tuple(float(v) for v in values), degree=2 * (len(values) - 1))


def test_compare_equal():
    assert quasi_order_compare(b(1, 1), b(1, 1)) is Comparison.EQUAL


def test_compare_padding():
    assert quasi_order_compare(b(1, 1), b(1, 1, 0)) is Comparison.EQUAL


def test_compare_strict_directions():
    assert quasi_order_compare(b(1, 0), b(1, 1)) is Comparison.LESS_EQ
    assert quasi_order_compare(b(1, 1), b(1, 0)) is Comparison.GREATER_EQ


def test_compare_incomparable():
    assert quasi_order_compare(b(1, 2, 1), b(1, 1, 2)) is Comparison.INCOMPARABLE


# ------------------------------------------------------- vertex ordering

def test_star_ordering_both_modes():
    g = star(4)
    vec = vertex_energies(g)
    for mode in (MODE_SUBMATRIX, MODE_DELETED_GRAPH):
        rec = vertex_order_check(g, 0, 1, mode=mode)  # v = center, w = leaf
        assert rec.comparison is Comparison.GREATER_EQ
        assert rec.status == "witnessed"
        assert rec.energy_w == pytest.approx(1 / 3, abs=1e-9)
        assert rec.energy_v == pytest.approx(1.0, abs=1e-9)
    assert vec.energies[0] == pytest.approx(1.0, abs=1e-9)


def test_same_vertex_is_equal():
    rec = vertex_order_check(path(4), 2, 2)
    assert rec.comparison is Comparison.EQUAL
    assert rec.status == "equal"


def test_p4_orbits_witnessed():
    rec = vertex_order_check(path(4), 1, 0)  # v interior, w end
    assert rec.comparison in (Comparison.GREATER_EQ, Comparison.LESS_EQ)
    assert rec.status == "witnessed"
    assert rec.energy_v == pytest.approx(5 / 6, abs=1e-9)
    assert rec.energy_w == pytest.approx(2 / 3, abs=1e-9)


def test_rejects_non_bipartite():
    with pytest.raises(ValueError, match="bipartite"):
        vertex_order_check(cycle(5), 0, 1)


def test_submatrix_mode_never_violates_on_small_suite():
    suite = (
        [path(n) for n in range(2, 7)]
        + [cycle(n) for n in (4, 6)]
        + [star(n) for n in range(2, 7)]
        + [complete_bipartite(a, b) for a in (1, 2) for b in (2, 3)]
    )
    for g in suite:
        for v, w in itertools.combinations(range(g.n), 2):
            rec = vertex_order_check(g, v, w)  # strict: raises on violation
            assert rec.status in ("witnessed", "equal", "vacuous")


def test_deleted_graph_mode_breaks_on_p4():
    # literal deletion maps both P_4 end and interior removals to polynomials
    # with b = (1, 1), forcing "Equal" while the energies differ
    rec = vertex_order_check(path(4), 0, 1, mode=MODE_DELETED_GRAPH, strict=False)
    assert rec.comparison is Comparison.EQUAL
    assert rec.status == "violated"
    with pytest.raises(AssertionError, match="violated"):
        vertex_order_check(path(4), 0, 1, mode=MODE_DELETED_GRAPH)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=9))
def test_submatrix_ordering_property(seed, n):
    g = random_connected_bipartite_graph(random.Random(seed), n)
    rng = random.Random(seed + 7)
    v, w = rng.randrange(n), rng.randrange(n)
    rec = vertex_order_check(g, v, w)
    assert rec.status in ("witnessed", "equal", "vacuous")


def test_disjoint_union_ordering():
    # compare a vertex of g1 with a vertex of g2 through union polynomials
    rng = random.Random(5)
    for _ in range(12):
        g1 = random_connected_bipartite_graph(rng, rng.randint(2, 7))
        g2 = random_connected_bipartite_graph(rng, rng.randint(2, 7))
        p1 = char_poly_numeric(randic_matrix(g1))
        p2 = char_poly_numeric(randic_matrix(g2))
        v = rng.randrange(g1.n)
        w = rng.randrange(g2.n)
        left = disjoint_union_poly(p1, principal_submatrix_poly(g2, w))
        right = disjoint_union_poly(p2, principal_submatrix_poly(g1, v))
        cmp = quasi_order_compare(even_coefficients(left), even_coefficients(right))
        ev = vertex_energies(g1).energies[v]
        ew = vertex_energies(g2).energies[w]
        if cmp is Comparison.GREATER_EQ:
            assert ew <= ev + 1e-9
        elif cmp is Comparison.LESS_EQ:
            assert ev <= ew + 1e-9
        elif cmp is Comparison.EQUAL:
            assert abs(ev - ew) <= 1e-9
