import functools
import json
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randic_energy.energy import (
    _MAX_BLOCK,
    _binomial_half_coefficients,
    _series_table,
    MAX_SERIES_TERMS,
    ROUTE_ABS,
    ROUTE_EIGEN,
    ROUTE_SERIES,
    SeriesEnergies,
    graph_energy,
    partition_energies,
    series_energies,
    series_tail_bound,
    vertex_energies,
    vertex_energy_series,
)
from randic_energy.bounds import bounds_report, general_randic_index
from randic_energy.cli import main
from randic_energy.families import FamilyKind, FamilySpec, VertexClass, closed_form_energy
from randic_energy.graph import Graph, bipartition, parse_edge_list
from randic_energy.random_graphs import random_connected_bipartite_graph, random_connected_graph
from helpers import relabel

# 7-vertex running example used throughout; energies frozen from an
# independent dense eigensolve (LAPACK dsyevd on the 7x7 matrix)
DEMO7 = parse_edge_list(
    "n 7\n1 2\n2 3\n3 4\n2 4\n1 4\n4 5\n5 6\n4 6\n4 7\n"
)
DEMO7_ENERGIES = (
    0.33818338,
    0.58484160,
    0.33818338,
    0.69900159,
    0.54678827,
    0.54678827,
    0.31724369,
)
DEMO7_TOTAL = 3.37103019


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n):
    return Graph.from_edges(n, [(0, j) for j in range(1, n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------- eigen route

def test_k2_energies_are_one():
    vec = vertex_energies(path(2))
    assert vec.energies == pytest.approx((1.0, 1.0), abs=1e-14)
    assert vec.total == pytest.approx(2.0, abs=1e-14)


def test_demo7_energies():
    vec = vertex_energies(DEMO7)
    assert vec.energies == pytest.approx(DEMO7_ENERGIES, abs=1e-7)
    assert vec.total == pytest.approx(DEMO7_TOTAL, abs=1e-7)


def test_p4_symmetry_and_values():
    vec = vertex_energies(path(4))
    assert vec.energies[0] == pytest.approx(vec.energies[3], abs=1e-12)
    assert vec.energies[1] == pytest.approx(vec.energies[2], abs=1e-12)
    assert vec.energies == pytest.approx((2 / 3, 5 / 6, 5 / 6, 2 / 3), abs=1e-10)
    assert vec.total == pytest.approx(3.0, abs=1e-10)


def test_rejects_disconnected_and_single_vertex():
    with pytest.raises(ValueError, match="connected"):
        vertex_energies(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        vertex_energies(Graph.from_edges(1, []))


def test_unknown_route_rejected():
    with pytest.raises(ValueError, match="route"):
        vertex_energies(path(3), route="adjacency")


# ---------------------------------------------------------------- route cross

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=20))
def test_eigen_and_abs_routes_agree(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    a = vertex_energies(g, route=ROUTE_EIGEN)
    b = vertex_energies(g, route=ROUTE_ABS)
    assert a.energies == pytest.approx(b.energies, abs=1e-10)
    assert a.total == pytest.approx(b.total, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=20))
def test_series_route_agrees_within_its_tail(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    eig = vertex_energies(g, route=ROUTE_EIGEN)
    ser = series_energies(g, terms=200)
    for i in range(g.n):
        # the tail bound is exact for the truncation error, so allow for
        # a little float noise on top of it
        slack = max(1e-6, series_tail_bound(g, i, 200) * (1 + 1e-6) + 1e-9)
        assert abs(ser.energies[i] - eig.energies[i]) <= slack


def test_series_route_tight_on_gapped_spectra():
    # spectra {1, -1/(n-1)} and {1, -1/2} keep |lambda^2 - 1| well under 1,
    # so 200 terms is plenty for 1e-6 three-way agreement
    for g in [complete(3), complete(4), cycle(3)]:
        eig = vertex_energies(g, route=ROUTE_EIGEN)
        ser = vertex_energies(g, route=ROUTE_SERIES)
        aab = vertex_energies(g, route=ROUTE_ABS)
        assert ser.energies == pytest.approx(eig.energies, abs=1e-6)
        assert ser.energies == pytest.approx(aab.energies, abs=1e-6)


# ---------------------------------------------------------------- invariants

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=20))
def test_energies_in_unit_interval_and_sum(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    vec = vertex_energies(g)
    for e in vec.energies:
        assert 0.0 < e <= 1.0 + 1e-12
    assert vec.total == pytest.approx(sum(vec.energies), abs=1e-10)
    assert vec.total == pytest.approx(graph_energy(g), abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=12))
def test_relabeling_permutes_energies(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    perm = list(range(n))
    random.Random(seed + 1).shuffle(perm)
    h = relabel(g, tuple(perm))
    ge = vertex_energies(g).energies
    he = vertex_energies(h).energies
    for v in range(n):
        assert he[perm[v]] == pytest.approx(ge[v], abs=1e-10)


def test_vertex_transitive_families_equal_split():
    for g in [complete(6), cycle(8)]:
        vec = vertex_energies(g)
        share = vec.total / g.n
        for e in vec.energies:
            assert e == pytest.approx(share, abs=1e-10)


def test_graph_energy_known_values():
    assert graph_energy(complete(9)) == pytest.approx(2.0, abs=1e-10)
    # friendship graph on t triangles has total energy t + 1
    t = 4
    edges = []
    for k in range(t):
        a, b = 2 * k + 1, 2 * k + 2
        edges += [(0, a), (0, b), (a, b)]
    f = Graph.from_edges(2 * t + 1, edges)
    assert graph_energy(f) == pytest.approx(t + 1.0, abs=1e-10)
    assert graph_energy(DEMO7) == pytest.approx(DEMO7_TOTAL, abs=1e-7)


# ---------------------------------------------------------------- series

def test_series_first_term_is_one():
    for i in range(4):
        assert vertex_energy_series(path(4), i, 1) == 1.0


def test_series_two_terms_demo7_pendant():
    # 1 + ((R^2)_77 - 1)/2 with (R^2)_77 = 1/(d_7 d_4) = 1/6
    got = vertex_energy_series(DEMO7, 6, 2)
    assert got == pytest.approx(1.0 + (1.0 / 6.0 - 1.0) / 2.0, abs=1e-12)
    assert got == pytest.approx(7.0 / 12.0, abs=1e-12)


def test_series_exact_on_k2():
    # R^2 = I, so every truncation equals 1
    for terms in (1, 2, 5, 40):
        assert vertex_energy_series(path(2), 0, terms) == pytest.approx(1.0, abs=1e-15)


def test_series_truncations_decrease_monotonically():
    g = DEMO7
    for i in (0, 3, 6):
        values = [vertex_energy_series(g, i, t) for t in range(1, 40)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-15


def test_series_converges_from_above_to_eigen_value():
    g = cycle(3)
    eig = vertex_energies(g).energies
    for i in range(3):
        approx = vertex_energy_series(g, i, 120)
        assert approx >= eig[i] - 1e-12
        assert approx == pytest.approx(eig[i], abs=1e-8)


def test_series_cap_and_remainder_estimate():
    assert series_energies(path(3), terms=50_000).terms == 10_000
    bounds = []
    for terms in (10, 200, 2000):
        for g in (star(100), path(3)):
            res = series_energies(g, terms=terms)
            eig = vertex_energies(g).energies
            for i in range(g.n):
                # truncations approach from above; 1e-14 allows for rounding
                assert -1e-14 <= res.energies[i] - eig[i] <= res.tail_bound
        bounds.append(res.tail_bound)
    assert bounds[0] > bounds[1] > bounds[2] > 0.0
    # the leaves of a large star carry almost all weight on the zero
    # eigenvalue, where the tail is slowest: the bound is nearly attained
    leaf_error = series_energies(star(100)).energies[1] - 1.0 / 99.0
    assert leaf_error == pytest.approx(series_energies(star(100)).tail_bound, rel=0.02)


def test_series_all_vertices_matches_single_vertex():
    g = DEMO7
    res = series_energies(g, terms=37)
    for i in range(g.n):
        assert res.energies[i] == pytest.approx(
            vertex_energy_series(g, i, 37), abs=1e-12
        )


# block sizes s = ceil(sqrt(terms)) up to the cap: single, full and partial
# last blocks at s = 7 and at the cap, and the capped size past it
BLOCK_EDGE_TERMS = (1, 2, 3, 48, 49, 50, 200,
                    _MAX_BLOCK ** 2 - 1, _MAX_BLOCK ** 2, _MAX_BLOCK ** 2 + 1, 10_000)


@pytest.mark.parametrize("g, vertices", [
    (path(2), (0, 1)),
    (random_connected_graph(random.Random(20), 20, 0.4), range(20)),
    # near-singular: the zero eigenvalue carries most of a leaf's weight
    (star(100), (0, 1, 99)),
], ids=["path2", "gnp20", "star100"])
def test_series_blocks_match_single_vertex_series(g, vertices):
    for terms in BLOCK_EDGE_TERMS:
        res = series_energies(g, terms=terms)
        for i in vertices:
            assert abs(res.energies[i] - vertex_energy_series(g, i, terms)) <= 1e-13


def test_series_truncations_at_star_leaf_do_not_increase():
    leaf = [series_energies(star(100), terms=t).energies[1] for t in BLOCK_EDGE_TERMS]
    for a, b in zip(leaf, leaf[1:]):
        assert b <= a


def test_series_validates_args():
    with pytest.raises(ValueError):
        vertex_energy_series(path(3), 0, 0)
    with pytest.raises(ValueError):
        vertex_energy_series(path(3), 5, 3)


def test_series_table_is_the_coefficient_loop_read_only():
    for terms in BLOCK_EDGE_TERMS:
        table = _series_table(terms)
        want = list(_binomial_half_coefficients(terms))
        assert [c.hex() for c in table.coefficients.tolist()] == [c.hex() for c in want]
        assert table.terms == terms
        kept = 0.0
        for c in want[1:]:
            kept += abs(c)
        assert table.tail_bound == 1.0 - kept
        assert len(table.blocks[0]) == min(math.isqrt(terms - 1) + 1, _MAX_BLOCK)
        assert np.concatenate(table.blocks).tolist() == want
        for array in (table.coefficients,) + table.blocks:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0
    assert _series_table(200) is _series_table(200)
    assert _series_table(10 * MAX_SERIES_TERMS) is _series_table(MAX_SERIES_TERMS)


def test_series_total_adds_left_to_right():
    # a compensated sum (Python 3.12's sum()) would give 1.0000000000000002
    series = SeriesEnergies(energies=(1.0, 1e-16, 1e-16), terms=1, tail_bound=0.0)
    assert series.total == 1.0


def _left_to_right(terms):
    return functools.reduce(operator.add, terms)


def test_float_totals_add_left_to_right(capsys):
    """Each reported total is the plain left-to-right sum of its terms. On
    every input here the correctly rounded sum differs, so a compensated
    sum (Python 3.12's sum()) would move the last digit."""
    report = bounds_report(DEMO7)
    bip = random_connected_bipartite_graph(random.Random(18), 12, 0.4)
    vec, part = vertex_energies(bip), bipartition(bip)
    g = star(12)
    cases = [
        (report.graph_upper, [vb.bound("cauchy_schwarz").value for vb in report.vertices]),
        (general_randic_index(g, -0.5), [(g.degrees[u] * g.degrees[v]) ** -0.5 for u, v in g.edges]),
        (partition_energies(bip)[0], [vec.energies[v] for v in part.side_a]),
        (partition_energies(bip)[1], [vec.energies[v] for v in part.side_b]),
        (7 * closed_form_energy(FamilySpec(FamilyKind.CYCLE, n=7), VertexClass.ANY).value,
         [abs(math.cos(2.0 * math.pi * k / 7)) for k in range(7)]),
    ]
    assert main(["energy", "--routes", "coulson", "--family", "path", "--n", "8",
                 "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    cases.append((out["routes"]["coulson"]["total"], [r["coulson"] for r in out["results"]]))
    for total, terms in cases:
        assert math.fsum(terms) != _left_to_right(terms)
        assert total.hex() == _left_to_right(terms).hex()


def test_series_tail_bound_validates_args():
    p5 = path(5)
    for bad in (-1, 5, 7):
        with pytest.raises(ValueError, match="out of range"):
            series_tail_bound(p5, bad, 10)
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        series_tail_bound(disconnected, 0, 10)
    with pytest.raises(ValueError, match="one term"):
        series_tail_bound(p5, 0, 0)


def test_series_tail_bound_caps_terms_like_the_series():
    g = star(8)
    assert series_tail_bound(g, 1, 10**6) == series_tail_bound(g, 1, MAX_SERIES_TERMS)


def test_tail_bound_is_a_true_bound():
    for seed in range(5):
        g = random_connected_graph(random.Random(seed), 8)
        eig = vertex_energies(g).energies
        for terms in (10, 50, 200):
            ser = series_energies(g, terms=terms)
            for i in range(g.n):
                err = abs(ser.energies[i] - eig[i])
                assert err <= series_tail_bound(g, i, terms) + 1e-10


# ---------------------------------------------------------------- partitions

def test_partition_energies_star():
    a, b = partition_energies(star(5))
    assert a == pytest.approx(1.0, abs=1e-9)
    assert b == pytest.approx(1.0, abs=1e-9)


def test_partition_energies_complete_bipartite():
    g = Graph.from_edges(5, [(a, 2 + b) for a in range(2) for b in range(3)])
    a, b = partition_energies(g)
    assert a == pytest.approx(1.0, abs=1e-9)
    assert b == pytest.approx(1.0, abs=1e-9)


def test_partition_energies_even_cycle():
    a, b = partition_energies(cycle(6))
    half = graph_energy(cycle(6)) / 2.0
    assert a == pytest.approx(half, abs=1e-9)
    assert b == pytest.approx(half, abs=1e-9)


def test_partition_energies_rejects_odd_cycle():
    with pytest.raises(ValueError, match="bipartite"):
        partition_energies(cycle(5))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=16))
def test_partition_split_property(seed, n):
    from randic_energy.random_graphs import random_connected_bipartite_graph

    g = random_connected_bipartite_graph(random.Random(seed), n)
    a, b = partition_energies(g)
    half = graph_energy(g) / 2.0
    assert a == pytest.approx(half, abs=1e-9)
    assert b == pytest.approx(half, abs=1e-9)


# ------------------------------------------------------- one solve per graph

def test_audit_layers_share_one_eigensolve(monkeypatch):
    """bounds_report, series_energies and vertex_order_check, run in turn on
    one bipartite graph as the random-suite audits do, solve R once."""
    from randic_energy.bounds import bounds_report
    from randic_energy.charpoly import vertex_order_check
    from randic_energy.random_graphs import random_connected_bipartite_graph

    eigh, calls = np.linalg.eigh, []

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    g = random_connected_bipartite_graph(random.Random(9001), 12, 0.4)
    report = bounds_report(g)
    series = series_energies(g)
    check = vertex_order_check(g, 0, g.n - 1, strict=False)
    assert calls == [(12, 12)]
    assert check.energy_v == report.vertices[0].energy
    assert series.energies[0] == pytest.approx(report.vertices[0].energy,
                                               abs=series.tail_bound + 1e-12)
