import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randic_energy.bounds import (
    EQUALITY_TOL,
    LOWER_BOUNDS,
    REPORT_ONLY,
    UPPER_BOUNDS,
    VIOLATION_TOL,
    _equality_labels,
    adjacent_product_lower,
    bounds_report,
    general_randic_index,
    upper_regular,
)
from randic_energy.energy import graph_energy, vertex_energies
from randic_energy.graph import Graph, parse_edge_list
from randic_energy.random_graphs import (
    random_connected_bipartite_graph,
    random_connected_graph,
)
from randic_energy.spectral import power_diag, randic_matrix

DEMO7 = parse_edge_list("n 7\n1 2\n2 3\n3 4\n2 4\n1 4\n4 5\n5 6\n4 6\n4 7\n")


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n):
    return Graph.from_edges(n, [(0, j) for j in range(1, n)])


def complete_bipartite(n1, n2):
    return Graph.from_edges(n1 + n2, [(a, n1 + b) for a in range(n1) for b in range(n2)])


# ------------------------------------------------------------- S and Q values

def vertex(g, i):
    return bounds_report(g).vertices[i]


def value(g, i, name):
    return vertex(g, i).bound(name).value


def test_s_value_examples():
    assert vertex(star(6), 0).s == pytest.approx(1.0, abs=1e-15)
    assert vertex(DEMO7, 6).s == pytest.approx(1.0 / 6.0, abs=1e-15)
    for vb in bounds_report(complete(5)).vertices:
        assert vb.s == pytest.approx(0.25, abs=1e-15)


def test_s_value_is_r2_diagonal():
    for seed in range(8):
        g = random_connected_graph(random.Random(seed), 4 + seed)
        r = randic_matrix(g)
        for vb in bounds_report(g).vertices:
            assert vb.s == pytest.approx(power_diag(r, 2, vb.vertex), abs=1e-12)


def test_r4_diag_k2():
    g = Graph.from_edges(2, [(0, 1)])
    assert vertex(g, 0).q == pytest.approx(1.0, abs=1e-15)


def test_r4_diag_c4_matrix_oracle():
    # (R^2)_ii = 1/2 and (R^2)_{i,i+2} = 1/2, so (R^4)_ii = 1/4 + 1/4 = 1/2;
    # confirmed against direct 4x4 matrix powers
    g = cycle(4)
    r = randic_matrix(g)
    direct = np.linalg.matrix_power(r, 4)
    for vb in bounds_report(g).vertices:
        assert direct[vb.vertex, vb.vertex] == pytest.approx(0.5, abs=1e-14)
        assert vb.q == pytest.approx(0.5, abs=1e-14)


def test_r4_diag_is_r4_diagonal():
    graphs = [random_connected_graph(random.Random(100 + seed), 4 + seed)
              for seed in range(8)]
    for g in graphs + [DEMO7]:
        r = randic_matrix(g)
        for vb in bounds_report(g).vertices:
            assert vb.q == pytest.approx(power_diag(r, 4, vb.vertex), abs=1e-10)


def test_s_q_ranges():
    for seed in range(10):
        g = random_connected_graph(random.Random(seed), 2 + seed)
        for vb in bounds_report(g).vertices:
            assert 0.0 < vb.s <= 1.0 + 1e-12
            assert vb.q >= 0.0


# ------------------------------------------------------------- formula table

def test_formula_tables_name_every_reported_bound_in_order():
    assert list(UPPER_BOUNDS) == ["unit", "cauchy_schwarz", "refined", "series2", "series3"]
    assert list(LOWER_BOUNDS) == ["lower_r2", "lower_holder"]
    vb = vertex(DEMO7, 0)
    assert [b.name for b in vb.bounds] == list(UPPER_BOUNDS) + list(LOWER_BOUNDS)
    assert [b.kind for b in vb.bounds] == ["upper"] * 5 + ["lower"] * 2


def test_refined_rejects_negative_radicand():
    s, q = np.array([0.3, 0.1]), np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="negative radicand .* at vertex 1"):
        UPPER_BOUNDS["refined"](s, q, np.array([0.2, 0.5]))
    # a rounding-sized negative radicand is clamped to zero instead
    got = UPPER_BOUNDS["refined"](np.array([0.5 - 1e-13]), q[:1], np.array([0.5]))
    assert got.tolist() == [0.5]


@pytest.mark.parametrize("bad_q", [0.0, -1e-3])
def test_holder_rejects_nonpositive_q(bad_q):
    s, gamma = np.array([0.5, 0.5]), np.array([0.25, 0.25])
    with pytest.raises(ValueError, match=r"\(R\^4\)_11 must be positive"):
        LOWER_BOUNDS["lower_holder"](s, np.array([0.5, bad_q]), gamma)


def test_report_validates_the_graph_first():
    with pytest.raises(ValueError, match="connected"):
        bounds_report(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="at least 2 vertices"):
        bounds_report(Graph.from_edges(1, []))


def test_report_holds_python_scalars():
    # the CLI's JSON encoder rejects numpy scalars such as numpy.bool_
    rep = bounds_report(star(6))
    assert type(rep.graph_upper) is float and type(rep.holder_valid) is bool
    for vb in rep.vertices:
        assert type(vb.s) is float and type(vb.q) is float
        for b in vb.bounds:
            assert type(b.value) is float and type(b.slack) is float
            assert type(b.equal) is bool and type(b.asserted) is bool


# ------------------------------------------------------------- upper bounds

def test_cauchy_schwarz_examples():
    assert value(star(7), 0, "cauchy_schwarz") == pytest.approx(1.0, abs=1e-15)
    assert value(DEMO7, 6, "cauchy_schwarz") == pytest.approx(math.sqrt(1 / 6), abs=1e-12)
    g = Graph.from_edges(2, [(0, 1)])
    assert value(g, 0, "cauchy_schwarz") == pytest.approx(1.0, abs=1e-15)


def test_refined_examples():
    # K_4: 1/4 + sqrt((1/3 - 1/4)(3/4)) = 1/2, which the actual 2/4 attains
    assert value(complete(4), 0, "refined") == pytest.approx(0.5, abs=1e-12)
    assert value(star(9), 0, "refined") == pytest.approx(1.0, abs=1e-12)
    expected_v7 = 1 / 18 + math.sqrt((1 / 6 - 1 / 18) * (1 - 1 / 18))
    assert value(DEMO7, 6, "refined") == pytest.approx(expected_v7, abs=1e-12)
    assert expected_v7 == pytest.approx(0.3795, abs=5e-5)


def test_refined_matches_regular_form_on_regular_graphs():
    for g, k in [(cycle(6), 2), (complete(5), 4), (cycle(9), 2)]:
        for vb in bounds_report(g).vertices:
            assert vb.bound("refined").value == pytest.approx(
                upper_regular(g.n, k), abs=1e-12
            )


def test_upper_regular_values():
    assert upper_regular(4, 3) == pytest.approx(0.5, abs=1e-15)
    assert upper_regular(2, 1) == pytest.approx(1.0, abs=1e-15)
    assert upper_regular(6, 2) == pytest.approx(
        1 / 6 + math.sqrt((1 / 2 - 1 / 6) * (5 / 6)), abs=1e-15
    )
    # C_6 actual per-vertex energy is bounded by the k-regular form
    actual = graph_energy(cycle(6)) / 6
    assert upper_regular(6, 2) >= actual - 1e-12


def test_upper_regular_validates_degree():
    with pytest.raises(ValueError):
        upper_regular(4, 4)
    with pytest.raises(ValueError):
        upper_regular(4, 0)


def test_series_bounds_examples():
    assert value(star(5), 0, "series2") == pytest.approx(1.0, abs=1e-15)
    assert value(DEMO7, 6, "series2") == pytest.approx(7 / 12, abs=1e-15)
    g = Graph.from_edges(2, [(0, 1)])
    assert value(g, 0, "series3") == pytest.approx(1.0, abs=1e-15)


def test_series3_below_series2():
    for seed in range(12):
        g = random_connected_graph(random.Random(seed), 3 + seed)
        for vb in bounds_report(g).vertices:
            assert vb.bound("series3").value <= vb.bound("series2").value + 1e-12


# ------------------------------------------------------------- lower bounds

def test_lower_r2_examples():
    assert value(complete_bipartite(2, 3), 0, "lower_r2") == pytest.approx(0.5, abs=1e-15)
    assert value(star(8), 1, "lower_r2") == pytest.approx(1 / 7, abs=1e-15)
    assert value(DEMO7, 6, "lower_r2") == pytest.approx(1 / 6, abs=1e-15)


def test_lower_r2_equality_on_complete_bipartite():
    g = complete_bipartite(2, 3)
    vec = vertex_energies(g)
    for vb in bounds_report(g).vertices:
        assert vb.bound("lower_r2").value == pytest.approx(vec.energies[vb.vertex], abs=1e-10)


def test_holder_examples():
    g = Graph.from_edges(2, [(0, 1)])
    assert value(g, 0, "lower_holder") == pytest.approx(1.0, abs=1e-14)
    assert value(star(6), 0, "lower_holder") == pytest.approx(1.0, abs=1e-14)
    # C_4 = K_{2,2}: S = 1/2, Q = 1/2 gives (1/2)^{3/2}/sqrt(1/2) = 1/2,
    # exactly the actual energy (complete-bipartite equality case)
    got = value(cycle(4), 0, "lower_holder")
    assert got == pytest.approx(0.5, abs=1e-14)
    assert got == pytest.approx(vertex_energies(cycle(4)).energies[0], abs=1e-10)


def test_holder_holds_on_random_suite():
    # the audit that gates this bound's status lives in the acceptance
    # tests; this is a smoke version
    for seed in range(25):
        g = random_connected_graph(random.Random(seed), 2 + seed % 12)
        vec = vertex_energies(g)
        for vb in bounds_report(g).vertices:
            assert vb.bound("lower_holder").value <= vec.energies[vb.vertex] + 1e-9


# ----------------------------------------------------------- pairwise bound

def test_adjacent_product_examples():
    g = Graph.from_edges(2, [(0, 1)])
    assert adjacent_product_lower(g, 0, 1) == pytest.approx(1.0)
    s = star(7)
    vec = vertex_energies(s)
    bound = adjacent_product_lower(s, 0, 3)
    assert bound == pytest.approx(1 / 6, abs=1e-15)
    assert vec.energies[0] * vec.energies[3] == pytest.approx(bound, abs=1e-9)
    assert adjacent_product_lower(DEMO7, 3, 6) == pytest.approx(1 / 6, abs=1e-15)


def test_adjacent_product_rejects_non_edges():
    with pytest.raises(ValueError, match="not adjacent"):
        adjacent_product_lower(cycle(5), 0, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=14))
def test_adjacent_product_property(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    vec = vertex_energies(g)
    for u, v in g.edges:
        bound = adjacent_product_lower(g, u, v)
        assert vec.energies[u] * vec.energies[v] >= bound - 1e-9


# ------------------------------------------------------------- Randic index

def test_general_randic_index_values():
    g = Graph.from_edges(2, [(0, 1)])
    assert general_randic_index(g, -1.0) == pytest.approx(1.0)
    assert general_randic_index(complete_bipartite(2, 3), -1.0) == pytest.approx(1.0)
    # nine edges of the demo graph, degree products summed reciprocally
    assert general_randic_index(DEMO7, -1.0) == pytest.approx(41 / 36, abs=1e-12)
    # alpha = 1 is the sum of degree products
    assert general_randic_index(cycle(5), 1.0) == pytest.approx(20.0)


def test_general_randic_index_rejects_empty():
    with pytest.raises(ValueError, match="no edges"):
        general_randic_index(Graph.from_edges(1, []), -1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=16))
def test_graph_level_sandwich(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    re = graph_energy(g)
    lower = 2.0 * general_randic_index(g, -1.0)
    rep = bounds_report(g)
    upper = sum(math.sqrt(vb.s) for vb in rep.vertices)
    assert rep.graph_upper == pytest.approx(upper, abs=1e-12)
    assert lower <= re + 1e-9
    assert re <= upper + 1e-9


def test_graph_level_equality_on_complete_bipartite():
    for n1, n2 in [(1, 1), (2, 3), (4, 4)]:
        g = complete_bipartite(n1, n2)
        assert 2.0 * general_randic_index(g, -1.0) == pytest.approx(
            graph_energy(g), abs=1e-9
        )


# ------------------------------------------------------------------- report

def test_report_sandwich_on_random_graphs():
    for seed in range(20):
        g = random_connected_graph(random.Random(seed), 2 + seed % 15)
        rep = bounds_report(g)
        assert rep.violations() == []
        for vb in rep.vertices:
            for name in ("unit", "cauchy_schwarz", "refined", "series2", "series3"):
                assert vb.bound(name).value >= vb.energy - 1e-9
            assert vb.bound("lower_r2").value <= vb.energy + 1e-9


def test_report_star_center_flags():
    rep = bounds_report(star(6))
    center = rep.vertices[0]
    for name in ("unit", "cauchy_schwarz", "refined", "series2"):
        b = center.bound(name)
        assert b.equal, name
        assert b.equality_case == "star-center"
    leaf = rep.vertices[3]
    assert leaf.bound("lower_r2").equal
    assert leaf.bound("lower_r2").equality_case == "star-leaf"
    assert not leaf.bound("unit").equal


def test_report_complete_graph_flags():
    rep = bounds_report(complete(5))
    for vb in rep.vertices:
        assert vb.bound("refined").equal
        assert vb.bound("refined").equality_case == "complete-graph"


def test_report_complete_bipartite_flags():
    rep = bounds_report(complete_bipartite(2, 3))
    for vb in rep.vertices:
        assert vb.bound("lower_r2").equal
        assert vb.bound("lower_r2").equality_case == "complete-bipartite"
        assert vb.bound("lower_holder").equal


def test_report_k2_flag():
    rep = bounds_report(Graph.from_edges(2, [(0, 1)]))
    for vb in rep.vertices:
        assert vb.bound("unit").equal
        assert vb.bound("unit").equality_case == "k2"


def test_report_friendship_refined_flags():
    # the refined upper bound is exact on the whole family: the hub value
    # is 1/3 + sqrt(1/6 * 2/3) = 2/3 and the outer value telescopes to
    # (3t+1)/(6t) for every t
    for t in (2, 3, 7):
        g = Graph.from_edges(2 * t + 1,
                             [(0, i) for i in range(1, 2 * t + 1)]
                             + [(2 * k + 1, 2 * k + 2) for k in range(t)])
        rep = bounds_report(g)
        hub = rep.vertices[0]
        assert hub.bound("refined").equal
        assert hub.bound("refined").equality_case == "friendship-hub"
        for vb in rep.vertices[1:]:
            assert vb.bound("refined").equal
            assert vb.bound("refined").equality_case == "friendship-leaf"


def test_report_demo7_has_no_equality_flags():
    rep = bounds_report(DEMO7)
    for vb in rep.vertices:
        for b in vb.bounds:
            assert not b.equal, (vb.vertex, b.name)


def test_report_holder_status():
    rep = bounds_report(cycle(4))
    assert rep.holder_valid
    for vb in rep.vertices:
        assert not vb.bound("lower_holder").asserted
        assert vb.bound("lower_r2").asserted


def test_report_graph_level_fields():
    rep = bounds_report(DEMO7)
    assert rep.randic_index_minus1 == pytest.approx(41 / 36, abs=1e-12)
    assert rep.graph_lower <= rep.energy_total + 1e-9
    assert rep.energy_total <= rep.graph_upper + 1e-9


def test_cauchy_schwarz_usually_tighter_than_series2():
    # AM-GM makes sqrt(S) <= (S+1)/2 always; strictness fails only at S = 1
    wins = ties = 0
    for seed in range(40):
        g = random_connected_graph(random.Random(seed), 2 + seed % 12)
        for vb in bounds_report(g).vertices:
            cs, s2 = vb.bound("cauchy_schwarz").value, vb.bound("series2").value
            assert cs <= s2 + 1e-12
            if cs < s2 - 1e-12:
                wins += 1
            else:
                ties += 1
    assert wins > ties


# ------------------------------------------------------- rows built in bulk

def _reference_report(g, equality_tol=EQUALITY_TOL):
    """The report's rows and graph fields computed one entry at a time."""
    vec = vertex_energies(g)
    r = randic_matrix(g)
    r2 = r @ r
    s, q = np.diag(r2), (r2 * r2).sum(axis=1)
    gamma = np.asarray(g.degrees, dtype=float) / (2.0 * g.m)
    columns = [(name, kind, f(s, q, gamma).tolist())
               for kind, table in (("upper", UPPER_BOUNDS), ("lower", LOWER_BOUNDS))
               for name, f in table.items()]
    labels = _equality_labels(g)
    rows = []
    for i, actual in enumerate(vec.energies):
        for name, kind, values in columns:
            slack = values[i] - actual if kind == "upper" else actual - values[i]
            equal = abs(slack) <= equality_tol
            rows.append((name, values[i], kind, slack, equal,
                         labels[i] if equal else None, name not in REPORT_ONLY))
    graph_upper = sum(row[1] for row in rows if row[0] == "cauchy_schwarz")
    holder = [row[3] for row in rows if row[0] == "lower_holder"]
    return rows, graph_upper, all(x >= -VIOLATION_TOL for x in holder)


def _rows_graphs():
    rng = random.Random(9001)
    graphs = [random_connected_graph(rng, n, 0.4) for n in range(2, 21)]
    graphs += [random_connected_bipartite_graph(rng, n, 0.5) for n in range(2, 21)]
    # graphs where bounds are attained, so equality_case is filled in
    return graphs + [star(6), complete(5), complete_bipartite(2, 3), cycle(4), DEMO7,
                     Graph.from_edges(7, [(0, a) for a in range(1, 7)]
                                      + [(1, 2), (3, 4), (5, 6)])]


def test_bulk_rows_equal_the_per_entry_reference_exactly():
    for g in _rows_graphs():
        rep = bounds_report(g)
        rows, graph_upper, holder_valid = _reference_report(g)
        got = [tuple(b) for vb in rep.vertices for b in vb.bounds]
        # repr tells -0.0 from 0.0 and a numpy scalar from a Python float
        assert repr(got) == repr(rows), g
        assert repr(rep.graph_upper) == repr(graph_upper)
        assert rep.holder_valid is holder_valid
        assert rep.randic_index_minus1 == general_randic_index(g, -1.0)
        assert [vb.vertex for vb in rep.vertices] == list(range(g.n))


def test_bound_values_are_immutable_and_reports_replaceable():
    rep = bounds_report(star(5))
    b = rep.vertices[0].bound("unit")
    with pytest.raises(AttributeError):
        b.value = 0.0
    assert b._fields == ("name", "value", "kind", "slack", "equal",
                         "equality_case", "asserted")
    vb = dataclasses.replace(rep.vertices[0], energy=0.5)
    assert vb.energy == 0.5 and vb.bounds == rep.vertices[0].bounds
    changed = dataclasses.replace(rep, vertices=(vb,) + rep.vertices[1:])
    assert changed.vertices[0].energy == 0.5 and changed.n == rep.n
