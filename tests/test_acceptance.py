"""Acceptance gate: ten end-to-end checks with explicit tolerances.

Each test covers one shipped guarantee, prints a one-line verdict with the
measured numbers, and (where a budget is stated) asserts wall-clock time.
Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines.
"""
from __future__ import annotations

import math
import pathlib
import time

import pytest

from randic_energy import (
    Comparison,
    FamilyKind,
    FamilySpec,
    adjacent_product_lower,
    bipartition,
    bounds_report,
    char_poly_combinatorial,
    char_poly_numeric,
    closed_form_energy,
    coulson_vertex_energy,
    eigen_symmetric,
    generate,
    graph_energy,
    parse_edge_list,
    partition_energies,
    randic_matrix,
    vertex_classes,
    vertex_energies,
    vertex_order_check,
)
from randic_energy.charpoly import MODE_DELETED_GRAPH
from randic_energy.families import friendship_spectrum
from randic_energy.random_graphs import random_suite

DATA = pathlib.Path(__file__).resolve().parent.parent / "data" / "demo7.edges"

SUITE_SEED = 20240817
SUITE_SIZE = 500

#: frozen reference values for the bundled 7-vertex demonstration graph,
#: rounded to 4 decimals; the last decimal of the second energy is off by
#: 1.4e-4 in the reference itself, hence the 5e-4 comparison tolerance
DEMO7_EIGENVALUES = (-0.6855, -0.5000, -0.4999, 0.0, 0.1518, 0.5336, 1.0)
DEMO7_ENERGIES = (0.3382, 0.5847, 0.3382, 0.6990, 0.5468, 0.5468, 0.3172)

_suite_cache: list | None = None


def suite_with_reports():
    """The shared 500-graph random suite with bound reports, built once."""
    global _suite_cache
    if _suite_cache is None:
        graphs = random_suite(SUITE_SEED, SUITE_SIZE, 2, 20)
        _suite_cache = [(g, bounds_report(g)) for g in graphs]
    return _suite_cache


def family_graphs(max_n: int):
    """Every supported family instance with at most max_n vertices."""
    out = []
    for n in range(2, max_n + 1):
        out.append((FamilySpec(FamilyKind.COMPLETE, n=n), None))
        out.append((FamilySpec(FamilyKind.STAR, n=n), None))
        out.append((FamilySpec(FamilyKind.PATH, n=n), None))
        if n >= 3:
            out.append((FamilySpec(FamilyKind.CYCLE, n=n), None))
    for n1 in range(1, max_n):
        for n2 in range(n1, max_n - n1 + 1):
            out.append((FamilySpec(FamilyKind.COMPLETE_BIPARTITE,
                                   n1=n1, n2=n2), None))
    t = 1
    while 2 * t + 1 <= max_n:
        out.append((FamilySpec(FamilyKind.FRIENDSHIP, triangles=t), None))
        t += 1
    return [(spec, generate(spec)) for spec, _ in out]


# --------------------------------------------------------------- criterion 1

def test_c01_demo_graph_eigenvalues_and_energies():
    text = DATA.read_text()
    t0 = time.perf_counter()
    g = parse_edge_list(text)
    dec = eigen_symmetric(randic_matrix(g))
    energies = vertex_energies(g).energies
    elapsed = time.perf_counter() - t0

    ascending = sorted(dec.values)
    for got, want in zip(ascending, DEMO7_EIGENVALUES):
        assert got == pytest.approx(want, abs=5e-4)
    for got, want in zip(energies, DEMO7_ENERGIES):
        assert got == pytest.approx(want, abs=5e-4)
    assert elapsed < 0.1
    print(f"\nPASS c01: demo graph spectrum and energies within 5e-4 "
          f"({elapsed * 1000:.1f} ms)")


# --------------------------------------------------------------- criterion 2

def test_c02_family_closed_forms_to_n50():
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0

    def check(spec, expected_by_vertex):
        nonlocal checked, worst
        vec = vertex_energies(generate(spec)).energies
        for i, want in expected_by_vertex:
            worst = max(worst, abs(vec[i] - want))
            assert vec[i] == pytest.approx(want, abs=1e-8), spec.label()
            checked += 1

    for n in range(2, 51):
        check(FamilySpec(FamilyKind.COMPLETE, n=n),
              [(i, 2.0 / n) for i in range(n)])
        check(FamilySpec(FamilyKind.STAR, n=n),
              [(0, 1.0)] + [(i, 1.0 / (n - 1)) for i in range(1, n)])
    for n in range(3, 51):
        if n % 4 == 3:
            continue  # no closed form in this residue class
        spec = FamilySpec(FamilyKind.CYCLE, n=n)
        want = closed_form_energy(spec, list(vertex_classes(spec))[0]).value
        check(spec, [(i, want) for i in range(n)])
    for n1, n2 in [(1, 1), (1, 49), (2, 2), (3, 4), (5, 45), (7, 9),
                   (10, 40), (20, 30), (25, 25)]:
        spec = FamilySpec(FamilyKind.COMPLETE_BIPARTITE, n1=n1, n2=n2)
        check(spec, [(i, 1.0 / n1) for i in range(n1)]
              + [(n1 + j, 1.0 / n2) for j in range(n2)])
    for t in range(1, 25):
        check(FamilySpec(FamilyKind.FRIENDSHIP, triangles=t),
              [(0, 2.0 / 3.0)]
              + [(i, (3.0 * t + 1.0) / (6.0 * t)) for i in range(1, 2 * t + 1)])

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS c02: {checked} closed-form vertex energies within 1e-8 "
          f"(worst {worst:.2e}, {elapsed:.2f} s)")


# --------------------------------------------------------------- criterion 3

def test_c03_friendship_spectrum_and_total():
    worst = 0.0
    for t in range(1, 11):
        g = generate(FamilySpec(FamilyKind.FRIENDSHIP, triangles=t))
        dec = eigen_symmetric(randic_matrix(g))
        expected = [1.0] + [0.5] * (t - 1) + [-0.5] * (t + 1)
        assert len(dec.values) == len(expected)
        for got, want in zip(dec.values, expected):
            worst = max(worst, abs(got - want))
            assert got == pytest.approx(want, abs=1e-9)
        assert graph_energy(g) == pytest.approx(
            t + 1.0, abs=1e-9)
        # the stated multiset is also the closed-form one (the t = 1 case
        # has no eigenvalue 1/2, and the helper drops the empty entry)
        closed = [(lam, mult) for lam, mult in friendship_spectrum(t)]
        want = [(1.0, 1), (0.5, t - 1), (-0.5, t + 1)]
        assert closed == [(lam, mult) for lam, mult in want if mult > 0]
    print(f"\nPASS c03: friendship spectra for t<=10 within 1e-9 "
          f"(worst {worst:.2e})")


# --------------------------------------------------------------- criterion 4

def test_c04_bound_sandwich_on_random_suite():
    t0 = time.perf_counter()
    pairs = suite_with_reports()
    vertices = 0
    edges = 0
    for g, report in pairs:
        for vb in report.vertices:
            uppers = min(b.value for b in vb.bounds if b.kind == "upper")
            assert vb.bound("lower_r2").value <= vb.energy + 1e-9
            assert vb.energy <= uppers + 1e-9
            vertices += 1
        energies = [vb.energy for vb in report.vertices]
        for u, v in g.edges:
            floor = adjacent_product_lower(g, u, v)
            assert energies[u] * energies[v] >= floor - 1e-9
            edges += 1
        assert report.graph_lower <= report.energy_total + 1e-9
        assert report.energy_total <= report.graph_upper + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS c04: sandwich + edge products on {len(pairs)} graphs "
          f"({vertices} vertices, {edges} edges) in {elapsed:.2f} s")


# --------------------------------------------------------------- criterion 5

def test_c05_equality_case_detection():
    for n in (3, 5, 9, 20):
        report = bounds_report(generate(FamilySpec(FamilyKind.STAR, n=n)))
        center = report.vertices[0]
        for name in ("unit", "cauchy_schwarz", "refined", "series2"):
            assert center.bound(name).equal, f"star({n}) center {name}"
        assert center.bound("unit").equality_case == "star-center"
        for leaf in report.vertices[1:]:
            assert leaf.bound("lower_r2").equal, f"star({n}) leaf"

    for n1, n2 in ((2, 3), (3, 3), (4, 7)):
        spec = FamilySpec(FamilyKind.COMPLETE_BIPARTITE, n1=n1, n2=n2)
        report = bounds_report(generate(spec))
        for vb in report.vertices:
            assert vb.bound("lower_r2").equal, f"K_{{{n1},{n2}}} vertex"

    for n in (3, 4, 7, 12):
        report = bounds_report(generate(FamilySpec(FamilyKind.COMPLETE, n=n)))
        for vb in report.vertices:
            assert vb.bound("refined").equal, f"K_{n} vertex"

    # every flag raised on the random suite must be numerically true; note
    # that flags without a structural label are legitimate, because the
    # equality conditions are spectral-support properties a single vertex
    # can satisfy on an otherwise unstructured graph (e.g. all of its
    # eigenvector weight on eigenvalues in {0, +-1} gives energy == S)
    flags = 0
    unlabeled = 0
    for g, report in suite_with_reports():
        for vb in report.vertices:
            for b in vb.bounds:
                if b.equal:
                    flags += 1
                    unlabeled += b.equality_case is None
                    assert abs(b.value - vb.energy) <= 1e-7, (
                        f"false flag {b.name} on n={g.n}")
    print(f"\nPASS c05: required equality flags present; {flags} flags on "
          f"the random suite, all true at 1e-7 ({unlabeled} vertex-level "
          f"cases without a global structural label)")


# --------------------------------------------------------------- criterion 6

def test_c06_bipartite_energy_split():
    split = 0
    for g, report in suite_with_reports():
        if bipartition(g) is None:
            continue
        side_a, side_b = partition_energies(g)
        half = report.energy_total / 2.0
        assert side_a == pytest.approx(half, abs=1e-9)
        assert side_b == pytest.approx(half, abs=1e-9)
        split += 1
    assert split > 50  # the suite must actually exercise this
    print(f"\nPASS c06: equal bipartition split within 1e-9 on {split} "
          f"bipartite graphs")


# --------------------------------------------------------------- criterion 7

def test_c07_characteristic_polynomial_routes_agree():
    t0 = time.perf_counter()
    graphs = [g for _, g in family_graphs(8)]
    graphs += random_suite(7771, 100, 2, 8)
    worst = 0.0
    for g in graphs:
        a = char_poly_combinatorial(g).coefficients
        b = char_poly_numeric(randic_matrix(g)).coefficients
        assert len(a) == len(b) == g.n + 1
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 60.0
    print(f"\nPASS c07: polynomial routes agree on {len(graphs)} graphs "
          f"(worst {worst:.2e}, {elapsed:.2f} s)")


# --------------------------------------------------------------- criterion 8

def test_c08_contour_integral_matches_spectral_route():
    graphs = [g for _, g in family_graphs(12)]
    graphs += random_suite(4242, 100, 2, 10)
    worst = 0.0
    vertices = 0
    for g in graphs:
        ref = vertex_energies(g).energies
        for i in range(g.n):
            res = coulson_vertex_energy(g, i)
            assert res.converged
            assert res.value == pytest.approx(ref[i], abs=1e-5)
            worst = max(worst, abs(res.value - ref[i]))
            vertices += 1

    # measured for the record, not asserted: the variant that rebuilds the
    # matrix on the deleted graph (recomputed degrees) does not satisfy the
    # integral identity at all
    literal_worst = 0.0
    for g in [g for _, g in family_graphs(6)]:
        ref = vertex_energies(g).energies
        for i in range(g.n):
            lit = coulson_vertex_energy(g, i, mode=MODE_DELETED_GRAPH)
            literal_worst = max(literal_worst, abs(lit.value - ref[i]))
    print(f"\nPASS c08: quadrature within 1e-5 of spectral on {vertices} "
          f"vertices (worst {worst:.2e}); deleted-graph variant off by up "
          f"to {literal_worst:.3f} (reported only)")


# --------------------------------------------------------------- criterion 9

def small_bipartite_suite():
    graphs = []
    for n in range(2, 9):
        graphs.append(generate(FamilySpec(FamilyKind.PATH, n=n)))
        graphs.append(generate(FamilySpec(FamilyKind.STAR, n=n)))
    for n in (4, 6, 8):
        graphs.append(generate(FamilySpec(FamilyKind.CYCLE, n=n)))
    for n1 in range(1, 8):
        for n2 in range(n1, 9 - n1):
            graphs.append(generate(
                FamilySpec(FamilyKind.COMPLETE_BIPARTITE, n1=n1, n2=n2)))
    return graphs


def test_c09_quasi_order_implies_energy_order():
    counts = {"witnessed": 0, "equal": 0, "vacuous": 0, "violated": 0}
    for g in small_bipartite_suite():
        for v in range(g.n):
            for w in range(v + 1, g.n):
                check = vertex_order_check(g, v, w, strict=False)
                counts[check.status] += 1
                # spell the implication out rather than trusting the status:
                # coefficient dominance of the w-deleted polynomial forces
                # the energy at v to be the smaller one, and vice versa
                if check.comparison is Comparison.LESS_EQ:
                    assert check.energy_v <= check.energy_w + 1e-9
                elif check.comparison is Comparison.GREATER_EQ:
                    assert check.energy_w <= check.energy_v + 1e-9
                elif check.comparison is Comparison.EQUAL:
                    assert abs(check.energy_v - check.energy_w) <= 1e-9
    assert counts["violated"] == 0
    assert counts["witnessed"] > 0
    print(f"\nPASS c09: vertex-order rule on exhaustive small bipartite "
          f"suite: {counts}")


# -------------------------------------------------------------- criterion 10

def test_c10_holder_bound_audit():
    violations = []
    holder_hard_asserted = False
    cases = [(spec.label(), g) for spec, g in family_graphs(12)]
    cases += [(f"random#{k}", g) for k, (g, _) in
              enumerate(suite_with_reports())]
    for label, g in cases:
        report = bounds_report(g)
        for vb in report.vertices:
            b = vb.bound("lower_holder")
            if b.asserted:
                holder_hard_asserted = True
            if b.slack < -1e-9:
                violations.append((label, vb.vertex, b.value, vb.energy))
        # the asserted-violation list must never include this bound
        assert all(name != "lower_holder"
                   for _, name, _ in report.violations())

    # the audit passes with violations recorded, and fails only if the
    # code were to assert the bound as hard despite them
    assert not (violations and holder_hard_asserted)
    assert not holder_hard_asserted
    if violations:
        listing = "; ".join(f"{lbl} v{v + 1}: bound {b:.9f} > {e:.9f}"
                            for lbl, v, b, e in violations[:10])
        print(f"\nPASS c10: bound downgraded to report-only; "
              f"{len(violations)} violations logged: {listing}")
    else:
        print(f"\nPASS c10: no violation on {len(cases)} graphs; bound "
              f"stays report-only by policy")
