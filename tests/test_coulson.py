import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    coulson_vertex_energy_stepwise,
    integrate_line_stepwise,
    lanczos_coefficients_stepwise,
    resolvent_integrand_stepwise,
)
from randic_energy.charpoly import MODE_DELETED_GRAPH
from randic_energy.coulson import (
    QuadratureConfig,
    _rule,
    coulson_integrand,
    coulson_vertex_energy,
    integrate_line,
    lanczos_coefficients,
)
from randic_energy.energy import graph_energy, vertex_energies
from randic_energy.graph import Graph, parse_edge_list
from randic_energy.random_graphs import random_connected_graph
from randic_energy.spectral import randic_matrix

DEMO7 = parse_edge_list("n 7\n1 2\n2 3\n3 4\n2 4\n1 4\n4 5\n5 6\n4 6\n4 7\n")


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return Graph.from_edges(n, [(0, j) for j in range(1, n)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(n1, n2):
    return Graph.from_edges(n1 + n2, [(u, v) for u in range(n1)
                                      for v in range(n1, n1 + n2)])


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(nodes_per_panel=4)
    for tolerance in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            QuadratureConfig(tolerance=tolerance)
    with pytest.raises(ValueError):
        QuadratureConfig(max_levels=0)


@pytest.mark.parametrize("field", ["nodes_per_panel", "max_levels"])
@pytest.mark.parametrize("value", [2.5, 32.0, True, "32", None])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        QuadratureConfig(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = QuadratureConfig(nodes_per_panel=np.int64(8), max_levels=np.int32(3))
    res = integrate_line(lambda x: 1.0 / (1.0 + x * x), cfg)
    assert res.value == pytest.approx(math.pi, abs=1e-6)


def counting(f, calls):
    """f, appending the shape of every argument it is called on to ``calls``."""
    def counted(x):
        calls.append(np.shape(x))
        return f(x)
    return counted


def depth_first(f, cfg):
    """The recursion that integrate_line's breadth-first loop replaces, on the
    half line and without the rounding floor: the reference for its panels,
    tolerances and evaluation counts. Returns (value, evaluations)."""
    nodes, weights = np.polynomial.legendre.leggauss(cfg.nodes_per_panel)

    def panel(a, b):
        half = 0.5 * (b - a)
        t = a + half * (nodes + 1.0)
        s2 = np.sin(t) ** 2
        return half * ((f(np.tan(t) * s2) * (s2 * (3.0 - 2.0 * s2) / np.cos(t) ** 2)) @ weights)

    def refine(a, b, whole, tol, levels_left):
        mid = a + 0.5 * (b - a)
        left, right = panel(a, mid), panel(mid, b)
        evals = 2 * len(nodes)
        if 10.0 * abs(left + right - whole) <= tol or levels_left == 0:
            return left + right, evals
        lv, ln = refine(a, mid, left, 0.5 * tol, levels_left - 1)
        rv, rn = refine(mid, b, right, 0.5 * tol, levels_left - 1)
        return lv + rv, evals + ln + rn

    value, evals = 0.0, 0
    for a, b in ((0.0, math.pi / 4), (math.pi / 4, math.pi / 2)):
        v, n = refine(a, b, panel(a, b), cfg.tolerance / 4.0, cfg.max_levels)
        value, evals = value + v, evals + n + len(nodes)
    return 2.0 * value, evals


def test_quadrature_on_known_integral():
    for f, exact, tol in [
        (lambda x: 1.0 / (1.0 + x * x), math.pi, 1e-7),
        (lambda x: np.exp(-x * x), math.sqrt(math.pi), 1e-10),
    ]:
        calls = []
        res = integrate_line(counting(f, calls), QuadratureConfig(tolerance=tol))
        assert res.converged
        assert res.value == pytest.approx(exact, abs=1e-10)
        # level 0 converges: both panels whole and halved in one call of f
        assert calls == [(6, 32)]
        assert res.evaluations == 192


def test_quadrature_flags_exhaustion():
    # a spike much narrower than the coarse panels, with refinement disabled
    cfg = QuadratureConfig(nodes_per_panel=8, tolerance=1e-12, max_levels=1)
    calls = []
    res = integrate_line(counting(lambda x: 1.0 / (1.0 + 1e6 * x * x), calls), cfg)
    assert not res.converged
    assert res.error_estimate > cfg.tolerance
    assert len(calls) == cfg.max_levels + 1


@pytest.mark.parametrize("max_levels", [1, 3, 12])
def test_quadrature_calls_f_once_per_level(max_levels):
    cfg = QuadratureConfig(nodes_per_panel=8, tolerance=1e-12, max_levels=max_levels)
    calls = []
    res = integrate_line(counting(lambda x: 1.0 / (1.0 + 1e12 * x * x), calls), cfg)
    assert 1 < len(calls) <= cfg.max_levels + 1
    assert res.evaluations == sum(math.prod(shape) for shape in calls)
    # past level 0, each call holds two half sums for each of the two halves
    # of every panel still open
    assert all(shape[0] % 4 == 0 and shape[1] == 8 for shape in calls[1:])


@pytest.mark.parametrize("f, cfg", [
    (lambda x: 1.0 / (1.0 + 1e6 * x * x), QuadratureConfig(nodes_per_panel=8, tolerance=1e-12)),
    (lambda x: 1.0 / (1.0 + 1e12 * x * x), QuadratureConfig(nodes_per_panel=8, tolerance=1e-12,
                                                             max_levels=3)),
    *[(coulson_integrand(g, i), QuadratureConfig(tolerance=tol))
      for g in (DEMO7, path(101), random_connected_graph(random.Random(50), 50))
      for i in (0, 3, 6) for tol in (1e-7, 1e-10)],
])
def test_breadth_first_refines_the_panels_the_recursion_refines(f, cfg):
    res = integrate_line(f, cfg)
    value, evals = depth_first(f, cfg)
    assert res.evaluations == evals
    assert res.value == pytest.approx(value, abs=1e-15)


# ---------------------------------------------------------------- integrand

def test_integrand_k2_closed_form():
    f = coulson_integrand(path(2), 0)
    for x in (0.0, 0.5, 1.0, 2.0, 10.0, -3.0):
        assert f(x) == pytest.approx(1.0 / (1.0 + x * x), abs=1e-13)


def test_integrand_decays():
    f = coulson_integrand(DEMO7, 3)
    assert abs(f(1e6)) < 1e-10
    assert abs(f(-1e8)) < 1e-12
    # no overflow far out
    assert np.isfinite(f(1e15))
    # the tail is (R^2)_ii / x^2 to full relative precision: nothing cancels
    r = randic_matrix(DEMO7)
    for x in (1e6, -1e8, 1e12):
        assert f(x) * x * x == pytest.approx((r @ r)[3, 3], rel=1e-9)


def test_integrand_origin_nonsingular():
    # C_5 has no zero eigenvalue, so the integrand is 1 at the origin
    f = coulson_integrand(cycle(5), 0)
    assert f(0.0) == pytest.approx(1.0, abs=1e-12)


def test_integrand_origin_limit_with_zero_eigenvalue():
    # P_3 has a zero eigenvalue; the origin value is a genuine limit
    f = coulson_integrand(path(3), 0)
    assert f(0.0) == pytest.approx(0.5, abs=1e-12)
    assert f(1e-7) == pytest.approx(f(0.0), abs=1e-6)
    f_mid = coulson_integrand(path(3), 1)
    assert f_mid(0.0) == pytest.approx(f_mid(1e-7), abs=1e-6)


def test_integrand_even():
    f = coulson_integrand(DEMO7, 1)
    xs = np.array([0.3, 0.9, 1.5, 7.0, 42.0])
    np.testing.assert_allclose(f(xs), f(-xs), atol=1e-15)


def test_lanczos_stops_early_on_star():
    # from a leaf the Krylov space is spanned by the leaf, the hub and the
    # sum of the other leaves; from the hub, by the hub and that sum
    r = randic_matrix(star(40))
    hub, _ = lanczos_coefficients(r, 0)
    leaf, b2 = lanczos_coefficients(r, 7)
    assert len(hub) == 2
    assert len(leaf) == 3 and len(b2) == 2
    # K_n from a vertex spans it and the sum of the others; here rounding
    # leaves a remainder (about 1e-31) where the star's is exactly zero
    k50 = randic_matrix(Graph.from_edges(50, [(u, v) for u in range(50)
                                              for v in range(u + 1, 50)]))
    assert len(lanczos_coefficients(k50, 0)[0]) == 2
    # the Krylov space of an end of a path is the whole space
    assert len(lanczos_coefficients(randic_matrix(path(9)), 0)[0]) == 9


def test_lanczos_checks_the_start_vertex():
    r = randic_matrix(path(4))
    for i in (-1, 4):
        with pytest.raises(ValueError, match=f"vertex {i} out of range for n=4"):
            lanczos_coefficients(r, i)


# ------------------------------------------------------ bit for bit, unchanged

def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_bipartite(rng, n1, n2, p):
    """A connected bipartite graph: each vertex joined to the first vertex
    of the other side, plus each other cross pair with probability p."""
    edges = {(u, n1) for u in range(n1)} | {(0, n1 + v) for v in range(n2)}
    edges |= {(u, n1 + v) for u in range(n1) for v in range(n2) if rng.random() < p}
    return Graph.from_edges(n1 + n2, sorted(edges))


BIT_GRAPHS = {
    **{f"G({n}, 0.4)": random_connected_graph(random.Random(1000 + n), n, 0.4)
       for n in (2, 10, 20, 50, 100)},
    "bipartite(7, 9)": random_bipartite(random.Random(16), 7, 9, 0.3),
    "bipartite(20, 30)": random_bipartite(random.Random(50), 20, 30, 0.1),
    "K(3, 5)": complete_bipartite(3, 5),
    "path(24)": path(24),        # bipartite, one zero eigenvalue
    "cycle(24)": cycle(24),      # bipartite
    "star(24)": star(24),        # Lanczos stops after 2 or 3 steps
    "K(30)": complete(30),       # Lanczos stops after 2 steps
}
# at 1e-12 the 32-node panels refine on the larger graphs and stop at the
# rounding floor on the rest; the 8-node configurations refine on every graph
BIT_CONFIGS = {
    "default": QuadratureConfig(),
    "tol 1e-12": QuadratureConfig(tolerance=1e-12),
    "8 nodes": QuadratureConfig(nodes_per_panel=8),
    "8 nodes, 1 level": QuadratureConfig(nodes_per_panel=8, tolerance=1e-12, max_levels=1),
    "8 nodes, 3 levels": QuadratureConfig(nodes_per_panel=8, tolerance=1e-12, max_levels=3),
}


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("label", BIT_GRAPHS)
def test_lanczos_bit_for_bit_as_stepwise(label):
    g = BIT_GRAPHS[label]
    r = randic_matrix(g)
    for i in range(g.n):
        a, b2 = lanczos_coefficients(r, i)
        ref_a, ref_b2 = lanczos_coefficients_stepwise(r, i)
        assert hexes(a) == hexes(ref_a) and hexes(b2) == hexes(ref_b2), (label, i)


@pytest.mark.parametrize("config", BIT_CONFIGS)
@pytest.mark.parametrize("label", BIT_GRAPHS)
def test_vertex_energy_bit_for_bit_as_stepwise(label, config):
    g, cfg = BIT_GRAPHS[label], BIT_CONFIGS[config]
    # every vertex at the default config, a spread of them at the others
    vertices = range(g.n) if config == "default" else sorted({0, 1, g.n // 2, g.n - 1})
    levels = set()
    for i in vertices:
        res = coulson_vertex_energy(g, i, cfg)
        ref = coulson_vertex_energy_stepwise(g, i, cfg)
        assert (res.value.hex(), res.error_estimate.hex()) == \
            (ref.value.hex(), ref.error_estimate.hex()), (label, config, i)
        assert (res.evaluations, res.converged) == (ref.evaluations, ref.converged)
        levels.add(res.evaluations > 6 * cfg.nodes_per_panel)
    if config.startswith("8 nodes"):
        assert True in levels, "the configuration should refine past level 0"


def test_integrand_bit_for_bit_as_stepwise_off_the_quadrature_nodes():
    # x = 0 takes the origin limit, negative x the other half line, and a
    # 0-d input gives a float
    xs = np.array([[0.0, -0.0, 1e-300, -2.5], [3.0, 1e15, -1e15, 0.7]])
    for g, i in ((BIT_GRAPHS["path(24)"], 5), (BIT_GRAPHS["G(20, 0.4)"], 3),
                 (BIT_GRAPHS["star(24)"], 0)):
        a, b2 = lanczos_coefficients(randic_matrix(g), i)
        f, ref = coulson_integrand(g, i), resolvent_integrand_stepwise(a, b2)
        assert hexes(f(xs).ravel()) == hexes(ref(xs).ravel())
        for x in (0.0, -1.5, 2.0):
            assert isinstance(f(x), float) and f(x).hex() == ref(x).hex()


def test_level0_rule_is_cached_read_only():
    rule = _rule(32)
    assert _rule(32) is rule
    for array in rule:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[..., 0] = 1.0
    assert rule.x.shape == rule.dxdt.shape == (6, 32) and rule.half.shape == (6,)


def test_two_panel_sizes_in_one_process():
    f = lambda x: 1.0 / (1.0 + 1e4 * x * x)  # noqa: E731
    for nodes_per_panel in (8, 32, 8, 16, 32):
        cfg = QuadratureConfig(nodes_per_panel=nodes_per_panel, tolerance=1e-10)
        res, ref = integrate_line(f, cfg), integrate_line_stepwise(f, cfg)
        assert res.value.hex() == ref.value.hex()
        assert res.error_estimate.hex() == ref.error_estimate.hex()
        assert (res.evaluations, res.converged) == (ref.evaluations, ref.converged)
        assert _rule(nodes_per_panel).x.shape == (6, nodes_per_panel)


# ------------------------------------------------------------------- energy

def test_k2_energy():
    res = coulson_vertex_energy(path(2), 0)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_star_center_energy():
    res = coulson_vertex_energy(star(5), 0)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_demo7_v4():
    res = coulson_vertex_energy(DEMO7, 3)
    assert res.value == pytest.approx(0.6990, abs=1e-3)


def test_demo7_all_vertices_match_eigen_route():
    eig = vertex_energies(DEMO7).energies
    for i in range(DEMO7.n):
        res = coulson_vertex_energy(DEMO7, i)
        assert res.value == pytest.approx(eig[i], abs=max(1e-5, res.error_estimate))
        assert res.evaluations == 192


def test_rejects_bad_input():
    with pytest.raises(ValueError, match="connected"):
        coulson_vertex_energy(Graph.from_edges(4, [(0, 1), (2, 3)]), 0)
    with pytest.raises(ValueError):
        coulson_vertex_energy(Graph.from_edges(1, []), 0)
    with pytest.raises(ValueError, match="out of range"):
        coulson_integrand(path(3), 7)
    with pytest.raises(ValueError, match="mode"):
        coulson_integrand(path(3), 0, mode="nonsense")


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=10))
def test_route_agreement_random(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    eig = vertex_energies(g).energies
    for i in range(g.n):
        res = coulson_vertex_energy(g, i)
        assert res.value == pytest.approx(eig[i], abs=max(1e-5, res.error_estimate))


@pytest.mark.parametrize("label, g", [
    *[(f"G({n}, 0.4)", random_connected_graph(random.Random(n), n)) for n in (20, 50, 100)],
    # under x = tan(t) alone vertex 51 converged 1.45e-7 off
    ("G(150, 0.1)", random_connected_graph(random.Random(150_001), 150, 0.1)),
    ("star(150)", star(150)),            # 148 zero eigenvalues
    ("K(40, 60)", complete_bipartite(40, 60)),
    ("path(101)", path(101)),            # one zero eigenvalue, spectrum down to 0.03
])
def test_every_vertex_within_tolerance_at_sizes_in_use(label, g):
    cfg = QuadratureConfig()
    lam, y = np.linalg.eigh(randic_matrix(g))
    reference = (y * y) @ np.abs(lam)
    for i in range(g.n):
        res = coulson_vertex_energy(g, i, cfg)
        assert res.converged, (label, i)
        assert abs(res.value - reference[i]) <= cfg.tolerance, (label, i)
        assert res.error_estimate <= cfg.tolerance, (label, i)


@pytest.mark.parametrize("label, g", [("cycle(8)", cycle(8)), ("star(12)", star(12)),
                                     ("DEMO7", DEMO7)])
def test_unreachable_tolerance_is_never_converged(label, g):
    # both sums of a panel can agree bit for bit while each carries rounding
    # error; the estimate's rounding floor keeps such a panel unconverged,
    # and refinement that rounding would defeat stops there
    cfg = QuadratureConfig(tolerance=1e-18)
    for i in range(g.n):
        calls = []
        res = integrate_line(counting(coulson_integrand(g, i), calls), cfg)
        assert not res.converged, (label, i)
        assert res.error_estimate > cfg.tolerance, (label, i)
        assert len(calls) <= 3, (label, i)


def test_vertex_sum_reproduces_graph_energy():
    for g in [DEMO7, cycle(6), star(7)]:
        total = sum(coulson_vertex_energy(g, i).value for i in range(g.n))
        assert total == pytest.approx(graph_energy(g), abs=g.n * 1e-5)


def test_star_leaf_with_repeated_zero_eigenvalue():
    # star polynomials have a zero root of multiplicity n-2; rounding noise
    # in the low-order coefficients once produced a spurious integrand spike
    # near the origin that the refinement never sampled
    g = star(7)
    res = coulson_vertex_energy(g, 1)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 6.0, abs=1e-9)
    f = coulson_integrand(g, 1)
    xs = np.array([1e-6, 1e-5, 1e-4, 1e-3])
    assert np.allclose(f(xs), 1.0 / 6.0 / (1.0 + xs * xs), atol=1e-9)


def test_tightening_tolerance_does_not_hurt():
    g = DEMO7
    eig = vertex_energies(g).energies
    for i in (0, 3, 6):
        errs = []
        for tol in (1e-5, 1e-7, 1e-9):
            res = coulson_vertex_energy(g, i, QuadratureConfig(tolerance=tol))
            errs.append(abs(res.value - eig[i]))
        assert errs[1] <= errs[0] + 1e-12
        assert errs[2] <= errs[1] + 1e-12


def test_literal_deletion_mode_disagrees_on_pendant():
    # rebuilt degrees on P_3 minus a leaf give K_2, whose polynomial kills
    # the integral: the variant reports 0 where the true energy is 1/2
    res = coulson_vertex_energy(path(3), 0, mode=MODE_DELETED_GRAPH)
    assert res.value == pytest.approx(0.0, abs=1e-8)
    true = vertex_energies(path(3)).energies[0]
    assert abs(res.value - true) > 0.49
