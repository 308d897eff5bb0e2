import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randic_energy.cli import main
from randic_energy.families import complete_bipartite, friendship, star
from randic_energy.graph import Graph, delete_vertex, disjoint_union
from randic_energy.random_graphs import random_connected_graph
from randic_energy.spectral import (
    ConvergenceError,
    DegenerateDegreeError,
    eigen_symmetric,
    matrix_abs,
    power_diag,
    randic_matrix,
    randic_spectrum,
    symmetrize,
)

from helpers import randic_matrix_per_edge


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# ---------------------------------------------------------------- matrix build

def test_randic_matrix_path3():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    r = randic_matrix(g)
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(r, [[0, s, 0], [s, 0, s], [0, s, 0]])


def test_randic_matrix_is_exactly_symmetric():
    g = random_connected_graph(random.Random(3), 12)
    r = randic_matrix(g)
    assert np.array_equal(r, r.T)


def test_randic_matrix_is_one_read_only_array_per_graph():
    g = cycle(6)
    r = randic_matrix(g)
    assert randic_matrix(g) is r
    assert randic_matrix(g, allow_isolated=True) is r
    with pytest.raises(ValueError, match="read-only"):
        r[0, 1] = 0.0
    assert r[0, 1] == 0.5


def test_randic_spectrum_is_solved_once_per_graph(monkeypatch):
    g = cycle(6)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    dec = randic_spectrum(g)
    assert randic_spectrum(g) is dec
    assert len(calls) == 1
    assert not dec.values.flags.writeable and not dec.vectors.flags.writeable
    np.testing.assert_array_equal(dec.values, eigen_symmetric(randic_matrix(g)).values)


def test_memoised_fields_leave_equality_and_hash_alone():
    g, h = cycle(6), cycle(6)
    randic_spectrum(g)
    assert g == h
    assert hash(g) == hash(h)
    assert repr(g) == repr(h)


def test_randic_matrix_rejects_isolated():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(DegenerateDegreeError):
        randic_matrix(g)
    r = randic_matrix(g, allow_isolated=True)
    assert np.all(r[2] == 0) and np.all(r[:, 2] == 0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_randic_matrix_is_the_per_edge_loop_bit_for_bit():
    rng = random.Random(9001)
    graphs = [random_connected_graph(rng, n, p)
              for n in (2, 3, 5, 10, 20, 24, 50, 100, 200) for p in (0.05, 0.2, 0.4, 0.9)]
    graphs += [star(40), complete(30), complete_bipartite(7, 11), friendship(9)]
    for g in graphs:
        assert np.array_equal(_bits(randic_matrix(g)), _bits(randic_matrix_per_edge(g)))
    # isolated vertices: a star or a sparse graph with a leaf's neighbour
    # deleted, and graphs with a lone vertex
    sparse = random_connected_graph(rng, 30, 0.05)
    isolated = [delete_vertex(star(9), 0),
                delete_vertex(sparse, sparse.adjacency[sparse.degrees.index(1)][0]),
                Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)]),
                disjoint_union(complete(4), Graph.from_edges(1, [])), Graph.from_edges(3, [])]
    for g in isolated:
        assert 0 in g.degrees
        r = randic_matrix(g, allow_isolated=True)
        assert np.array_equal(_bits(r), _bits(randic_matrix_per_edge(g)))


def test_row_sums_are_one_for_regular_graphs():
    # D^{-1/2} A D^{-1/2} of a k-regular graph is A/k, so rows sum to 1
    for g in [cycle(6), complete(5)]:
        r = randic_matrix(g)
        np.testing.assert_allclose(r.sum(axis=1), np.ones(g.n), atol=1e-15)


# ---------------------------------------------------------------- eigensolver

def test_known_spectrum_complete_graph():
    # K_n normalized adjacency: eigenvalue 1 once, -1/(n-1) with multiplicity n-1
    n = 6
    dec = eigen_symmetric(randic_matrix(complete(n)))
    expected = np.array([1.0] + [-1.0 / (n - 1)] * (n - 1))
    np.testing.assert_allclose(dec.values, expected, atol=1e-13)


def test_known_spectrum_cycle():
    # C_n normalized adjacency eigenvalues are cos(2 pi j / n)
    n = 8
    dec = eigen_symmetric(randic_matrix(cycle(n)))
    expected = np.sort(np.cos(2.0 * np.pi * np.arange(n) / n))[::-1]
    np.testing.assert_allclose(dec.values, expected, atol=1e-13)


def test_sorted_descending_and_zero_clamped():
    # star K_{1,4}: spectrum {1, 0, 0, 0, -1}; the zeros must be exact
    g = Graph.from_edges(5, [(0, j) for j in range(1, 5)])
    dec = eigen_symmetric(randic_matrix(g))
    assert dec.values[0] == pytest.approx(1.0, abs=1e-14)
    assert dec.values[-1] == pytest.approx(-1.0, abs=1e-14)
    assert all(v == 0.0 for v in dec.values[1:-1])
    assert all(x >= y for x, y in zip(dec.values, dec.values[1:]))


def test_eigenvectors_reconstruct_and_are_orthonormal():
    g = random_connected_graph(random.Random(11), 15)
    r = randic_matrix(g)
    dec = eigen_symmetric(r)
    y = dec.vectors
    np.testing.assert_allclose(y.T @ y, np.eye(g.n), atol=1e-13)
    np.testing.assert_allclose((y * dec.values) @ y.T, r, atol=1e-13)


def test_agrees_with_lapack():
    for seed in range(10):
        g = random_connected_graph(random.Random(seed), 2 + seed)
        r = randic_matrix(g)
        ours = eigen_symmetric(r).values
        ref = np.sort(np.linalg.eigvalsh(r))[::-1]
        np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_input_not_mutated():
    r = randic_matrix(cycle(5))
    before = r.copy()
    eigen_symmetric(r)
    assert np.array_equal(r, before)


def test_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        eigen_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_trivial_sizes():
    dec = eigen_symmetric(np.array([[3.0]]))
    assert dec.values[0] == 3.0
    dec = eigen_symmetric(np.zeros((4, 4)))
    assert np.all(dec.values == 0.0)


def _failing_eigh(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_lapack_failure_is_a_convergence_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _failing_eigh)
    with pytest.raises(ConvergenceError, match="did not converge on a 7x7"):
        eigen_symmetric(randic_matrix(cycle(7)))


def test_lapack_failure_exits_3_from_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigh", _failing_eigh)
    assert main(["energy", "--family", "cycle", "--n", "7"]) == 3
    assert "numerical failure" in capsys.readouterr().err


# graphs of the sizes the CLI is used at: seeded G(n, 0.2), plus the
# near-singular (star) and bipartite (K_{a,b}) spectra with n - 2 zeros
SIZED_GRAPHS = {
    **{f"gnp{n}": (lambda n=n: random_connected_graph(random.Random(n), n, 0.2))
       for n in (50, 100, 200)},
    "star150": lambda: star(150),
    "k40_60": lambda: complete_bipartite(40, 60),
    "friendship50": lambda: friendship(50),
    "cycle100": lambda: cycle(100),
}


@pytest.mark.parametrize("name", sorted(SIZED_GRAPHS))
def test_decomposition_is_accurate_at_size(name):
    r = randic_matrix(SIZED_GRAPHS[name]())
    dec = eigen_symmetric(r)
    ref = np.sort(np.linalg.eigvalsh(r))[::-1]
    np.testing.assert_allclose(dec.values, ref, rtol=0, atol=1e-12)
    assert dec.residual <= 1e-12
    assert dec.orthogonality <= 1e-12
    # the stored diagnostics are those of the stored pair
    y = dec.vectors
    assert dec.residual == pytest.approx(np.linalg.norm(r @ y - y * dec.values), abs=1e-15)
    assert dec.orthogonality == pytest.approx(
        np.abs(y.T @ y - np.eye(r.shape[0])).max(), abs=1e-15)


@pytest.mark.parametrize("name", ["star150", "k40_60"])
def test_star_and_complete_bipartite_have_n_minus_2_exact_zeros(name):
    g = SIZED_GRAPHS[name]()
    dec = eigen_symmetric(randic_matrix(g))
    assert int(np.count_nonzero(dec.values == 0.0)) == g.n - 2
    assert dec.values[0] == pytest.approx(1.0, abs=1e-14)
    assert dec.values[-1] == pytest.approx(-1.0, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=18))
def test_spectrum_properties(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    dec = eigen_symmetric(randic_matrix(g))
    # largest eigenvalue of the normalized adjacency of a connected graph is 1
    assert dec.values[0] == pytest.approx(1.0, abs=1e-12)
    assert dec.values[-1] >= -1.0 - 1e-12
    # trace of R is zero
    assert abs(dec.values.sum()) < 1e-11


# ---------------------------------------------------------------- matrix |.|

def test_matrix_abs_of_psd_is_identity_map():
    rng = np.random.default_rng(5)
    b = rng.normal(size=(6, 6))
    m = symmetrize(b @ b.T)
    np.testing.assert_allclose(matrix_abs(m), m, atol=1e-12)


def test_matrix_abs_squares_to_m_squared():
    g = random_connected_graph(random.Random(21), 9)
    r = randic_matrix(g)
    a = matrix_abs(r)
    np.testing.assert_allclose(a @ a, r @ r, atol=1e-12)
    # |M| is PSD
    assert np.min(np.linalg.eigvalsh(a)) > -1e-12


def test_matrix_abs_diagonal_known_path3():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    a = matrix_abs(randic_matrix(g))
    np.testing.assert_allclose(np.diag(a), [0.5, 1.0, 0.5], atol=1e-14)


# ---------------------------------------------------------------- powers

def test_power_diag_matches_direct_power():
    g = random_connected_graph(random.Random(2), 8)
    r = randic_matrix(g)
    for k in range(5):
        direct = np.linalg.matrix_power(r, k)
        for i in range(g.n):
            assert power_diag(r, k, i) == pytest.approx(direct[i, i], abs=1e-12)


def test_power_diag_validates_args():
    r = randic_matrix(cycle(4))
    with pytest.raises(ValueError):
        power_diag(r, -1, 0)
    with pytest.raises(ValueError):
        power_diag(r, 2, 9)


def test_power_diag_reuses_decomposition():
    r = randic_matrix(cycle(6))
    dec = eigen_symmetric(r)
    assert power_diag(r, 4, 0, decomposition=dec) == pytest.approx(
        power_diag(r, 4, 0), abs=1e-14
    )
