"""Per-vertex Randic energy by three routes.

route "eigen-weights"  energy(v_i) = sum_j y_ij^2 |lambda_j|   (default)
route "abs-diagonal"   energy(v_i) = |R(G)|_ii                 (definition)
route "series"         truncated binomial expansion of sqrt(R^2)

"eigen-weights" and "abs-diagonal" share one decomposition, ``randic_spectrum``,
so their delta checks only the |R| product. The routes independent of the
solve are the series and the Coulson quadrature (``coulson``).

The series coefficients binom(1/2, k) come from one table per series length
(``_series_table``), built once per process: ``series_energies``,
``vertex_energy_series`` and ``series_tail_bound`` all read it.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .graph import Graph, bipartition, check_vertex, is_connected
from .spectral import matrix_abs, randic_matrix, randic_spectrum

ROUTE_EIGEN = "eigen-weights"
ROUTE_ABS = "abs-diagonal"
ROUTE_SERIES = "series"

#: hard cap on binomial series length; the k^(-3/2) coefficient decay makes
#: longer sums pointless at double precision
MAX_SERIES_TERMS = 10_000

#: most powers of R^2 - I that series_energies holds at once (s n^2 doubles)
_MAX_BLOCK = 32


@dataclass(frozen=True)
class VertexEnergyVector:
    energies: tuple[float, ...]
    total: float
    route: str

    @property
    def n(self) -> int:
        return len(self.energies)


@dataclass(frozen=True)
class SeriesEnergies:
    """Truncated-series energies and a bound on every vertex's truncation error."""

    energies: tuple[float, ...]
    terms: int
    tail_bound: float

    @property
    def total(self) -> float:
        return ordered_sum(self.energies)


def ordered_sum(values) -> float:
    """Left-to-right sum in plain doubles, the same bits on every interpreter:
    the builtin ``sum()`` of floats compensates from Python 3.12 on and would
    move the last digit of a report."""
    return functools.reduce(operator.add, values, 0.0)


def _check_graph(g: Graph) -> None:
    if g.n < 2:
        raise ValueError("vertex energy needs at least 2 vertices")
    if not is_connected(g):
        raise ValueError("graph must be connected")


def vertex_energies(g: Graph, *, route: str = ROUTE_EIGEN) -> VertexEnergyVector:
    _check_graph(g)
    if route == ROUTE_EIGEN:
        dec = randic_spectrum(g)
        absvals = np.abs(dec.values)
        energies = (dec.vectors ** 2) @ absvals
        total = float(absvals.sum())
    elif route == ROUTE_ABS:
        energies = np.diag(matrix_abs(randic_matrix(g), decomposition=randic_spectrum(g)))
        total = float(energies.sum())
    elif route == ROUTE_SERIES:
        series = series_energies(g)
        energies = np.array(series.energies)
        total = series.total
    else:
        raise ValueError(f"unknown route {route!r}")
    return VertexEnergyVector(
        energies=tuple(energies.tolist()), total=total, route=route
    )


def graph_energy(g: Graph) -> float:
    """Total energy as the sum of |eigenvalue| over the whole spectrum."""
    _check_graph(g)
    return float(np.abs(randic_spectrum(g).values).sum())


def _binomial_half_coefficients(terms: int):
    """Yields binom(1/2, k) for k = 0 .. terms-1."""
    c = 1.0
    for k in range(terms):
        yield c
        c *= (0.5 - k) / (k + 1)


@dataclass(frozen=True)
class _SeriesTable:
    """What the series routes need of binom(1/2, k), k < terms; arrays read-only."""

    coefficients: np.ndarray
    #: 1 - sum_{k=1}^{terms-1} |binom(1/2,k)|, the most any vertex's sum drops
    tail_bound: float
    #: Paterson-Stockmeyer blocks: coefficients [j s, (j+1) s) with
    #: s = len(blocks[0]) = ceil(sqrt(terms)), capped at _MAX_BLOCK
    blocks: tuple[np.ndarray, ...]

    @property
    def terms(self) -> int:
        return len(self.coefficients)


def _series_table(terms: int) -> _SeriesTable:
    """The shared table for a series of ``terms`` terms, capped at MAX_SERIES_TERMS."""
    if terms < 1:
        raise ValueError("need at least one term")
    return _table_of_length(min(terms, MAX_SERIES_TERMS))


# a few lengths are in use at a time; the longest table is about 160 kB
@functools.lru_cache(maxsize=16)
def _table_of_length(terms: int) -> _SeriesTable:
    coeffs = list(_binomial_half_coefficients(terms))
    kept = 0.0
    for coeff in coeffs[1:]:
        kept += abs(coeff)
    s = min(math.isqrt(terms - 1) + 1, _MAX_BLOCK)  # ceil(sqrt(terms)), capped
    coefficients = np.array(coeffs)
    blocks = tuple(np.array(coeffs[j:j + s]) for j in range(0, terms, s))
    for a in (coefficients,) + blocks:
        a.flags.writeable = False
    return _SeriesTable(coefficients=coefficients, tail_bound=1.0 - kept, blocks=blocks)


def vertex_energy_series(g: Graph, i: int, terms: int) -> float:
    """Partial sum of sum_k binom(1/2,k) ((R^2 - I)^k)_ii through k = terms-1.

    Every k >= 1 term is nonpositive (R^2 - I is negative semidefinite and
    the coefficient signs alternate against the power signs), so truncations
    decrease monotonically toward the energy.
    """
    _check_graph(g)
    check_vertex(g.n, i)
    coeffs = _series_table(terms).coefficients
    r = randic_matrix(g)
    b = r @ r - np.eye(g.n)
    # track the i-th column of B^k; only its i-th entry enters the sum
    col = np.zeros(g.n)
    col[i] = 1.0
    total = 0.0
    for k, coeff in enumerate(coeffs):
        total += coeff * col[i]
        if k + 1 < len(coeffs):
            col = b @ col
    return total


def series_energies(g: Graph, *, terms: int = 200) -> SeriesEnergies:
    """All-vertex truncated binomial series with a bound on its truncation.

    Every eigenvalue of B = R^2 - I lies in [-1, 0] and the squared
    eigenvector weights of a vertex sum to 1, so the dropped terms at any
    vertex add up to at most sum_{k>=terms} |binom(1/2,k)|. As
    sum_{k>=1} |binom(1/2,k)| = 1, that is
    ``tail_bound = 1 - sum_{k=1}^{terms-1} |binom(1/2,k)|``, and each
    reported energy lies in [true, true + tail_bound].
    """
    _check_graph(g)
    table = _series_table(terms)
    blocks = table.blocks

    # Paterson-Stockmeyer: p(B) = sum_j q_j(B) C^j with C = B^s, where each
    # block polynomial q_j = sum_i c_{js+i} B^i is a weighted sum of the
    # stored powers B^0 .. B^(s-1). That takes about 2 sqrt(terms) products
    # instead of terms - 1.
    n = g.n
    r = randic_matrix(g)
    r2 = r @ r
    s = len(blocks[0])
    powers = np.empty((s, n, n))
    powers[0] = np.eye(n)
    # B^k = B^(k-1) R^2 - B^(k-1) keeps B's -1 diagonal out of the dot
    # products. On graphs with many zero eigenvalues (stars) that rounding
    # drifts the eigenvalue -1 of B^s coherently, and Horner in C compounds
    # it: 8x the error at 10 000 terms on star(100).
    for k in range(1, s):
        np.matmul(powers[k - 1], r2, out=powers[k])
        powers[k] -= powers[k - 1]
    flat = powers.reshape(s, n * n)
    # only the diagonal of q_0 and of the last Horner product enter the result
    totals = blocks[0] @ powers.diagonal(axis1=1, axis2=2)
    if len(blocks) > 1:
        giant = powers[-1] @ r2 - powers[-1]
        acc = (blocks[-1] @ flat[:len(blocks[-1])]).reshape(n, n)
        for block in reversed(blocks[1:-1]):
            acc = acc @ giant
            acc += (block @ flat).reshape(n, n)
        totals += np.einsum("ik,ki->i", acc, giant)
    return SeriesEnergies(
        energies=tuple(totals.tolist()),
        terms=table.terms,
        tail_bound=table.tail_bound,
    )


def series_tail_bound(g: Graph, i: int, terms: int) -> float:
    """Exact truncation error of the series at vertex i.

    Uses sum_{k>=K} |binom(1/2,k)| x^k = (1 - sqrt(1-x)) - partial sum,
    weighted per eigenvalue by y_ij^2 with x_j = 1 - lambda_j^2. Like the
    series itself, ``terms`` is capped at MAX_SERIES_TERMS.
    """
    _check_graph(g)
    check_vertex(g.n, i)
    coeffs = _series_table(terms).coefficients
    dec = randic_spectrum(g)
    xs = np.clip(1.0 - dec.values ** 2, 0.0, 1.0)
    # sum_{k=1}^{terms-1} |binom(1/2,k)| x^k, then subtract from the closed
    # form of the full sum: sum_{k>=1} |binom(1/2,k)| x^k = 1 - sqrt(1-x)
    partial = np.zeros_like(xs)
    xpow = xs.copy()
    for coeff in coeffs[1:]:
        partial += abs(coeff) * xpow
        xpow *= xs
    tail = (1.0 - np.sqrt(1.0 - xs)) - partial
    weights = dec.vectors[i, :] ** 2
    return float(np.dot(weights, np.maximum(tail, 0.0)))


def partition_energies(g: Graph) -> tuple[float, float]:
    """Energy mass on the two sides of a bipartite graph (each is RE(G)/2)."""
    vec = vertex_energies(g)
    part = bipartition(g)
    if part is None:
        raise ValueError("graph is not bipartite")
    return (ordered_sum(vec.energies[v] for v in part.side_a),
            ordered_sum(vec.energies[v] for v in part.side_b))
