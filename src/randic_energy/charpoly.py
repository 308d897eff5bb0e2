"""Characteristic polynomials of degree-normalized adjacency matrices.

Two independent construction routes:

* a trace recurrence on matrix powers (works for any square matrix), and
* exact enumeration of elementary subgraphs (every component a single edge
  or a cycle), whose weighted count gives each coefficient directly.

On bipartite spectra the polynomial collapses to even powers; those
coefficients drive the quasi-order used to compare vertex energies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graph import Graph, bipartition, check_vertex, delete_vertex
from .energy import vertex_energies
from .spectral import randic_matrix

#: elementary-subgraph enumeration is exponential; refuse beyond this order
MAX_ENUMERATION_N = 12

#: tolerance for "this odd coefficient is zero" when extracting the even form
ODD_COEFF_TOL = 1e-8

#: floats ``char_poly_numeric`` may spend on stored matrix powers (2.56 MB)
_POWERS_BUDGET = 320_000


@dataclass(frozen=True)
class Polynomial:
    """Monic polynomial, coefficients by descending power."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("empty polynomial")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in self.coefficients:
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class ElementarySubgraph:
    edges: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return 2 * len(self.edges) + sum(len(c) for c in self.cycles)

    @property
    def components(self) -> int:
        return len(self.edges) + len(self.cycles)

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    @property
    def vertices(self) -> frozenset[int]:
        out = set()
        for u, v in self.edges:
            out.update((u, v))
        for c in self.cycles:
            out.update(c)
        return frozenset(out)


def _stored_powers(n: int) -> int:
    """How many powers M^1 .. M^s ``char_poly_numeric`` keeps at order n:
    ceil(sqrt(n)), capped so that they fill at most ``_POWERS_BUDGET`` floats."""
    return max(1, min(math.isqrt(n - 1) + 1, _POWERS_BUDGET // (n * n)))


def char_poly_numeric(m: np.ndarray) -> Polynomial:
    """Coefficients of det(xI - M), for any square M, by the trace recurrence
    M_k = M X_{k-1}, X_k = M_k + c_k I, X_0 = I, c_k = -trace(M_k)/k,
    blocked as Paterson and Stockmeyer block a polynomial.

    With the powers M^1 .. M^s stored, s steps from X_{k-1} take no product:
    M_{k+j} = M^{j+1} X_{k-1} + sum_{l<j} c_{k+l} M^{j-l}, so the s traces
    trace(M^{j+1} X_{k-1}) come from one product of the stacked powers with
    vec(X_{k-1}^T), and each c_{k+j} from those and trace(M^i) by scalar
    arithmetic. Only the next X takes an n x n product, and the first,
    M^s X_0, is stored. That is s - 1 + ceil(n/s) - 2 products instead of n
    (12 instead of 50 at n = 50), with s = ceil(sqrt(n)) capped so that the
    powers fill at most 320 000 floats (2.56 MB): 8 powers and 30 products
    at n = 200.

    Accurate to rounding while M's spectral radius is at most 1, as for every
    Randic matrix. Above 1 the error grows with the powers: 3.0e-13 of the
    largest coefficient at radius 1.38 and n = 50, where ``np.poly`` is
    within 1.2e-14.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"need a nonempty square matrix, got shape {m.shape}")
    n = m.shape[0]
    s = _stored_powers(n)
    powers = np.empty((s, n, n))
    powers[0] = m
    for j in range(1, s):
        np.matmul(powers[j - 1], m, out=powers[j])
    flat = powers.reshape(s, n * n)
    power_traces = powers.trace(axis1=1, axis2=2).tolist()  # trace(M^1) .. trace(M^s)
    coeffs = [1.0]
    traces = power_traces  # trace(M^{j+1} X_0) with X_0 = I
    x = x_next = work = None
    k = 1
    while True:
        block: list[float] = []
        for j, t in enumerate(traces[:n + 1 - k]):
            for l, c in enumerate(block):
                t += c * power_traces[j - l - 1]
            block.append(-t / (k + j))
        coeffs.extend(block)
        k += len(block)
        if k > n:
            return Polynomial(tuple(coeffs))
        # X_{k-1} = M^s X_{k-1-s} + sum_{l<s-1} c_{k-s+l} M^{s-1-l} + c_{k-1} I
        weights = np.array(block[-2::-1])
        if x is None:  # M^s X_0 is a stored power
            x = (np.append(weights, 1.0) @ flat).reshape(n, n)
            x_next, work = np.empty((n, n)), np.empty((n, n))
        else:
            np.matmul(powers[-1], x, out=x_next)
            np.dot(weights, flat[:-1], out=work.reshape(n * n))
            x_next += work
            x, x_next = x_next, x
        x.reshape(n * n)[::n + 1] += block[-1]
        np.copyto(work, x.T)
        traces = (flat[:n + 1 - k] @ work.ravel()).tolist()


def _canonical_cycles_at(g: Graph, base: int, free: list[bool]) -> list[tuple[int, ...]]:
    """All cycles through ``base`` whose other vertices are free and > base,
    one orientation per cycle (second vertex smaller than the last)."""
    out = []
    path = [base]
    on_path = [False] * g.n
    on_path[base] = True

    def extend(v: int) -> None:
        for u in g.adjacency[v]:
            if u == base and len(path) >= 3 and path[1] < path[-1]:
                out.append(tuple(path))
            elif u > base and free[u] and not on_path[u]:
                path.append(u)
                on_path[u] = True
                extend(u)
                on_path[u] = False
                path.pop()

    extend(base)
    return out


def elementary_subgraphs(g: Graph):
    """Yields every elementary subgraph of g, including the empty one."""
    if g.n > MAX_ENUMERATION_N:
        raise ValueError(
            f"enumeration capped at {MAX_ENUMERATION_N} vertices, got {g.n}"
        )
    free = [True] * g.n
    edges: list[tuple[int, int]] = []
    cycles: list[tuple[int, ...]] = []

    def recurse(v: int):
        while v < g.n and not free[v]:
            v += 1
        if v == g.n:
            yield ElementarySubgraph(edges=tuple(edges), cycles=tuple(cycles))
            return
        # leave v uncovered
        free[v] = False
        yield from recurse(v + 1)
        free[v] = True
        # cover v by an edge to a larger free neighbor
        for u in g.adjacency[v]:
            if u > v and free[u]:
                free[v] = free[u] = False
                edges.append((v, u))
                yield from recurse(v + 1)
                edges.pop()
                free[v] = free[u] = True
        # cover v by a cycle in which v is the smallest vertex
        for cyc in _canonical_cycles_at(g, v, free):
            for w in cyc:
                free[w] = False
            cycles.append(cyc)
            yield from recurse(v + 1)
            cycles.pop()
            for w in cyc:
                free[w] = True

    yield from recurse(0)


def char_poly_combinatorial(g: Graph) -> Polynomial:
    """det(xI - R(G)) from the elementary-subgraph expansion.

    A subgraph of order k with c components, s of them cycles, contributes
    (-1)^(k-c) 2^s prod(1/d_i) to (-1)^k a_k. Isolated vertices never occur
    inside elementary subgraphs, so disconnected inputs are fine.
    """
    if g.n > MAX_ENUMERATION_N:
        raise ValueError(
            f"enumeration capped at {MAX_ENUMERATION_N} vertices, got {g.n}"
        )
    signed = [0.0] * (g.n + 1)  # signed[k] accumulates (-1)^k a_k
    for sub in elementary_subgraphs(g):
        k = sub.order
        weight = 1.0
        for v in sub.vertices:
            weight /= g.degrees[v]
        signed[k] += (-1) ** (k - sub.components) * (2 ** sub.cycle_count) * weight
    coeffs = tuple((-1) ** k * signed[k] if k else 1.0 for k in range(g.n + 1))
    return Polynomial(coeffs)


def principal_submatrix_poly(g: Graph, v: int) -> Polynomial:
    """det(xI - M) where M is R(G) with row and column v removed.

    Edge weights keep the degrees they had in g; this is not the same as
    the polynomial of the vertex-deleted graph, whose degrees drop.
    """
    check_vertex(g.n, v)
    r = randic_matrix(g)
    keep = [i for i in range(g.n) if i != v]
    return char_poly_numeric(r[np.ix_(keep, keep)])


def deleted_graph_poly(g: Graph, v: int) -> Polynomial:
    """det(xI - R(G - v)) with degrees recomputed in the smaller graph."""
    h = delete_vertex(g, v)
    return char_poly_numeric(randic_matrix(h, allow_isolated=True))


def disjoint_union_poly(p1: Polynomial, p2: Polynomial) -> Polynomial:
    """Polynomial of a block-diagonal matrix: the coefficient convolution."""
    return Polynomial(tuple(np.convolve(p1.coefficients, p2.coefficients)))


# ------------------------------------------------------------- quasi-order

@dataclass(frozen=True)
class EvenCoefficients:
    """b_k >= 0 with p(x) = sum_k (-1)^k b_k x^(n-2k)."""

    b: tuple[float, ...]
    degree: int


class Comparison(Enum):
    LESS_EQ = "LessEq"
    GREATER_EQ = "GreaterEq"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


def even_coefficients(p: Polynomial, *, tol: float = ODD_COEFF_TOL) -> EvenCoefficients:
    n = p.degree
    for k, c in enumerate(p.coefficients):
        if k % 2 == 1 and abs(c) > tol:
            raise ValueError(
                f"coefficient of x^{n - k} is {c:.3e}; "
                "spectrum is not symmetric about zero"
            )
    b = []
    for k in range(n // 2 + 1):
        val = (-1) ** k * p.coefficients[2 * k]
        if val < -1e-10:
            raise ValueError(f"b_{k} = {val:.3e} is significantly negative")
        b.append(max(val, 0.0))
    return EvenCoefficients(b=tuple(b), degree=n)


def _padded(b1: EvenCoefficients, b2: EvenCoefficients) -> tuple[tuple, tuple]:
    width = max(len(b1.b), len(b2.b))
    return (
        b1.b + (0.0,) * (width - len(b1.b)),
        b2.b + (0.0,) * (width - len(b2.b)),
    )


def quasi_order_compare(b1: EvenCoefficients, b2: EvenCoefficients,
                        *, tol: float = 1e-8) -> Comparison:
    x, y = _padded(b1, b2)
    le = all(a <= b + tol for a, b in zip(x, y))
    ge = all(a >= b - tol for a, b in zip(x, y))
    if le and ge:
        return Comparison.EQUAL
    if le:
        return Comparison.LESS_EQ
    if ge:
        return Comparison.GREATER_EQ
    return Comparison.INCOMPARABLE


# -------------------------------------------------- quasi-order on vertices

MODE_SUBMATRIX = "submatrix"
MODE_DELETED_GRAPH = "deleted-graph"


@dataclass(frozen=True)
class VertexOrderCheck:
    v: int
    w: int
    mode: str
    comparison: Comparison  # order of (G minus w) relative to (G minus v)
    energy_v: float
    energy_w: float
    status: str  # "witnessed" | "equal" | "vacuous" | "violated"


def vertex_order_check(g: Graph, v: int, w: int, *, mode: str = MODE_SUBMATRIX,
                       tol: float = 1e-9, strict: bool = True) -> VertexOrderCheck:
    """Tests the ordering rule: if removing w dominates removing v in the
    quasi-order, then w's energy cannot exceed v's.

    ``mode`` selects how the vertex removal is turned into a polynomial:
    "submatrix" strikes the row/column out of R(G) (the form for which the
    contour-integral argument is valid); "deleted-graph" rebuilds R on the
    smaller graph with recomputed degrees, for side-by-side comparison.
    """
    if bipartition(g) is None:
        raise ValueError("ordering rule applies to bipartite graphs only")
    if mode == MODE_SUBMATRIX:
        poly = principal_submatrix_poly
    elif mode == MODE_DELETED_GRAPH:
        poly = deleted_graph_poly
    else:
        raise ValueError(f"unknown mode {mode!r}")

    bw = even_coefficients(poly(g, w))
    bv = even_coefficients(poly(g, v))
    comparison = quasi_order_compare(bw, bv)

    vec = vertex_energies(g)
    ev, ew = vec.energies[v], vec.energies[w]

    if comparison is Comparison.EQUAL:
        status = "equal" if abs(ev - ew) <= tol else "violated"
    elif comparison is Comparison.GREATER_EQ:
        status = "witnessed" if ew <= ev + tol else "violated"
    elif comparison is Comparison.LESS_EQ:
        status = "witnessed" if ev <= ew + tol else "violated"
    else:
        status = "vacuous"

    result = VertexOrderCheck(v=v, w=w, mode=mode, comparison=comparison,
                              energy_v=float(ev), energy_w=float(ew), status=status)
    if strict and status == "violated":
        raise AssertionError(f"energy ordering violated: {result}")
    return result
