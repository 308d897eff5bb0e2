"""Vertex energy as a Coulson-type integral over the real line.

    energy(v_i) = (1/pi) * integral of Re[ 1 - ix G_ii(ix) ] dx

G_ii(z) = [(zI - R)^-1]_ii = p_i(z)/p(z) by Cramer's rule, with p the
characteristic polynomial of R(G) and p_i that of R(G) with row/column i
struck out: the paper's formula, with no polynomial formed. Lanczos on R
from e_i with full reorthogonalisation (the recursion method of Haydock,
Heine & Kelly, 1972) gives a_1..a_k and b_1..b_(k-1), stopping once the
Krylov space is invariant (k <= n), and

    G_ii(z) = 1/d_1,   d_j = z - a_j - b_j^2/d_(j+1),   d_k = z - a_k.

The integrand is Re[(d_1 - z)/d_1], with d_1 - z = -a_1 - b_1^2/d_2 formed
directly so that nothing cancels at large |x|. For x != 0 each d_j has an
imaginary part of x's sign and at least |x| in modulus; x = 0 gets its
limit, one minus the weight the vertex puts on the zero eigenvalue.

Rebuilding R on the literal vertex-deleted graph (degrees recomputed) does
NOT satisfy the identity; that comparison mode takes det(zI - R')/det(zI - R)
from complex ``slogdet`` in place of p_i/p.

R and R' are real, so both integrands are even in x. ``integrate_line``
relies on that: it integrates over the half line and doubles, and it calls
the integrand once per refinement level, on every node of every panel still
open, so the continued fraction runs its k steps over one batch per level.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .charpoly import MODE_DELETED_GRAPH, MODE_SUBMATRIX
from .energy import _check_graph
from .graph import Graph, check_vertex, delete_vertex
from .spectral import ZERO_EIGENVALUE_TOL, randic_matrix

#: Lanczos stops when the next off-diagonal coefficient is below this: the
#: Krylov space is then invariant up to rounding (||R||_2 = 1)
BREAKDOWN_TOL = 1e-12

#: a panel is accepted when this multiple of the difference between its
#: one- and two-panel sums is within tolerance, and that multiple is the
#: error it reports: while both sums are still far from the integral, their
#: plain difference can understate the error of the finer one
ERROR_SAFETY = 10.0


@dataclass(frozen=True)
class QuadratureConfig:
    nodes_per_panel: int = 32
    tolerance: float = 1e-7
    max_levels: int = 12

    def __post_init__(self):
        if self.nodes_per_panel < 8:
            raise ValueError("need at least 8 nodes per panel")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be positive and finite")
        if self.max_levels < 1:
            raise ValueError("need at least one refinement level")


@dataclass(frozen=True)
class CoulsonResult:
    value: float
    error_estimate: float
    converged: bool
    evaluations: int


def lanczos_coefficients(r: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal ``a`` and squared off-diagonal ``b2`` of the Jacobi matrix of
    Lanczos on the symmetric ``r`` from e_i, fully reorthogonalised; ``len(a)``
    is the dimension of the Krylov space and ``len(b2) == len(a) - 1``."""
    n = r.shape[0]
    basis = np.zeros((n, n))  # row j is Lanczos vector j + 1
    basis[0, i] = 1.0
    a: list[float] = []
    b2: list[float] = []
    for k in range(n):
        w = r @ basis[k]
        a.append(float(basis[k] @ w))
        done = basis[:k + 1]
        # classical Gram-Schmidt twice keeps the basis orthogonal to rounding
        w -= (done @ w) @ done
        w -= (done @ w) @ done
        norm2 = float(w @ w)
        if k + 1 == n or norm2 <= BREAKDOWN_TOL * BREAKDOWN_TOL:
            break
        b2.append(norm2)
        basis[k + 1] = w / math.sqrt(norm2)
    return np.array(a), np.array(b2)


def _on_real_line(body, at_zero=None):
    """body elementwise on arrays of any shape, at_zero() at x = 0 if given."""
    def f(x):
        x = np.asarray(x, dtype=float)
        zero = x == 0.0
        if at_zero is None or not zero.any():
            out = body(x)
        else:
            out = np.full(x.shape, at_zero())
            out[~zero] = body(x[~zero])
        return float(out) if out.ndim == 0 else out
    return f


def _resolvent_integrand(a: np.ndarray, b2: np.ndarray):
    def body(x):
        z = 1j * x
        tail = np.zeros_like(z)  # b_(j-1)^2 / d_j, from the bottom up
        for a_j, b2_j in zip(a[:0:-1], b2[::-1]):
            tail = b2_j / (z - a_j - tail)
        numerator = -a[0] - tail  # d_1 - z
        return (numerator / (z + numerator)).real

    def origin():
        jacobi = np.diag(a) + np.diag(np.sqrt(b2), 1) + np.diag(np.sqrt(b2), -1)
        theta, u = np.linalg.eigh(jacobi)
        return 1.0 - float(np.sum(u[0, np.abs(theta) <= ZERO_EIGENVALUE_TOL] ** 2))

    return _on_real_line(body, origin)


def _deleted_graph_integrand(r: np.ndarray, r_deleted: np.ndarray):
    """Re[1 - ix det(ixI - R')/det(ixI - R)]; at x = 0 only when R is
    nonsingular (no quadrature node lies there)."""
    def shifted_slogdet(z, m):  # slogdet(zI - m) for every z
        shifted = z[..., None, None] * np.eye(len(m))
        shifted -= m
        return np.linalg.slogdet(shifted)

    def body(x):
        z = 1j * x
        sign, logdet = shifted_slogdet(z, r)
        sign_d, logdet_d = shifted_slogdet(z, r_deleted)
        return (1.0 - z * (sign_d / sign) * np.exp(logdet_d - logdet)).real

    return _on_real_line(body)


def coulson_integrand(g: Graph, i: int, *, mode: str = MODE_SUBMATRIX):
    """The integrand Re[1 - ix p_i(ix)/p(ix)] of vertex ``i`` as a function
    of x, vectorized over arrays."""
    check_vertex(g.n, i)
    r = randic_matrix(g)
    if mode == MODE_SUBMATRIX:
        return _resolvent_integrand(*lanczos_coefficients(r, i))
    if mode == MODE_DELETED_GRAPH:
        return _deleted_graph_integrand(
            r, randic_matrix(delete_vertex(g, i), allow_isolated=True))
    raise ValueError(f"unknown mode {mode!r}")


# ------------------------------------------------------------- quadrature

@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _panel_sums(f, lo: np.ndarray, width: np.ndarray, nodes, weights) -> np.ndarray:
    """Gauss-Legendre sums of f over the panels [lo_k, lo_k + width_k], one call of f."""
    half = 0.5 * width
    return half * (f(lo[:, None] + half[:, None] * (nodes + 1.0)) @ weights)


def integrate_line(f, cfg: QuadratureConfig) -> CoulsonResult:
    """Adaptive composite Gauss-Legendre of an even f over R via x = tan(t) sin^2(t).

    ``f`` must be even: the result is twice the integral over t in [0, pi/2],
    taken on two panels of width pi/4 with tolerance ``cfg.tolerance / 4``
    each, and each half of an open panel gets half its tolerance. Refinement
    is breadth first: ``f`` is called once per level, on an array of x of
    shape (panel sums, nodes), and at most ``cfg.max_levels + 1`` times."""
    nodes, weights = _gauss_legendre(cfg.nodes_per_panel)
    rounding = cfg.nodes_per_panel * np.finfo(float).eps

    # x ~ t^3 near 0 and x ~ tan(t) near pi/2. An eigenvalue theta near 0 puts
    # a peak of width |theta| at x = 0, |theta|^(1/3) wide in t; under x = tan(t)
    # peaks 1e-3 wide were under-resolved alike at both levels of the estimate
    def transformed(t: np.ndarray) -> np.ndarray:
        s2 = np.sin(t) ** 2
        return f(np.tan(t) * s2) * (s2 * (3.0 - 2.0 * s2) / np.cos(t) ** 2)

    a = np.array([0.0, math.pi / 4])
    b = np.array([math.pi / 4, math.pi / 2])
    total = 0.0
    err = 0.0
    ok = True
    evals = 0
    for level in range(cfg.max_levels + 1):
        tol = cfg.tolerance / 4.0 * 0.5 ** level  # the same for every open panel
        half = 0.5 * (b - a)
        lo, width = np.concatenate([a, a + half]), np.concatenate([half, half])
        if level == 0:  # the two panels' whole sums come from the same call
            lo, width = np.concatenate([a, lo]), np.concatenate([b - a, width])
        sums = _panel_sums(transformed, lo, width, nodes, weights).reshape(-1, a.size)
        evals += sums.size * len(nodes)
        if level == 0:
            whole = sums[0]
        left, right = sums[-2:]
        # two sums can agree bit for bit while both carry rounding error: the
        # estimate never reads below the rounding of the finer sum, and a
        # panel whose difference is down at that floor is refined no further
        diff = ERROR_SAFETY * np.abs(left + right - whole)
        floor = rounding * (np.abs(left) + np.abs(right))
        e = np.maximum(diff, floor)
        final = (e <= tol) | (diff <= floor) | (level == cfg.max_levels)
        total += float(np.sum(left[final] + right[final]))
        err += float(np.sum(e[final]))
        ok = ok and bool(np.all(e[final] <= tol))
        split = ~final
        if not split.any():
            break
        # each open panel becomes its two halves, whose whole sums are known
        mid = a[split] + half[split]
        a = np.column_stack([a[split], mid]).ravel()
        b = np.column_stack([mid, b[split]]).ravel()
        whole = np.column_stack([left[split], right[split]]).ravel()
    return CoulsonResult(value=2.0 * total, error_estimate=2.0 * err, converged=ok,
                         evaluations=evals)


def coulson_vertex_energy(g: Graph, i: int, cfg: QuadratureConfig | None = None,
                          *, mode: str = MODE_SUBMATRIX) -> CoulsonResult:
    """Vertex energy by numerical integration; check ``converged`` and
    ``error_estimate`` on the result rather than trusting blindly."""
    _check_graph(g)
    if cfg is None:
        cfg = QuadratureConfig()
    f = coulson_integrand(g, i, mode=mode)
    raw = integrate_line(f, cfg)
    return CoulsonResult(
        value=raw.value / math.pi,
        error_estimate=raw.error_estimate / math.pi,
        converged=raw.converged,
        evaluations=raw.evaluations,
    )
