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
import numbers
from dataclasses import dataclass
from typing import NamedTuple

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
        for name in ("nodes_per_panel", "max_levels"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.nodes_per_panel < 8:
            raise ValueError("need at least 8 nodes per panel")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be positive and finite")
        if self.max_levels < 1:
            raise ValueError("need at least one refinement level")


_DEFAULT_CONFIG = QuadratureConfig()


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
    check_vertex(n, i)
    basis = np.zeros((n, n))  # row j is Lanczos vector j + 1
    basis[0, i] = 1.0
    w = r[i].copy()  # R e_i, as R is symmetric
    a: list[float] = []
    b2: list[float] = []
    for k in range(n):
        if k:
            np.matmul(r, basis[k], out=w)
        a.append(float(basis[k] @ w))
        if k + 1 == n:
            break
        done = basis[:k + 1]
        # classical Gram-Schmidt twice keeps the basis orthogonal to rounding
        w -= (done @ w) @ done
        w -= (done @ w) @ done
        norm2 = float(w @ w)
        if norm2 <= BREAKDOWN_TOL * BREAKDOWN_TOL:
            break
        b2.append(norm2)
        np.divide(w, math.sqrt(norm2), out=basis[k + 1])
    return np.array(a), np.array(b2)


def _on_real_line(body, at_zero=None):
    """body elementwise on arrays of any shape, at_zero() at x = 0 if given."""
    def f(x):
        x = np.asarray(x, dtype=float)
        if at_zero is None or x.all():
            out = body(x)
        else:
            nonzero = x != 0.0
            out = np.full(x.shape, at_zero())
            out[nonzero] = body(x[nonzero])
        return float(out) if out.ndim == 0 else out
    return f


def _resolvent_integrand(a: np.ndarray, b2: np.ndarray):
    # the coefficients as the complex scalars (c, 0) that numpy would promote
    # them to: the same arithmetic, without a conversion in every ufunc call
    shifts = a[:0:-1].astype(complex)
    scales = b2[::-1].astype(complex)
    head = complex(-a[0])
    subtract, divide = np.subtract, np.divide

    def body(x):
        z = 1j * x
        d = np.empty_like(z)
        tail = np.zeros_like(z)  # b_(j-1)^2 / d_j, from the bottom up
        for a_j, b2_j in zip(shifts, scales):
            subtract(z, a_j, d)
            subtract(d, tail, d)
            divide(b2_j, d, tail)
        numerator = subtract(head, tail, tail)  # d_1 - z
        return divide(numerator, np.add(z, numerator, d), d).real

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

#: the level-0 panels in t, [0, pi/4] and [pi/4, pi/2]: left and right ends
_LEVEL0 = (np.array([0.0, math.pi / 4]), np.array([math.pi / 4, math.pi / 2]))
_EPS = float(np.finfo(float).eps)


def _panel_points(lo: np.ndarray, width: np.ndarray, nodes: np.ndarray):
    """Half widths of the panels [lo_k, lo_k + width_k] in t, and x = tan(t)
    sin^2(t) and dx/dt at their Gauss-Legendre nodes, one row per panel.

    x ~ t^3 near 0 and x ~ tan(t) near pi/2. An eigenvalue theta near 0 puts
    a peak of width |theta| at x = 0, |theta|^(1/3) wide in t; under x = tan(t)
    peaks 1e-3 wide were under-resolved alike at both levels of the estimate."""
    half = 0.5 * width
    t = lo[:, None] + half[:, None] * (nodes + 1.0)
    s2 = np.sin(t) ** 2
    return half, np.tan(t) * s2, s2 * (3.0 - 2.0 * s2) / np.cos(t) ** 2


def _panel_sums(f, half: np.ndarray, x: np.ndarray, dxdt: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    """Gauss-Legendre sums of f dx over the panels of ``_panel_points``, one call of f."""
    return half * ((f(x) * dxdt) @ weights)


class _Rule(NamedTuple):
    """The Gauss-Legendre rule, and ``_panel_points`` of level 0: the two
    panels (rows 0-1), their left halves (rows 2-3) and right halves (4-5)."""
    nodes: np.ndarray
    weights: np.ndarray
    half: np.ndarray
    x: np.ndarray
    dxdt: np.ndarray


@functools.lru_cache(maxsize=8)
def _rule(nodes_per_panel: int) -> _Rule:
    """The read-only ``_Rule`` of a panel size, computed once."""
    nodes, weights = np.polynomial.legendre.leggauss(nodes_per_panel)
    a, b = _LEVEL0
    half = 0.5 * (b - a)
    rule = _Rule(nodes, weights, *_panel_points(
        np.concatenate([a, a, a + half]), np.concatenate([b - a, half, half]), nodes))
    for array in rule:
        array.flags.writeable = False
    return rule


def integrate_line(f, cfg: QuadratureConfig) -> CoulsonResult:
    """Adaptive composite Gauss-Legendre of an even f over R via x = tan(t) sin^2(t).

    ``f`` must be even: the result is twice the integral over t in [0, pi/2],
    taken on two panels of width pi/4 with tolerance ``cfg.tolerance / 4``
    each, and each half of an open panel gets half its tolerance. Refinement
    is breadth first: ``f`` is called once per level, on an array of x of
    shape (panel sums, nodes), and at most ``cfg.max_levels + 1`` times."""
    nodes, weights, *level0 = _rule(cfg.nodes_per_panel)
    rounding = cfg.nodes_per_panel * _EPS
    # the two panels' whole and half sums come from the same call
    sums = _panel_sums(f, *level0, weights)
    whole, left, right = sums.reshape(3, -1)
    evals = sums.size * nodes.size
    a, b = _LEVEL0
    total = 0.0
    err = 0.0
    ok = True
    for level in range(cfg.max_levels + 1):
        tol = cfg.tolerance / 4.0 * 0.5 ** level  # the same for every open panel
        pair = left + right
        # two sums can agree bit for bit while both carry rounding error: the
        # estimate never reads below the rounding of the finer sum, and a
        # panel whose difference is down at that floor is refined no further
        diff = ERROR_SAFETY * np.abs(pair - whole)
        floor = rounding * (np.abs(left) + np.abs(right))
        e = np.maximum(diff, floor)
        met = e <= tol
        final = met | (diff <= floor)
        if level == cfg.max_levels or final.all():
            total += float(pair.sum())
            err += float(e.sum())
            ok = ok and bool(met.all())
            break
        total += float(pair[final].sum())
        err += float(e[final].sum())
        ok = ok and bool(met[final].all())
        # each open panel becomes its two halves, whose whole sums are known
        split = ~final
        a, b = a[split], b[split]
        mid = a + 0.5 * (b - a)
        a, b = np.column_stack([a, mid]).ravel(), np.column_stack([mid, b]).ravel()
        whole = np.column_stack([left[split], right[split]]).ravel()
        half = 0.5 * (b - a)
        sums = _panel_sums(f, *_panel_points(np.concatenate([a, a + half]),
                                             np.concatenate([half, half]), nodes), weights)
        left, right = sums.reshape(2, -1)
        evals += sums.size * nodes.size
    return CoulsonResult(value=2.0 * total, error_estimate=2.0 * err, converged=ok,
                         evaluations=evals)


def coulson_vertex_energy(g: Graph, i: int, cfg: QuadratureConfig | None = None,
                          *, mode: str = MODE_SUBMATRIX) -> CoulsonResult:
    """Vertex energy by numerical integration; check ``converged`` and
    ``error_estimate`` on the result rather than trusting blindly."""
    _check_graph(g)
    raw = integrate_line(coulson_integrand(g, i, mode=mode),
                         _DEFAULT_CONFIG if cfg is None else cfg)
    return CoulsonResult(raw.value / math.pi, raw.error_estimate / math.pi,
                         raw.converged, raw.evaluations)
