"""Dense symmetric linear algebra for degree-normalized adjacency matrices.

The eigendecomposition is LAPACK's symmetric solver (``numpy.linalg.eigh``).
Its accuracy is measured on every result rather than argued from the
algorithm: an ``EigenDecomposition`` carries the residual
``||R Y - Y Lambda||_F`` and the orthogonality defect ``||Y^T Y - I||_max``
of the very pair it holds, after small eigenvalues are clamped to zero.
The per-vertex energy formulas consume squared eigenvector entries, so
these two numbers are what a reader needs to judge them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, check_vertex

#: eigenvalues below this magnitude are snapped to exactly zero so that
#: rank decisions and zero-spectrum detectors are stable
ZERO_EIGENVALUE_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


class DegenerateDegreeError(ValueError):
    """Graph has an isolated vertex, so 1/sqrt(d_i d_j) is undefined."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending; column j of ``vectors`` spans eigenvalue j.

    ``residual`` is ``||M Y - Y Lambda||_F`` and ``orthogonality`` is
    ``max |Y^T Y - I|``, both measured on ``values`` and ``vectors`` as stored.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float
    orthogonality: float

    def __post_init__(self):
        self.values.flags.writeable = False
        self.vectors.flags.writeable = False

    @property
    def n(self) -> int:
        return self.values.shape[0]


def randic_matrix(g: Graph, *, allow_isolated: bool = False) -> np.ndarray:
    """Symmetric matrix with entries 1/sqrt(d_i d_j) on edges, 0 elsewhere.

    Built once per graph and kept on it: every call returns the same
    read-only array. Isolated vertices make the normalization undefined; with
    ``allow_isolated`` they simply contribute zero rows (used for
    characteristic polynomials of vertex-deleted graphs).
    """
    if not allow_isolated and 0 in g.degrees:
        isolated = [v for v in range(g.n) if g.degrees[v] == 0]
        raise DegenerateDegreeError(f"isolated vertices {isolated} have degree 0")
    r = g.__dict__.get("_randic_matrix")
    if r is None:
        lo, hi = g._edge_arrays
        d = np.array(g.degrees, dtype=float)
        r = np.zeros((g.n, g.n))
        # the bits of 1.0 / math.sqrt(d_u * d_v): the product of two exact
        # integers, a square root and a quotient, each rounded once
        r[lo, hi] = r[hi, lo] = 1.0 / np.sqrt(d[lo] * d[hi])
        r.flags.writeable = False
        g.__dict__["_randic_matrix"] = r  # only once filled: other threads may read it
    return r


def _require_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not exactly symmetric")
    return m


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M^T)/2, which is exactly symmetric in IEEE arithmetic."""
    return (m + m.T) / 2.0


def eigen_symmetric(m: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Eigenvalues with magnitude below ``ZERO_EIGENVALUE_TOL`` are clamped to
    exactly 0; the sort is stable, so degenerate clusters keep a
    deterministic column order. Raises ``ConvergenceError`` when LAPACK
    does not converge.
    """
    a = _require_symmetric(m)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolver did not converge on a {a.shape[0]}x{a.shape[0]} matrix: {exc}"
        ) from exc
    values[np.abs(values) < ZERO_EIGENVALUE_TOL] = 0.0
    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    gram = vectors.T @ vectors
    gram[np.diag_indices_from(gram)] -= 1.0
    return EigenDecomposition(
        values=values,
        vectors=vectors,
        residual=float(np.linalg.norm(a @ vectors - vectors * values)),
        orthogonality=float(np.abs(gram).max(initial=0.0)),
    )


def randic_spectrum(g: Graph) -> EigenDecomposition:
    """``eigen_symmetric(randic_matrix(g))``, solved once per graph and kept on it."""
    dec = g.__dict__.get("_randic_spectrum")
    if dec is None:
        dec = g.__dict__["_randic_spectrum"] = eigen_symmetric(randic_matrix(g))
    return dec


def matrix_abs(m: np.ndarray, *, decomposition: EigenDecomposition | None = None) -> np.ndarray:
    """Positive semidefinite |M| = Y |Lambda| Y^T for symmetric M."""
    if decomposition is None:
        decomposition = eigen_symmetric(m)
    y = decomposition.vectors
    result = (y * np.abs(decomposition.values)) @ y.T
    return symmetrize(result)


def power_diag(m: np.ndarray, k: int, i: int,
               *, decomposition: EigenDecomposition | None = None) -> float:
    """Diagonal entry (M^k)_{ii} via the spectral weights sum_j y_ij^2 lambda_j^k."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    if decomposition is None:
        decomposition = eigen_symmetric(m)
    check_vertex(decomposition.n, i)
    weights = decomposition.vectors[i, :] ** 2
    return float(np.dot(weights, decomposition.values ** k))
