"""Closed-form bounds on per-vertex energies, with equality-case detection.

Every per-vertex bound is a formula in three vectors over the vertices:
S = diag(R^2), Q = diag(R^4) and gamma = d/2m. The entry (R^2)_ij is
(1/sqrt(d_i d_j)) times the sum of 1/d_k over the common neighbours k of i
and j, so one product R2 = R @ R gives S as its diagonal and Q as the row
sums of R2 * R2 (R2 is symmetric). No eigensolve is involved, so the bounds
are an independent check on the spectral pipeline. ``UPPER_BOUNDS`` and
``LOWER_BOUNDS`` hold each formula once; the report pairs every bound with
its slack and flags vertices where a bound is attained.

``bounds_report`` returns fully built rows: every ``BoundValue``, an
immutable named tuple, exists when the call returns. It evaluates each
formula, slack and equality flag as one array over the vertices and makes
the rows from those columns in bulk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import (
    Graph,
    check_vertex,
    friendship_hub,
    is_complete,
    is_complete_bipartite,
    star_center,
)
from .energy import ordered_sum, vertex_energies
from .spectral import randic_matrix

#: numerical tolerance for declaring a bound attained
EQUALITY_TOL = 1e-7

#: slack below this is treated as a genuine bound violation
VIOLATION_TOL = 1e-9

#: reported but kept out of hard assertions until the audit over the
#: random suite (scripts/holder_audit.py) clears it
REPORT_ONLY = ("lower_holder",)


def _refined(s: np.ndarray, q: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Sharper Cauchy-Schwarz split that peels off the Perron weight d_i/2m."""
    radicand = (s - gamma) * (1.0 - gamma)
    i = int(radicand.argmin())
    if radicand[i] < -1e-12:
        raise ValueError(f"negative radicand {radicand[i]} at vertex {i}")
    return gamma + np.sqrt(np.maximum(radicand, 0.0))


def _holder(s: np.ndarray, q: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """S_i^{3/2} / sqrt(Q_i); attained on complete bipartite graphs."""
    i = int(q.argmin())
    if q[i] <= 0.0:
        raise ValueError(f"(R^4)_{i}{i} must be positive on a connected graph")
    return s ** 1.5 / np.sqrt(q)


#: name -> formula over (S, Q, gamma), one value per vertex
UPPER_BOUNDS = {
    "unit": lambda s, q, gamma: np.ones_like(s),
    "cauchy_schwarz": lambda s, q, gamma: np.sqrt(s),
    "refined": _refined,
    "series2": lambda s, q, gamma: 0.5 * (s + 1.0),
    "series3": lambda s, q, gamma: 0.375 + 0.75 * s - 0.125 * q,
}
LOWER_BOUNDS = {
    "lower_r2": lambda s, q, gamma: s,
    "lower_holder": _holder,
}


def upper_regular(n: int, k: int) -> float:
    """The refined bound specialized to k-regular graphs on n vertices."""
    if not (1 <= k <= n - 1):
        raise ValueError(f"regular degree k={k} must satisfy 1 <= k <= n-1={n - 1}")
    return 1.0 / n + math.sqrt((1.0 / k - 1.0 / n) * (1.0 - 1.0 / n))


def adjacent_product_lower(g: Graph, i: int, j: int) -> float:
    """Lower bound 1/(d_i d_j) on the product of two adjacent vertex energies."""
    check_vertex(g.n, i)
    check_vertex(g.n, j)
    if not g.has_edge(i, j):
        raise ValueError(f"vertices {i} and {j} are not adjacent")
    return 1.0 / (g.degrees[i] * g.degrees[j])


def general_randic_index(g: Graph, alpha: float) -> float:
    """R^(alpha) = sum over edges of (d_u d_v)^alpha."""
    if g.m == 0:
        raise ValueError("graph has no edges")
    return ordered_sum((g.degrees[u] * g.degrees[v]) ** alpha for u, v in g.edges)


# ------------------------------------------------------------------ report

class BoundValue(NamedTuple):
    """One bound at one vertex."""

    name: str
    value: float
    kind: str  # "upper" or "lower"
    slack: float  # always oriented so that slack >= 0 means the bound holds
    equal: bool
    equality_case: str | None
    asserted: bool


@dataclass(frozen=True)
class VertexBounds:
    vertex: int
    energy: float
    s: float
    q: float
    bounds: tuple[BoundValue, ...]

    def bound(self, name: str) -> BoundValue:
        for b in self.bounds:
            if b.name == name:
                return b
        raise KeyError(name)


@dataclass(frozen=True)
class BoundsReport:
    n: int
    m: int
    energy_total: float
    vertices: tuple[VertexBounds, ...]
    randic_index_minus1: float
    graph_lower: float  # 2 * R^(-1)
    graph_upper: float  # sum of sqrt(S_i)
    holder_valid: bool  # no vertex violates the Holder bound beyond tolerance

    def violations(self, *, include_unasserted: bool = False) -> list[tuple[int, str, float]]:
        out = []
        for vb in self.vertices:
            for b in vb.bounds:
                if not b.asserted and not include_unasserted:
                    continue
                if b.slack < -VIOLATION_TOL:
                    out.append((vb.vertex, b.name, b.slack))
        return out


def _equality_labels(g: Graph) -> list[str | None]:
    """Structural label of each vertex, attached to the bounds it attains."""
    if g.n == 2:
        return ["k2", "k2"]
    center = star_center(g)
    if center is not None:
        return ["star-center" if i == center else "star-leaf" for i in range(g.n)]
    if is_complete(g):
        return ["complete-graph"] * g.n
    if is_complete_bipartite(g):
        return ["complete-bipartite"] * g.n
    hub = friendship_hub(g)
    if hub is not None:
        # every vertex of a friendship graph attains the refined upper
        # bound exactly: 1/3 + sqrt(1/6 * 2/3) = 2/3 at the hub and
        # (3t+1)/(6t) at the outer vertices, independent of t
        return ["friendship-hub" if i == hub else "friendship-leaf" for i in range(g.n)]
    return [None] * g.n


def bounds_report(g: Graph, *, equality_tol: float = EQUALITY_TOL) -> BoundsReport:
    vec = vertex_energies(g)
    r = randic_matrix(g)
    r2 = r @ r
    s = np.diag(r2)
    q = (r2 * r2).sum(axis=1)
    gamma = np.asarray(g.degrees, dtype=float) / (2.0 * g.m)
    names, kinds, formulas = zip(*(
        (name, kind, f) for kind, table in (("upper", UPPER_BOUNDS), ("lower", LOWER_BOUNDS))
        for name, f in table.items()))
    values = np.stack([f(s, q, gamma) for f in formulas])  # (bounds, n)
    energies = np.array(vec.energies)
    upper = np.array([kind == "upper" for kind in kinds])[:, None]
    slack = np.where(upper, values - energies, energies - values)
    equal = np.abs(slack) <= equality_tol
    labels = _equality_labels(g)

    # one vertex's bounds are consecutive, in table order; Python floats
    # throughout, so the report serializes as plain JSON
    n, count = g.n, len(names)
    rows = list(map(BoundValue._make, zip(
        names * n,
        values.T.ravel().tolist(),
        kinds * n,
        slack.T.ravel().tolist(),
        equal.T.ravel().tolist(),
        [label if eq else None
         for label, flags in zip(labels, equal.T.tolist()) for eq in flags],
        [name not in REPORT_ONLY for name in names] * n,
    )))
    vertices = tuple([
        VertexBounds(vertex=i, energy=actual, s=s_i, q=q_i,
                     bounds=tuple(rows[i * count:(i + 1) * count]))
        for i, (actual, s_i, q_i) in enumerate(zip(vec.energies, s.tolist(), q.tolist()))
    ])

    r_minus1 = general_randic_index(g, -1.0)
    holder = names.index("lower_holder")
    return BoundsReport(
        n=g.n,
        m=g.m,
        energy_total=vec.total,
        vertices=vertices,
        randic_index_minus1=r_minus1,
        graph_lower=2.0 * r_minus1,
        graph_upper=ordered_sum(values[names.index("cauchy_schwarz")].tolist()),
        holder_valid=bool((slack[holder] >= -VIOLATION_TOL).all()),
    )
