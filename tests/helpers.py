"""Small constructions that only the tests need."""
import json
import math

import numpy as np

from randic_energy.cli import NonFiniteError
from randic_energy.graph import Graph


def relabel(g: Graph, permutation) -> Graph:
    """Graph with vertex i renamed to permutation[i]."""
    perm = list(permutation)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of 0..n-1")
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def randic_matrix_per_edge(g: Graph) -> np.ndarray:
    """R built one edge at a time, isolated vertices left as zero rows."""
    r = np.zeros((g.n, g.n))
    for u, v in g.edges:
        r[u, v] = r[v, u] = 1.0 / math.sqrt(g.degrees[u] * g.degrees[v])
    return r


def friendship_hub_weights() -> tuple[float, float, float]:
    """Spectral weights of the friendship hub across the three eigenvalue groups.

    Solves the moment system sum_g x_g lambda_g^k = m_k for k = 0, 1, 2 with
    lambda = (1, 1/2, -1/2) and hub moments (1, 0, 1/2); the solution is
    (1/3, 0, 2/3) for every triangle count.
    """
    lams = np.array([1.0, 0.5, -0.5])
    vander = np.vstack([lams ** k for k in range(3)])
    moments = np.array([1.0, 0.0, 0.5])
    x = np.linalg.solve(vander, moments)
    return float(x[0]), float(x[1]), float(x[2])


def reference_json(obj) -> str:
    """The CLI's JSON encoding written as plain recursion: floats at 17
    significant digits, always with a "." or an exponent, and
    ``NonFiniteError`` on NaN or an infinity."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteError(f"report value {obj} has no JSON form")
        out = "%.17g" % obj
        if not any(c in out for c in ".e"):
            out += ".0"
        return out
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {reference_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(reference_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def faddeev_leverrier(m, dtype=float) -> np.ndarray:
    """Coefficients of det(xI - M) by the unblocked trace recurrence
    M_k = M (M_{k-1} + c_{k-1} I), c_k = -trace(M_k)/k, in ``dtype``."""
    m = np.asarray(m, dtype=dtype)
    n = m.shape[0]
    coeffs = [dtype(1)]
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ (mk + coeffs[-1] * np.eye(n, dtype=dtype))
        coeffs.append(-np.trace(mk) / k)
    return np.array(coeffs)
