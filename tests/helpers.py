"""Small constructions that only the tests need."""
import numpy as np

from randic_energy.graph import Graph


def relabel(g: Graph, permutation) -> Graph:
    """Graph with vertex i renamed to permutation[i]."""
    perm = list(permutation)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of 0..n-1")
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


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
