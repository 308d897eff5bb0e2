"""Small constructions that only the tests need."""
import json
import math

import numpy as np

from randic_energy.cli import NonFiniteError
from randic_energy.graph import MAX_VERTICES, Graph, GraphParseError, check_vertex


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


def parse_edge_list_per_line(text: str) -> tuple[Graph, list[str]]:
    """The edge-list reader one line at a time, with repeats found by a set:
    the graph, the duplicate warnings, and every error's type and message."""
    declared_n = None
    pairs, linenos = [], []
    first_content_line = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if first_content_line and (
            tokens[0] == "n" and len(tokens) == 2 or len(tokens) == 1
        ):
            count_token = tokens[1] if tokens[0] == "n" else tokens[0]
            try:
                declared_n = int(count_token)
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad vertex count {count_token!r}")
            if declared_n < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be >= 1")
            first_content_line = False
            continue
        first_content_line = False
        if len(tokens) != 2:
            raise GraphParseError(f"line {lineno}: expected '<u> <v>', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex id in {line!r}")
        if u < 1 or v < 1:
            raise GraphParseError(f"line {lineno}: vertex ids are 1-based, got {line!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        pairs.append((u - 1, v - 1))
        linenos.append(lineno)

    if declared_n is None and not pairs:
        raise GraphParseError("empty input: no header and no edges")
    max_id = max((x for pair in pairs for x in pair), default=-1) + 1
    n = declared_n if declared_n is not None else max_id
    if declared_n is not None and max_id > declared_n:
        raise GraphParseError(
            f"edge references vertex {max_id} but header declares n={declared_n}"
        )
    if n > MAX_VERTICES:
        raise GraphParseError(f"vertex count {n} exceeds {MAX_VERTICES}")
    seen, warnings = set(), []
    for (u, v), lineno in zip(pairs, linenos):
        key = (min(u, v), max(u, v))
        if key in seen:
            warnings.append(f"line {lineno}: duplicate edge {u + 1} {v + 1} ignored")
        seen.add(key)
    return Graph.from_edges(n, sorted(seen)), warnings


def induced_subgraph_per_edge(g: Graph, vertices) -> Graph:
    """Induced subgraph by a dict lookup per edge, relabeled in sorted order."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph.from_edges(len(keep), edges)


def delete_vertex_per_edge(g: Graph, v: int) -> Graph:
    check_vertex(g.n, v)
    return induced_subgraph_per_edge(g, [u for u in range(g.n) if u != v])


def disjoint_union_per_edge(g1: Graph, g2: Graph) -> Graph:
    edges = list(g1.edges) + [(u + g1.n, v + g1.n) for u, v in g2.edges]
    return Graph.from_edges(g1.n + g2.n, edges)
