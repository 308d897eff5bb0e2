"""Simple undirected graphs: parsing, structural queries, and vertex surgery.

Vertices are 0-based internally; edge-list files use 1-based ids. Graphs
are immutable; what they memoise (edge set, connectivity, and ``spectral``'s
R and spectrum) is computed at most once per thread race, and any copy is
equal, so graphs are safe to share across threads.
"""
from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass


class GraphParseError(ValueError):
    """Malformed edge-list input."""


class DisconnectedGraphError(ValueError):
    """Operation requires a connected graph."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1 (no loops, no multi-edges)."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        """Build a graph from an iterable of (u, v) pairs; duplicates collapse."""
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        canonical = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            canonical.add((u, v) if u < v else (v, u))
        edge_tuple = tuple(sorted(canonical))
        # every (w, x) with w < x sorts before every (x, y), so each
        # neighbour list comes out ascending
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_tuple:
            neighbors[u].append(v)
            neighbors[v].append(u)
        # tuples built from lists, not generators: tuple(<generator>) resizes a
        # guessed-length tuple, which drains CPython's per-length free lists
        # into other lengths and grows a long-running process's memory
        adjacency = tuple([tuple(ns) for ns in neighbors])
        degrees = tuple([len(ns) for ns in adjacency])
        return cls(n=n, edges=edge_tuple, adjacency=adjacency, degrees=degrees)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set

    # cached_property writes the instance __dict__ directly, past frozen=True
    @functools.cached_property
    def _edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @functools.cached_property
    def _connected(self) -> bool:
        seen = [True] + [False] * (self.n - 1)
        queue = deque([0])
        while queue:
            for v in self.adjacency[queue.popleft()]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return all(seen)


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring of a bipartite graph; side_a contains vertex 0."""

    side_a: frozenset[int]
    side_b: frozenset[int]


def parse_edge_list(text: str) -> Graph:
    graph, _ = parse_edge_list_report(text)
    return graph


def parse_edge_list_report(text: str) -> tuple[Graph, list[str]]:
    """Parse edge-list text, returning the graph and ingestion warnings.

    Format: optional header line ``n <count>`` (a bare integer is accepted
    too), then one ``<u> <v>`` pair per line with 1-based ids. ``#`` starts
    a comment; blank lines are skipped. Duplicate edges are collapsed and
    counted as warnings.
    """
    declared_n: int | None = None
    raw_edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    warnings: list[str] = []
    max_id = 0
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
        max_id = max(max_id, u, v)
        key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
        if key in seen:
            warnings.append(f"line {lineno}: duplicate edge {u} {v} ignored")
            continue
        seen.add(key)
        raw_edges.append(key)

    if declared_n is None and not raw_edges:
        raise GraphParseError("empty input: no header and no edges")
    n = declared_n if declared_n is not None else max_id
    if declared_n is not None and max_id > declared_n:
        raise GraphParseError(
            f"edge references vertex {max_id} but header declares n={declared_n}"
        )
    return Graph.from_edges(n, raw_edges), warnings


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text (1-based ids, sorted edges, with header)."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def is_connected(g: Graph) -> bool:
    """Whether every vertex is reachable from vertex 0; one BFS per graph."""
    return g._connected


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted ascending."""
    seen = [False] * g.n
    components: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        comp = [start]
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        components.append(sorted(comp))
    return components


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on the given vertices, relabeled 0..k-1 in sorted order."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return Graph.from_edges(len(keep), edges)


def bipartition(g: Graph) -> Bipartition | None:
    """2-coloring of a connected graph, or None if an odd cycle exists."""
    if not is_connected(g):
        raise DisconnectedGraphError("bipartition requires a connected graph")
    color = [-1] * g.n
    color[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if color[v] == -1:
                color[v] = 1 - color[u]
                queue.append(v)
            elif color[v] == color[u]:
                return None
    side_a = frozenset(v for v in range(g.n) if color[v] == 0)
    side_b = frozenset(v for v in range(g.n) if color[v] == 1)
    return Bipartition(side_a=side_a, side_b=side_b)


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove v and its edges; remaining ids compact down preserving order."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    return induced_subgraph(g, [u for u in range(g.n) if u != v])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Vertex-disjoint union; g2's ids are shifted up by g1.n."""
    edges = list(g1.edges) + [(u + g1.n, v + g1.n) for u, v in g2.edges]
    return Graph.from_edges(g1.n + g2.n, edges)


# Structural classifiers used by the bound equality-case detectors.

def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def star_center(g: Graph) -> int | None:
    """Center vertex id if g is a star (K_{1,n-1}), else None.

    For n == 2 both vertices qualify; the smaller id is returned.
    """
    if g.m != g.n - 1:
        return None
    for v in range(g.n):
        if g.degrees[v] == g.n - 1:
            return v
    return None


def is_complete_bipartite(g: Graph) -> bool:
    if not is_connected(g):
        return False
    parts = bipartition(g)
    return parts is not None and g.m == len(parts.side_a) * len(parts.side_b)


def friendship_hub(g: Graph) -> int | None:
    """Center vertex id if g is a friendship graph (t >= 2 triangles glued
    at one vertex), else None.

    One vertex adjacent to everything plus all others of degree 2 forces
    the outer vertices into disjoint adjacent pairs, so no further
    structure needs checking. The single triangle (t = 1) is K_3 and is
    deliberately not matched here.
    """
    if g.n < 5 or g.n % 2 == 0:
        return None
    hubs = [v for v in range(g.n) if g.degrees[v] == g.n - 1]
    if len(hubs) != 1:
        return None
    if any(g.degrees[v] != 2 for v in range(g.n) if v != hubs[0]):
        return None
    return hubs[0]
