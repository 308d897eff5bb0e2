"""Simple undirected graphs: parsing, structural queries, and vertex surgery.

Vertices are 0-based internally; edge-list files use 1-based ids. Graphs
are immutable; what they memoise (edge arrays, edge set, connectivity, and
``spectral``'s R and spectrum) is computed at most once per thread race and
published only once filled, and any copy is equal, so graphs are safe to
share across threads.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
from collections import deque
from dataclasses import dataclass

import numpy as np

#: the largest vertex count whose edge keys ``u * n + v`` fit in an int64
MAX_VERTICES = math.isqrt(np.iinfo(np.int64).max)


class GraphParseError(ValueError):
    """Malformed edge-list input."""


class DisconnectedGraphError(ValueError):
    """Operation requires a connected graph."""


def check_vertex(n: int, i: int) -> None:
    """Raise ``ValueError`` unless ``i`` names one of the vertices 0..n-1."""
    if not 0 <= i < n:
        raise ValueError(f"vertex {i} out of range for n={n}")


def _checked_pairs(n: int, pairs) -> np.ndarray:
    """The pairs checked one by one as they stand, so that no float, string
    or oversized id is ever rounded, parsed or wrapped into a vertex: raises
    at the first that is not two integer ids of distinct vertices in 0..n-1,
    and otherwise returns them as a (2, m) int64 array."""
    for u, v in pairs:
        for x in (u, v):
            if not isinstance(x, (int, np.integer)):
                raise TypeError(f"vertex id {x!r} of edge ({u!r}, {v!r}) is not an integer")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


def _check_vertex_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds {MAX_VERTICES}")


def _adjacency_core(n: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The graph's edge structure from a (2, m) int64 array of pairs, by one sort.

    Each pair gives both orientations, as keys ``u * n + v`` and ``v * n + u``;
    sorted with repeats dropped, they are the row-major positions of the
    adjacency matrix's ones. Returns their rows ``src`` and columns ``dst``,
    the mask of ``src < dst`` (one entry per edge, in edge order), and the
    input positions, ascending, of the pairs that repeat an earlier one.

    Raises ``ValueError`` for a vertex count outside 1..MAX_VERTICES, an id
    outside 0..n-1 or a self-loop.
    """
    _check_vertex_count(n)
    keys = np.ravel_multi_index((a, a[::-1]), (n, n))
    flat = keys.flatten()
    flat.sort()
    src, dst = np.unravel_index(flat, (n, n))
    repeats: list[int] = []
    later = flat[1:] == flat[:-1]
    if np.count_nonzero(later):  # a self-loop's two keys are equal too
        loops = np.flatnonzero(a[0] == a[1])
        if loops.size:
            raise ValueError(f"self-loop at vertex {a[0, loops[0]]}")
        # with each pair's two keys side by side, a stable sort keeps input
        # order within each run of equal keys: the first entry of the run
        # of (lo, hi), lo < hi, is the earliest pair that gives the edge
        order = np.argsort(keys.ravel(order="F"), kind="stable")
        later = np.concatenate(([False], later))
        repeats = np.sort(order[later & (src < dst)] // 2).tolist()
        src, dst = src[~later], dst[~later]
    return src, dst, src < dst, repeats


def _adjacency_entries(n: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """``_adjacency_core`` on an iterable of (u, v) pairs.

    Raises ``TypeError`` for an id that is not an integer and ``ValueError``
    for a self-loop or an id outside 0..n-1, naming the first such pair in
    input order.
    """
    _check_vertex_count(n)
    pairs = edges if isinstance(edges, (list, tuple)) else list(edges)
    try:
        # one column per pair; strict, so that every pair has two items
        a = np.array(tuple(zip(*pairs, strict=True)))
    except (TypeError, ValueError):
        a = None
    if a is None or a.dtype != np.int64 or a.shape != (2, len(pairs)):
        a = _checked_pairs(n, pairs)
    try:
        return _adjacency_core(n, a)
    except ValueError:  # an id outside 0..n-1 or a loop: name the first bad pair
        _checked_pairs(n, pairs)
        raise


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1 (no loops, no multi-edges)."""

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        """Build a graph from an iterable of (u, v) pairs; duplicates collapse.

        Raises ``TypeError`` for an id that is not an integer and
        ``ValueError`` for a self-loop or an id outside 0..n-1.
        """
        return cls._from_entries(n, *_adjacency_entries(n, edges)[:3])

    @classmethod
    def _from_entries(cls, n: int, src: np.ndarray, dst: np.ndarray,
                      upper: np.ndarray) -> Graph:
        lo, hi = _read_only(src[upper], dst[upper])
        degrees = np.bincount(src, minlength=n).tolist()
        # entries run row by row, each row's columns ascending
        neighbours = dst.tolist()
        ends = list(itertools.accumulate(degrees))
        # tuples built from lists, not iterators: tuple(<iterator>) resizes a
        # guessed-length tuple, which drains CPython's per-length free lists
        # into other lengths and grows a long-running process's memory
        adjacency = tuple([tuple(neighbours[a:b]) for a, b in zip([0] + ends, ends)])
        g = cls(n=n, edges=tuple(list(zip(lo.tolist(), hi.tolist()))),
                adjacency=adjacency, degrees=tuple(degrees))
        g.__dict__["_edge_arrays"] = (lo, hi)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set

    # cached_property writes the instance __dict__ directly, past frozen=True
    @functools.cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only int64 arrays ``(lo, hi)`` of ``edges``; ``from_edges``
        fills them in as it builds the graph."""
        src, dst, upper, _ = _adjacency_entries(self.n, self.edges)
        return _read_only(src[upper], dst[upper])

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

    A text in ``_BULK_GRAMMAR`` whose ids pass their checks and repeat no
    edge is read in one pass over arrays; every other text, and every error
    and warning, comes from the per-line reader, with the same result.
    """
    graph = _parse_bulk(text)
    if graph is not None:
        return graph, []
    return _parse_lines(text)


_ID = r"[0-9]{1,18}"  # ASCII decimal that fits an int64
# a comment runs to the line's end and holds no character at which
# str.splitlines breaks a line, so it never hides a line from the
# per-line reader
_COMMENT = r"(?:#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*|)"
_BLANK = rf"[ \t]*{_COMMENT}"
#: Edge-list texts read in bulk: blank and comment lines, then optionally a
#: header ``n <count>`` or ``<count>`` as the first content line, then pair
#: lines; spaces and tabs only, LF or CRLF line ends. A line fits one branch
#: at most, so a failed match backtracks over each character a bounded
#: number of times and the check stays linear in the text's length.
_BULK_GRAMMAR = re.compile(
    rf"(?:{_BLANK}\r?\n)*"
    rf"(?:[ \t]*(?:(?:n[ \t]+)?({_ID})|{_ID}[ \t]+{_ID})[ \t]*{_COMMENT}"  # header or pair
    rf"(?:\r?\n[ \t]*(?:{_ID}[ \t]+{_ID}[ \t]*|){_COMMENT})*"  # then pairs and blanks
    rf"|{_BLANK})"
)
_COMMENTS = re.compile(r"#[^\n]*")


def _parse_bulk(text: str) -> Graph | None:
    """The graph of a text in ``_BULK_GRAMMAR`` whose ids are valid and give
    no edge twice, or ``None``, leaving the text to the per-line reader."""
    match = _BULK_GRAMMAR.fullmatch(text)
    if match is None:
        return None
    header = match.group(1)
    body = text if header is None else text[match.end(1):]
    if "#" in body:
        body = _COMMENTS.sub("", body)
    # the grammar leaves fromstring nothing but ids and whitespace to read;
    # its text mode reads a string of whitespace alone as [0]
    ids = (np.empty(0, dtype=np.int64) if body.isspace()
           else np.fromstring(body, dtype=np.int64, sep=" "))
    n = int(ids.max(initial=0)) if header is None else int(header)
    if not 1 <= n <= MAX_VERTICES or ids.size and not 1 <= ids.min() <= ids.max() <= n:
        return None
    pairs = ids.reshape(-1, 2).T - 1
    if np.count_nonzero(pairs[0] == pairs[1]):
        return None
    src, dst, upper, repeats = _adjacency_core(n, pairs)
    if repeats:  # the per-line reader names each repeat's line
        return None
    return Graph._from_entries(n, src, dst, upper)


def _parse_lines(text: str) -> tuple[Graph, list[str]]:
    """``parse_edge_list_report`` one line at a time, naming the first bad
    line and each repeated edge's line."""
    declared_n: int | None = None
    pairs: list[tuple[int, int]] = []
    linenos: list[int] = []
    first_content_line = True

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        header = tokens[0] == "n" and len(tokens) == 2
        if first_content_line and (header or len(tokens) == 1):
            count_token = tokens[1] if header else tokens[0]
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
    max_id = max(itertools.chain.from_iterable(pairs), default=-1) + 1
    n = declared_n if declared_n is not None else max_id
    if declared_n is not None and max_id > declared_n:
        raise GraphParseError(
            f"edge references vertex {max_id} but header declares n={declared_n}"
        )
    try:
        src, dst, upper, repeats = _adjacency_entries(n, pairs)
    except ValueError as exc:  # a vertex count past MAX_VERTICES
        raise GraphParseError(str(exc)) from None
    warnings = [f"line {linenos[j]}: duplicate edge {pairs[j][0] + 1} {pairs[j][1] + 1} ignored"
                for j in repeats]
    return Graph._from_entries(n, src, dst, upper), warnings


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
    for v in keep[:1] + keep[-1:]:
        check_vertex(g.n, v)
    new = np.full(g.n, -1, dtype=np.int64)
    new[keep] = np.arange(len(keep))
    return _relabelled(g, new, len(keep))


def _relabelled(g: Graph, new: np.ndarray, k: int) -> Graph:
    """The graph on k vertices of g's edges whose ends u, v both have
    ``new[u], new[v] >= 0``, renamed ``(new[u], new[v])``."""
    lo, hi = g._edge_arrays
    a = np.stack((new[lo], new[hi]))
    a = a[:, (a >= 0).all(axis=0)]
    return Graph._from_entries(k, *_adjacency_core(k, a)[:3])


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
    check_vertex(g.n, v)
    new = np.arange(g.n)
    new[v + 1:] -= 1
    new[v] = -1
    return _relabelled(g, new, g.n - 1)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Vertex-disjoint union; g2's ids are shifted up by g1.n."""
    a = np.hstack((np.stack(g1._edge_arrays), np.stack(g2._edge_arrays) + g1.n))
    n = g1.n + g2.n
    return Graph._from_entries(n, *_adjacency_core(n, a)[:3])


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
