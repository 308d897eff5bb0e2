import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randic_energy.graph import (
    DisconnectedGraphError,
    Graph,
    GraphParseError,
    bipartition,
    connected_components,
    delete_vertex,
    disjoint_union,
    friendship_hub,
    induced_subgraph,
    is_complete,
    is_complete_bipartite,
    is_connected,
    parse_edge_list,
    parse_edge_list_report,
    serialize_edge_list,
    star_center,
)
from randic_energy.families import FamilyKind, FamilySpec, generate
from randic_energy.random_graphs import (
    random_connected_bipartite_graph,
    random_connected_graph,
    random_suite,
)
from helpers import relabel
import random


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# ---------------------------------------------------------------- construction

def test_from_edges_dedupes_and_orients():
    g = Graph.from_edges(3, [(1, 0), (0, 1), (2, 1)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.m == 2
    assert g.degrees == (1, 2, 1)


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_adjacency_sorted():
    g = Graph.from_edges(4, [(0, 3), (0, 1), (0, 2)])
    assert g.adjacency[0] == (1, 2, 3)
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(1, 2)


def _sorted_reference(n, edges):
    """Graph.from_edges with every neighbour list sorted on its own."""
    canonical = sorted({(min(u, v), max(u, v)) for u, v in edges})
    neighbors = [[] for _ in range(n)]
    for u, v in canonical:
        neighbors[u].append(v)
        neighbors[v].append(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
    return Graph(n=n, edges=tuple(canonical), adjacency=adjacency,
                 degrees=tuple(len(ns) for ns in adjacency))


FAMILY_SPECS = (
    [FamilySpec(kind, n=n) for kind in (FamilyKind.COMPLETE, FamilyKind.STAR,
                                        FamilyKind.PATH) for n in range(2, 13)]
    + [FamilySpec(FamilyKind.CYCLE, n=n) for n in range(3, 13)]
    + [FamilySpec(FamilyKind.COMPLETE_BIPARTITE, n1=a, n2=b)
       for a in range(1, 6) for b in range(1, 6)]
    + [FamilySpec(FamilyKind.FRIENDSHIP, triangles=t) for t in range(1, 7)]
)


def test_from_edges_neighbour_lists_come_out_sorted():
    assert {spec.kind for spec in FAMILY_SPECS} == set(FamilyKind)
    rng = random.Random(9001)
    graphs = random_suite(9001, 200)
    graphs += [random_connected_bipartite_graph(rng, n, 0.5) for n in range(2, 21)]
    graphs += [generate(spec) for spec in FAMILY_SPECS]
    for g in graphs:
        # renamed, flipped and shuffled, so the input order carries no hint
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v])
                 for u, v in g.edges]
        rng.shuffle(edges)
        for pairs in (g.edges, edges):
            assert Graph.from_edges(g.n, pairs) == _sorted_reference(g.n, pairs)


def test_handshake():
    for g in [path(5), cycle(6), complete(4)]:
        assert sum(g.degrees) == 2 * g.m


# ---------------------------------------------------------------- parsing

SAMPLE = """\
# a comment
n 4
1 2
2 3

3 4
"""


def test_parse_basic():
    g = parse_edge_list(SAMPLE)
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_parse_bare_integer_header():
    g = parse_edge_list("3\n1 2\n2 3\n")
    assert g.n == 3 and g.m == 2


def test_parse_roundtrip():
    g = parse_edge_list(SAMPLE)
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_parse_rejects_vertex_zero():
    with pytest.raises(GraphParseError, match="1-based"):
        parse_edge_list("n 3\n0 1\n")


def test_parse_rejects_vertex_beyond_header():
    with pytest.raises(GraphParseError):
        parse_edge_list("n 3\n1 4\n")


def test_parse_rejects_garbage_line():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edge_list("n 3\none two\n")


def test_parse_rejects_empty():
    with pytest.raises(GraphParseError):
        parse_edge_list("# nothing\n")


def test_parse_warns_on_duplicate_edge():
    g, warnings = parse_edge_list_report("n 3\n1 2\n2 1\n2 3\n")
    assert g.m == 2
    assert any("duplicate" in w for w in warnings)


def test_serialize_is_canonical():
    g1 = parse_edge_list("n 3\n2 3\n1 2\n")
    g2 = parse_edge_list("n 3\n1 2\n2 3\n")
    assert serialize_edge_list(g1) == serialize_edge_list(g2)


# ---------------------------------------------------------------- connectivity

def test_connected_examples():
    assert is_connected(path(4))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph.from_edges(1, []))


def test_components():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    comps = connected_components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]


def test_induced_subgraph_relabels_compactly():
    g = cycle(5)
    h = induced_subgraph(g, [1, 2, 4])
    assert h.n == 3
    assert h.edges == ((0, 1),)  # only the 1-2 edge survives


def test_delete_vertex_counts():
    g = cycle(5)
    for v in range(5):
        h = delete_vertex(g, v)
        assert h.n == 4
        assert h.m == g.m - g.degrees[v]


def test_disjoint_union_shifts():
    g = disjoint_union(path(2), path(3))
    assert g.n == 5
    assert g.edges == ((0, 1), (2, 3), (3, 4))


def test_relabel_preserves_structure():
    g = path(4)
    h = relabel(g, (3, 2, 1, 0))
    assert sorted(h.degrees) == sorted(g.degrees)
    assert h.edges == ((0, 1), (1, 2), (2, 3))


# ---------------------------------------------------------------- bipartition

def _has_odd_cycle(g):
    # brute force: try all 2-colorings (only used on small n)
    for mask in range(2 ** g.n):
        colors = [(mask >> v) & 1 for v in range(g.n)]
        if all(colors[u] != colors[v] for u, v in g.edges):
            return False
    return True


def test_bipartition_on_even_cycle():
    part = bipartition(cycle(6))
    assert part is not None
    assert {0, 2, 4} in (set(part.side_a), set(part.side_b))


def test_bipartition_rejects_odd_cycle():
    assert bipartition(cycle(5)) is None


def test_bipartition_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        bipartition(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_bipartition_side_a_contains_zero():
    part = bipartition(path(5))
    assert 0 in part.side_a


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=8))
def test_bipartition_matches_bruteforce(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    part = bipartition(g)
    if _has_odd_cycle(g):
        assert part is None
    else:
        assert part is not None
        sides = (part.side_a, part.side_b)
        for u, v in g.edges:
            assert (u in sides[0]) != (v in sides[0])
        assert part.side_a | part.side_b == set(range(g.n))
        assert not (part.side_a & part.side_b)


# ---------------------------------------------------------------- classifiers

def test_is_complete():
    assert is_complete(complete(5))
    assert not is_complete(cycle(5))
    assert is_complete(complete(2))


def test_star_center():
    star = Graph.from_edges(5, [(0, j) for j in range(1, 5)])
    assert star_center(star) == 0
    assert star_center(path(2)) == 0  # K_2 is the degenerate star
    assert star_center(path(4)) is None
    assert star_center(cycle(4)) is None


def test_is_complete_bipartite():
    k23 = Graph.from_edges(5, [(a, b) for a in range(2) for b in range(2, 5)])
    assert is_complete_bipartite(k23)
    assert is_complete_bipartite(cycle(4))  # C_4 == K_{2,2}
    assert not is_complete_bipartite(path(4))
    assert not is_complete_bipartite(complete(3))


def test_friendship_hub():
    def friendship(t):
        return Graph.from_edges(2 * t + 1,
                                [(0, i) for i in range(1, 2 * t + 1)]
                                + [(2 * k + 1, 2 * k + 2) for k in range(t)])

    assert friendship_hub(friendship(2)) == 0
    assert friendship_hub(friendship(5)) == 0
    assert friendship_hub(complete(3)) is None  # t = 1 is classified as K_3
    assert friendship_hub(complete(5)) is None
    assert friendship_hub(cycle(5)) is None
    # wheel: hub plus a rim cycle, rim degrees are 3 not 2
    wheel = Graph.from_edges(5, [(0, i) for i in range(1, 5)]
                             + [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert friendship_hub(wheel) is None


# ---------------------------------------------------------------- properties

@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=2, max_value=16))
def test_random_graphs_connected_and_roundtrip(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    assert g.n == n
    assert is_connected(g)
    assert sum(g.degrees) == 2 * g.m
    assert parse_edge_list(serialize_edge_list(g)) == g


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=3, max_value=12))
def test_delete_vertex_degree_bookkeeping(seed, n):
    g = random_connected_graph(random.Random(seed), n)
    v = seed % n
    h = delete_vertex(g, v)
    assert h.n == n - 1
    assert h.m == g.m - g.degrees[v]
    assert sum(h.degrees) == 2 * h.m
