import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randic_energy.bounds import adjacent_product_lower
from randic_energy.charpoly import principal_submatrix_poly
from randic_energy.coulson import coulson_integrand, coulson_vertex_energy
from randic_energy.energy import series_tail_bound, vertex_energy_series
from randic_energy.graph import (
    MAX_VERTICES,
    DisconnectedGraphError,
    Graph,
    GraphParseError,
    bipartition,
    check_vertex,
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
    _BULK_GRAMMAR,
    _adjacency_entries,
    _parse_bulk,
)
from randic_energy.families import FamilyKind, FamilySpec, generate
from randic_energy.random_graphs import (
    random_connected_bipartite_graph,
    random_connected_graph,
    random_suite,
)
from randic_energy.spectral import power_diag, randic_matrix
from helpers import (
    delete_vertex_per_edge,
    disjoint_union_per_edge,
    induced_subgraph_per_edge,
    parse_edge_list_per_line,
    relabel,
)
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


@st.composite
def edge_multisets(draw):
    """A vertex count and a list of pairs over it, with repeats in either
    orientation; possibly no pairs at all, and n = 1."""
    n = draw(st.integers(1, 12))
    if n == 1:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, max_size=40))
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    pairs += [(v, u) for u, v in repeats]
    return n, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(edge_multisets())
def test_from_edges_is_the_reference_on_edge_multisets(case):
    n, pairs = case
    expected = _sorted_reference(n, pairs)
    for given_as in (pairs, tuple(pairs), iter(pairs), (p for p in pairs),
                     [list(p) for p in pairs]):
        g = Graph.from_edges(n, given_as)
        assert g == expected
        assert all(type(x) is int for e in g.edges for x in e)
        assert all(type(x) is int for x in g.degrees)
        assert all(type(x) is int for ns in g.adjacency for x in ns)


def test_from_edges_empty_and_single_vertex():
    assert Graph.from_edges(1, []) == Graph(n=1, edges=(), adjacency=((),), degrees=(0,))
    assert Graph.from_edges(3, iter(())) == Graph(
        n=3, edges=(), adjacency=((), (), ()), degrees=(0, 0, 0))


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (2, 2), (0, 9)], "self-loop at vertex 2"),
    ([(0, 1), (0, 9), (2, 2)], "edge (0, 9) out of range for n=4"),
    ([(5, 5), (0, 9)], "self-loop at vertex 5"),  # a pair's loop wins over its range
    ([(0, 1), (-1, 2), (3, 3)], "edge (-1, 2) out of range for n=4"),
    ([(0, 1), (1, 0), (3, 3), (9, 0)], "self-loop at vertex 3"),  # behind a repeat
    ([(0, 1), (2, 2**70)], f"edge (2, {2**70}) out of range for n=4"),
    ([(2**63, 0)], f"edge ({2**63}, 0) out of range for n=4"),
    ([(0, 1), (1, 1), (0, 0.5)], "self-loop at vertex 1"),
])
def test_the_first_offending_pair_names_the_error(pairs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph.from_edges(4, pairs)


@pytest.mark.parametrize("pairs", [
    [(0, 0.5)], [(0, 1.0)], [(0, 1), (1, 2.0)], [(0, "1")], [("0", "1")],
    [(0, np.float64(1.0))], [(0, None)], [(0, 1), (b"1", 2)],
])
def test_from_edges_rejects_non_integer_ids(pairs):
    with pytest.raises(TypeError, match="is not an integer"):
        Graph.from_edges(4, pairs)


@pytest.mark.parametrize("pairs", [[(0, 1, 2)], [(0, 1), (2,)], [(0, 1), (2, 3, 1)], [(0, 1), 5]])
def test_from_edges_rejects_pairs_that_are_not_pairs(pairs):
    with pytest.raises((TypeError, ValueError)):
        Graph.from_edges(4, pairs)


def test_from_edges_never_truncates_or_wraps():
    # each of these would land on a valid vertex if rounded, parsed or wrapped
    for bad in (0.9, "1", 2**64 + 1, 2**64, -(2**64) + 1):
        with pytest.raises((TypeError, ValueError)):
            Graph.from_edges(4, [(0, 2), (bad, 3)])
    # numpy integers and bools are integers, taken as their value
    g = Graph.from_edges(4, [(np.int32(0), np.uint64(3)), (True, 2)])
    assert g.edges == ((0, 3), (1, 2))


def test_from_edges_keys_stay_inside_int64():
    with pytest.raises(ValueError, match="exceeds"):
        Graph.from_edges(MAX_VERTICES + 1, [])
    # the largest allowed n: the last key, n**2 - 1, still fits
    n = MAX_VERTICES
    assert (n * n - 1) <= np.iinfo(np.int64).max < (n + 1) * (n + 1) - 1
    src, dst, upper, repeats = _adjacency_entries(n, [(n - 1, n - 2), (0, n - 1), (n - 2, n - 1)])
    assert src.tolist() == [0, n - 2, n - 1, n - 1]
    assert dst.tolist() == [n - 1, n - 1, 0, n - 2]
    assert upper.tolist() == [True, True, False, False]
    assert repeats == [2]


def test_edge_arrays_are_read_only_and_match_edges():
    rng = random.Random(9001)
    for g in random_suite(9001, 20) + [random_connected_graph(rng, 60, 0.2)]:
        direct = Graph(n=g.n, edges=g.edges, adjacency=g.adjacency, degrees=g.degrees)
        for h in (g, direct):  # filled in by from_edges, or derived from edges
            lo, hi = h._edge_arrays
            assert lo.dtype == hi.dtype == np.int64
            assert list(zip(lo.tolist(), hi.tolist())) == list(g.edges)
            for a in (lo, hi):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0


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


@pytest.mark.parametrize("text, count", [("n\n1 2\n", "n"), ("n x\n1 2\n", "x"),
                                         ("  n  # no count\n1 2\n", "n")])
def test_parse_rejects_a_header_without_a_count(text, count):
    # a lone "n" is a one-token first line, read as the count itself
    for parse in (parse_edge_list_report, parse_edge_list_per_line):
        with pytest.raises(GraphParseError, match=f"^line 1: bad vertex count '{count}'$"):
            parse(text)


def test_parse_rejects_empty():
    with pytest.raises(GraphParseError):
        parse_edge_list("# nothing\n")


def test_parse_warns_on_duplicate_edge():
    g, warnings = parse_edge_list_report("n 3\n1 2\n2 1\n2 3\n")
    assert g.m == 2
    assert any("duplicate" in w for w in warnings)


@pytest.mark.parametrize("text, n, edges, warnings", [
    ("# head\n\nn 4   # count\n1 2\n\n  2 3  \n# 9 9\n3 4\n", 4,
     ((0, 1), (1, 2), (2, 3)), []),
    ("n 4\r\n1 2\r\n2 3\r\n\r\n3 4\r\n", 4, ((0, 1), (1, 2), (2, 3)), []),
    ("5\n2 1\n", 5, ((0, 1),), []),
    ("3 1\n1 2\n", 3, ((0, 1), (0, 2)), []),
    ("n 4\n1 2\n2 1\n3 2\n2 3\n1 2 # again\n4 1\n", 4,
     ((0, 1), (0, 3), (1, 2)),
     ["line 3: duplicate edge 2 1 ignored", "line 5: duplicate edge 2 3 ignored",
      "line 6: duplicate edge 1 2 ignored"]),
])
def test_parse_graphs_and_warnings(text, n, edges, warnings):
    g, got = parse_edge_list_report(text)
    assert g == Graph.from_edges(n, edges)
    assert g.edges == edges
    assert got == warnings


def test_parse_warns_on_each_repeat_in_line_order():
    rng = random.Random(9001)
    for trial in range(30):
        n = rng.randrange(2, 30)
        lines, seen, expected = [], set(), []
        for lineno in range(2, 2 + rng.randrange(1, 120)):
            u, v = rng.sample(range(1, n + 1), 2)
            lines.append(f"{u} {v}")
            key = (min(u, v), max(u, v))
            if key in seen:
                expected.append(f"line {lineno}: duplicate edge {u} {v} ignored")
            seen.add(key)
        g, warnings = parse_edge_list_report(f"n {n}\n" + "\n".join(lines) + "\n")
        assert warnings == expected
        assert g == _sorted_reference(n, [(u - 1, v - 1) for u, v in sorted(seen)])


def test_parse_rejects_ids_past_the_largest_vertex_count():
    with pytest.raises(GraphParseError, match="exceeds"):
        parse_edge_list(f"1 {10**30}\n")
    with pytest.raises(GraphParseError, match="header declares n=3"):
        parse_edge_list(f"n 3\n1 {10**30}\n")


def _outcome(parse, text):
    """What ``parse`` gives on ``text``: its result, or its exception's type
    and message."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


# ids that int() reads but the bulk grammar does not, or that fail a check
ODD_IDS = ["0", "007", "+3", "-2", "\u0663", "1_0", "3.0", "x", "n",
           str(10**30), "9" * 18, "1" + "0" * 18, str(MAX_VERTICES + 1)]
# separators, line ends and comments outside the bulk grammar; each of
# "\f", "\v", "\x85" and "\u2028" also ends a line for str.splitlines
ODD_GAPS = ["\f", "\v", "\xa0", "\u2028"]
ODD_ENDS = ["\r", "\f", "\x85", "\u2028", "\n\f"]
ODD_COMMENTS = ["#\f1 1", "# \u2028 2 2", "#\r7 7", "#\x0b3 3"]


@st.composite
def edge_list_texts(draw):
    """Edge-list texts of three kinds: in the bulk grammar with valid ids
    ("plain"); in the grammar with ids that fail a check or repeat an edge
    ("checks"); and a plain or checks text with one odd id, separator,
    line end, comment or line length put in ("odd")."""
    kind = draw(st.sampled_from(["plain", "checks", "odd"]))
    plain = kind == "plain" or kind == "odd" and draw(st.booleans())
    ids = st.integers(1, 30).map(str) if plain else st.integers(0, 8).map(str)
    count = st.integers(30, 40).map(str) if plain else ids
    gap = st.sampled_from([" ", "\t", "  ", " \t"])
    pad = st.sampled_from(["", "", " ", "\t"])
    comment = st.sampled_from(["", "", "", "# c", "#1 2", " # 3 4 5"])
    pair = st.lists(ids, min_size=2, max_size=2, unique=plain)

    def line(tokens, gap=gap):
        return draw(pad) + "".join(t + draw(gap) for t in tokens[:-1]) + tokens[-1] + draw(pad) + draw(comment)

    lines = [draw(pad) + draw(comment) for _ in range(draw(st.integers(0, 2)))]
    header = draw(st.sampled_from([None, "n", ""]))
    if header is not None:
        lines.append(line([header, draw(count)] if header else [draw(count)]))
    for _ in range(draw(st.integers(0, 12))):
        lines.append(draw(pad) + draw(comment) if draw(st.integers(0, 6)) == 0 else line(draw(pair)))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"])) for _ in lines]
    if kind == "odd" and lines:
        i = draw(st.integers(0, len(lines) - 1))
        oddity = draw(st.sampled_from(["id", "gap", "end", "comment", "length"]))
        if oddity == "id":
            lines[i] = line(draw(st.permutations([draw(ids), draw(st.sampled_from(ODD_IDS))])))
        elif oddity == "gap":
            lines[i] = line(draw(pair), st.sampled_from(ODD_GAPS))
        elif oddity == "end":
            ends[i] = draw(st.sampled_from(ODD_ENDS))
        elif oddity == "comment":
            lines[i] += draw(st.sampled_from(ODD_COMMENTS))
        else:
            lines[i] = line([draw(ids) for _ in range(draw(st.sampled_from([1, 3])))])
    text = "".join(ln + end for ln, end in zip(lines, ends))
    return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text


@settings(max_examples=600, deadline=None)
@given(edge_list_texts())
def test_parse_is_the_per_line_reference(text):
    assert _outcome(parse_edge_list_report, text) == _outcome(parse_edge_list_per_line, text)


@pytest.mark.parametrize("text", [
    "n 4\n1 2\n2 3\n3 4\n",
    "4\r\n1 2\r\n# c\r\n\r\n2\t3 # x\r\n3 4",
    "# head\n\n\t n  5 # count\n 1 2 \n\n 005 4#\n",
    "1 2\n2 3",
    "n 3\n",
    "  7  \n# 7 vertices, no edges",
])
def test_grammar_texts_parse_in_bulk(text):
    g = _parse_bulk(text)
    assert g is not None
    assert (g, []) == parse_edge_list_per_line(text)


@pytest.mark.parametrize("text", [
    "n 3\n1 2\n2 1\n",          # a repeat: its line is named
    "n 3\n1 2\n1 1\n",          # a self-loop
    "n 3\n0 1\n",
    "n 3\n1 4\n",
    "n 0\n",
    "", "# only a comment\n",
    "n 3\n1 2 3\n", "n 3\n2\n",
    "1 \u0663\n", "+1 2\n", "1 2\f2 3\n", "1 2\r2 3\n", "1 2 # \x0b3 4\n", "1 2 #\f3 4\n",
    f"1 {10**30}\n", f"{MAX_VERTICES + 1}\n", "N 3\n", "n\n1 2\n",
])
def test_other_texts_leave_the_bulk_path(text):
    assert _parse_bulk(text) is None


def test_bulk_grammar_stays_linear_on_long_texts():
    pairs = "".join(f"{i} {i + 1}\n" for i in range(1, 100_000))
    texts = [
        f"n 100000\n{pairs}",
        f"n 100000\n{pairs}1 2 3\n",               # fails on the last line
        "\n" * 100_000 + "x",                       # blank lines, then no content
        "1 2\n" + " \t# c\n" * 100_000 + "#\f",
        "1 2\n" + "\t1\t2\t\n" * 100_000 + "3",
    ]
    for text in texts:
        start = time.perf_counter()
        _BULK_GRAMMAR.fullmatch(text)
        assert time.perf_counter() - start < 1.0, text[:20]
    assert parse_edge_list_report(texts[0]) == parse_edge_list_per_line(texts[0])


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


def test_every_vertex_range_check_says_the_same():
    g = path(5)
    r = randic_matrix(g)
    entry_points = [
        lambda i: check_vertex(g.n, i),
        lambda i: delete_vertex(g, i),
        lambda i: vertex_energy_series(g, i, 10),
        lambda i: series_tail_bound(g, i, 10),
        lambda i: adjacent_product_lower(g, i, 1),
        lambda i: adjacent_product_lower(g, 1, i),
        lambda i: power_diag(r, 2, i),
        lambda i: coulson_integrand(g, i),
        lambda i: coulson_vertex_energy(g, i),
        lambda i: principal_submatrix_poly(g, i),
    ]
    for entry_point in entry_points:
        for i in (-1, 5, 9):
            with pytest.raises(ValueError, match=f"^vertex {i} out of range for n=5$"):
                entry_point(i)


def _seeded_graphs_with_isolated_vertices():
    rng = random.Random(9001)
    graphs = [Graph.from_edges(1, []), path(2), Graph.from_edges(3, [])]
    for n in (2, 3, 5, 8, 13, 30, 60):
        for p in (0.05, 0.2, 0.6):
            graphs.append(Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    return rng, graphs


def test_vertex_surgery_is_the_per_edge_reference():
    rng, graphs = _seeded_graphs_with_isolated_vertices()
    assert sum(0 in g.degrees for g in graphs) >= 10
    for g in graphs:
        for v in range(g.n) if g.n > 1 else ():  # at n = 2, one vertex remains
            h = delete_vertex(g, v)
            assert h == delete_vertex_per_edge(g, v)
            assert [a.tolist() for a in h._edge_arrays] == [[e[0] for e in h.edges],
                                                          [e[1] for e in h.edges]]
        for size in {1, g.n // 2 or 1, g.n}:
            keep = rng.sample(range(g.n), size)
            assert induced_subgraph(g, keep) == induced_subgraph_per_edge(g, keep)
        other = rng.choice(graphs)
        assert disjoint_union(g, other) == disjoint_union_per_edge(g, other)


def test_vertex_surgery_leaving_no_vertex_is_refused():
    for f in (lambda: delete_vertex(Graph.from_edges(1, []), 0),
              lambda: induced_subgraph(path(3), [])):
        with pytest.raises(ValueError, match="^vertex count must be >= 1, got 0$"):
            f()


@pytest.mark.parametrize("keep, bad", [([0, 5], 5), ([-1, 2], -1)])
def test_induced_subgraph_range_checks_its_vertices(keep, bad):
    with pytest.raises(ValueError, match=f"^vertex {bad} out of range for n=5$"):
        induced_subgraph(path(5), keep)


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
