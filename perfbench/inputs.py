"""Seeded benchmark inputs, built without the library under test.

Graphs are plain vertex counts and sorted 0-based edge tuples. The Randic
matrix, the bipartition and the edge-list text are computed here as well,
so the references in ``checks`` share no code with the program.
"""
from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BenchGraph:
    label: str
    n: int
    edges: tuple[tuple[int, int], ...]  # 0-based, u < v, sorted, no repeats

    @classmethod
    def of(cls, label: str, n: int, edges) -> BenchGraph:
        canonical = {(min(u, v), max(u, v)) for u, v in edges}
        return cls(label=label, n=n, edges=tuple(sorted(canonical)))

    def relabelled(self, perm: list[int]) -> BenchGraph:
        """The same graph with vertex v renamed perm[v]."""
        return BenchGraph.of(self.label, self.n,
                             [(perm[u], perm[v]) for u, v in self.edges])

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbours(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def randic(self) -> np.ndarray:
        deg = self.degrees()
        r = np.zeros((self.n, self.n))
        for u, v in self.edges:
            r[u, v] = r[v, u] = 1.0 / math.sqrt(deg[u] * deg[v])
        return r

    def sides(self) -> tuple[list[int], list[int]] | None:
        """Two-colouring by breadth-first search, or None on an odd cycle."""
        adj = self.neighbours()
        colour = [-1] * self.n
        colour[0] = 0
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return None
        return ([v for v in range(self.n) if colour[v] == 0],
                [v for v in range(self.n) if colour[v] == 1])

    def connected(self) -> bool:
        adj = self.neighbours()
        seen = {0}
        queue = deque([0])
        while queue:
            for v in adj[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.n

    def edge_list_text(self) -> str:
        """The CLI's edge-list format: a ``n <count>`` header, 1-based pairs."""
        lines = [f"n {self.n}"] + [f"{u + 1} {v + 1}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


def gnp_connected(rng: random.Random, n: int, p: float, label: str) -> BenchGraph:
    """G(n, p) conditioned on connectivity by redrawing."""
    for _ in range(10_000):
        g = BenchGraph.of(label, n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < p])
        if g.connected():
            return g
    raise RuntimeError(f"no connected G({n}, {p}) in 10000 draws")


def bipartite_connected(rng: random.Random, n: int, p: float, label: str) -> BenchGraph:
    """Random spanning tree across two sides plus each cross edge with probability p.

    Side A is 0..a-1 with a drawn from 1..n-1. Vertices join in random
    order, each attached to an already placed vertex of the other side;
    the first vertex after A's root is taken from side B so that one exists.
    """
    a = rng.randint(1, n - 1)
    edges = {(u, v) for u in range(a) for v in range(a, n) if rng.random() < p}
    pending = list(range(1, n))
    rng.shuffle(pending)
    first_b = next(k for k, v in enumerate(pending) if v >= a)
    pending.insert(0, pending.pop(first_b))
    placed = ([0], [])
    for v in pending:
        side = 1 if v >= a else 0
        edges.add(tuple(sorted((v, rng.choice(placed[1 - side])))))
        placed[side].append(v)
    return BenchGraph.of(label, n, edges)


# Named families, labelled as the CLI's --family generator labels them:
# the star centre and friendship hub are vertex 0, side A of K_{a,b} is 0..a-1.

def star(n: int) -> BenchGraph:
    return BenchGraph.of(f"star({n})", n, [(0, j) for j in range(1, n)])


def complete(n: int) -> BenchGraph:
    return BenchGraph.of(f"complete({n})", n,
                         [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> BenchGraph:
    return BenchGraph.of(f"complete_bipartite({a},{b})", a + b,
                         [(i, a + j) for i in range(a) for j in range(b)])


def friendship(t: int) -> BenchGraph:
    edges = []
    for k in range(t):
        x, y = 2 * k + 1, 2 * k + 2
        edges += [(0, x), (0, y), (x, y)]
    return BenchGraph.of(f"friendship({t})", 2 * t + 1, edges)


def cycle(n: int) -> BenchGraph:
    return BenchGraph.of(f"cycle({n})", n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> BenchGraph:
    return BenchGraph.of(f"path({n})", n, [(i, i + 1) for i in range(n - 1)])
