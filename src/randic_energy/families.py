"""Named graph families with exact per-vertex energies where known.

The closed forms double as oracles for the numerical pipeline: a family
instance is generated, pushed through the eigensolver, and the result is
compared against the formula here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .energy import ordered_sum
from .graph import Graph


class FamilyKind(str, Enum):
    COMPLETE = "complete"
    CYCLE = "cycle"
    STAR = "star"
    COMPLETE_BIPARTITE = "complete_bipartite"
    FRIENDSHIP = "friendship"
    PATH = "path"


class VertexClass(str, Enum):
    ANY = "any"
    HUB = "hub"
    LEAF = "leaf"
    SIDE_A = "side-a"
    SIDE_B = "side-b"


#: which vertex classes make sense for each family
_CLASSES = {
    FamilyKind.COMPLETE: (VertexClass.ANY,),
    FamilyKind.CYCLE: (VertexClass.ANY,),
    FamilyKind.STAR: (VertexClass.HUB, VertexClass.LEAF),
    FamilyKind.COMPLETE_BIPARTITE: (VertexClass.SIDE_A, VertexClass.SIDE_B),
    FamilyKind.FRIENDSHIP: (VertexClass.HUB, VertexClass.LEAF),
    FamilyKind.PATH: (),
}


@dataclass(frozen=True)
class FamilySpec:
    kind: FamilyKind
    n: int | None = None
    n1: int | None = None
    n2: int | None = None
    triangles: int | None = None

    def __post_init__(self):
        kind = self.kind
        if kind in (FamilyKind.COMPLETE, FamilyKind.STAR, FamilyKind.PATH):
            if self.n is None or self.n < 2:
                raise ValueError(f"{kind.value} needs n >= 2")
        elif kind is FamilyKind.CYCLE:
            if self.n is None or self.n < 3:
                raise ValueError("cycle needs n >= 3")
        elif kind is FamilyKind.COMPLETE_BIPARTITE:
            if self.n1 is None or self.n2 is None or self.n1 < 1 or self.n2 < 1:
                raise ValueError("complete_bipartite needs n1, n2 >= 1")
        elif kind is FamilyKind.FRIENDSHIP:
            if self.triangles is None or self.triangles < 1:
                raise ValueError("friendship needs triangles >= 1")

    def label(self) -> str:
        if self.kind is FamilyKind.COMPLETE_BIPARTITE:
            return f"complete_bipartite({self.n1},{self.n2})"
        if self.kind is FamilyKind.FRIENDSHIP:
            return f"friendship({self.triangles})"
        return f"{self.kind.value}({self.n})"


@dataclass(frozen=True)
class ClosedFormEnergy:
    value: float
    closed_form: bool  # False when the value had to be computed spectrally


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    # center is vertex 0
    return Graph.from_edges(n, [(0, j) for j in range(1, n)])


def complete_bipartite(n1: int, n2: int) -> Graph:
    # side A is vertices 0..n1-1
    return Graph.from_edges(n1 + n2, [(a, n1 + b) for a in range(n1) for b in range(n2)])


def friendship(triangles: int) -> Graph:
    # hub is vertex 0; triangle t uses vertices (2t+1, 2t+2)
    edges = []
    for t in range(triangles):
        a, b = 2 * t + 1, 2 * t + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph.from_edges(2 * triangles + 1, edges)


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def generate(spec: FamilySpec) -> Graph:
    kind = spec.kind
    if kind is FamilyKind.COMPLETE:
        return complete(spec.n)
    if kind is FamilyKind.CYCLE:
        return cycle(spec.n)
    if kind is FamilyKind.STAR:
        return star(spec.n)
    if kind is FamilyKind.COMPLETE_BIPARTITE:
        return complete_bipartite(spec.n1, spec.n2)
    if kind is FamilyKind.FRIENDSHIP:
        return friendship(spec.triangles)
    if kind is FamilyKind.PATH:
        return path(spec.n)
    raise ValueError(f"unknown family {kind}")


def vertex_classes(spec: FamilySpec) -> dict[VertexClass, tuple[int, ...]]:
    """Vertices of generate(spec) grouped by symmetry class."""
    kind = spec.kind
    if kind in (FamilyKind.COMPLETE, FamilyKind.CYCLE):
        return {VertexClass.ANY: tuple(range(spec.n))}
    if kind is FamilyKind.STAR:
        return {
            VertexClass.HUB: (0,),
            VertexClass.LEAF: tuple(range(1, spec.n)),
        }
    if kind is FamilyKind.COMPLETE_BIPARTITE:
        return {
            VertexClass.SIDE_A: tuple(range(spec.n1)),
            VertexClass.SIDE_B: tuple(range(spec.n1, spec.n1 + spec.n2)),
        }
    if kind is FamilyKind.FRIENDSHIP:
        return {
            VertexClass.HUB: (0,),
            VertexClass.LEAF: tuple(range(1, 2 * spec.triangles + 1)),
        }
    return {}


def _cycle_energy(n: int) -> ClosedFormEnergy:
    rem = n % 4
    if rem == 0:
        return ClosedFormEnergy(
            2.0 * math.cos(math.pi / n) / (n * math.sin(math.pi / n)), True
        )
    if rem == 1:
        return ClosedFormEnergy(1.0 / (n * math.sin(math.pi / (2 * n))), True)
    if rem == 2:
        return ClosedFormEnergy(2.0 / (n * math.sin(math.pi / n)), True)
    # no known closed form in this residue class: fall back to the exact
    # spectrum cos(2 pi k / n) of the normalized adjacency of a cycle
    total = ordered_sum(abs(math.cos(2.0 * math.pi * k / n)) for k in range(n))
    return ClosedFormEnergy(total / n, False)


def closed_form_energy(spec: FamilySpec, vertex_class: VertexClass) -> ClosedFormEnergy:
    kind = spec.kind
    allowed = _CLASSES[kind]
    if not allowed:
        raise ValueError(f"{kind.value} family has no known closed-form energies")
    if vertex_class not in allowed:
        raise ValueError(
            f"vertex class {vertex_class.value!r} is not defined for {kind.value}; "
            f"expected one of {[c.value for c in allowed]}"
        )
    if kind is FamilyKind.COMPLETE:
        return ClosedFormEnergy(2.0 / spec.n, True)
    if kind is FamilyKind.CYCLE:
        return _cycle_energy(spec.n)
    if kind is FamilyKind.STAR:
        if vertex_class is VertexClass.HUB:
            return ClosedFormEnergy(1.0, True)
        return ClosedFormEnergy(1.0 / (spec.n - 1), True)
    if kind is FamilyKind.COMPLETE_BIPARTITE:
        side = spec.n1 if vertex_class is VertexClass.SIDE_A else spec.n2
        return ClosedFormEnergy(1.0 / side, True)
    if kind is FamilyKind.FRIENDSHIP:
        t = spec.triangles
        if vertex_class is VertexClass.HUB:
            return ClosedFormEnergy(2.0 / 3.0, True)
        return ClosedFormEnergy((3.0 * t + 1.0) / (6.0 * t), True)
    raise ValueError(f"unknown family {kind}")


def friendship_spectrum(triangles: int) -> tuple[tuple[float, int], ...]:
    """Eigenvalues of the friendship graph's normalized adjacency with
    multiplicities: {1 once, 1/2 with t-1, -1/2 with t+1}; zero-multiplicity
    entries are dropped."""
    if triangles < 1:
        raise ValueError("need at least one triangle")
    pairs = [(1.0, 1), (0.5, triangles - 1), (-0.5, triangles + 1)]
    return tuple((lam, mult) for lam, mult in pairs if mult > 0)
