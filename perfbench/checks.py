"""Independent references and the checks every benchmark op's output must pass.

The reference for a graph is ``numpy.linalg.eigh`` of the Randic matrix
that ``inputs`` builds from the edge list. Closed forms are written here
from the paper. A check raises ``CheckFailed``; ``coulson_ok`` instead
returns a verdict, because the workload counts a Coulson miss as a failed
op rather than as a wrong answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from inputs import BenchGraph

#: per-vertex energies, totals and bound sandwiches agree to this
ENERGY_TOL = 1e-9

#: a Coulson value must be this close to the reference: the default
#: quadrature tolerance of the route (QuadratureConfig.tolerance)
COULSON_TOL = 1e-7

#: characteristic-polynomial coefficients, relative to the largest one
CHARPOLY_REL_TOL = 1e-6


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference or a theorem."""


@dataclass(frozen=True)
class Reference:
    graph: BenchGraph
    values: np.ndarray   # ascending, from eigh
    vectors: np.ndarray  # column j spans values[j]
    energies: np.ndarray
    total: float
    sides: tuple[list[int], list[int]] | None

    @classmethod
    def of(cls, g: BenchGraph) -> Reference:
        values, vectors = np.linalg.eigh(g.randic())
        return cls(graph=g, values=values, vectors=vectors,
                   energies=(vectors ** 2) @ np.abs(values),
                   total=float(np.abs(values).sum()), sides=g.sides())

    def series_tail(self, terms: int) -> np.ndarray:
        """Exact per-vertex error of the binomial series cut after ``terms`` terms.

        With x_j = 1 - lambda_j^2 every dropped term is -|binom(1/2,k)| x_j^k,
        and sum_{k>=1} |binom(1/2,k)| x^k = 1 - sqrt(1 - x).
        """
        x = np.clip(1.0 - self.values ** 2, 0.0, 1.0)
        partial = np.zeros_like(x)
        coeff, power = 1.0, np.ones_like(x)
        for k in range(1, terms):
            coeff *= (1.5 - k) / k  # binom(1/2, k) from binom(1/2, k-1)
            power = power * x
            partial += abs(coeff) * power
        tail = np.maximum((1.0 - np.sqrt(1.0 - x)) - partial, 0.0)
        return (self.vectors ** 2) @ tail


def _fail(what: str, message: str):
    raise CheckFailed(f"{what}: {message}")


def vertex_energies(what: str, got, ref: Reference) -> None:
    got = np.asarray(got, dtype=float)
    if got.shape != ref.energies.shape:
        _fail(what, f"{got.shape[0]} energies for {ref.graph.n} vertices")
    worst = int(np.argmax(np.abs(got - ref.energies)))
    if not abs(got[worst] - ref.energies[worst]) <= ENERGY_TOL:
        _fail(what, f"vertex {worst} energy {got[worst]!r}, reference "
                    f"{ref.energies[worst]!r}")


def total(what: str, got: float, ref: Reference) -> None:
    if not abs(got - ref.total) <= ENERGY_TOL * max(1.0, ref.total):
        _fail(what, f"total {got!r}, reference sum |lambda| = {ref.total!r}")


def unit_cap(what: str, energies) -> None:
    """No vertex energy exceeds the star-centre maximum 1, none is negative."""
    for i, e in enumerate(energies):
        if not -ENERGY_TOL <= e <= 1.0 + ENERGY_TOL:
            _fail(what, f"vertex {i} energy {e!r} outside [0, 1]")


def bipartite_halves(what: str, energies, ref: Reference) -> None:
    """On a bipartite graph each side holds half the total energy."""
    if ref.sides is None:
        return
    for side in ref.sides:
        mass = sum(energies[v] for v in side)
        if not abs(mass - ref.total / 2.0) <= ENERGY_TOL * max(1.0, ref.total):
            _fail(what, f"side {side[:4]}... holds {mass!r}, not RE/2 = "
                        f"{ref.total / 2.0!r}")


def bound_sandwich(what: str, bounds, ref: Reference) -> None:
    """``bounds`` yields (vertex, name, kind, value, asserted) records.

    Every asserted upper bound lies at or above the reference energy and
    every asserted lower bound at or below it.
    """
    seen = 0
    for vertex, name, kind, value, asserted in bounds:
        seen += 1
        if not asserted:
            continue
        energy = ref.energies[vertex]
        if kind == "upper":
            ok = value >= energy - ENERGY_TOL
        elif kind == "lower":
            ok = value <= energy + ENERGY_TOL
        else:
            _fail(what, f"bound {name} has kind {kind!r}")
        if not ok:
            _fail(what, f"{kind} bound {name} = {value!r} at vertex {vertex} vs "
                        f"reference energy {energy!r}")
    if seen == 0:
        _fail(what, "no bounds reported")


def graph_bounds(what: str, lower: float, upper: float, ref: Reference) -> None:
    if not lower - ENERGY_TOL <= ref.total <= upper + ENERGY_TOL:
        _fail(what, f"graph bounds [{lower!r}, {upper!r}] miss RE = {ref.total!r}")


def series(what: str, got, terms: int, ref: Reference) -> None:
    """0 <= series - reference <= exact tail, vertex by vertex."""
    excess = np.asarray(got, dtype=float) - ref.energies
    tail = ref.series_tail(terms)
    for i, (e, t) in enumerate(zip(excess, tail)):
        if not -ENERGY_TOL <= e <= t + ENERGY_TOL:
            _fail(what, f"vertex {i}: series exceeds reference by {e!r}, "
                        f"exact tail is {t!r}")


def order_status(what: str, status: str) -> None:
    if status not in ("witnessed", "equal", "vacuous"):
        _fail(what, f"vertex_order_check status {status!r}")


def charpoly(what: str, coefficients, ref: Reference) -> None:
    """Agreement with numpy.poly of the reference spectrum, and the exact
    x^(n-1) and x^(n-2) coefficients: 0 and -sum over edges of 1/(d_u d_v)."""
    got = np.asarray(coefficients, dtype=float)
    expected = np.poly(ref.values)
    if got.shape != expected.shape:
        _fail(what, f"degree {got.shape[0] - 1}, expected {ref.graph.n}")
    scale = max(1.0, float(np.max(np.abs(expected))))
    worst = int(np.argmax(np.abs(got - expected)))
    if not abs(got[worst] - expected[worst]) <= CHARPOLY_REL_TOL * scale:
        _fail(what, f"coefficient {worst} is {got[worst]!r}, numpy.poly gives "
                    f"{expected[worst]!r}")
    deg = ref.graph.degrees()
    randic_m1 = sum(1.0 / (deg[u] * deg[v]) for u, v in ref.graph.edges)
    if ref.graph.n >= 2 and not abs(got[1]) <= ENERGY_TOL:
        _fail(what, f"x^(n-1) coefficient {got[1]!r}, trace of R is 0")
    if ref.graph.n >= 2 and not abs(got[2] + randic_m1) <= ENERGY_TOL * max(1.0, randic_m1):
        _fail(what, f"x^(n-2) coefficient {got[2]!r}, expected {-randic_m1!r}")


def close(what: str, got: float, expected: float) -> None:
    if not abs(got - expected) <= ENERGY_TOL:
        _fail(what, f"{got!r}, expected {expected!r}")


def coulson_ok(value: float, converged: bool, reference: float) -> bool:
    return converged and math.isfinite(value) and abs(value - reference) <= COULSON_TOL


# ------------------------------------------------------------ closed forms

def family_energies(kind: str, **size) -> dict[str, tuple[list[int], float]]:
    """Vertex class -> (vertices, energy of each), from the paper's closed forms.

    Class names and vertex labels follow the CLI's ``family-info`` report.
    The cycle value is sum_k |cos(2 pi k / n)| / n: the spectrum of R(C_n)
    spread evenly over a vertex-transitive graph.
    """
    if kind == "complete":
        n = size["n"]
        return {"any": (list(range(n)), 2.0 / n)}
    if kind == "star":
        n = size["n"]
        return {"hub": ([0], 1.0), "leaf": (list(range(1, n)), 1.0 / (n - 1))}
    if kind == "complete_bipartite":
        a, b = size["n1"], size["n2"]
        return {"side-a": (list(range(a)), 1.0 / a),
                "side-b": (list(range(a, a + b)), 1.0 / b)}
    if kind == "friendship":
        t = size["triangles"]
        return {"hub": ([0], 2.0 / 3.0),
                "leaf": (list(range(1, 2 * t + 1)), (3.0 * t + 1.0) / (6.0 * t))}
    if kind == "cycle":
        n = size["n"]
        value = sum(abs(math.cos(2.0 * math.pi * k / n)) for k in range(n)) / n
        return {"any": (list(range(n)), value)}
    raise ValueError(f"no closed form for {kind}")
