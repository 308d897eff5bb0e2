"""The three workloads: seeded inputs, one round of ops, and the check of each op.

An op is executed once a round, each time on an input it has not seen in
the run: the op's graph with its vertices renamed by a permutation drawn
from the seed, the op and the execution number (a ``--family`` op of
``cli-large``, whose graph the CLI builds itself, grows by one instead).
A cache keyed on the input therefore never hits across executions, while
the work of an op stays the same from round to round.

``Op.execution(k)`` prepares the k-th input outside the timing and
returns its ``run``, which builds the library's ``Graph`` and calls the
library through attribute lookups on the package at call time (so a
tracer installed on the package sees it), and its ``check``, which raises
``checks.CheckFailed`` on a wrong answer and returns True when the op
failed: a non-zero CLI exit code, or a Coulson value that misses the
reference.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import Reference
from inputs import (BenchGraph, bipartite_connected, complete, complete_bipartite,
                    cycle, friendship, gnp_connected, path, star)

# suite-small: the traffic of the random-suite acceptance audits
SUITE_RANDOM = 400      # seeded connected G(n, 0.4), n = 2..20 in turn
SUITE_BIPARTITE = 100   # seeded connected bipartite graphs, n = 2..20 in turn

ENERGY = ("energy", "--routes", "eigen,abs,series")
BOUNDS = ("bounds",)
CHARPOLY = ("charpoly",)

# cli-large: (n, number of seeded connected G(n, 0.2) edge-list files,
# commands run on each), and (family, size, commands) for --family input.
# A round is 121 ops, so a run has ten samples above its 90th percentile,
# and takes 12-13 s: two rounds make a 25-s run, and a fast spell of the
# machine does not add a third. The 52 charpoly-only files at n = 50 make
# up the count with ops of a few ms, whose cost is parsing, the trace
# recurrence and JSON rendering: the median op is one of them. The 90th
# percentile sits in the middle of the 18 `energy` calls at n = 50. Left out to keep the round short: `bounds` and
# `energy` at n = 200 (4.1 s and 6.8 s, two and three Jacobi solves of a
# 200 x 200 matrix) and `energy` on friendship and cycle, whose
# eigensolves are slow.
CLI_FILES = ((50, 18, (ENERGY, BOUNDS, CHARPOLY)),
             (50, 52, (CHARPOLY,)),
             (100, 2, (ENERGY, BOUNDS, CHARPOLY)),
             (200, 1, (CHARPOLY,)))
FAMILY_INFO = ("family-info",)
CLI_FAMILIES = (("star", {"n": 150}, (FAMILY_INFO, ("energy",))),
                ("complete", {"n": 120}, (FAMILY_INFO, ("energy",))),
                ("complete_bipartite", {"n1": 40, "n2": 60}, (FAMILY_INFO, ("energy",))),
                ("friendship", {"triangles": 50}, (FAMILY_INFO,)),
                ("cycle", {"n": 100}, (FAMILY_INFO,)))
FAMILY_GRAPHS = {"star": star, "complete": complete, "friendship": friendship,
                 "cycle": cycle, "complete_bipartite": complete_bipartite}

# coulson: seeded graphs on which the route is accurate, and graphs fixed
# independently of the seed on which it is known to miss (n >= 20)
COULSON_SEEDED = 5     # seeded connected G(10, 0.4), every vertex
COULSON_FAMILY_N = 24  # path, star and cycle of this order, every vertex
# n -> vertex step on connected G(n, 0.4) drawn from COULSON_FIXED_SEED. At
# n = 100 every fourth vertex: each returns NaN after ~16 000 integrand
# evaluations (170 ms), and all 100 would make a round 18 s instead of 5 s.
COULSON_FIXED = {20: 1, 50: 1, 100: 4}
COULSON_FIXED_SEED = "coulson-fixed-inputs"


@dataclass
class Execution:
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Op:
    kind: str
    execution: Callable[[int], Execution]


@dataclass
class Workload:
    ops: list[Op]
    warmup: Callable[[], None]


def _permutation(key: str, k: int, n: int) -> list[int]:
    """The vertex renaming of execution ``k`` of the op named ``key``."""
    perm = list(range(n))
    random.Random(f"{key}:{k}").shuffle(perm)
    return perm


def _warmup(what: str, ops: list[Op]) -> Callable[[], None]:
    def warmup():
        for op in ops:
            execution = op.execution(0)
            if execution.check(execution.run()):
                raise checks.CheckFailed(f"{what} warm-up op {op.kind} failed")
    return warmup


# ---------------------------------------------------------------- suite-small

def suite_small(rp, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"suite-small:{seed}")
    ops = []
    for k in range(SUITE_RANDOM):
        g = gnp_connected(rng, _stratified_n(k), 0.4, f"gnp#{k}")
        ops.append(_audit_op(rp, f"suite-small:{seed}:{g.label}", g, None))
    for k in range(SUITE_BIPARTITE):
        n = _stratified_n(k)
        g = bipartite_connected(rng, n, 0.5, f"bipartite#{k}")
        ops.append(_audit_op(rp, f"suite-small:{seed}:{g.label}", g,
                             tuple(rng.sample(range(n), 2))))
    rng.shuffle(ops)
    return Workload(ops=ops, warmup=_warmup(
        "suite-small", [_audit_op(rp, "warm-up", path(5), (0, 2))]))


def _stratified_n(k: int) -> int:
    """Orders 2..20 in turn: the seed draws the edges, not the size mix, so
    the cost of a round does not swing with how many large graphs a seed drew."""
    return 2 + k % 19


def _audit_op(rp, key: str, base: BenchGraph, base_pair) -> Op:
    def execution(k: int) -> Execution:
        perm = _permutation(key, k, base.n)
        g = base.relabelled(perm)
        pair = tuple(perm[v] for v in base_pair) if base_pair else None

        def run():
            graph = rp.Graph.from_edges(g.n, g.edges)
            report = rp.bounds_report(graph)
            series = rp.series_energies(graph)
            order = rp.vertex_order_check(graph, *pair, strict=False) if pair else None
            return report, series, order

        def check(out) -> bool:
            report, series, order = out
            ref = Reference.of(g)
            what = f"suite-small {g.label} (n={g.n})"
            energies = [vb.energy for vb in report.vertices]
            checks.vertex_energies(what + " bounds_report energies", energies, ref)
            checks.total(what + " bounds_report total", report.energy_total, ref)
            checks.unit_cap(what, energies)
            checks.bipartite_halves(what, energies, ref)
            checks.bound_sandwich(what, ((vb.vertex, b.name, b.kind, b.value, b.asserted)
                                         for vb in report.vertices for b in vb.bounds), ref)
            checks.graph_bounds(what, report.graph_lower, report.graph_upper, ref)
            checks.series(what + " series_energies", series.energies, series.terms, ref)
            if order is not None:
                checks.order_status(what + f" pair {pair}", order.status)
                for vertex, energy in zip(pair, (order.energy_v, order.energy_w)):
                    checks.close(f"{what} vertex_order_check energy of {vertex}",
                                 energy, ref.energies[vertex])
            return False

        return Execution(run=run, check=check)

    return Op(kind="audit-bipartite" if base_pair else "audit", execution=execution)


# ---------------------------------------------------------------- cli-large

def cli_large(rp, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"cli-large:{seed}")
    ops = []
    for n, count, commands in CLI_FILES:
        for k in range(count):
            g = gnp_connected(rng, n, 0.2, f"gnp{n}#{len(ops)}")
            for command in commands:
                ops.append(_cli_file_op(rp, f"cli-large:{seed}:op{len(ops)}", g, command,
                                        workdir / f"op{len(ops)}.edges"))
    for kind, size, commands in CLI_FAMILIES:
        for command in commands:
            ops.append(_cli_family_op(rp, kind, size, command))
    rng.shuffle(ops)

    warm = [_cli_file_op(rp, f"warm-up:{i}", path(4), command, workdir / f"warm{i}.edges")
            for i, command in enumerate((ENERGY, BOUNDS, CHARPOLY))]
    warm += [_cli_family_op(rp, "star", {"n": 5}, command)
             for command in (FAMILY_INFO, ("energy",))]
    return Workload(ops=ops, warmup=_warmup("cli-large", warm))


def _cli_file_op(rp, key: str, base: BenchGraph, command, file: Path) -> Op:
    """``command --file``, the file rewritten with each execution's renaming."""
    def execution(k: int) -> Execution:
        g = base.relabelled(_permutation(key, k, base.n))
        file.write_text(g.edge_list_text())
        return _cli_execution(rp, g, [*command, "--file", str(file)], None)

    return Op(kind=f"{command[0]} n={base.n}", execution=execution)


def _cli_family_op(rp, kind: str, size: dict, command) -> Op:
    """``command --family``: the CLI builds the graph, so execution k grows
    the family's first size parameter by k instead of renaming vertices."""
    def execution(k: int) -> Execution:
        grown = dict(size)
        first = next(iter(grown))
        grown[first] += k
        flags = ["--family", kind] + [a for name, v in grown.items()
                                      for a in (f"--{name}", str(v))]
        return _cli_execution(rp, FAMILY_GRAPHS[kind](*grown.values()),
                              [*command, *flags], (kind, grown))

    return Op(kind=f"{command[0]} {kind}", execution=execution)


def _cli_execution(rp, g: BenchGraph, argv: list[str], family) -> Execution:
    argv = argv + ["--format", "json"]
    command = argv[0]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rp.cli.main(argv)
        return code, out.getvalue()

    def check(result) -> bool:
        code, text = result
        if code != 0:
            return True
        report = json.loads(text)
        ref = Reference.of(g)
        what = f"cli-large {' '.join(argv)}"
        if report["graph"]["n"] != g.n or report["graph"]["m"] != len(g.edges):
            raise checks.CheckFailed(f"{what}: graph header {report['graph']}")
        if command == "energy":
            _check_cli_energy(what, report, ref, family)
        elif command == "bounds":
            _check_cli_bounds(what, report, ref)
        elif command == "charpoly":
            checks.charpoly(what, report["results"][0]["coefficients"], ref)
        elif command == "family-info":
            _check_cli_family_info(what, report, ref, family)
        return False

    return Execution(run=run, check=check)


def _check_cli_energy(what, report, ref, family) -> None:
    results = sorted(report["results"], key=lambda r: r["vertex"])
    routes = [name for name in results[0] if name != "vertex"]
    for name in routes:
        energies = [r[name] for r in results]
        if name == "series":
            checks.series(what + " series", energies,
                          report["routes"]["series"]["terms"], ref)
            continue
        checks.vertex_energies(f"{what} {name}", energies, ref)
        checks.total(f"{what} {name}", report["routes"][name]["total"], ref)
        checks.unit_cap(f"{what} {name}", energies)
        checks.bipartite_halves(f"{what} {name}", energies, ref)
        if family is not None:
            for cls, (vertices, value) in checks.family_energies(family[0], **family[1]).items():
                for v in vertices:
                    checks.close(f"{what} {name} {cls} vertex {v}", energies[v], value)


def _check_cli_bounds(what, report, ref) -> None:
    rows = sorted((r for r in report["results"] if r["scope"] == "vertex"),
                  key=lambda r: r["vertex"])
    energies = [r["energy"] for r in rows]
    checks.vertex_energies(what, energies, ref)
    checks.unit_cap(what, energies)
    checks.bipartite_halves(what, energies, ref)
    checks.bound_sandwich(what, ((r["vertex"] - 1, b["name"], b["kind"], b["value"],
                                  b["asserted"]) for r in rows for b in r["bounds"]), ref)
    graph = next(r for r in report["results"] if r["scope"] == "graph")
    checks.total(what, graph["energy_total"], ref)
    checks.graph_bounds(what, graph["lower"], graph["upper"], ref)


def _check_cli_family_info(what, report, ref, family) -> None:
    expected = checks.family_energies(family[0], **family[1])
    classes = {row["class"]: row for row in report["results"]}
    if set(classes) != set(expected):
        raise checks.CheckFailed(f"{what}: classes {sorted(classes)}, expected "
                                 f"{sorted(expected)}")
    for cls, (vertices, value) in expected.items():
        row = classes[cls]
        if row["vertices"] != [v + 1 for v in vertices]:
            raise checks.CheckFailed(f"{what}: class {cls} vertices differ")
        checks.close(f"{what} {cls} energy", row["energy"], value)
        checks.close(f"{what} {cls} computed", row["computed"], value)
        checks.close(f"{what} {cls} reference", ref.energies[vertices[0]], value)
    checks.total(what, report["routes"]["total_energy"], ref)


# ---------------------------------------------------------------- coulson

def coulson(rp, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"coulson:{seed}")
    seeded = f"coulson:{seed}"
    graphs = [(seeded, gnp_connected(rng, 10, 0.4, f"gnp10#{k}"), None, 1)
              for k in range(COULSON_SEEDED)]
    graphs += [(seeded, path(COULSON_FAMILY_N), None, 1),
               (seeded, star(COULSON_FAMILY_N), ("star", {"n": COULSON_FAMILY_N}), 1),
               (seeded, cycle(COULSON_FAMILY_N), ("cycle", {"n": COULSON_FAMILY_N}), 1)]
    # the failing inputs, renamings included, do not depend on the seed
    fixed = random.Random(COULSON_FIXED_SEED)
    graphs += [(COULSON_FIXED_SEED, gnp_connected(fixed, n, 0.4, f"fixed-gnp{n}"), None, step)
               for n, step in COULSON_FIXED.items()]
    ops = [_coulson_op(rp, f"{prefix}:{g.label}:{i}", g, i, family)
           for prefix, g, family, step in graphs for i in range(0, g.n, step)]
    rng.shuffle(ops)
    return Workload(ops=ops, warmup=_warmup(
        "coulson", [_coulson_op(rp, "warm-up", star(5), 0, ("star", {"n": 5}))]))


def _coulson_op(rp, key: str, base: BenchGraph, i: int, family) -> Op:
    def execution(k: int) -> Execution:
        perm = _permutation(key, k, base.n)
        g = base.relabelled(perm)

        def run():
            return rp.coulson_vertex_energy(rp.Graph.from_edges(g.n, g.edges), perm[i])

        def check(result) -> bool:
            expected = Reference.of(g).energies[perm[i]]
            if family is not None:
                for vertices, value in checks.family_energies(family[0], **family[1]).values():
                    if i in vertices:
                        checks.close(f"coulson reference {g.label} vertex {i}",
                                     expected, value)
            return not checks.coulson_ok(result.value, result.converged, expected)

        return Execution(run=run, check=check)

    return Op(kind=f"coulson n={base.n}", execution=execution)


WORKLOADS = {"suite-small": suite_small, "cli-large": cli_large, "coulson": coulson}
