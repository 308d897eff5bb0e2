"""Self-test of the benchmark's checks: each accepts a correct result and
rejects a deliberately perturbed one.

Run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise. The first part feeds each
check function exact references and perturbed copies; the second runs one
real op of each kind on a small input and perturbs its output.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, Reference  # noqa: E402

DELTA = 1e-6  # every perturbation is far above the checks' tolerances

results: list[tuple[str, bool]] = []


def accepts(name: str, fn) -> None:
    try:
        fn()
    except CheckFailed as exc:
        results.append((f"accepts {name}: rejected with {exc}", False))
        return
    results.append((f"accepts {name}", True))


def rejects(name: str, fn) -> None:
    try:
        fn()
    except CheckFailed:
        results.append((f"rejects {name}", True))
        return
    results.append((f"rejects {name}: accepted", False))


def bumped(values, index: int, delta: float = DELTA) -> np.ndarray:
    out = np.array(values, dtype=float)
    out[index] += delta
    return out


def check_functions() -> None:
    g = inputs.BenchGraph.of("demo7", 7, [(0, 1), (1, 2), (2, 3), (1, 3), (0, 3),
                                          (3, 4), (4, 5), (3, 5), (3, 6)])
    ref = Reference.of(g)
    e = ref.energies
    accepts("vertex energies", lambda: checks.vertex_energies("t", e, ref))
    rejects("a perturbed vertex energy", lambda: checks.vertex_energies("t", bumped(e, 3), ref))
    accepts("the energy total", lambda: checks.total("t", ref.total, ref))
    rejects("a perturbed energy total", lambda: checks.total("t", ref.total + DELTA, ref))
    accepts("energies <= 1", lambda: checks.unit_cap("t", e))
    rejects("an energy above 1", lambda: checks.unit_cap("t", bumped(e, 0, 1.0 - e[0] + DELTA)))

    bounds = [(v, "upper", "upper", e[v] + 0.1, True) for v in range(g.n)]
    bounds += [(v, "lower", "lower", e[v] - 0.1, True) for v in range(g.n)]
    accepts("a bound sandwich", lambda: checks.bound_sandwich("t", bounds, ref))
    rejects("an upper bound below the energy", lambda: checks.bound_sandwich(
        "t", bounds + [(2, "upper", "upper", e[2] - DELTA, True)], ref))
    rejects("a lower bound above the energy", lambda: checks.bound_sandwich(
        "t", bounds + [(2, "lower", "lower", e[2] + DELTA, True)], ref))
    accepts("graph bounds", lambda: checks.graph_bounds("t", 0.0, 10.0, ref))
    rejects("a graph upper bound below RE", lambda: checks.graph_bounds(
        "t", 0.0, ref.total - DELTA, ref))

    tail = ref.series_tail(200)
    accepts("a series inside its tail", lambda: checks.series("t", e + tail / 2, 200, ref))
    rejects("a series below the energy", lambda: checks.series("t", e - DELTA, 200, ref))
    rejects("a series beyond its exact tail", lambda: checks.series(
        "t", e + tail + DELTA, 200, ref))

    accepts("a witnessed ordering", lambda: checks.order_status("t", "witnessed"))
    rejects("a violated ordering", lambda: checks.order_status("t", "violated"))

    poly = np.poly(ref.values)
    accepts("a characteristic polynomial", lambda: checks.charpoly("t", poly, ref))
    rejects("a perturbed coefficient", lambda: checks.charpoly(
        "t", bumped(poly, 5, 100 * checks.CHARPOLY_REL_TOL), ref))
    rejects("a perturbed x^(n-2) coefficient", lambda: checks.charpoly(
        "t", bumped(poly, 2, 1e-8), ref))

    p6 = Reference.of(inputs.path(6))
    accepts("bipartite halves", lambda: checks.bipartite_halves("t", p6.energies, p6))
    moved = bumped(bumped(p6.energies, 0), 1, -DELTA)  # same total, sides unequal
    rejects("unequal bipartite halves", lambda: checks.bipartite_halves("t", moved, p6))

    families = [("complete", {"n": 9}), ("star", {"n": 9}),
                ("complete_bipartite", {"n1": 3, "n2": 5}), ("friendship", {"triangles": 4}),
                ("cycle", {"n": 12})]
    builders = {"complete": inputs.complete, "star": inputs.star, "cycle": inputs.cycle,
                "complete_bipartite": inputs.complete_bipartite,
                "friendship": inputs.friendship}
    for kind, size in families:
        fref = Reference.of(builders[kind](*size.values()))
        for cls, (vertices, value) in checks.family_energies(kind, **size).items():
            accepts(f"{kind} {cls} closed form against eigh",
                    lambda: [checks.close("t", fref.energies[v], value) for v in vertices])
            rejects(f"a perturbed {kind} {cls} energy",
                    lambda: checks.close("t", fref.energies[vertices[0]] + DELTA, value))

    ok = checks.coulson_ok(e[0], True, e[0])
    misses = [checks.coulson_ok(e[0] + DELTA, True, e[0]),
              checks.coulson_ok(float("nan"), False, e[0]),
              checks.coulson_ok(e[0], False, e[0])]
    results.append(("accepts a Coulson value at the reference", ok))
    results.append(("rejects a Coulson value off, NaN or unconverged", not any(misses)))


def op_outputs(rp) -> None:
    bip = inputs.complete_bipartite(2, 3)
    audit = workloads._audit_op(rp, "selftest", bip, (0, 3)).execution(0)
    report, series, order = audit.run()
    accepts("a real suite-small audit", lambda: audit.check((report, series, order)))
    first = report.vertices[0]
    worse = dataclasses.replace(report, vertices=(
        dataclasses.replace(first, energy=first.energy + DELTA),) + report.vertices[1:])
    rejects("an audit with a perturbed energy", lambda: audit.check((worse, series, order)))
    below = tuple(vb.energy - DELTA for vb in report.vertices)
    rejects("an audit with a series below the energies", lambda: audit.check(
        (report, dataclasses.replace(series, energies=below), order)))
    rejects("an audit with a violated ordering", lambda: audit.check(
        (report, series, dataclasses.replace(order, status="violated"))))

    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        file = Path(tmp) / "p7.edges"
        for op, edit in (
                (workloads._cli_file_op(rp, "selftest", inputs.path(7),
                                        workloads.ENERGY, file),
                 lambda r: r["results"][2].update(abs=r["results"][2]["abs"] + DELTA)),
                (workloads._cli_file_op(rp, "selftest", inputs.path(7),
                                        workloads.BOUNDS, file),
                 lambda r: r["results"][1]["bounds"][0].update(value=0.0)),
                (workloads._cli_file_op(rp, "selftest", inputs.path(7),
                                        workloads.CHARPOLY, file),
                 lambda r: r["results"][0]["coefficients"].__setitem__(2, -1.0)),
                (workloads._cli_family_op(rp, "star", {"n": 6}, workloads.FAMILY_INFO),
                 lambda r: r["results"][1].update(computed=0.2 + DELTA))):
            execution = op.execution(0)
            code, text = execution.run()
            accepts(f"a real `{op.kind}` report", lambda: execution.check((code, text)))
            report = json.loads(text)
            edit(report)
            rejects(f"a perturbed `{op.kind}` report",
                    lambda: execution.check((code, json.dumps(report))))
        results.append(("counts a non-zero CLI exit as failed",
                        execution.check((3, "")) is True))

    coulson = workloads._coulson_op(rp, "selftest", inputs.star(7), 0,
                                    ("star", {"n": 7})).execution(0)
    value = coulson.run()
    results.append(("accepts a real Coulson op", coulson.check(value) is False))
    results.append(("counts a perturbed Coulson value as failed", coulson.check(
        dataclasses.replace(value, value=value.value + DELTA)) is True))


def main() -> int:
    import randic_energy
    import randic_energy.cli  # noqa: F401
    check_functions()
    with contextlib.redirect_stderr(io.StringIO()):
        op_outputs(randic_energy)
    bad = [name for name, ok in results if not ok]
    for name, ok in results:
        print(("ok   " if ok else "FAIL ") + name)
    print(f"{len(results) - len(bad)} of {len(results)} checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
