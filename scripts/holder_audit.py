"""
Audit the Holder-type lower bound S_i^{3/2} / sqrt(Q_i) against the actual
vertex energies over families and a large random suite.

Usage:
    python3 scripts/holder_audit.py [--random 500] [--seed 2024]

The bound's derivation assumes a power-mean step that is not obviously
valid for every weight distribution, so the package reports it per vertex
but does not assert it. This audit is the evidence either way: it prints
every vertex where the bound exceeds the true energy by more than the
tolerance, plus the near-equality cases, which show the bound is tight
exactly on the graphs where degree products are constant across edges.
"""
from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from randic_energy import (  # noqa: E402
    FamilyKind,
    FamilySpec,
    bounds_report,
    generate,
)
from randic_energy.random_graphs import random_suite  # noqa: E402

TOL = 1e-9


def family_suite(max_n: int):
    for n in range(2, max_n + 1):
        yield f"complete({n})", generate(FamilySpec(FamilyKind.COMPLETE, n=n))
        yield f"star({n})", generate(FamilySpec(FamilyKind.STAR, n=n))
        yield f"path({n})", generate(FamilySpec(FamilyKind.PATH, n=n))
        if n >= 3:
            yield f"cycle({n})", generate(FamilySpec(FamilyKind.CYCLE, n=n))
    for n1 in range(1, 6):
        for n2 in range(n1, 6):
            spec = FamilySpec(FamilyKind.COMPLETE_BIPARTITE, n1=n1, n2=n2)
            yield spec.label(), generate(spec)
    for t in range(1, 6):
        yield f"friendship({t})", generate(FamilySpec(FamilyKind.FRIENDSHIP,
                                                      triangles=t))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--random", type=int, default=500)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)

    cases = list(family_suite(args.max_n))
    cases += [(f"random#{k}", g) for k, g in
              enumerate(random_suite(args.seed, args.random))]

    checked = 0
    violations = []
    near_equal = []
    worst_margin = None  # (margin, label, vertex) with margin = energy - bound
    for label, g in cases:
        for vb in bounds_report(g).vertices:
            holder = vb.bound("lower_holder")
            margin = holder.slack
            checked += 1
            if margin < -TOL:
                violations.append((label, vb.vertex + 1, holder.value, vb.energy))
            elif abs(margin) <= 1e-7:
                near_equal.append((label, vb.vertex + 1))
            if worst_margin is None or margin < worst_margin[0]:
                worst_margin = (margin, label, vb.vertex + 1)

    print(f"{checked} vertices over {len(cases)} graphs, tolerance {TOL:g}")
    print(f"violations: {len(violations)}")
    for label, v, bound, actual in violations:
        print(f"  {label} vertex {v}: bound {bound:.12f} > energy {actual:.12f}")
    print(f"smallest margin (energy - bound): {worst_margin[0]:.3e} "
          f"at {worst_margin[1]} vertex {worst_margin[2]}")
    print(f"equality within 1e-7 at {len(near_equal)} vertices, e.g. " +
          ", ".join(f"{lbl}[{v}]" for lbl, v in near_equal[:8]))
    if violations:
        print("\nverdict: the bound FAILS as stated; keep it report-only")
        return 1
    print("\nverdict: no violation found; still reported rather than "
          "asserted, because the audit is finite")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
