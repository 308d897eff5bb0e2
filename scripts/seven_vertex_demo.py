"""
Walk through the bundled 7-vertex demonstration graph.

Usage:
    python3 scripts/seven_vertex_demo.py [--data data/demo7.edges]

Prints the spectrum of the normalized adjacency matrix, the per-vertex
energies by all four routes, and the bound report, in the layout used
throughout the docs: one row per vertex, 4-decimal values.
"""
from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from randic_energy import (  # noqa: E402
    ROUTE_ABS,
    bounds_report,
    coulson_vertex_energy,
    parse_edge_list,
    randic_spectrum,
    series_energies,
    series_tail_bound,
    vertex_energies,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default="data/demo7.edges")
    args = parser.parse_args(argv)

    g = parse_edge_list(pathlib.Path(args.data).read_text())
    print(f"graph: n={g.n} m={g.m} degrees={list(g.degrees)}")

    dec = randic_spectrum(g)
    print("\nspectrum of the normalized adjacency matrix:")
    print("  " + "  ".join(f"{lam:.4f}" for lam in dec.values))

    eigen = vertex_energies(g).energies
    via_abs = vertex_energies(g, route=ROUTE_ABS).energies
    series = series_energies(g, terms=400)
    coulson = [coulson_vertex_energy(g, i) for i in range(g.n)]

    print("\nper-vertex energy, four routes (series shown with its exact")
    print("truncation tail; the zero eigenvalue makes it converge slowly):")
    print("  vertex   eigen     abs     series            coulson")
    for i in range(g.n):
        tail = series_tail_bound(g, i, series.terms)
        print(f"  {i + 1:>6}  {eigen[i]:.4f}  {via_abs[i]:.4f}  "
              f"{series.energies[i]:.4f} - {tail:.4f}  {coulson[i].value:.4f}")
    total = sum(eigen)
    print(f"  {'total':>6}  {total:.4f}  {sum(via_abs):.4f}  "
          f"{series.total:.4f}           {sum(c.value for c in coulson):.4f}")
    worst = max(abs(eigen[i] - coulson[i].value) for i in range(g.n))
    print(f"  worst eigen/coulson delta: {worst:.2e}")

    report = bounds_report(g)
    print("\nbounds (lower_r2 <= energy <= tightest upper):")
    print("  vertex  lower_r2  energy  best_upper  which")
    for vb in report.vertices:
        uppers = [b for b in vb.bounds if b.kind == "upper"]
        best = min(uppers, key=lambda b: b.value)
        print(f"  {vb.vertex + 1:>6}  {vb.bound('lower_r2').value:>8.4f}  "
              f"{vb.energy:.4f}  {best.value:>10.4f}  {best.name}")
    print(f"\ngraph-level: {report.graph_lower:.4f} <= {report.energy_total:.4f}"
          f" <= {report.graph_upper:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
