"""End-to-end tests of the command-line interface.

These call main() in-process and capture stdout/stderr, so they exercise
argument parsing, report building, and both output formats without
spawning subprocesses.
"""
import dataclasses
import io
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from randic_energy import cli, spectral
from randic_energy.cli import main

from helpers import reference_json

DEMO7_PATH = str(pathlib.Path(__file__).parent.parent / "data" / "demo7.edges")
P4_TEXT = "n 4\n1 2\n2 3\n3 4\n"
DEMO7_TEXT = "n 7\n1 2\n2 3\n3 4\n2 4\n1 4\n4 5\n5 6\n4 6\n4 7\n"


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.edges"
    path.write_text(P4_TEXT)
    return str(path)


@pytest.fixture
def demo7_file(tmp_path):
    path = tmp_path / "demo7.edges"
    path.write_text(DEMO7_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# ----------------------------------------------------------------- energy

def test_star_energy_json(capsys):
    code, report, _ = run_json(capsys, "energy", "--family", "star", "--n", "6")
    assert code == 0
    assert report["graph"] == {"n": 6, "m": 5}
    assert report["command"] == "energy"
    energies = {r["vertex"]: r["eigen"] for r in report["results"]}
    assert energies[1] == pytest.approx(1.0, abs=1e-10)
    for leaf in range(2, 7):
        assert energies[leaf] == pytest.approx(0.2, abs=1e-10)


def test_energy_table_rounds_to_4dp(capsys, demo7_file):
    code, out, _ = run(capsys, "energy", "--file", demo7_file)
    assert code == 0
    assert "0.3382" in out and "0.6990" in out and "0.5468" in out


def test_multi_route_energy_reports_deltas(capsys):
    code, report, _ = run_json(capsys, "energy", "--family", "cycle", "--n", "5",
                               "--routes", "eigen,abs,series,coulson")
    assert code == 0
    deltas = report["routes"]["deltas"]
    assert set(deltas) == {"eigen/abs", "eigen/series", "eigen/coulson"}
    assert all(d < 1e-6 for d in deltas.values())
    for entry in report["results"]:
        assert set(entry) == {"vertex", "eigen", "abs", "series", "coulson"}


def test_energy_reports_eigen_diagnostics_and_series_tail_bound(capsys):
    code, report, _ = run_json(capsys, "energy", "--family", "star", "--n", "100",
                               "--routes", "eigen,abs,series")
    assert code == 0
    routes = report["routes"]
    for name in ("eigen", "abs"):
        assert 0.0 <= routes[name]["residual"] < 1e-12
        assert 0.0 <= routes[name]["orthogonality"] < 1e-12
    assert set(routes["series"]) == {"total", "terms", "tail_bound"}
    assert routes["deltas"]["eigen/series"] <= routes["series"]["tail_bound"]


def test_energy_reports_coulson_diagnostics(capsys):
    code, report, _ = run_json(capsys, "energy", "--family", "path", "--n", "6",
                               "--routes", "eigen,coulson")
    assert code == 0
    coulson = report["routes"]["coulson"]
    _, single, _ = run_json(capsys, "coulson", "--family", "path", "--n", "6")
    per_vertex = single["results"]
    assert coulson["evaluations"] == sum(r["evaluations"] for r in per_vertex)
    assert coulson["error_estimate"] == max(r["error_estimate"] for r in per_vertex)
    assert 0.0 < coulson["error_estimate"] <= coulson["tolerance"]


def test_series_route_judged_against_its_tail_bound(capsys, demo7_file):
    # demo7 has a zero eigenvalue, where the series error is close to its
    # tail bound (0.04 at 200 terms), far above the default --tol
    code, report, _ = run_json(capsys, "energy", "--file", demo7_file,
                               "--routes", "eigen,series")
    assert code == 0
    routes = report["routes"]
    assert routes["deltas"]["eigen/series"] > 1e-2
    assert routes["deltas"]["eigen/series"] <= routes["series"]["tail_bound"]
    assert report["warnings"] == []


def test_series_miss_beyond_tail_bound_warns(capsys, monkeypatch, demo7_file):
    real = cli.series_energies

    def off_by_more_than_the_bound(g):
        ser = real(g)
        shift = 2.0 * ser.tail_bound
        return dataclasses.replace(ser, energies=tuple(e + shift for e in ser.energies))

    monkeypatch.setattr(cli, "series_energies", off_by_more_than_the_bound)
    code, report, _ = run_json(capsys, "energy", "--file", demo7_file,
                               "--routes", "eigen,series")
    assert code == 0
    assert [w for w in report["warnings"] if "eigen and series disagree" in w]


def test_non_finite_report_value_exits_3_without_output(capsys, monkeypatch, demo7_file):
    real = cli.series_energies

    def nan_at_one_vertex(g):
        ser = real(g)
        return dataclasses.replace(ser, energies=(math.nan,) + ser.energies[1:])

    monkeypatch.setattr(cli, "series_energies", nan_at_one_vertex)
    code, out, err = run(capsys, "energy", "--file", demo7_file,
                         "--routes", "eigen,series", "--format", "json")
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("energy", "--family", "cycle", "--n", "9", "--routes", "eigen,abs,series"),
    ("family-info", "--family", "friendship", "--triangles", "4"),
])
def test_one_eigensolve_per_graph(capsys, monkeypatch, argv):
    eigh, calls = np.linalg.eigh, []

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    code, _, _ = run_json(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def test_coulson_builds_r_once(capsys, monkeypatch):
    real, built = spectral.randic_matrix, []

    def recording(g, **kwargs):
        built.append(real(g, **kwargs))
        return built[-1]

    # every module that looks the builder up by name, as a tracer would
    for name, module in list(sys.modules.items()):
        if (name.startswith("randic_energy")
                and getattr(module, "randic_matrix", None) is real):
            monkeypatch.setattr(module, "randic_matrix", recording)
    code, report, _ = run_json(capsys, "coulson", "--family", "path", "--n", "30")
    assert code == 0
    assert len(report["results"]) == 30
    assert len(built) >= 30  # each vertex's integrand asks for R
    assert len({id(r) for r in built}) == 1


def test_vertex_selector(capsys):
    code, report, _ = run_json(capsys, "energy", "--family", "star", "--n", "9",
                               "--vertex", "1,5")
    assert code == 0
    assert [r["vertex"] for r in report["results"]] == [1, 5]


def test_vertex_selector_keeps_first_mentions_in_order(capsys):
    code, report, _ = run_json(capsys, "coulson", "--family", "path", "--n", "6",
                               "--vertex", "5, 2,5,1,2")
    assert code == 0
    assert [r["vertex"] for r in report["results"]] == [5, 2, 1]


def test_json_round_trips_bit_exactly(capsys, demo7_file):
    code, out, _ = run(capsys, "energy", "--file", demo7_file,
                       "--routes", "eigen,series", "--format", "json")
    assert code == 0
    report = json.loads(out)
    # every numeric leaf must parse back as a float equal to the emitted token
    def check(node):
        if isinstance(node, dict):
            for v in node.values():
                check(v)
        elif isinstance(node, list):
            for v in node:
                check(v)
        elif isinstance(node, float):
            assert float("%.17g" % node) == node
    check(report)
    # ids stay integers, energies stay floats
    assert isinstance(report["results"][0]["vertex"], int)
    assert isinstance(report["results"][0]["eigen"], float)


def test_json_deterministic(capsys):
    _, out1, _ = run(capsys, "energy", "--family", "complete", "--n", "5",
                     "--format", "json")
    _, out2, _ = run(capsys, "energy", "--family", "complete", "--n", "5",
                     "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("energy", "--file", DEMO7_PATH, "--routes", "eigen,abs,series,coulson"),
    ("bounds", "--file", DEMO7_PATH),
    ("charpoly", "--file", DEMO7_PATH),
    ("coulson", "--file", DEMO7_PATH),
    ("energy", "--family", "star", "--n", "9", "--routes", "eigen,series"),
    ("bounds", "--family", "friendship", "--triangles", "3"),
    ("charpoly", "--family", "path", "--n", "8", "--vertex", "1,3"),
    ("coulson", "--family", "cycle", "--n", "7"),
    ("compare", "--family", "path", "--n", "6", "--v", "1", "--w", "3"),
    ("family-info", "--family", "complete_bipartite", "--n1", "2", "--n2", "5"),
])
def test_json_encoder_matches_reference_bytes(capsys, monkeypatch, argv):
    encode = cli._json
    reports = []

    def checked(report):
        reports.append(report)
        out = encode(report)
        assert out == reference_json(report)
        return out

    monkeypatch.setattr(cli, "_json", checked)
    code, _, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert reports


@pytest.mark.parametrize("value", [
    -0.0, 0.0, 1.0, -1.0, 1e16, -1e16, 1e17, 2e22, 1e-7, 5e-324, 2.5, 1 / 3, 1.7976931348623157e308,
    np.float64(1.0), np.float64(-0.0), np.float64(0.1),
    {}, [], (), {"a": {}}, [[], {}],
    "", "é ü → ∞", "tab\tquote\"slash\\", "\U0001f600",
    None, True, False, 0, -7, 10 ** 20,
    {"x": [1.0, True, None, "s"], 3: (2, 0.5), "y": {"x": -0.0}},
    [{"k": 1e16}, {"k": 5e-324}, {"k": np.float64(2.0)}],
    [{1: 0}, {True: 0}, {1.0: 0}, {None: 0}],  # equal keys, different text
])
def test_json_encoder_edge_cases_match_reference(value):
    assert cli._json(value) == reference_json(value)


@pytest.mark.parametrize("value", [math.nan, -math.inf, np.float64(math.inf),
                                   [1.0, math.inf], {"a": math.nan}])
def test_json_encoder_refuses_non_finite(value):
    with pytest.raises(cli.NonFiniteError):
        cli._json(value)
    with pytest.raises(cli.NonFiniteError):
        reference_json(value)


def test_json_encoder_refuses_unknown_types():
    with pytest.raises(TypeError):
        cli._json({"a": np.int64(1)})
    with pytest.raises(TypeError):
        cli._json([object()])


# ----------------------------------------------------------------- bounds

def test_bounds_report_flags_star_center(capsys):
    code, report, _ = run_json(capsys, "bounds", "--family", "star", "--n", "7")
    assert code == 0
    center = next(r for r in report["results"]
                  if r.get("scope") == "vertex" and r["vertex"] == 1)
    flagged = {b["name"] for b in center["bounds"] if b["equal"]}
    assert {"unit", "cauchy_schwarz", "refined", "series2"} <= flagged
    tail = next(r for r in report["results"] if r["scope"] == "graph")
    assert tail["holder_valid"] is True
    assert tail["lower"] <= tail["energy_total"] <= tail["upper"] + 1e-9


GOLDEN = pathlib.Path(__file__).parent / "golden"


def _assert_same_report(got, want, path="report"):
    """Same keys in the same order, same strings, ints and flags, and every
    float within 1e-14 of the golden value."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (a, b) in enumerate(zip(got, want)):
            _assert_same_report(a, b, f"{path}[{k}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-14, (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("golden, argv", [
    ("bounds_demo7.json", ("--file", DEMO7_PATH)),
    ("bounds_friendship3.json", ("--family", "friendship", "--triangles", "3")),
    ("bounds_star6.json", ("--family", "star", "--n", "6")),
    ("bounds_k23.json", ("--family", "complete_bipartite", "--n1", "2", "--n2", "3")),
])
def test_bounds_report_matches_golden(capsys, golden, argv):
    code, report, _ = run_json(capsys, "bounds", *argv)
    assert code == 0
    want = json.loads((GOLDEN / golden).read_text())
    _assert_same_report(report, want)


@pytest.mark.parametrize("golden, argv", [
    ("energy_demo7.json", ("--file", DEMO7_PATH)),
    ("energy_star12.json", ("--family", "star", "--n", "12")),
])
def test_energy_report_matches_golden_bytes(capsys, golden, argv):
    code, out, _ = run(capsys, "energy", *argv, "--routes", "eigen,abs,series",
                       "--format", "json")
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("golden, argv", [
    ("charpoly_demo7.json", ("charpoly", "--file", DEMO7_PATH)),
    ("charpoly_path8.json", ("charpoly", "--family", "path", "--n", "8", "--vertex", "1,3")),
    ("coulson_demo7.json", ("coulson", "--file", DEMO7_PATH)),
    ("coulson_cycle7.json", ("coulson", "--family", "cycle", "--n", "7")),
    ("family_info_friendship3.json", ("family-info", "--family", "friendship", "--triangles", "3")),
    ("compare_path6.json", ("compare", "--family", "path", "--n", "6", "--v", "1", "--w", "3")),
    ("energy_demo7.txt", ("energy", "--file", DEMO7_PATH, "--routes", "eigen,abs,series")),
    ("bounds_demo7.txt", ("bounds", "--file", DEMO7_PATH)),
    ("charpoly_demo7.txt", ("charpoly", "--file", DEMO7_PATH, "--vertex", "4")),
    ("coulson_demo7.txt", ("coulson", "--file", DEMO7_PATH)),
    ("compare_path6.txt", ("compare", "--family", "path", "--n", "6", "--v", "1", "--w", "3")),
    ("family_info_friendship3.txt", ("family-info", "--family", "friendship", "--triangles", "3")),
])
def test_report_matches_golden_bytes(capsys, golden, argv):
    # byte-exact goldens hold on one LAPACK build; another eigh may move the
    # last digit of a residual or a reference energy
    fmt = "json" if golden.endswith(".json") else "table"
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


# --------------------------------------------------------------- charpoly

def test_charpoly_two_routes_agree(capsys, p4_file):
    code, report, _ = run_json(capsys, "charpoly", "--file", p4_file)
    assert code == 0
    sources = {r["source"] for r in report["results"] if r["scope"] == "graph"}
    assert sources == {"trace-recurrence", "subgraph-expansion"}
    assert report["routes"]["agreement"]["max_coefficient_delta"] < 1e-12
    poly = next(r for r in report["results"]
                if r["source"] == "trace-recurrence")
    assert poly["coefficients"][0] == 1.0
    assert poly["even_b"][0] == 1.0


def test_charpoly_vertex_flag_adds_submatrix_polys(capsys, p4_file):
    code, report, _ = run_json(capsys, "charpoly", "--file", p4_file,
                               "--vertex", "2")
    assert code == 0
    sub = [r for r in report["results"] if r["scope"] == "vertex"]
    assert len(sub) == 1 and sub[0]["vertex"] == 2
    assert len(sub[0]["coefficients"]) == 4  # degree 3 after deleting a row


def test_charpoly_accepts_disconnected_input(capsys, tmp_path):
    path = tmp_path / "two.edges"
    path.write_text("n 4\n1 2\n3 4\n")
    code, report, _ = run_json(capsys, "charpoly", "--file", str(path))
    assert code == 0
    poly = report["results"][0]["coefficients"]
    # R of two disjoint edges has spectrum {1, 1, -1, -1}
    assert poly == pytest.approx([1.0, 0.0, -2.0, 0.0, 1.0], abs=1e-12)


# ----------------------------------------------------------------- coulson

def test_coulson_matches_reference(capsys, demo7_file):
    code, report, _ = run_json(capsys, "coulson", "--file", demo7_file)
    assert code == 0
    for entry in report["results"]:
        assert entry["converged"] is True
        assert abs(entry["delta"]) < 1e-5
        assert entry["value"] == pytest.approx(entry["reference"], abs=1e-5)


def test_coulson_unreachable_tolerance_exits_3(capsys):
    # below what rounding lets two panel sums agree to; on star(12) the hub
    # converges at 1e-13 but not at 1e-14, the leaves at 1e-14 (error 7e-17)
    code, report, _ = run_json(capsys, "coulson", "--family", "star", "--n", "12",
                               "--tol", "1e-16")
    assert code == 3
    assert any(not r["converged"] for r in report["results"])
    assert report["warnings"]


# ----------------------------------------------------------------- compare

def test_compare_path_end_vs_interior(capsys, p4_file):
    code, report, _ = run_json(capsys, "compare", "--file", p4_file,
                               "--v", "1", "--w", "2")
    assert code == 0
    verdict = report["results"][0]
    assert verdict["comparison"] == "LessEq"
    assert verdict["status"] == "witnessed"
    assert verdict["energy_v"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert verdict["energy_w"] == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_compare_rejects_odd_cycle(capsys):
    code, _, err = run(capsys, "compare", "--family", "cycle", "--n", "5",
                       "--v", "1", "--w", "2")
    assert code == 2
    assert "bipartite" in err


@pytest.mark.parametrize("argv, message", [
    (("energy", "--vertex", "2,9"), "--vertex: id 9 out of range 1..5"),
    (("coulson", "--vertex", "0"), "--vertex: id 0 out of range 1..5"),
    (("compare", "--v", "0", "--w", "2"), "--v: id 0 out of range 1..5"),
    (("compare", "--v", "1", "--w", "6"), "--w: id 6 out of range 1..5"),
])
def test_cli_vertex_range_checks_speak_one_based(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--family", "path", "--n", "5")
    assert code == 2 and out == ""
    assert err.strip().endswith(message)


@pytest.mark.parametrize("text, count", [("n\n1 2\n", "n"), ("n x\n1 2\n", "x")])
def test_header_without_a_count_exits_2(capsys, tmp_path, text, count):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    code, out, err = run(capsys, "energy", "--file", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: line 1: bad vertex count '{count}'\n"


def test_compare_requires_vertex_pair(capsys, p4_file):
    code, _, err = run(capsys, "compare", "--file", p4_file)
    assert code == 2
    assert "--v" in err


# -------------------------------------------------------------- family-info

def test_family_info_friendship(capsys):
    code, report, _ = run_json(capsys, "family-info", "--family", "friendship",
                               "--triangles", "4")
    assert code == 0
    by_class = {r["class"]: r for r in report["results"]}
    assert by_class["hub"]["energy"] == pytest.approx(2.0 / 3.0)
    assert by_class["leaf"]["energy"] == pytest.approx(13.0 / 24.0)
    assert len(by_class["leaf"]["vertices"]) == 8
    assert report["routes"]["total_energy"] == pytest.approx(5.0, abs=1e-9)


def test_family_info_cycle_closed_form(capsys):
    code, report, _ = run_json(capsys, "family-info", "--family", "cycle",
                               "--n", "8")
    assert code == 0
    entry = report["results"][0]
    expected = 2.0 * math.cos(math.pi / 8) / (8 * math.sin(math.pi / 8))
    assert entry["energy"] == pytest.approx(expected, abs=1e-12)
    assert entry["closed_form"] is True


# -------------------------------------------------------- input validation

def test_requires_exactly_one_source(capsys, p4_file):
    code, _, err = run(capsys, "energy", "--file", p4_file,
                       "--family", "star", "--n", "4")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "energy")
    assert code == 2 and "exactly one" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "energy", "--file", "/nonexistent/g.edges")
    assert code == 2
    assert "cannot read" in err


def test_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("n 3\n1 2 3\n")
    code, _, err = run(capsys, "energy", "--file", str(path))
    assert code == 2
    assert "line 2" in err


def test_disconnected_message_names_the_requirement(capsys, tmp_path):
    path = tmp_path / "disc.edges"
    path.write_text("n 4\n1 2\n3 4\n")
    code, _, err = run(capsys, "energy", "--file", str(path))
    assert code == 2
    assert "connected" in err and "--per-component" in err


def test_per_component_runs_each_piece(capsys, tmp_path):
    path = tmp_path / "disc.edges"
    path.write_text("n 5\n1 2\n3 4\n4 5\n")
    code, out, _ = run(capsys, "energy", "--file", str(path),
                       "--per-component", "--format", "json")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["graph"]["n"] for r in reports] == [2, 3]
    assert reports[1]["graph"]["vertices"] == [3, 4, 5]
    # original 1-based ids are preserved inside component reports
    assert [e["vertex"] for e in reports[1]["results"]] == [3, 4, 5]


@pytest.fixture
def path3_plus_edge(tmp_path):
    path = tmp_path / "two.edges"
    path.write_text("n 5\n1 2\n2 3\n4 5\n")
    return str(path)


@pytest.mark.parametrize("command, last_lines", [
    ("energy", ["vertex   eigen", " total  2.0000"]),
    ("bounds", ["vertex  energy  unit  cauchy_schwarz  refined  series2  series3"
                "  lower_r2  lower_holder  equal",
                "graph: energy=2.0000  lower=2.0000  upper=2.0000  holder_valid=yes"]),
])
def test_per_component_table_without_selected_vertices(capsys, path3_plus_edge,
                                                       command, last_lines):
    # --vertex 1 picks nothing in the component {4, 5}
    code, out, err = run(capsys, command, "--file", path3_plus_edge,
                         "--per-component", "--vertex", "1")
    assert code == 0 and err == ""
    first, second = out.rstrip("\n").split("\n\n")
    assert first.splitlines()[2].split()[0] == "1"
    assert second.splitlines() == ["graph: n=2 m=1  component=1 vertices=4,5",
                                   *last_lines]


def test_energy_table_columns_keep_the_route_order_asked(capsys, path3_plus_edge):
    code, out, _ = run(capsys, "energy", "--file", path3_plus_edge, "--per-component",
                       "--vertex", "1", "--routes", "series,abs,series,eigen")
    assert code == 0
    for table in out.rstrip("\n").split("\n\n"):
        lines = table.splitlines()
        assert lines[1].split() == ["vertex", "series", "abs", "eigen"]
        assert lines[-1].startswith("route deltas: series/abs=")


@pytest.mark.parametrize("argv", [
    ("energy", "--per-component"),
    ("bounds", "--per-component"),
    ("coulson", "--per-component"),
    ("charpoly", "--per-component"),
    ("charpoly",),
])
def test_vertex_range_checked_against_the_whole_file(capsys, path3_plus_edge, argv):
    # the message a connected input gives without --per-component
    code, out, err = run(capsys, *argv, "--file", path3_plus_edge, "--vertex", "2,9")
    assert code == 2 and out == ""
    assert err == "error: --vertex: id 9 out of range 1..5\n"


@pytest.fixture
def isolated7_file(tmp_path):
    path = tmp_path / "iso.edges"
    path.write_text("n 7\n1 2\n2 3\n1 3\n4 5\n5 6\n")  # vertex 7 is isolated
    return str(path)


def test_charpoly_names_isolated_vertices_by_input_id(capsys, isolated7_file):
    code, out, err = run(capsys, "charpoly", "--file", isolated7_file)
    assert code == 2 and out == ""
    assert err == "error: isolated vertices [7] have degree 0\n"


def test_charpoly_per_component_skips_single_vertices(capsys, isolated7_file):
    code, out, _ = run(capsys, "charpoly", "--file", isolated7_file,
                       "--per-component", "--format", "json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["graph"]["vertices"] for r in reports] == [[1, 2, 3], [4, 5, 6]]
    for report in reports:
        assert report["warnings"] == ["component 2 is a single vertex (7); skipped"]


def test_per_component_table_prints_each_warning_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "two.edges"
    path.write_text("n 7\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n2 1\n")  # 7 is isolated
    energy = cli.COMMANDS["energy"]

    def run_and_warn(job, args, report):
        code = energy.run(job, args, report)
        report["warnings"].append(f"own warning of component {job.component}")
        return code

    monkeypatch.setitem(cli.COMMANDS, "energy", energy._replace(run=run_and_warn))
    code, out, err = run(capsys, "energy", "--file", str(path), "--per-component")
    assert code == 0 and out.count("graph: ") == 2
    assert err.splitlines() == [
        "warning: line 8: duplicate edge 2 1 ignored",
        "warning: component 2 is a single vertex (7); skipped",
        "warning: own warning of component 0",
        "warning: own warning of component 1",
    ]
    # JSON keeps the input's warnings in every report
    code, out, err = run(capsys, "energy", "--file", str(path), "--per-component",
                         "--format", "json")
    assert code == 0 and err == ""
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["warnings"] for r in reports] == [
        ["line 8: duplicate edge 2 1 ignored", "component 2 is a single vertex (7); skipped",
         f"own warning of component {k}"] for k in (0, 1)]


@pytest.mark.parametrize("routes", ["", ","])
def test_no_route_is_refused_in_either_spelling(capsys, routes):
    code, out, err = run(capsys, "energy", "--family", "star", "--n", "4", "--routes", routes)
    assert code == 2 and out == ""
    assert err == ("error: --routes: unknown route ''; "
                   "expected a comma list from eigen,abs,series,coulson\n")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_closed_stdout_exits_1_without_a_traceback(capsys, monkeypatch, fmt):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["energy", "--family", "star", "--n", "4", "--format", fmt]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, message", [
    (("energy",), "vertex energy needs at least 2 vertices"),
    (("coulson",), "vertex energy needs at least 2 vertices"),
    (("charpoly",), "isolated vertices [1] have degree 0"),
    (("charpoly", "--per-component"), "no component with at least 2 vertices"),
])
def test_single_vertex_file(capsys, tmp_path, argv, message):
    path = tmp_path / "one.edges"
    path.write_text("n 1\n")
    code, out, err = run(capsys, *argv, "--file", str(path))
    assert code == 2 and out == ""
    assert err.strip().endswith(message)


def test_bad_family_parameters(capsys):
    code, _, err = run(capsys, "energy", "--family", "cycle", "--n", "2")
    assert code == 2
    code, _, err = run(capsys, "energy", "--family", "nosuch", "--n", "5")
    assert code == 2
    assert "unknown family" in err


def test_back_to_back_calls_share_no_state(capsys, monkeypatch):
    # main parses with one parser per process; nothing one call sets may
    # reach the next
    monkeypatch.delenv("RANDIC_TOL", raising=False)
    star4 = ("--family", "star", "--n", "4")
    _, report, _ = run_json(capsys, "energy", *star4, "--routes", "eigen,abs")
    assert set(report["routes"]) == {"eigen", "abs", "deltas"}
    _, report, _ = run_json(capsys, "energy", *star4)
    assert set(report["routes"]) == {"eigen"}
    assert all(set(row) == {"vertex", "eigen"} for row in report["results"])
    _, report, _ = run_json(capsys, "coulson", *star4, "--tol", "1e-3")
    assert report["routes"]["quadrature"]["tolerance"] == 1e-3
    _, report, _ = run_json(capsys, "coulson", *star4)
    assert report["routes"]["quadrature"]["tolerance"] == cli.COMMANDS["coulson"].tol


def test_env_tolerance_must_be_numeric(capsys, monkeypatch):
    monkeypatch.setenv("RANDIC_TOL", "abc")
    code, _, err = run(capsys, "energy", "--family", "star", "--n", "4")
    assert code == 2
    assert "RANDIC_TOL" in err


def test_env_tolerance_is_used(capsys, monkeypatch):
    # an absurdly tight agreement threshold must trigger a warning
    monkeypatch.setenv("RANDIC_TOL", "1e-300")
    code, report, _ = run_json(capsys, "energy", "--family", "path", "--n", "5",
                               "--routes", "eigen,coulson")
    assert code == 0
    assert any("disagree" in w for w in report["warnings"])


def test_flag_tolerance_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("RANDIC_TOL", "1e-300")
    code, report, _ = run_json(capsys, "energy", "--family", "path", "--n", "5",
                               "--routes", "eigen,coulson", "--tol", "1e-3")
    assert code == 0
    assert not report["warnings"]
    # in energy, --tol is the agreement threshold; the quadrature keeps its own
    assert report["routes"]["coulson"]["tolerance"] == 1e-7


@pytest.mark.parametrize("command", ["energy", "bounds", "coulson"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-3"])
def test_flag_tolerance_must_be_positive_and_finite(capsys, command, tol):
    code, out, err = run(capsys, command, "--family", "star", "--n", "5", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "--tol must be positive and finite" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_env_tolerance_must_be_positive_and_finite(capsys, monkeypatch, tol):
    monkeypatch.setenv("RANDIC_TOL", tol)
    code, out, err = run(capsys, "coulson", "--family", "star", "--n", "5")
    assert code == 2
    assert out == ""
    assert "RANDIC_TOL must be positive and finite" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "energy" in out and "compare" in out
