"""Command-line front end: parse or generate a graph, analyze, print.

Vertex ids are 1-based everywhere on the surface (files, flags, tables,
JSON) and converted to the library's 0-based convention at the boundary.
Table output rounds to 4 decimals; JSON carries full double precision
(17 significant digits) and is deterministic byte-for-byte, so reports
can be diffed across runs and machines.

Exit codes: 0 success, 1 stdout closed before the reports were written,
2 bad input or usage, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from .bounds import EQUALITY_TOL, LOWER_BOUNDS, UPPER_BOUNDS, bounds_report
from .charpoly import (
    MAX_ENUMERATION_N,
    ODD_COEFF_TOL,
    MODE_SUBMATRIX,
    char_poly_combinatorial,
    char_poly_numeric,
    even_coefficients,
    principal_submatrix_poly,
    vertex_order_check,
)
from .coulson import DEFAULT_TOL, MAX_LEVELS, NODES_PER_PANEL, coulson_vertex_energy
from .energy import (
    ROUTE_ABS,
    ROUTE_EIGEN,
    graph_energy,
    ordered_sum,
    series_energies,
    vertex_energies,
)
from .families import (
    FamilyKind,
    FamilySpec,
    closed_form_energy,
    generate,
    vertex_classes,
)
from .graph import (
    Graph,
    GraphParseError,
    check_vertex,
    connected_components,
    induced_subgraph,
    is_connected,
    parse_edge_list_report,
)
from .spectral import ConvergenceError, randic_matrix, randic_spectrum

EXIT_OK = 0
EXIT_CLOSED_PIPE = 1  # stdout's reader closed it before all was written
EXIT_INPUT = 2
EXIT_NUMERIC = 3

#: flag spelling -> computation route for the energy command
ROUTE_NAMES = ("eigen", "abs", "series", "coulson")


class CliError(Exception):
    """Bad request; maps to exit code 2."""


class NonFiniteError(ValueError):
    """A report holds NaN or an infinity, which JSON cannot carry; maps to exit code 3."""


# ----------------------------------------------------------- serialization

def _json(obj) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    The stdlib encoder uses shortest-repr floats; fixed 17-digit output is
    chosen instead so that reports diff cleanly across Python versions
    while still round-tripping bit-exactly. A NaN or infinite float raises
    ``NonFiniteError``: ``json.loads`` rejects the bare ``nan`` token.
    Containers are dicts, lists and tuples; scalars are None, bool, int,
    float and str, subclasses (``numpy.float64``) included.
    """
    parts: list[str] = []
    _encode(obj, parts.append, {})
    return "".join(parts)


def _float_token(x: float) -> str:
    out = "%.17g" % x
    if "." in out or "e" in out:
        return out
    # "nan" and "inf" carry neither, so only here can x be non-finite
    if not math.isfinite(x):
        raise NonFiniteError(f"report value {x} has no JSON form")
    # keep the token a float so parsing recovers the value bit-exactly
    # (otherwise 1.0 emits as "1" and -0.0 as "-0", both read back as int)
    return out + ".0"


def _encode(obj, emit, keys: dict) -> None:
    """Append the tokens of ``obj`` through ``emit``; ``keys`` caches the
    encoded ``"key": `` prefix of each distinct str key."""
    kind = type(obj)
    if kind is float:
        emit(_float_token(obj))
    elif kind is dict:
        _encode_dict(obj, emit, keys)
    elif kind is list or kind is tuple:
        _encode_items(obj, emit, keys)
    elif kind is str:
        emit(encode_basestring_ascii(obj))
    elif kind is int:
        emit(str(obj))
    elif obj is None:
        emit("null")
    elif kind is bool:
        emit("true" if obj else "false")
    # subclasses of the types above
    elif isinstance(obj, str):
        emit(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        emit(str(obj))
    elif isinstance(obj, float):
        emit(_float_token(obj))
    elif isinstance(obj, dict):
        _encode_dict(obj, emit, keys)
    elif isinstance(obj, (list, tuple)):
        _encode_items(obj, emit, keys)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _encode_dict(obj: dict, emit, keys: dict) -> None:
    opening = "{"
    for key, value in obj.items():
        if type(key) is str:
            prefix = keys.get(key)
            if prefix is None:
                prefix = keys[key] = encode_basestring_ascii(key) + ": "
        else:  # 1, 1.0 and True are one dict key but three texts
            prefix = encode_basestring_ascii(str(key)) + ": "
        emit(opening)
        emit(prefix)
        if type(value) is float:
            emit(_float_token(value))
        else:
            _encode(value, emit, keys)
        opening = ", "
    emit("{}" if opening == "{" else "}")


def _encode_items(seq, emit, keys: dict) -> None:
    opening = "["
    for value in seq:
        emit(opening)
        if type(value) is float:
            emit(_float_token(value))
        else:
            _encode(value, emit, keys)
        opening = ", "
    emit("[]" if opening == "[" else "]")


def _table(rows: list[list[str]], align: str) -> str:
    """Pad columns; ``align`` holds one of ``<``/``>`` per column."""
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [f"{cell:{align[c]}{widths[c]}}" for c, cell in enumerate(row)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _f4(x: float) -> str:
    return f"{x:.4f}"


def _g4(x: float) -> str:
    return f"{x:.4g}"


# ----------------------------------------------------------- input handling

def _family_spec(args) -> FamilySpec:
    try:
        kind = FamilyKind(args.family)
    except ValueError:
        names = ", ".join(k.value for k in FamilyKind)
        raise CliError(f"unknown family {args.family!r}; expected one of {names}")
    return FamilySpec(kind=kind, n=args.n, n1=args.n1, n2=args.n2,
                      triangles=args.triangles)


class Job(NamedTuple):
    """One graph to analyze: the whole input, or one of its components."""
    graph: Graph
    ids: list[int]          # 1-based input id of each vertex
    component: int | None   # component index under --per-component
    selected: list[int]     # 0-based vertices picked by --vertex, in order


def _job(g: Graph, vertices, component: int | None, wanted: list[int]) -> Job:
    """``vertices[i]`` is the input vertex behind g's vertex i (0-based)."""
    index = {v: i for i, v in enumerate(vertices)}
    return Job(g, [v + 1 for v in vertices], component,
               [index[v] for v in wanted if v in index])


def _load(args) -> tuple[list[Job], list[str]]:
    """Resolve the input source to a list of jobs and ingestion warnings:
    one job normally, one per component of at least 2 vertices under
    --per-component."""
    if (args.file is None) == (args.family is None):
        raise CliError("exactly one of --file or --family is required")

    if args.family is not None:
        if args.per_component:
            raise CliError("--per-component applies to --file input only")
        g, warnings = generate(_family_spec(args)), []
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc.strerror or exc}")
        try:
            g, warnings = parse_edge_list_report(text)
        except GraphParseError as exc:
            raise CliError(f"{args.file}: {exc}")
        if not args.per_component and args.command != "charpoly" and not is_connected(g):
            raise CliError(
                f"{args.file}: graph is disconnected; vertex energies are "
                "defined for connected graphs only (re-run with "
                "--per-component to analyze each component separately)"
            )
    # --vertex names input ids, so it is checked against the whole input
    wanted = _vertex_ids(args.vertex, g.n)
    if not args.per_component:
        return [_job(g, range(g.n), None, wanted)], warnings

    jobs = []
    for k, comp in enumerate(connected_components(g)):
        if len(comp) == 1:
            warnings.append(
                f"component {k} is a single vertex ({comp[0] + 1}); skipped"
            )
            continue
        jobs.append(_job(induced_subgraph(g, comp), comp, k, wanted))
    if not jobs:
        raise CliError(f"{args.file}: no component with at least 2 vertices")
    return jobs, warnings


def _vertex_index(vid: int, n: int, option: str) -> int:
    """0-based index of the 1-based id ``vid`` given to ``option``."""
    try:
        check_vertex(n, vid - 1)
    except ValueError:
        raise CliError(f"{option}: id {vid} out of range 1..{n}") from None
    return vid - 1


def _vertex_ids(spec: str | None, n: int) -> list[int]:
    """The 0-based vertices that --vertex names, first mention first; all n
    when the option is absent."""
    if spec is None:
        return list(range(n))
    picked = []
    for token in spec.split(","):
        token = token.strip()
        try:
            vid = int(token)
        except ValueError:
            raise CliError(f"--vertex: {token!r} is not an integer id")
        picked.append(_vertex_index(vid, n, "--vertex"))
    return list(dict.fromkeys(picked))


def _graph_header(job: Job) -> dict:
    head = {"n": job.graph.n, "m": job.graph.m}
    if job.component is not None:
        head["component"] = job.component
        head["vertices"] = job.ids
    return head


# ----------------------------------------------------------- command bodies

def _run_energy(job: Job, args, report: dict) -> int:
    g = job.graph
    routes = list(dict.fromkeys(name.strip() for name in args.routes.split(",")))
    for name in routes:
        if name not in ROUTE_NAMES:
            raise CliError(f"--routes: unknown route {name!r}; "
                           f"expected a comma list from {','.join(ROUTE_NAMES)}")

    per_route: dict[str, list[float]] = {}
    meta = report["routes"]
    for name, route in (("eigen", ROUTE_EIGEN), ("abs", ROUTE_ABS)):
        if name in routes:
            vec = vertex_energies(g, route=route)
            dec = randic_spectrum(g)
            per_route[name] = list(vec.energies)
            meta[name] = {"total": vec.total, "residual": dec.residual,
                          "orthogonality": dec.orthogonality}
    if "series" in routes:
        ser = series_energies(g)
        per_route["series"] = list(ser.energies)
        meta["series"] = {"total": ser.total, "terms": ser.terms,
                          "tail_bound": ser.tail_bound}
    if "coulson" in routes:
        # --tol here is the route agreement threshold, not a quadrature target
        quadratures = [coulson_vertex_energy(g, i) for i in range(g.n)]
        converged = all(res.converged for res in quadratures)
        per_route["coulson"] = [res.value for res in quadratures]
        meta["coulson"] = {"total": ordered_sum(per_route["coulson"]),
                           "converged": converged, "tolerance": DEFAULT_TOL,
                           "evaluations": sum(res.evaluations for res in quadratures),
                           "error_estimate": max(res.error_estimate for res in quadratures)}
        if not converged:
            report["warnings"].append("quadrature did not converge on every vertex")

    if len(routes) > 1:
        base = routes[0]
        deltas = meta["deltas"] = {}
        for other in routes[1:]:
            d = max(abs(a - b) for a, b in zip(per_route[base], per_route[other]))
            deltas[f"{base}/{other}"] = d
            # the series route is only as close as its truncation bound
            threshold = args.tol
            if "series" in (base, other):
                threshold += meta["series"]["tail_bound"]
            if d > threshold:
                report["warnings"].append(
                    f"routes {base} and {other} disagree by {d:.3e} "
                    f"(threshold {threshold:g})"
                )

    report["results"] = [{"vertex": job.ids[idx], **{r: per_route[r][idx] for r in routes}}
                         for idx in job.selected]
    return EXIT_OK


def _run_bounds(job: Job, args, report: dict) -> int:
    bounds = bounds_report(job.graph, equality_tol=args.tol)
    if not bounds.holder_valid:
        report["warnings"].append("Holder-type lower bound violated somewhere; "
                                  "it is reported but not asserted")
    for idx in job.selected:
        vb = bounds.vertices[idx]
        report["results"].append({
            "scope": "vertex",
            "vertex": job.ids[idx],
            "energy": vb.energy,
            "s": vb.s,
            "q": vb.q,
            "bounds": [
                {"name": b.name, "kind": b.kind, "value": b.value,
                 "slack": b.slack, "equal": b.equal,
                 "equality_case": b.equality_case, "asserted": b.asserted}
                for b in vb.bounds
            ],
        })
    report["results"].append({
        "scope": "graph",
        "energy_total": bounds.energy_total,
        "randic_index_minus1": bounds.randic_index_minus1,
        "lower": bounds.graph_lower,
        "upper": bounds.graph_upper,
        "holder_valid": bounds.holder_valid,
    })
    return EXIT_OK


def _run_charpoly(job: Job, args, report: dict) -> int:
    g = job.graph
    # named here by input id: randic_matrix would name them 0-based
    isolated = [job.ids[v] for v, d in enumerate(g.degrees) if d == 0]
    if isolated:
        raise CliError(f"isolated vertices {isolated} have degree 0")
    numeric = char_poly_numeric(randic_matrix(g))
    results = report["results"]
    results.append({
        "scope": "graph",
        "source": "trace-recurrence",
        "coefficients": list(numeric.coefficients),
    })
    if g.n <= MAX_ENUMERATION_N:
        combinatorial = char_poly_combinatorial(g)
        results.append({
            "scope": "graph",
            "source": "subgraph-expansion",
            "coefficients": list(combinatorial.coefficients),
        })
        delta = max(abs(a - b) for a, b in
                    zip(numeric.coefficients, combinatorial.coefficients))
        report["routes"]["agreement"] = {"max_coefficient_delta": delta}
        if delta > args.tol:
            report["warnings"].append(f"polynomial routes disagree by {delta:.3e}")
    else:
        report["warnings"].append(
            f"n={g.n} exceeds the subgraph-enumeration cap "
            f"({MAX_ENUMERATION_N}); only the trace recurrence was run"
        )
    try:
        even = even_coefficients(numeric, tol=args.tol)
        results[0]["even_b"] = list(even.b)
    except ValueError:
        pass  # spectrum not symmetric about zero; b_k undefined
    if args.vertex is not None:
        for idx in job.selected:
            sub = principal_submatrix_poly(g, idx)
            results.append({
                "scope": "vertex",
                "vertex": job.ids[idx],
                "source": "trace-recurrence",
                "coefficients": list(sub.coefficients),
            })
    return EXIT_OK


def _run_coulson(job: Job, args, report: dict) -> int:
    g = job.graph
    reference = vertex_energies(g).energies
    for idx in job.selected:
        res = coulson_vertex_energy(g, idx, tol=args.tol)
        report["results"].append({
            "vertex": job.ids[idx],
            "value": res.value,
            "error_estimate": res.error_estimate,
            "converged": res.converged,
            "evaluations": res.evaluations,
            "reference": reference[idx],
            "delta": res.value - reference[idx],
        })
    converged = all(entry["converged"] for entry in report["results"])
    if not converged:
        report["warnings"].append("quadrature did not converge on every requested vertex")
    report["routes"] = {"quadrature": {"tolerance": args.tol,
                                       "nodes_per_panel": NODES_PER_PANEL,
                                       "max_levels": MAX_LEVELS},
                        "reference": "eigen"}
    return EXIT_OK if converged else EXIT_NUMERIC


def _run_compare(job: Job, args, report: dict) -> int:
    g = job.graph
    if args.v is None or args.w is None:
        raise CliError("compare requires --v and --w vertex ids")
    v = _vertex_index(args.v, g.n, "--v")
    w = _vertex_index(args.w, g.n, "--w")
    check = vertex_order_check(g, v, w, mode=MODE_SUBMATRIX, tol=args.tol,
                               strict=False)
    if check.status == "violated":
        report["warnings"].append("ordering rule violated; see the result record")
    report["results"].append({
        "v": args.v,
        "w": args.w,
        "mode": check.mode,
        "comparison": check.comparison.value,
        "energy_v": check.energy_v,
        "energy_w": check.energy_w,
        "status": check.status,
    })
    return EXIT_OK


def _run_family_info(job: Job, args, report: dict) -> int:
    spec = _family_spec(args)
    g = job.graph
    computed = vertex_energies(g).energies
    classes = vertex_classes(spec)
    results = report["results"]
    if classes:
        for cls, members in classes.items():
            closed = closed_form_energy(spec, cls)
            observed = computed[members[0]]
            if abs(closed.value - observed) > args.tol:
                report["warnings"].append(
                    f"class {cls.value}: closed form {closed.value:.12g} vs "
                    f"computed {observed:.12g}"
                )
            results.append({
                "class": cls.value,
                "vertices": [m + 1 for m in members],
                "energy": closed.value,
                "closed_form": closed.closed_form,
                "computed": observed,
            })
    else:
        report["warnings"].append(f"no closed-form classes for {spec.kind.value}; "
                                  "reporting computed energies")
        for i in range(g.n):
            results.append({"class": "vertex", "vertices": [i + 1],
                            "energy": computed[i], "closed_form": False,
                            "computed": computed[i]})
    report["routes"] = {"label": spec.label(), "total_energy": graph_energy(g)}
    return EXIT_OK


# ----------------------------------------------------------- table rendering

def _graph_line(report: dict) -> str:
    g = report["graph"]
    head = f"graph: n={g['n']} m={g['m']}"
    if "component" in g:
        head += f"  component={g['component']} vertices=" + \
            ",".join(str(v) for v in g["vertices"])
    return head


def _render_energy(report: dict) -> str:
    meta = report["routes"]
    # the per-route entries come in a fixed order; the "base/other" delta
    # keys keep the order the routes were asked in
    pairs = [key.split("/") for key in meta.get("deltas", ())]
    routes = [pairs[0][0]] + [other for _, other in pairs] if pairs else list(meta)
    rows = [["vertex"] + routes]
    for entry in report["results"]:
        rows.append([str(entry["vertex"])] + [_f4(entry[r]) for r in routes])
    rows.append(["total"] + [_f4(meta[r]["total"]) for r in routes])
    lines = [_graph_line(report), _table(rows, ">" * (1 + len(routes)))]
    if pairs:
        deltas = "  ".join(f"{k}={_g4(v)}" for k, v in meta["deltas"].items())
        lines.append(f"route deltas: {deltas}")
    return "\n".join(lines)


def _render_bounds(report: dict) -> str:
    names = [*UPPER_BOUNDS, *LOWER_BOUNDS]
    *vertex_rows, tail = report["results"]  # the graph row comes last
    rows = [["vertex", "energy"] + names + ["equal"]]
    for entry in vertex_rows:
        flagged = ",".join(b["name"] for b in entry["bounds"] if b["equal"]) or "-"
        rows.append([str(entry["vertex"]), _f4(entry["energy"])]
                    + [_f4(b["value"]) for b in entry["bounds"]]
                    + [flagged])
    return "\n".join([
        _graph_line(report),
        _table(rows, ">" * (2 + len(names)) + "<"),
        f"graph: energy={_f4(tail['energy_total'])}"
        f"  lower={_f4(tail['lower'])}  upper={_f4(tail['upper'])}"
        f"  holder_valid={'yes' if tail['holder_valid'] else 'no'}",
    ])


def _render_charpoly(report: dict) -> str:
    graph_rows = [r for r in report["results"] if r["scope"] == "graph"]
    degree = len(graph_rows[0]["coefficients"]) - 1
    rows = [["power"] + [r["source"] for r in graph_rows]]
    for k in range(degree + 1):
        rows.append([f"x^{degree - k}"]
                    + [_g4(r["coefficients"][k]) for r in graph_rows])
    lines = [_graph_line(report), _table(rows, ">" * (1 + len(graph_rows)))]
    agreement = report["routes"].get("agreement")
    if agreement:
        lines.append(f"max coefficient delta = "
                     f"{_g4(agreement['max_coefficient_delta'])}")
    if "even_b" in graph_rows[0]:
        lines.append("even b_k: " +
                     ", ".join(_g4(b) for b in graph_rows[0]["even_b"]))
    for entry in report["results"]:
        if entry["scope"] == "vertex":
            lines.append(f"vertex {entry['vertex']} principal submatrix: " +
                         ", ".join(_g4(c) for c in entry["coefficients"]))
    return "\n".join(lines)


def _render_coulson(report: dict) -> str:
    rows = [["vertex", "value", "reference", "delta", "err_est", "converged"]]
    for e in report["results"]:
        rows.append([str(e["vertex"]), _f4(e["value"]), _f4(e["reference"]),
                     _g4(e["delta"]), _g4(e["error_estimate"]),
                     "yes" if e["converged"] else "NO"])
    return _graph_line(report) + "\n" + _table(rows, ">>>>><")


def _render_compare(report: dict) -> str:
    e = report["results"][0]
    return "\n".join([
        _graph_line(report),
        f"remove w={e['w']} vs remove v={e['v']}: coefficientwise "
        f"{e['comparison']} -> {e['status']}",
        f"energy(v={e['v']})={_f4(e['energy_v'])}  "
        f"energy(w={e['w']})={_f4(e['energy_w'])}",
    ])


def _render_family_info(report: dict) -> str:
    g, routes = report["graph"], report["routes"]
    rows = [["class", "count", "energy", "closed_form", "computed"]]
    for e in report["results"]:
        rows.append([e["class"], str(len(e["vertices"])), _f4(e["energy"]),
                     "yes" if e["closed_form"] else "no", _f4(e["computed"])])
    return (f"{routes['label']}: n={g['n']} m={g['m']}  "
            f"total={_f4(routes['total_energy'])}\n" + _table(rows, "<>><>"))


# ----------------------------------------------------------- the commands

class Command(NamedTuple):
    # fills the "results" and "routes" of the report main built for a job,
    # appends to its "warnings", and returns the job's exit code
    run: Callable[[Job, argparse.Namespace, dict], int]
    render: Callable[[dict], str]  # the report as a table
    tol: float            # default --tol; its meaning is the command's own
    help: str
    options: tuple = ()   # (flag, add_argument keywords) beyond the common ones


COMMANDS = {
    "energy": Command(
        _run_energy, _render_energy, 1e-6,  # route agreement warning threshold
        "per-vertex energies by one or more routes",
        (("--routes", {"default": "eigen",
                       "help": "comma list from eigen,abs,series,coulson"}),)),
    "bounds": Command(
        _run_bounds, _render_bounds, EQUALITY_TOL,
        "all closed-form bounds with slack and equality flags"),
    "charpoly": Command(
        _run_charpoly, _render_charpoly, ODD_COEFF_TOL,
        "characteristic polynomial of the normalized adjacency matrix, "
        "by two independent routes"),
    "coulson": Command(
        _run_coulson, _render_coulson, 1e-7,  # quadrature target
        "contour-integral energies with error estimates"),
    "compare": Command(
        _run_compare, _render_compare, 1e-9,
        "quasi-order verdict for a vertex pair (bipartite graphs)",
        (("--v", {"type": int, "help": "first vertex id (1-based)"}),
         ("--w", {"type": int, "help": "second vertex id (1-based)"}))),
    "family-info": Command(
        _run_family_info, _render_family_info, 1e-8,  # closed form vs computed check
        "closed-form energies per symmetry class of a family"),
}


# ----------------------------------------------------------- argument parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randic-energy",
        description="Per-vertex Randic energy of simple connected graphs: "
                    "spectral, series, and contour-integral routes, with "
                    "bound reports and ordering checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    src = common.add_argument_group("input (exactly one)")
    src.add_argument("--file", help="edge-list file: optional 'n <count>' "
                                    "header, then '<u> <v>' per line, 1-based")
    src.add_argument("--family",
                     help="generate a graph family: " +
                          ", ".join(k.value for k in FamilyKind))
    common.add_argument("--n", type=int, help="family size")
    common.add_argument("--n1", type=int, help="first side of complete_bipartite")
    common.add_argument("--n2", type=int, help="second side of complete_bipartite")
    common.add_argument("--triangles", type=int, help="triangle count for friendship")
    common.add_argument("--format", choices=("table", "json"), default="table")
    common.add_argument("--tol", type=float,
                        help="command tolerance (default from RANDIC_TOL "
                             "or a per-command value)")
    common.add_argument("--vertex", help="restrict per-vertex output to these "
                                         "1-based ids, comma separated")
    common.add_argument("--per-component", action="store_true",
                        help="analyze each connected component of a "
                             "disconnected file separately")

    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], help=command.help)
        for flag, keywords in command.options:
            cmd.add_argument(flag, **keywords)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` returns a fresh
    namespace on every call and leaves the parser as it found it."""
    return build_parser()


def _resolve_tol(args) -> None:
    env = os.environ.get("RANDIC_TOL")
    if args.tol is not None:
        source = "--tol"
    elif env:
        source = "RANDIC_TOL"
        try:
            args.tol = float(env)
        except ValueError:
            raise CliError(f"RANDIC_TOL={env!r} is not a number")
    else:
        args.tol = COMMANDS[args.command].tol
        return
    # nan passes no comparison and inf passes every one, so neither is a tolerance
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise CliError(f"{source} must be positive and finite")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)

    command = COMMANDS[args.command]
    try:
        _resolve_tol(args)
        if args.command == "family-info" and args.family is None:
            raise CliError("family-info requires --family")
        if args.command == "compare" and args.per_component:
            raise CliError("compare needs a single connected graph")
        jobs, warnings = _load(args)
        out = []
        exit_code = EXIT_OK
        for k, job in enumerate(jobs):
            report = {"graph": _graph_header(job), "command": args.command,
                      "results": [], "routes": {}, "warnings": list(warnings)}
            exit_code = max(exit_code, command.run(job, args, report))
            if args.format == "json":
                out.append(_json(report))
            else:
                out.append(command.render(report))
                # the input's warnings head every report; print them once
                for w in report["warnings"][len(warnings) if k else 0:]:
                    print(f"warning: {w}", file=sys.stderr)
    except (ConvergenceError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CliError, ValueError) as exc:  # ValueError: the library's input checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        print("\n\n".join(out) if args.format == "table" else "\n".join(out))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left, as `| head` does
        _drop_stdout()
        return EXIT_CLOSED_PIPE
    return exit_code


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush at
    interpreter exit cannot raise ``BrokenPipeError`` again (the Python
    docs' note on SIGPIPE)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main())
