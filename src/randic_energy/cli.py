"""Command-line front end: parse or generate a graph, analyze, print.

Vertex ids are 1-based everywhere on the surface (files, flags, tables,
JSON) and converted to the library's 0-based convention at the boundary.
Table output rounds to 4 decimals; JSON carries full double precision
(17 significant digits) and is deterministic byte-for-byte, so reports
can be diffed across runs and machines.

Exit codes: 0 success, 2 bad input or usage, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from .bounds import EQUALITY_TOL, BoundsReport, bounds_report
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
from .coulson import QuadratureConfig, coulson_vertex_energy
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
    DisconnectedGraphError,
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
EXIT_INPUT = 2
EXIT_NUMERIC = 3

#: flag spelling -> computation route for the energy command
ROUTE_NAMES = ("eigen", "abs", "series", "coulson")

#: per-command meaning of --tol (documented in --help)
DEFAULT_TOL = {
    "energy": 1e-6,       # route agreement warning threshold
    "bounds": EQUALITY_TOL,
    "charpoly": ODD_COEFF_TOL,
    "coulson": 1e-7,      # quadrature target
    "compare": 1e-9,
    "family-info": 1e-8,  # closed form vs computed check
}


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
    try:
        return FamilySpec(kind=kind, n=args.n, n1=args.n1, n2=args.n2,
                          triangles=args.triangles)
    except ValueError as exc:
        raise CliError(str(exc))


def _load(args) -> tuple[list[dict], list[str]]:
    """Resolve the input source to a list of jobs and ingestion warnings.

    Each job is {"graph": Graph, "ids": 1-based original id per vertex,
    "component": index or None}; one job normally, one per component
    under --per-component.
    """
    if (args.file is None) == (args.family is None):
        raise CliError("exactly one of --file or --family is required")
    warnings: list[str] = []

    if args.family is not None:
        if args.per_component:
            raise CliError("--per-component applies to --file input only")
        spec = _family_spec(args)
        g = generate(spec)
        return [{"graph": g, "ids": list(range(1, g.n + 1)), "component": None,
                 "label": spec.label()}], warnings

    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.file}: {exc.strerror or exc}")
    try:
        g, parse_warnings = parse_edge_list_report(text)
    except GraphParseError as exc:
        raise CliError(f"{args.file}: {exc}")
    warnings.extend(parse_warnings)

    if not args.per_component:
        if args.command != "charpoly" and not is_connected(g):
            raise CliError(
                f"{args.file}: graph is disconnected; vertex energies are "
                "defined for connected graphs only (re-run with "
                "--per-component to analyze each component separately)"
            )
        return [{"graph": g, "ids": list(range(1, g.n + 1)), "component": None,
                 "label": args.file}], warnings

    jobs = []
    for k, comp in enumerate(connected_components(g)):
        if len(comp) == 1 and args.command != "charpoly":
            warnings.append(
                f"component {k} is a single vertex ({comp[0] + 1}); skipped"
            )
            continue
        jobs.append({
            "graph": induced_subgraph(g, comp),
            "ids": [v + 1 for v in comp],
            "component": k,
            "label": f"{args.file}#component{k}",
        })
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


def _selected(args, job) -> list[int]:
    """0-based vertex indices into the job's graph, honoring --vertex."""
    g = job["graph"]
    if args.vertex is None:
        return list(range(g.n))
    ids = []
    for token in args.vertex.split(","):
        token = token.strip()
        try:
            vid = int(token)
        except ValueError:
            raise CliError(f"--vertex: {token!r} is not an integer id")
        if job["component"] is None:
            idx = _vertex_index(vid, g.n, "--vertex")
        elif vid in job["ids"]:
            idx = job["ids"].index(vid)
        else:
            continue  # vertex lives in another component
        if idx not in ids:
            ids.append(idx)
    return ids


def _graph_header(job) -> dict:
    g = job["graph"]
    head = {"n": g.n, "m": g.m}
    if job["component"] is not None:
        head["component"] = job["component"]
        head["vertices"] = job["ids"]
    return head


# ----------------------------------------------------------- command bodies

def _run_energy(job, args, warnings) -> dict:
    g = job["graph"]
    routes = []
    for name in (args.routes or "eigen").split(","):
        name = name.strip()
        if name not in ROUTE_NAMES:
            raise CliError(f"--routes: unknown route {name!r}; "
                           f"expected a comma list from {','.join(ROUTE_NAMES)}")
        if name not in routes:
            routes.append(name)

    per_route: dict[str, list[float]] = {}
    meta: dict[str, dict] = {}
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
        cfg = QuadratureConfig()
        quadratures = [coulson_vertex_energy(g, i, cfg) for i in range(g.n)]
        converged = all(res.converged for res in quadratures)
        per_route["coulson"] = [res.value for res in quadratures]
        meta["coulson"] = {"total": ordered_sum(per_route["coulson"]),
                           "converged": converged, "tolerance": cfg.tolerance,
                           "evaluations": sum(res.evaluations for res in quadratures),
                           "error_estimate": max(res.error_estimate for res in quadratures)}
        if not converged:
            warnings.append("quadrature did not converge on every vertex")

    if len(routes) > 1:
        deltas = {}
        base = routes[0]
        for other in routes[1:]:
            d = max(abs(a - b) for a, b in zip(per_route[base], per_route[other]))
            deltas[f"{base}/{other}"] = d
            # the series route is only as close as its truncation bound
            threshold = args.tol
            if "series" in (base, other):
                threshold += meta["series"]["tail_bound"]
            if d > threshold:
                warnings.append(
                    f"routes {base} and {other} disagree by {d:.3e} "
                    f"(threshold {threshold:g})"
                )
        meta["deltas"] = deltas

    results = []
    for idx in _selected(args, job):
        entry = {"vertex": job["ids"][idx]}
        for name in routes:
            entry[name] = per_route[name][idx]
        results.append(entry)
    return {"graph": _graph_header(job), "command": "energy",
            "results": results, "routes": meta, "warnings": warnings}


def _run_bounds(job, args, warnings) -> dict:
    g = job["graph"]
    report: BoundsReport = bounds_report(g, equality_tol=args.tol)
    if not report.holder_valid:
        warnings.append("Holder-type lower bound violated somewhere; "
                        "it is reported but not asserted")
    results = []
    for idx in _selected(args, job):
        vb = report.vertices[idx]
        results.append({
            "scope": "vertex",
            "vertex": job["ids"][idx],
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
    results.append({
        "scope": "graph",
        "energy_total": report.energy_total,
        "randic_index_minus1": report.randic_index_minus1,
        "lower": report.graph_lower,
        "upper": report.graph_upper,
        "holder_valid": report.holder_valid,
    })
    return {"graph": _graph_header(job), "command": "bounds",
            "results": results, "routes": {}, "warnings": warnings}


def _run_charpoly(job, args, warnings) -> dict:
    g = job["graph"]
    numeric = char_poly_numeric(randic_matrix(g))
    results = [{
        "scope": "graph",
        "source": "trace-recurrence",
        "coefficients": list(numeric.coefficients),
    }]
    routes: dict = {}
    if g.n <= MAX_ENUMERATION_N:
        combinatorial = char_poly_combinatorial(g)
        results.append({
            "scope": "graph",
            "source": "subgraph-expansion",
            "coefficients": list(combinatorial.coefficients),
        })
        delta = max(abs(a - b) for a, b in
                    zip(numeric.coefficients, combinatorial.coefficients))
        routes["agreement"] = {"max_coefficient_delta": delta}
        if delta > args.tol:
            warnings.append(f"polynomial routes disagree by {delta:.3e}")
    else:
        warnings.append(
            f"n={g.n} exceeds the subgraph-enumeration cap "
            f"({MAX_ENUMERATION_N}); only the trace recurrence was run"
        )
    try:
        even = even_coefficients(numeric, tol=args.tol)
        results[0]["even_b"] = list(even.b)
    except ValueError:
        pass  # spectrum not symmetric about zero; b_k undefined
    if args.vertex is not None:
        for idx in _selected(args, job):
            sub = principal_submatrix_poly(g, idx)
            results.append({
                "scope": "vertex",
                "vertex": job["ids"][idx],
                "source": "trace-recurrence",
                "coefficients": list(sub.coefficients),
            })
    return {"graph": _graph_header(job), "command": "charpoly",
            "results": results, "routes": routes, "warnings": warnings}


def _run_coulson(job, args, warnings) -> dict:
    g = job["graph"]
    cfg = QuadratureConfig(tolerance=args.tol)
    reference = vertex_energies(g).energies
    results = []
    all_converged = True
    for idx in _selected(args, job):
        res = coulson_vertex_energy(g, idx, cfg)
        all_converged &= res.converged
        results.append({
            "vertex": job["ids"][idx],
            "value": res.value,
            "error_estimate": res.error_estimate,
            "converged": res.converged,
            "evaluations": res.evaluations,
            "reference": reference[idx],
            "delta": res.value - reference[idx],
        })
    if not all_converged:
        warnings.append("quadrature did not converge on every requested vertex")
    routes = {"quadrature": {"tolerance": cfg.tolerance,
                             "nodes_per_panel": cfg.nodes_per_panel,
                             "max_levels": cfg.max_levels},
              "reference": "eigen"}
    report = {"graph": _graph_header(job), "command": "coulson",
              "results": results, "routes": routes, "warnings": warnings}
    report["_exit"] = EXIT_OK if all_converged else EXIT_NUMERIC
    return report


def _run_compare(job, args, warnings) -> dict:
    g = job["graph"]
    if args.v is None or args.w is None:
        raise CliError("compare requires --v and --w vertex ids")
    v = _vertex_index(args.v, g.n, "--v")
    w = _vertex_index(args.w, g.n, "--w")
    try:
        check = vertex_order_check(g, v, w,
                                   mode=MODE_SUBMATRIX, tol=args.tol,
                                   strict=False)
    except ValueError as exc:
        raise CliError(str(exc))
    if check.status == "violated":
        warnings.append("ordering rule violated; see the result record")
    results = [{
        "v": args.v,
        "w": args.w,
        "mode": check.mode,
        "comparison": check.comparison.value,
        "energy_v": check.energy_v,
        "energy_w": check.energy_w,
        "status": check.status,
    }]
    return {"graph": _graph_header(job), "command": "compare",
            "results": results, "routes": {}, "warnings": warnings}


def _run_family_info(job, args, warnings) -> dict:
    spec = _family_spec(args)
    g = job["graph"]
    computed = vertex_energies(g).energies
    classes = vertex_classes(spec)
    results = []
    if classes:
        for cls, members in classes.items():
            closed = closed_form_energy(spec, cls)
            observed = computed[members[0]]
            if abs(closed.value - observed) > args.tol:
                warnings.append(
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
        warnings.append(f"no closed-form classes for {spec.kind.value}; "
                        "reporting computed energies")
        for i in range(g.n):
            results.append({"class": "vertex", "vertices": [i + 1],
                            "energy": computed[i], "closed_form": False,
                            "computed": computed[i]})
    routes = {"label": spec.label(), "total_energy": graph_energy(g)}
    return {"graph": _graph_header(job), "command": "family-info",
            "results": results, "routes": routes, "warnings": warnings}


_RUNNERS = {
    "energy": _run_energy,
    "bounds": _run_bounds,
    "charpoly": _run_charpoly,
    "coulson": _run_coulson,
    "compare": _run_compare,
    "family-info": _run_family_info,
}


# ----------------------------------------------------------- table rendering

def _render_table(report: dict) -> str:
    command = report["command"]
    g = report["graph"]
    lines = []
    head = f"graph: n={g['n']} m={g['m']}"
    if "component" in g:
        head += f"  component={g['component']} vertices=" + \
            ",".join(str(v) for v in g["vertices"])
    lines.append(head)

    if command == "energy":
        routes = [k for k in report["results"][0] if k != "vertex"]
        rows = [["vertex"] + routes]
        for entry in report["results"]:
            rows.append([str(entry["vertex"])] + [_f4(entry[r]) for r in routes])
        totals = ["total"] + [_f4(report["routes"][r]["total"]) for r in routes]
        rows.append(totals)
        lines.append(_table(rows, ">" * (1 + len(routes))))
        deltas = report["routes"].get("deltas")
        if deltas:
            pairs = "  ".join(f"{k}={_g4(v)}" for k, v in deltas.items())
            lines.append(f"route deltas: {pairs}")

    elif command == "bounds":
        vertex_rows = [r for r in report["results"] if r["scope"] == "vertex"]
        names = [b["name"] for b in vertex_rows[0]["bounds"]]
        rows = [["vertex", "energy"] + names + ["equal"]]
        for entry in vertex_rows:
            flagged = ",".join(b["name"] for b in entry["bounds"] if b["equal"]) or "-"
            rows.append([str(entry["vertex"]), _f4(entry["energy"])]
                        + [_f4(b["value"]) for b in entry["bounds"]]
                        + [flagged])
        lines.append(_table(rows, ">" * (2 + len(names)) + "<"))
        tail = next(r for r in report["results"] if r["scope"] == "graph")
        lines.append(
            f"graph: energy={_f4(tail['energy_total'])}"
            f"  lower={_f4(tail['lower'])}  upper={_f4(tail['upper'])}"
            f"  holder_valid={'yes' if tail['holder_valid'] else 'no'}"
        )

    elif command == "charpoly":
        graph_rows = [r for r in report["results"] if r["scope"] == "graph"]
        degree = len(graph_rows[0]["coefficients"]) - 1
        rows = [["power"] + [r["source"] for r in graph_rows]]
        for k in range(degree + 1):
            rows.append([f"x^{degree - k}"]
                        + [_g4(r["coefficients"][k]) for r in graph_rows])
        lines.append(_table(rows, ">" * (1 + len(graph_rows))))
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

    elif command == "coulson":
        rows = [["vertex", "value", "reference", "delta", "err_est", "converged"]]
        for e in report["results"]:
            rows.append([str(e["vertex"]), _f4(e["value"]), _f4(e["reference"]),
                         _g4(e["delta"]), _g4(e["error_estimate"]),
                         "yes" if e["converged"] else "NO"])
        lines.append(_table(rows, ">>>>><"))

    elif command == "compare":
        e = report["results"][0]
        lines.append(
            f"remove w={e['w']} vs remove v={e['v']}: coefficientwise "
            f"{e['comparison']} -> {e['status']}"
        )
        lines.append(f"energy(v={e['v']})={_f4(e['energy_v'])}  "
                     f"energy(w={e['w']})={_f4(e['energy_w'])}")

    elif command == "family-info":
        lines[-1] = f"{report['routes']['label']}: n={g['n']} m={g['m']}  " \
                    f"total={_f4(report['routes']['total_energy'])}"
        rows = [["class", "count", "energy", "closed_form", "computed"]]
        for e in report["results"]:
            rows.append([e["class"], str(len(e["vertices"])), _f4(e["energy"]),
                         "yes" if e["closed_form"] else "no", _f4(e["computed"])])
        lines.append(_table(rows, "<>><>"))

    return "\n".join(lines)


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

    energy = sub.add_parser("energy", parents=[common],
                            help="per-vertex energies by one or more routes")
    energy.add_argument("--routes", default="eigen",
                        help="comma list from eigen,abs,series,coulson")
    sub.add_parser("bounds", parents=[common],
                   help="all closed-form bounds with slack and equality flags")
    sub.add_parser("charpoly", parents=[common],
                   help="characteristic polynomial of the normalized "
                        "adjacency matrix, by two independent routes")
    sub.add_parser("coulson", parents=[common],
                   help="contour-integral energies with error estimates")
    compare = sub.add_parser("compare", parents=[common],
                             help="quasi-order verdict for a vertex pair "
                                  "(bipartite graphs)")
    compare.add_argument("--v", type=int, help="first vertex id (1-based)")
    compare.add_argument("--w", type=int, help="second vertex id (1-based)")
    sub.add_parser("family-info", parents=[common],
                   help="closed-form energies per symmetry class of a family")
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
        args.tol = DEFAULT_TOL[args.command]
        return
    # nan passes no comparison and inf passes every one, so neither is a tolerance
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise CliError(f"{source} must be positive and finite")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)

    try:
        _resolve_tol(args)
        if args.command == "family-info" and args.family is None:
            raise CliError("family-info requires --family")
        if args.command == "compare" and args.per_component:
            raise CliError("compare needs a single connected graph")
        jobs, warnings = _load(args)
        reports = []
        exit_code = EXIT_OK
        for job in jobs:
            report = _RUNNERS[args.command](job, args, list(warnings))
            exit_code = max(exit_code, report.pop("_exit", EXIT_OK))
            reports.append(report)
        out = []
        for report in reports:
            if args.format == "json":
                out.append(_json(report))
            else:
                out.append(_render_table(report))
                for w in report["warnings"]:
                    print(f"warning: {w}", file=sys.stderr)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (GraphParseError, DisconnectedGraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print("\n\n".join(out) if args.format == "table" else "\n".join(out))
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
