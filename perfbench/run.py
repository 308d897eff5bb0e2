"""Benchmark of the randic-energy library and CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload suite-small --seed 1 --seconds 25 --trace 0

Workloads are ``suite-small``, ``cli-large`` and ``coulson`` (see
perfbench/README.md). With ``--trace 0`` the run times whole rounds of the
workload's ops, at least two and as many as end nearest to ``--seconds``,
and reports end-to-end metrics over each op's fastest latency. With
``--trace 1`` it runs every op twice a round, back to back, once plain
and once with spans around every public library function, and reports
per-layer metrics. Every op's output is checked against references the
benchmark computes itself. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""
import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / ".work"

#: per-layer metrics: (layer.function, statistic); see README.md for the
#: end-to-end metric each should move
LAYER_METRICS = (
    ("spectral.eigen_symmetric", "self_ms"), ("spectral.eigen_symmetric", "calls_per_op"),
    ("spectral.matrix_abs", "self_ms"), ("spectral.randic_matrix", "calls_per_op"),
    ("energy.vertex_energies", "self_ms"), ("energy.series_energies", "self_ms"),
    ("bounds.bounds_report", "self_ms"), ("bounds.r4_diag", "self_ms"),
    ("bounds.r4_diag", "calls_per_op"),
    ("charpoly.char_poly_numeric", "self_ms"), ("charpoly.char_poly_numeric", "calls_per_op"),
    ("charpoly.principal_submatrix_poly", "self_ms"), ("charpoly.vertex_order_check", "self_ms"),
    ("coulson.coulson_integrand", "self_ms"), ("coulson.integrate_line", "self_ms"),
    ("graph.parse_edge_list_report", "self_ms"), ("cli.main", "self_ms"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite-small", "cli-large", "coulson"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas_threads() -> None:
    """One BLAS thread, whatever the caller's environment.

    The library's eigensolver makes thousands of small BLAS calls per
    matrix; on two cores a second BLAS thread made `cli-large` ops slower
    (median 144-154 ms against 128-132 ms single-threaded), while `eigh`
    at n = 100 and 200 ran no faster with it.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"


def import_library():
    """The package from this checkout's src/, never an installed copy."""
    if not (SOURCE / "randic_energy" / "__init__.py").is_file():
        raise SystemExit(f"error: no randic_energy package under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import randic_energy
    import randic_energy.cli  # noqa: F401  (not imported by the package itself)
    import randic_energy.random_graphs  # noqa: F401
    if Path(randic_energy.__file__).resolve().parent != SOURCE / "randic_energy":
        raise SystemExit(f"error: imported randic_energy from {randic_energy.__file__}")
    return randic_energy


def environment(args) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


#: timed runs do at least this many rounds, and an op's latency is its
#: fastest execution: the same work on a differently renamed input each
#: round. Other load on the machine slows stretches of a few seconds by up
#: to 80 %, and two executions a round apart rarely both fall in one.
MIN_TIMED_ROUNDS = 2


class Outcome:
    """Latencies of the ops run, round by round, their counts, and the first
    few problems seen."""

    def __init__(self):
        self.rounds: list[list[float]] = []  # seconds, one list per round
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.evaluations = 0  # quadrature evaluations reported by Coulson ops
        self.problems: list[str] = []

    def note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)



def fastest(rounds: list[list[float]]) -> list[float]:
    """Each op's lowest latency over ``rounds``."""
    return [min(samples) for samples in zip(*rounds)]


def execute(op, k: int, outcome: Outcome, tracer=None) -> float:
    """Time execution ``k`` of ``op``, inside spans when a tracer is given,
    and check its output outside the timing. Returns the latency."""
    import checks
    execution = op.execution(k)
    if tracer is not None:
        tracer.op = outcome.attempted
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            result = tracer.span("bench.op", execution.run) if tracer else execution.run()
        except Exception as exc:  # an op that raises is a failed op
            result = exc
        latency = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcome.attempted += 1
    if isinstance(result, Exception):
        outcome.failed += 1
        outcome.note(f"{op.kind}: raised {result!r}")
        return latency
    outcome.evaluations += getattr(result, "evaluations", 0)
    try:
        if execution.check(result):
            outcome.failed += 1
            if outcome.failed <= 3:
                outcome.note(f"{op.kind}: failed")
    except (checks.CheckFailed, KeyError, IndexError, TypeError, ValueError) as exc:
        outcome.wrong += 1
        outcome.note(f"{op.kind}: wrong result: {exc}")
    return latency


def run_rounds(ops, outcome: Outcome, seconds: float) -> None:
    """The whole number of rounds, at least ``MIN_TIMED_ROUNDS``, whose end
    lies nearest to ``seconds``; round r runs execution r of every op."""
    start = time.perf_counter()
    while True:
        r = len(outcome.rounds)
        outcome.rounds.append([execute(op, r, outcome) for op in ops])
        elapsed = time.perf_counter() - start
        done = len(outcome.rounds)
        if done >= MIN_TIMED_ROUNDS and elapsed + elapsed / done / 2.0 >= seconds:
            return


def end_to_end(outcome: Outcome, setup_s: float, peak_rss_kib: int) -> dict:
    best = fastest(outcome.rounds)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(best) / sum(best), "unit": "op/s"},
        "op_p50_ms": {"value": statistics.median(best) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(best, n=10)[8] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_kib / 1024.0, "unit": "MB"},
    }


def per_layer(tracer, ops_traced: int, rounds: int, overhead_s: float,
              evaluations_per_op: float) -> dict:
    metrics = {}
    for name, stat in LAYER_METRICS:
        if stat == "self_ms":
            metrics[f"{name}.self_ms"] = {
                "value": tracer.self_s.get(name, 0.0) * 1e3 / rounds, "unit": "ms"}
        else:
            metrics[f"{name}.calls_per_op"] = {
                "value": tracer.calls.get(name, 0) / ops_traced, "unit": "call/op"}
    metrics["coulson.evaluations_per_op"] = {"value": evaluations_per_op, "unit": "eval/op"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    rp = import_library()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](rp, args.seed, workdir)
        workload.warmup()
        setup_s = time.perf_counter() - PROCESS_START
        env = environment(args)
        outcome = Outcome()
        tracer = None
        if args.trace == 0:
            run_rounds(workload.ops, outcome, args.seconds)
            metrics = end_to_end(outcome, setup_s,
                                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        else:
            metrics, tracer = traced_run(rp, workload.ops, outcome, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = outcome.wrong == 0 and outcome.attempted > 0
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    write_results(args, env, workload.ops, outcome, result, tracer)
    print(json.dumps({"environment": env}))
    print(f"{args.workload} seed={args.seed}: {len(outcome.rounds)} rounds, "
          f"{outcome.attempted} ops, {outcome.failed} failed, {outcome.wrong} wrong")
    for problem in outcome.problems:
        print(f"  {problem}")
    print(json.dumps(result))
    return 0


def traced_run(rp, ops, outcome: Outcome, seconds: float):
    """Traced rounds, as many as end nearest to ``seconds`` (at least one).

    In round p every op runs twice back to back on fresh inputs, plain
    (execution 2p) and traced (execution 2p + 1), which one first
    alternating from op to op and round to round, so that both meet the
    same machine. The overhead of a round is the median op's traced-minus-
    plain latency (each op's own figure the median over rounds) times the
    ops in a round: the median, because one op's difference also holds the
    jitter of that op, up to a few per cent of a second-long op.
    """
    from tracing import Tracer
    tracer = Tracer(rp)
    differences: list[list[float]] = [[] for _ in ops]
    start = time.perf_counter()
    while True:
        p = len(outcome.rounds)
        plain_latencies = []
        for j, op in enumerate(ops):
            if (j + p) % 2 == 0:
                plain = execute(op, 2 * p, outcome)
                traced = execute(op, 2 * p + 1, outcome, tracer)
            else:
                traced = execute(op, 2 * p + 1, outcome, tracer)
                plain = execute(op, 2 * p, outcome)
            plain_latencies.append(plain)
            differences[j].append(traced - plain)
        outcome.rounds.append(plain_latencies)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(outcome.rounds) / 2.0 >= seconds:
            break
    rounds = len(outcome.rounds)
    overhead = statistics.median(statistics.median(d) for d in differences) * len(ops)
    metrics = per_layer(tracer, rounds * len(ops), rounds, overhead,
                        outcome.evaluations / outcome.attempted)
    return metrics, tracer


def write_results(args, env, ops, outcome: Outcome, result: dict, tracer) -> None:
    """The run's record, with the median fastest latency of each kind of op."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    by_kind: dict[str, list[float]] = {}
    for op, latency in zip(ops, fastest(outcome.rounds)):
        by_kind.setdefault(op.kind, []).append(latency)
    record = {"environment": env, "result": result, "rounds": len(outcome.rounds),
              "wrong": outcome.wrong, "problems": outcome.problems,
              "kinds": {kind: {"ops": len(lat), "median_ms": statistics.median(lat) * 1e3,
                               "total_s": sum(lat)}
                        for kind, lat in sorted(by_kind.items())}}
    if tracer is not None:
        record["layers"] = {name: {"self_s": tracer.self_s[name],
                                   "calls": tracer.calls[name]}
                            for name in sorted(tracer.calls)}
        with open(RESULTS / f"{stem}-spans.json", "w") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start_s", "end_s"],
                       "dropped": tracer.dropped, "spans": tracer.spans}, fh)
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)


if __name__ == "__main__":
    raise SystemExit(main())
