"""semrank benchmark.

One run of one workload, from the root of a source checkout:

    python3 bench/run.py --workload query_stream --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` every workload runs, each in its own process, and a record
with the environment, every workload's parameters and the results is
written to ``--record`` (default ``bench/out/record.json``).

Load comes from one client in a closed loop: an op starts only after the
previous one has finished, and ops keep starting until ``--seconds`` have
passed.  Outputs are checked after the loop, so checking never delays an op.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("cli_experiment", "query_stream", "lambda_sweep")
# Set-up runs this many times per untraced run; setup_s is the median.
SETUP_REPEATS = 3
# A p90 stands only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mib": "MiB"}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def closed_loop(op, state, seconds: float, tracer=None, minimum: int = 1):
    """Run ops ``0, 1, 2, ...`` back to back until ``seconds`` have passed
    and ``minimum`` ops have run.  With a tracer, odd ops run traced and
    even ops untraced, so both halves see the same warm state and load.
    Returns ``(latency_s, traced)`` pairs, ``(i, output, error)`` triples
    and the elapsed wall time."""
    latencies: list[tuple[float, bool]] = []
    results: list[tuple[int, object, str | None]] = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        output, error = None, None
        began = time.perf_counter()
        with tracer.root("op") if traced else nullcontext():
            try:
                output = op(state, i)
            except Exception as exc:  # an op failure is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
        ended = time.perf_counter()
        if traced:
            tracer.uninstall()
        latencies.append((ended - began, traced))
        results.append((i, output, error))
        i += 1
        if ended - start >= seconds and i >= minimum:
            return latencies, results, ended - start


def verify(workload, state, warm, results) -> tuple[int, list[str]]:
    """Check warm-up and op outputs, then run the oracles.  Returns the
    number of failed ops and every failure message."""
    from workloads import load_references
    import oracles

    messages = [f"op {i}: {error}" for i, _, error in results if error is not None]
    done = [(i, output) for i, output, error in results if error is None]
    failures = workload.check(state, warm + done, load_references())
    for position, message in sorted(failures.items()):
        messages.append(("warm-up: " if position < len(warm) else "") + message)
    failed = len(results) - len(done) + sum(position >= len(warm) for position in failures)
    try:
        for note in workload.run_oracles(state):
            print(f"  oracle ok: {note}")
    except oracles.OracleError as exc:
        messages.append(f"oracle: {exc}")
    return failed, messages


def run_untraced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous set-up's memory go first
        began = time.perf_counter()
        state = workload.setup(seed, workdir)
        warm = [(0, workload.op(state, 0))]
        setup_s.append(time.perf_counter() - began)
    latencies, results, elapsed = closed_loop(workload.op, state, seconds)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_experiment" else resource.RUSAGE_SELF
    peak_mib = resource.getrusage(who).ru_maxrss / 1024.0
    failed, messages = verify(workload, state, warm, results)
    ms = [value * 1000.0 for value, _ in latencies]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(results) / elapsed,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": p90(ms),
        "peak_rss_mib": peak_mib,
    }
    print(f"{workload.name}: {len(results)} ops in {elapsed:.2f} s, set-ups {[round(s, 3) for s in setup_s]} s")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:12.4f} {END_TO_END_UNITS[name]}")
    stands = "stands" if len(ms) >= P90_MIN_SAMPLES else f"below the {P90_MIN_SAMPLES} needed to stand"
    print(f"  op_p90_ms samples {len(ms)} ({stands})")
    print(f"  failed_op_ratio  {failed / len(results):12.4f} ({failed}/{len(results)})")
    return {
        "messages": messages,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()},
    }


def import_ms(repeats: int = 3) -> float:
    """Median wall time of a fresh ``python -c "import semrank.cli"``."""
    from workloads import child_env

    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import semrank.cli"], env=child_env(), check=True)
        times.append((time.perf_counter() - began) * 1000.0)
    return statistics.median(times)


def run_traced(workload, seed: int, seconds: float, workdir: Path) -> dict:
    """Set-up once under the tracer, then alternate untraced and traced
    in-process ops; the p50 difference is the tracing overhead."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("setup"):
            state = workload.setup(seed, workdir)
            warm = [(0, workload.op_in_process(state, 0))]
    finally:
        tracer.uninstall()
    latencies, results, _ = closed_loop(workload.op_in_process, state, seconds, tracer, minimum=2)
    plain = [value for value, traced in latencies if not traced]
    traced = [value for value, traced in latencies if traced]
    values, from_ops = tracing.layer_values(tracer.spans)
    if "graph.build_knn_graph" in tracer.first_calls:
        values["graph.build_knn_graph.peak_mib"] = tracing.knn_peak_mib(*tracer.first_calls["graph.build_knn_graph"])
    if "graph.personalized_pagerank" in tracer.first_calls:
        values["graph.ppr.iterations"] = tracing.ppr_iterations(*tracer.first_calls["graph.personalized_pagerank"])
    values["cli.import_ms"] = import_ms()
    values["trace.untraced_op_p50_ms"] = statistics.median(plain) * 1000.0
    values["trace.op_p50_ms"] = statistics.median(traced) * 1000.0
    values["trace.overhead_ms"] = values["trace.op_p50_ms"] - values["trace.untraced_op_p50_ms"]
    failed, messages = verify(workload, state, warm, results)
    print(f"{workload.name} traced: {len(plain)} untraced + {len(traced)} traced in-process ops")
    for name, unit in tracing.LAYER_METRICS.items():
        print(f"  {name:<44} {values.get(name, 0.0):14.4f} {unit}")
    for layer in ("graph.build_knn_graph.ms", "hybrid.rank_hybrid.ms", "compression.greedy_select.ms"):
        if layer in from_ops:
            print(f"  share of the traced op p50: {layer} {values[layer] / values['trace.op_p50_ms']:.1%}")
    return {
        "messages": messages,
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in tracing.LAYER_METRICS.items()
        },
        "spans": tracer.spans,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH_DIR / "_work"))
    try:
        runner = run_traced if trace else run_untraced
        return runner(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def environment() -> dict:
    """Interpreter, numpy and BLAS build, and CPU facts for the record."""
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = {
        key: {k: v for k, v in config["Build Dependencies"][key].items() if "directory" not in k}
        for key in ("blas", "lapack")
    }
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas["blas"].get("version"),
        "blas_config": blas,
        "simd": config.get("SIMD Extensions"),
        "blas_thread_variables": {
            var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(terse=True),
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; prints a summary, writes a record."""
    from workloads import WORKLOADS

    record = {
        "environment": environment(),
        "settings": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "setup_repeats": SETUP_REPEATS},
        "workloads": {},
    }
    correct = True
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else {"correct": False}
        correct = correct and bool(result.get("correct"))
        workload = WORKLOADS[name]
        record["workloads"][name] = {"why": workload.why, "params": workload.params, "result": result}
    print("\nsummary")
    for name, entry in record["workloads"].items():
        result = entry["result"]
        print(f"  {name}: correct={result.get('correct')} attempted={result.get('attempted')} failed={result.get('failed')}")
        for metric, value in result.get("metrics", {}).items():
            print(f"    {metric:<44} {value['value']:14.4f} {value['unit']}")
    out = Path(args.record)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"record written to {out}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed; op i uses seed + i (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--record", default=str(BENCH_DIR / "out" / "record.json"), help="record path for a full run")
    args = parser.parse_args(argv)
    if not (SRC_DIR / "semrank" / "__init__.py").is_file():
        print(f"error: no semrank source tree at {SRC_DIR}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    if args.workload is None:
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for message in result["messages"]:
        print(f"FAILED {message}", file=sys.stderr)
    correct = not result["messages"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
