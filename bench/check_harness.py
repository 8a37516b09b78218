"""Self-test of the benchmark harness (not part of the library's test suite).

    python3 -m pytest bench/check_harness.py -q

Checks that BENCHMARK.json and the harness name the same metrics, that a
one-op run of every workload passes its output checks, that traced spans
nest with non-negative self times, and that the output checks reject a
corrupted output.  Takes about a minute.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, load_references  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.LAYER_METRICS
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_one_op_run_passes_its_output_checks(name):
    result = run.run_one(name, seed=0, seconds=0, trace=False)
    assert result["messages"] == []
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_spans_nest_and_self_times_are_non_negative(name):
    from semrank import graph

    original = graph.build_knn_graph
    result = run.run_one(name, seed=0, seconds=0, trace=True)
    assert graph.build_knn_graph is original, "tracer left a wrapper installed"
    assert result["messages"] == []
    spans = result["spans"]
    assert any(span.name == "op" and span.parent is None for span in spans)
    for span in spans:
        assert span.start <= span.end
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert span.root == parent.root
    for totals in tracing.per_root(spans).values():
        for key, value in totals.items():
            assert NAME.fullmatch(key), key
            if key.endswith(".self_ms"):
                assert value >= 0.0, key
    assert set(result["metrics"]) == set(tracing.LAYER_METRICS)


def _fails(workload, state, output) -> bool:
    return bool(workload.check(state, [(0, output)], load_references()))


def test_checks_reject_corrupted_outputs(tmp_path):
    sweep = WORKLOADS["lambda_sweep"]
    state = sweep.setup(0, tmp_path)
    out = sweep.op(state, 0)
    assert not _fails(sweep, state, out)
    assert _fails(sweep, state, replace(out, csv=out.csv.replace("0.", "1.", 1)))
    points = ((0.0, out.points[0][1] + 1e-6, out.points[0][2]),) + out.points[1:]
    assert _fails(sweep, state, replace(out, points=points))

    cli = WORKLOADS["cli_experiment"]
    state = cli.setup(0, tmp_path)
    out = cli.op_in_process(state, 0)
    assert not _fails(cli, state, out)
    assert _fails(cli, state, replace(out, svg=out.svg.replace(b"860.00", b"861.00", 1)))
    unreferenced = replace(state, seed=10**6)
    out = cli.op_in_process(unreferenced, 0)
    assert not _fails(cli, unreferenced, out)
    lines = out.csv.decode().split("\n")
    topk = lines[1].split(",")
    ids = topk[3].split(";")
    topk[3] = ";".join(ids[1:] + [next(f"p{j:03d}" for j in range(1000) if f"p{j:03d}" not in ids)])
    lines[1] = ",".join(topk)
    assert _fails(cli, unreferenced, replace(out, csv="\n".join(lines).encode()))

    stream = WORKLOADS["query_stream"]
    state = stream.setup(10**6, tmp_path)
    out = stream.op(state, 0)
    assert not _fails(stream, state, out)
    swapped = (out.items[1], out.items[0]) + out.items[2:]
    assert _fails(stream, state, replace(out, items=swapped))
    nudged = ((out.items[0][0], out.items[0][1] + 1e-6),) + out.items[1:]
    assert _fails(stream, state, replace(out, items=nudged))
