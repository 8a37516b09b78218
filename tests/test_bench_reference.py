"""The library still reproduces the benchmark's stored reference outputs.

``bench/workloads.py`` checks every benchmark op against the digests in
``bench/references.json``.  Running op 0 at seed 0 of ``cli_experiment``
(in process) and of ``lambda_sweep`` here shows a byte change in their CSV
or SVG without running the benchmark, and running ``query_stream``'s op 0
through its own check shows a change on the graph read path, whose set-up
saves and reloads the dataset and the graph.  Both files are only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py``, loaded with ``bench/`` importable for its
    ``oracles`` import; ``sys.path`` and ``sys.modules`` are restored."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", _BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    had_oracles = "oracles" in sys.modules
    sys.path.insert(0, str(_BENCH))
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        sys.path.remove(str(_BENCH))
        if not had_oracles:
            sys.modules.pop("oracles", None)
    return module


def _op_zero(workloads, name, workdir):
    workload = workloads.WORKLOADS[name]
    return workload.op_in_process(workload.setup(0, workdir), 0)


def test_cli_experiment_op_zero_matches_its_reference(workloads, tmp_path):
    out = _op_zero(workloads, "cli_experiment", tmp_path)
    ref = workloads.load_references()["cli_experiment"]["0"]
    assert workloads.sha256(out.csv) == ref["csv_sha256"]
    assert workloads.sha256(out.svg) == ref["svg_sha256"]


def test_lambda_sweep_op_zero_matches_its_reference(workloads, tmp_path):
    out = _op_zero(workloads, "lambda_sweep", tmp_path)
    assert workloads.sha256(out.csv.encode("utf-8")) == workloads.load_references()["lambda_sweep"]["0"]


def test_query_stream_op_zero_passes_its_check(workloads, tmp_path):
    workload = workloads.WORKLOADS["query_stream"]
    state = workload.setup(0, tmp_path)
    out = workload.op(state, 0)
    assert workload.check(state, [(0, out)], workloads.load_references()) == {}
