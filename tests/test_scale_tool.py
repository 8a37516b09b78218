"""Smoke test of ``tools/scale.py``, the per-stage scale sweep."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "scale.py"
_SPEC = importlib.util.spec_from_file_location("scale", _PATH)
scale = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scale)

_ENVIRONMENT_KEYS = ("python", "numpy", "openblas_core", "nproc", "commit", "dirty", "pythondontwritebytecode")
_STAGE_KEYS = (
    "stage",
    "n",
    "dim",
    "cold_ms",
    "warm_ms",
    "warm_median_ms",
    "warm_p90_ms",
    "peak_bytes",
    "retained_bytes",
    "ru_maxrss_mib",
)
_STAGES = ["generate_clusters", "from_matrix", "corpus_index", "top_n_candidates", "save_dataset", "load_dataset"]


def test_each_run_appends_one_record_with_the_fixed_keys(tmp_path):
    out = tmp_path / "bench.json"
    for label in ("parent", "change"):
        assert scale.main(["--label", label, "--out", str(out)], sizes=[50], dims=[2, 3]) == 0
    document = json.loads(out.read_text())
    assert set(document) == {"tool", "records"}
    assert [record["label"] for record in document["records"]] == ["parent", "change"]
    for record in document["records"]:
        assert set(record) == {"label", "environment", "stages"}
        assert tuple(record["environment"]) == _ENVIRONMENT_KEYS
        assert [(entry["stage"], entry["dim"]) for entry in record["stages"]] == [
            (stage, dim) for dim in (2, 3) for stage in _STAGES
        ]
        for entry in record["stages"]:
            assert tuple(entry) == _STAGE_KEYS
            assert entry["n"] == 50 and len(entry["warm_ms"]) == scale.REPEATS
            assert 0 < entry["warm_median_ms"] <= entry["warm_p90_ms"] <= max(entry["warm_ms"])
            assert entry["peak_bytes"] >= entry["retained_bytes"] and entry["ru_maxrss_mib"] > 0
