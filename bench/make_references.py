"""Regenerate ``bench/references.json`` from the library as it stands.

    python3 bench/make_references.py

References pin the outputs of the unmodified library so that later changes
must reproduce them: SHA-256 digests of the CLI's CSV and SVG and of the
sweep CSV, keyed by the op's dataset seed, and the ranked ids, scores and
greedy picks of every query, keyed by ``<workload seed>:<op index>``.  They
cover the default workload seed and one held-out seed.  Regenerate only
when an output is meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import REFERENCES, WORKLOADS, sha256  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 1000
# Op indices covered per seed; a 30 s run on a 2-CPU Xeon VM stays inside these.
COVERAGE = {"cli_experiment": 40, "lambda_sweep": 300, "query_stream": 150}


def main() -> int:
    refs: dict[str, dict] = {name: {} for name in COVERAGE}
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="references-", dir=BENCH_DIR / "_work"))
    try:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            cli = WORKLOADS["cli_experiment"]
            state = cli.setup(seed, workdir)
            for i in range(COVERAGE["cli_experiment"]):
                out = cli.op_in_process(state, i)
                refs["cli_experiment"][str(out.seed)] = {"csv_sha256": sha256(out.csv), "svg_sha256": sha256(out.svg)}
            sweep = WORKLOADS["lambda_sweep"]
            state = sweep.setup(seed, workdir)
            for i in range(COVERAGE["lambda_sweep"]):
                out = sweep.op(state, i)
                refs["lambda_sweep"][str(out.seed)] = sha256(out.csv.encode("utf-8"))
            stream = WORKLOADS["query_stream"]
            state = stream.setup(seed, workdir)
            for i in range(COVERAGE["query_stream"]):
                out = stream.op(state, i)
                refs["query_stream"][f"{seed}:{i}"] = {"chosen": list(out.chosen), "items": [list(x) for x in out.items]}
            print(f"seed {seed} done", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.write_text(dump(refs), encoding="utf-8")
    return 0


def dump(refs: dict[str, dict]) -> str:
    """JSON with one reference per line, so a changed output is a one-line diff."""
    sections = []
    for name in sorted(refs):
        rows = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(refs[name].items())]
        sections.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
