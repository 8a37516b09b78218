"""Per-stage scale sweep of the corpus stages, appended as one JSON record.

Run from the repository root::

    PYTHONPATH=src python tools/scale.py --out BENCH_<n>.json --label <name>

It imports only the library (and numpy), so pointing ``PYTHONPATH`` at
another checkout's ``src`` measures that checkout with the same sweep; the
record carries the commit of the checkout the library was imported from.

Each size is a ``generate_clusters`` dataset of N points in d dimensions
(seed 0), for every N of ``SIZES`` and d of ``DIMS``.  The stages, each
timed in-process:

- ``generate_clusters``: the dataset itself;
- ``from_matrix``: ``Embeddings.from_matrix`` over its ids and a copy of
  its matrix;
- ``corpus_index``: ``positions``, ``id_ranks`` and ``first_duplicate`` of
  a corpus fresh from ``from_matrix`` (built outside the timer);
- ``top_n_candidates``: a pool of ``min(100, N)`` for one composite query;
  the cold call is the first scan of a fresh corpus, the warm calls rescan
  it;
- ``save_dataset`` and ``load_dataset``: the dataset file round trip.

Per stage and size the record holds the cold first call, each of the
``REPEATS`` warm repeats with their median and 90th percentile (numpy's
linear interpolation; with fewer than a hundred repeats it shows spread,
not a tail), the ``tracemalloc`` peak and retained bytes of one more untimed
repeat whose result is still held, and the process's ``ru_maxrss`` after
the stage.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

import semrank
from semrank.candidates import top_n_candidates
from semrank.datagen import SyntheticDatasetSpec, composite_query, generate_clusters
from semrank.fileio import load_dataset, save_dataset
from semrank.geometry import Embeddings

POOL = 100
SIZES = (1_000, 10_000, 100_000)
DIMS = (2, 32)
REPEATS = 5


def _openblas_core() -> str | None:
    """The OpenBLAS kernel set numpy's bundled library selected at run time."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def _git(source: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(source), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def environment() -> dict[str, Any]:
    source = Path(semrank.__file__).resolve().parent
    status = _git(source, "status", "--porcelain", "--", ".")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_core": _openblas_core(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git(source, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


# A stage: its name, an untimed set-up, and the timed call on the set-up's value.
Stage = tuple[str, Callable[[], Any], Callable[[Any], Any]]


def stages(n: int, dim: int, workdir: Path) -> list[Stage]:
    spec = SyntheticDatasetSpec(num_points=n, dim=dim, rng_seed=0)
    dataset = generate_clusters(spec)
    ids, matrix = dataset.points.ids, np.array(dataset.points.matrix)
    query = composite_query(dataset, 0)
    corpus = Embeddings.from_matrix(ids, matrix)
    path = workdir / f"data_{n}_{dim}.tsv"
    save_dataset(dataset, path)

    def nothing() -> None:
        pass

    def fresh() -> Embeddings:
        return Embeddings.from_matrix(ids, matrix)

    def index(points: Embeddings) -> tuple:
        return points.positions, points.id_ranks, points.first_duplicate

    return [
        ("generate_clusters", nothing, lambda _: generate_clusters(spec)),
        ("from_matrix", nothing, lambda _: Embeddings.from_matrix(ids, matrix)),
        ("corpus_index", fresh, index),
        ("top_n_candidates", nothing, lambda _: top_n_candidates(query, corpus, min(POOL, n))),
        ("save_dataset", nothing, lambda _: save_dataset(dataset, path)),
        ("load_dataset", nothing, lambda _: load_dataset(path)),
    ]


def _timed_ms(prepare: Callable[[], Any], run: Callable[[Any], Any]) -> float:
    value = prepare()
    start = time.perf_counter_ns()
    run(value)
    return (time.perf_counter_ns() - start) / 1e6


def _traced_bytes(prepare: Callable[[], Any], run: Callable[[Any], Any]) -> tuple[int, int]:
    """Peak and retained ``tracemalloc`` bytes of one call, its result held."""
    value = prepare()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run(value)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - before, current - before


def measure(stage: Stage, n: int, dim: int) -> dict[str, Any]:
    name, prepare, run = stage
    cold = _timed_ms(prepare, run)
    warm = [_timed_ms(prepare, run) for _ in range(REPEATS)]
    peak, retained = _traced_bytes(prepare, run)
    return {
        "stage": name,
        "n": n,
        "dim": dim,
        "cold_ms": round(cold, 3),
        "warm_ms": [round(ms, 3) for ms in warm],
        "warm_median_ms": round(float(np.median(warm)), 3),
        "warm_p90_ms": round(float(np.percentile(warm, 90)), 3),
        "peak_bytes": peak,
        "retained_bytes": retained,
        "ru_maxrss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2),
    }


def sweep(sizes: Sequence[int], dims: Sequence[int]) -> list[dict[str, Any]]:
    entries = []
    with tempfile.TemporaryDirectory() as workdir:
        for n in sizes:
            for dim in dims:
                for stage in stages(n, dim, Path(workdir)):
                    entries.append(measure(stage, n, dim))
                    print(json.dumps(entries[-1]), file=sys.stderr)
    return entries


def main(argv: list[str] | None = None, sizes: Sequence[int] = SIZES, dims: Sequence[int] = DIMS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the record, such as the tree measured")
    parser.add_argument("--out", type=Path, required=True, help="JSON file whose records the new one joins")
    args = parser.parse_args(argv)
    record = {"label": args.label, "environment": environment(), "stages": sweep(sizes, dims)}
    document = json.loads(args.out.read_text()) if args.out.exists() else {"tool": "tools/scale.py", "records": []}
    document["records"].append(record)
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
