"""The three benchmark workloads: set-up, one timed op, and output checks.

Every op derives its own seed as ``seed + i`` from the workload seed.  Ops
call the library through module attributes (``datagen.generate_clusters``,
not a name imported from it), so the traced run's wrappers see them.

Output checks have two layers.  Where ``references.json`` holds outputs of
the unmodified library for an op's seed, the op must reproduce them (bytes
for the CLI and sweep CSVs and the SVG; ids exactly and scores within 1e-12
for query rankings).  Every op, referenced or not, is also checked against
the independent oracles in ``oracles.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from semrank import candidates, cli, compression, datagen, experiments, fileio, graph, hybrid

import oracles

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCES = BENCH_DIR / "references.json"

# Nodes whose kNN out-edges are re-derived by exhaustive sort in each run.
KNN_SAMPLE = 25
# Relevance and diversity are written with four decimals.
CSV_TOL = 5e-5 + 1e-9


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict[str, str]:
    """The caller's environment with the source tree importable.  BLAS
    thread variables are left alone, so OpenBLAS picks its own default."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def _sample(n: int, seed: int) -> list[int]:
    return sorted(np.random.default_rng(seed).choice(n, size=min(KNN_SAMPLE, n), replace=False).tolist())


class Workload:
    """One benchmark workload.  ``op`` is what the timed loop runs;
    ``op_in_process`` is the variant the traced run wraps, which only
    differs where the op spawns a process."""

    name: str
    why: str
    params: dict[str, Any]

    def setup(self, seed: int, workdir: Path) -> Any:
        raise NotImplementedError

    def op(self, state: Any, i: int) -> Any:
        raise NotImplementedError

    def op_in_process(self, state: Any, i: int) -> Any:
        return self.op(state, i)

    def check(self, state: Any, outputs: list[tuple[int, Any]], refs: dict) -> dict[int, str]:
        """Failure message per position in ``outputs``; empty when all pass."""
        raise NotImplementedError

    def run_oracles(self, state: Any) -> list[str]:
        """Run the once-per-run oracles; raise ``OracleError`` on a mismatch."""
        raise NotImplementedError


def _checked(outputs: list[tuple[int, Any]], one) -> dict[int, str]:
    failures: dict[int, str] = {}
    for position, (i, output) in enumerate(outputs):
        try:
            one(i, output)
        except oracles.OracleError as exc:
            failures[position] = str(exc)
    return failures


# --- cli_experiment -------------------------------------------------------


@dataclass
class CliState:
    seed: int
    workdir: Path
    env: dict[str, str]


@dataclass
class CliOutput:
    seed: int
    csv: bytes
    svg: bytes


class CliExperiment(Workload):
    name = "cli_experiment"
    why = "the paper's three-method comparison as users run it: interpreter start, import and a fresh kNN build per op"
    params = {
        "command": "python -m semrank.cli experiment --num-points 1000 --seed <seed+i> --out <csv> --plot <svg>",
        "num_points": 1000,
        "dim": 2,
        "clusters": 5,
        "pool_size": 50,
        "k": 10,
        "lambda": 0.25,
        "beta": 1.0,
        "graph_k": 5,
        "symbolic_mode": "sparse",
        "timed": "spawn to exit of one fresh process",
    }
    METHODS = ("topk_ann", "semantic_compression", "graph_ppr")

    def _argv(self, state: CliState, seed: int) -> list[str]:
        stem = state.workdir / f"experiment-{seed}"
        return [
            "experiment", "--num-points", "1000", "--seed", str(seed),
            "--out", f"{stem}.csv", "--plot", f"{stem}.svg",
        ]

    def _read(self, state: CliState, seed: int) -> CliOutput:
        stem = state.workdir / f"experiment-{seed}"
        return CliOutput(seed, Path(f"{stem}.csv").read_bytes(), Path(f"{stem}.svg").read_bytes())

    def setup(self, seed: int, workdir: Path) -> CliState:
        return CliState(seed, workdir, child_env())

    def op(self, state: CliState, i: int) -> CliOutput:
        seed = state.seed + i
        proc = subprocess.run(
            [sys.executable, "-m", "semrank.cli", *self._argv(state, seed)],
            env=state.env, cwd=state.workdir, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return self._read(state, seed)

    def op_in_process(self, state: CliState, i: int) -> CliOutput:
        seed = state.seed + i
        code = cli.main(self._argv(state, seed))
        if code != 0:
            raise RuntimeError(f"semrank.cli.main returned {code}")
        return self._read(state, seed)

    def check(self, state: CliState, outputs: list[tuple[int, CliOutput]], refs: dict) -> dict[int, str]:
        stored = refs.get(self.name, {})

        def one(i: int, out: CliOutput) -> None:
            ref = stored.get(str(out.seed))
            if ref is not None:
                if sha256(out.csv) != ref["csv_sha256"]:
                    raise oracles.OracleError(f"seed {out.seed}: CSV differs from the stored reference")
                if sha256(out.svg) != ref["svg_sha256"]:
                    raise oracles.OracleError(f"seed {out.seed}: SVG differs from the stored reference")
            self._check_csv(out)
            self._check_svg(out)

        return _checked(outputs, one)

    def _check_csv(self, out: CliOutput) -> None:
        lines = out.csv.decode("utf-8").split("\n")
        if lines[0] != "method,relevance,diversity,items" or lines[-1] != "" or len(lines) != 5:
            raise oracles.OracleError(f"seed {out.seed}: malformed CSV")
        rows = [line.split(",") for line in lines[1:-1]]
        if tuple(row[0] for row in rows) != self.METHODS:
            raise oracles.OracleError(f"seed {out.seed}: methods {[row[0] for row in rows]}")
        dataset = datagen.generate_clusters(datagen.SyntheticDatasetSpec(num_points=1000, rng_seed=out.seed))
        query = datagen.composite_query(dataset, out.seed)
        ids, unit = oracles.unit_rows(dataset.points)
        by_unit = dict(zip(ids, unit))
        query_unit = query.values / np.linalg.norm(query.values)
        sims = dict(zip(ids, oracles.cosines(unit, query.values).tolist()))
        pool = sorted(ids, key=lambda item: (-sims[item], item))[:50]
        items = {row[0]: row[3].split(";") for row in rows}
        what = f"seed {out.seed}"
        for method, chosen in items.items():
            if len(chosen) != 10 or len(set(chosen)) != 10 or not set(chosen) <= set(ids):
                raise oracles.OracleError(f"{what}: {method} items {chosen}")
        oracles.check_top(items["topk_ann"], sims, 10, f"{what} topk_ann", oracles.SIM_TOL)
        oracles.check_first_pick(items["semantic_compression"][0], pool, dataset.by_id, f"{what} greedy first pick")
        for row in rows:
            chosen = items[row[0]]
            want = (oracles.relevance(chosen, by_unit, query_unit), oracles.diversity(chosen, by_unit))
            for got, expected, label in zip((float(row[1]), float(row[2])), want, ("relevance", "diversity")):
                if abs(got - expected) > CSV_TOL:
                    raise oracles.OracleError(f"{what}: {row[0]} {label} {got} != {expected:.6f}")

    def _check_svg(self, out: CliOutput) -> None:
        svg = out.svg
        counts = {cls: svg.count(f'class="{cls}"'.encode()) for cls in ("knn-edge", "point", "head", "query")}
        if not svg.startswith(b"<svg ") or not svg.endswith(b"</svg>\n"):
            raise oracles.OracleError(f"seed {out.seed}: SVG is not a complete document")
        if counts != {"knn-edge": 5000, "point": 1000, "head": 5, "query": 1}:
            raise oracles.OracleError(f"seed {out.seed}: SVG element counts {counts}")

    def run_oracles(self, state: CliState) -> list[str]:
        spec = datagen.SyntheticDatasetSpec(num_points=1000, rng_seed=state.seed)
        dataset = datagen.generate_clusters(spec)
        built = experiments.build_experiment_graph(experiments.ExperimentConfig(dataset=spec), dataset)
        nodes = oracles.check_knn(built, 5, _sample(len(dataset.points), state.seed), "cli graph kNN")
        query = datagen.composite_query(dataset, state.seed)
        pool = candidates.top_n_candidates(query, dataset.points, 50)
        _check_ppr(built, pool.ids[:5], "cli graph PPR")
        return [f"kNN out-edges of {nodes} nodes", "PPR against dense solve"]


def _check_ppr(built, seed_ids, what: str) -> None:
    seed = graph.SeedVector.uniform(built.node_ids, seed_ids)
    scores = graph.personalized_pagerank(graph.normalize_adjacency(built), seed, graph.PprConfig())
    reference = oracles.dense_ppr(built, seed.weights, graph.PprConfig().alpha)[:, 0]
    oracles.check_ppr(scores, reference, built.node_ids, what)


# --- query_stream -------------------------------------------------------------


@dataclass
class QueryState:
    seed: int
    dataset: Any
    graph: Any


@dataclass
class QueryOutput:
    pool_ids: tuple[str, ...]
    chosen: tuple[str, ...]
    items: tuple[tuple[str, float], ...]


class QueryStream(Workload):
    name = "query_stream"
    why = "graph read path: index built once in set-up, then many pool+greedy+PPR queries; rank_hybrid dominates"
    params = {
        "num_points": 2000,
        "dim": 32,
        "clusters": 5,
        "graph_k": 5,
        "symbolic_mode": "dense",
        "symbolic_threshold": 0.85,
        "setup": "generate, save_dataset/load_dataset, build_experiment_graph, save_graph/load_graph",
        "op": "composite_query(seed+i) -> top_n_candidates(100) -> greedy_select(k 10, lambda 0.25)"
        " -> SeedVector.uniform(pool top 5) -> rank_hybrid(beta 0.5, k 10)",
        "pool_size": 100,
        "k": 10,
        "lambda": 0.25,
        "seed_size": 5,
        "beta": 0.5,
        "ppr": {"alpha": 0.15, "tolerance": 1e-10},
    }

    def setup(self, seed: int, workdir: Path) -> QueryState:
        config = experiments.ExperimentConfig(
            dataset=datagen.SyntheticDatasetSpec(num_points=2000, dim=32, rng_seed=seed),
            pool_size=100, k=10, lam=0.25, graph_k=5, symbolic_mode="dense", symbolic_threshold=0.85, beta=0.5,
        )
        fileio.save_dataset(datagen.generate_clusters(config.dataset), workdir / "dataset.tsv")
        dataset = fileio.load_dataset(workdir / "dataset.tsv")
        fileio.save_graph(experiments.build_experiment_graph(config, dataset), workdir / "graph.tsv")
        return QueryState(seed, dataset, fileio.load_graph(workdir / "graph.tsv"))

    def op(self, state: QueryState, i: int) -> QueryOutput:
        query = datagen.composite_query(state.dataset, state.seed + i)
        pool = candidates.top_n_candidates(query, state.dataset.points, 100)
        trace = compression.greedy_select(pool, compression.CompressionConfig(k=10, lam=0.25))
        seed = graph.SeedVector.uniform(state.graph.node_ids, pool.ids[:5])
        result = hybrid.rank_hybrid(pool, state.graph, seed, graph.PprConfig(), hybrid.HybridConfig(beta=0.5, k=10))
        return QueryOutput(pool.ids, trace.chosen, result.items)

    def check(self, state: QueryState, outputs: list[tuple[int, QueryOutput]], refs: dict) -> dict[int, str]:
        stored = refs.get(self.name, {})
        built = state.graph
        positions = {node_id: p for p, node_id in enumerate(built.node_ids)}
        columns = {}
        for i, out in outputs:
            if i not in columns:
                column = np.zeros(len(positions))
                column[[positions[item] for item in out.pool_ids[:5]]] = 1.0 / 5
                columns[i] = column
        ordered = sorted(columns)
        mass = oracles.dense_ppr(built, np.stack([columns[i] for i in ordered], axis=1), graph.PprConfig().alpha)
        mass_of = {i: mass[:, c] for c, i in enumerate(ordered)}
        edges = oracles.out_edges(built)

        def one(i: int, out: QueryOutput) -> None:
            what = f"query {state.seed}+{i}"
            ref = stored.get(f"{state.seed}:{i}")
            if ref is not None:
                if list(out.chosen) != ref["chosen"]:
                    raise oracles.OracleError(f"{what}: greedy picks differ from the stored reference")
                if [item for item, _ in out.items] != [item for item, _ in ref["items"]]:
                    raise oracles.OracleError(f"{what}: ranked ids differ from the stored reference")
                for (item, score), (_, want) in zip(out.items, ref["items"]):
                    if abs(score - want) > 1e-12:
                        raise oracles.OracleError(f"{what}: {item!r} score {score!r} != reference {want!r}")
            query = datagen.composite_query(state.dataset, state.seed + i)
            sims = oracles.check_pool(out.pool_ids, state.dataset.points, query.values, f"{what} pool")
            oracles.check_first_pick(out.chosen[0], out.pool_ids, built.by_id, f"{what} greedy first pick")
            oracles.check_hybrid(out.items, out.pool_ids, built, edges, mass_of[i], sims, 0.5, 10, f"{what} ranking")

        return _checked(outputs, one)

    def run_oracles(self, state: QueryState) -> list[str]:
        nodes = oracles.check_knn(state.graph, 5, _sample(len(state.graph), state.seed), "query graph kNN")
        query = datagen.composite_query(state.dataset, state.seed)
        pool = candidates.top_n_candidates(query, state.dataset.points, 100)
        _check_ppr(state.graph, pool.ids[:5], "query graph PPR")
        return [f"kNN out-edges of {nodes} nodes", "PPR against dense solve"]


# --- lambda_sweep -------------------------------------------------------------


@dataclass
class SweepState:
    seed: int


@dataclass
class SweepOutput:
    seed: int
    points: tuple[tuple[float, float, float], ...]
    csv: str


class LambdaSweep(Workload):
    name = "lambda_sweep"
    why = "compression path that never touches the graph: greedy at six diversity weights plus pairwise metrics"
    params = {
        "op": "sweep_lambda(runs 1) on a dataset with seed seed+i",
        "num_points": 1000,
        "dim": 2,
        "clusters": 5,
        "pool_size": 400,
        "k": 40,
        "lambdas": [0.0, 0.25, 0.5, 1.0, 2.0, 4.0],
        "runs": 1,
    }
    LAMBDAS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)

    def spec(self, seed: int) -> datagen.SyntheticDatasetSpec:
        return datagen.SyntheticDatasetSpec(num_points=1000, dim=2, rng_seed=seed)

    def setup(self, seed: int, workdir: Path) -> SweepState:
        return SweepState(seed)

    def op(self, state: SweepState, i: int) -> SweepOutput:
        seed = state.seed + i
        config = experiments.ExperimentConfig(dataset=self.spec(seed), pool_size=400, k=40)
        points = experiments.sweep_lambda(config, self.LAMBDAS, 1)
        return SweepOutput(
            seed,
            tuple((p.lam, p.relevance, p.diversity) for p in points),
            experiments.sweep_to_csv(points),
        )

    def check(self, state: SweepState, outputs: list[tuple[int, SweepOutput]], refs: dict) -> dict[int, str]:
        stored = refs.get(self.name, {})

        def one(i: int, out: SweepOutput) -> None:
            what = f"sweep seed {out.seed}"
            ref = stored.get(str(out.seed))
            if ref is not None and sha256(out.csv.encode("utf-8")) != ref:
                raise oracles.OracleError(f"{what}: CSV differs from the stored reference")
            if tuple(lam for lam, _, _ in out.points) != self.LAMBDAS:
                raise oracles.OracleError(f"{what}: lambdas {[lam for lam, _, _ in out.points]}")
            dataset = datagen.generate_clusters(self.spec(out.seed))
            query = datagen.composite_query(dataset, out.seed)
            ids, unit = oracles.unit_rows(dataset.points)
            sims = dict(zip(ids, oracles.cosines(unit, query.values).tolist()))
            top = sorted(ids, key=lambda item: (-sims[item], item))[:40]
            by_unit = dict(zip(ids, unit))
            want = (
                oracles.relevance(top, by_unit, query.values / np.linalg.norm(query.values)),
                oracles.diversity(top, by_unit),
            )
            _, rel0, div0 = out.points[0]
            if abs(rel0 - want[0]) > 1e-9 or abs(div0 - want[1]) > 1e-9:
                raise oracles.OracleError(f"{what}: lambda 0 gives ({rel0!r}, {div0!r}), top-k gives {want}")
            for lam, rel, div in out.points:
                # Top-k maximises mean query cosine, so no weight can beat it.
                if rel > rel0 + 1e-9 or not -1e-9 <= div <= 2.0 + 1e-9:
                    raise oracles.OracleError(f"{what}: lambda {lam} gives ({rel!r}, {div!r})")

        return _checked(outputs, one)

    def run_oracles(self, state: SweepState) -> list[str]:
        dataset = datagen.generate_clusters(self.spec(state.seed))
        query = datagen.composite_query(dataset, state.seed)
        pool = candidates.top_n_candidates(query, dataset.points, 400)
        oracles.check_pool(pool.ids, dataset.points, query.values, "sweep pool")
        trace = compression.greedy_select(pool, compression.CompressionConfig(k=40, lam=0.25))
        oracles.check_first_pick(trace.chosen[0], pool.ids, dataset.by_id, "sweep greedy first pick")
        return ["pool against exhaustive scan", "greedy first pick against singleton objective"]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (CliExperiment(), QueryStream(), LambdaSweep())}
