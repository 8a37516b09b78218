"""End-to-end benchmark harness comparing the three retrieval strategies.

One experiment generates a clustered dataset, forms a composite query, takes
the top-N candidate pool, and then retrieves k items three ways: plain top-k
by query similarity, coverage+diversity greedy selection (:func:`compress`),
and graph diffusion ranking (:func:`graph_rank`) over a kNN graph with
optional symbolic augmentation (:func:`build_experiment_graph`).  Each stage
is one function: the pipeline, the lambda sweep and the CLI commands all
call it, so every method is scored in one place.  Reports carry the
per-method metrics, a config echo, and per-stage runtimes.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence, TypeVar

from .candidates import CandidatePool, top_n_candidates
from .compression import CompressionConfig, greedy_select
from .datagen import SyntheticDataset, SyntheticDatasetSpec, composite_query, generate_clusters
from .geometry import EmbeddingVector
from .graph import (
    PprConfig,
    SeedVector,
    SemanticGraph,
    add_symbolic_edges_dense,
    add_symbolic_edges_sparse,
    build_knn_graph,
    elect_cluster_heads,
)
from .hybrid import HybridConfig, RetrievalResult, build_result, rank_hybrid

SYMBOLIC_MODES = ("none", "sparse", "dense")

_T = TypeVar("_T")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark run depends on."""

    dataset: SyntheticDatasetSpec = field(default_factory=SyntheticDatasetSpec)
    pool_size: int = 50
    k: int = 10
    lam: float = 0.25
    graph_k: int = 5
    symbolic_mode: str = "sparse"
    symbolic_threshold: float = 0.85
    symbolic_m: int = 2
    ppr: PprConfig = field(default_factory=PprConfig)
    beta: float = 1.0
    seed_size: int = 5

    def __post_init__(self) -> None:
        if self.symbolic_mode not in SYMBOLIC_MODES:
            msg = f"symbolic_mode must be one of {SYMBOLIC_MODES}, got {self.symbolic_mode!r}"
            raise ValueError(msg)
        if not 1 <= self.pool_size <= self.dataset.num_points:
            msg = f"pool_size must lie in [1, num_points], got {self.pool_size}"
            raise ValueError(msg)
        if not 1 <= self.k <= self.pool_size:
            msg = f"k must lie in [1, pool_size], got {self.k}"
            raise ValueError(msg)
        if not 0.0 <= self.beta <= 1.0:
            msg = f"beta must lie in [0, 1], got {self.beta}"
            raise ValueError(msg)
        if self.seed_size < 1:
            msg = f"seed_size must be >= 1, got {self.seed_size}"
            raise ValueError(msg)
        # lam and graph_k are validated by the components that consume them.


@dataclass(frozen=True)
class ExperimentReport:
    """Per-method results plus the config echo and stage timings (ms)."""

    results: tuple[RetrievalResult, ...]
    config: ExperimentConfig
    runtimes_ms: dict[str, float]

    def result(self, method: str) -> RetrievalResult:
        for entry in self.results:
            if entry.method == method:
                return entry
        msg = f"report has no result for method {method!r}"
        raise ValueError(msg)


@dataclass(frozen=True, eq=False)
class ExperimentBundle:
    """Report plus the in-memory artifacts needed for plotting."""

    report: ExperimentReport
    dataset: SyntheticDataset
    query: EmbeddingVector
    pool: CandidatePool
    graph: SemanticGraph


@dataclass(frozen=True)
class SweepPoint:
    """Mean compression metrics at one diversity weight."""

    lam: float
    relevance: float
    diversity: float


def _timed(runtimes: dict[str, float], stage: str, action: Callable[[], _T]) -> _T:
    start = time.perf_counter()
    try:
        value = action()
    except Exception as exc:
        # Re-raise the same exception, type and attributes intact, with the
        # stage named at the front of its message.
        exc.args = (f"experiment stage {stage!r} failed: {exc}",)
        raise
    runtimes[stage] = (time.perf_counter() - start) * 1000.0
    return value


def build_experiment_graph(config: ExperimentConfig, dataset: SyntheticDataset) -> SemanticGraph:
    """kNN graph over the full dataset, plus symbolic edges per config."""
    graph = build_knn_graph(dataset.points, config.graph_k)
    if config.symbolic_mode == "none":
        return graph
    heads = elect_cluster_heads(dataset.points, dataset.labels)
    if config.symbolic_mode == "sparse":
        return add_symbolic_edges_sparse(graph, heads, config.symbolic_m)
    return add_symbolic_edges_dense(graph, heads, config.symbolic_threshold, dataset.labels)


def compress(dataset: SyntheticDataset, pool: CandidatePool, k: int, lam: float) -> RetrievalResult:
    """The ``semantic_compression`` result: greedy coverage+diversity picks
    of ``k`` pool items at diversity weight ``lam``."""
    trace = greedy_select(pool, CompressionConfig(k=k, lam=lam))
    items = list(zip(trace.chosen, trace.marginal_gains))
    return build_result("semantic_compression", items, dataset.by_id, pool.query)


def graph_rank(config: ExperimentConfig, pool: CandidatePool, graph: SemanticGraph) -> RetrievalResult:
    """PPR seeded uniformly on the pool's top ``seed_size`` items, blended
    with the vector scores by ``config.beta``."""
    seed = SeedVector.uniform(graph.node_ids, pool.ids[: config.seed_size])
    return rank_hybrid(pool, graph, seed, config.ppr, HybridConfig(beta=config.beta, k=config.k))


def run_experiment_bundle(config: ExperimentConfig) -> ExperimentBundle:
    """Run the full pipeline, keeping the intermediate artifacts."""
    runtimes: dict[str, float] = {}
    dataset = _timed(runtimes, "generate", lambda: generate_clusters(config.dataset))
    query = _timed(runtimes, "query", lambda: composite_query(dataset, config.dataset.rng_seed))
    pool = _timed(runtimes, "pool", lambda: top_n_candidates(query, dataset.points, config.pool_size))

    def _topk() -> RetrievalResult:
        ids = pool.ids[: config.k]
        items = [(item_id, float(pool.query_sims[i])) for i, item_id in enumerate(ids)]
        return build_result("topk_ann", items, dataset.by_id, query)

    topk = _timed(runtimes, "topk_ann", _topk)
    compression = _timed(runtimes, "semantic_compression", lambda: compress(dataset, pool, config.k, config.lam))
    graph = _timed(runtimes, "graph_build", lambda: build_experiment_graph(config, dataset))
    ranked = _timed(runtimes, "graph_rank", lambda: graph_rank(config, pool, graph))

    report = ExperimentReport(
        results=(topk, compression, ranked),
        config=config,
        runtimes_ms=runtimes,
    )
    return ExperimentBundle(report=report, dataset=dataset, query=query, pool=pool, graph=graph)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    return run_experiment_bundle(config).report


def sweep_lambda(
    config: ExperimentConfig,
    lambdas: Sequence[float],
    runs: int,
) -> list[SweepPoint]:
    """Mean compression relevance/diversity per diversity weight.

    Each run re-generates the dataset, query and pool with dataset seed
    ``config.dataset.rng_seed + i`` and evaluates the greedy selection at
    every ``lam`` on that same pool, so the sweep isolates the effect of the
    diversity weight.
    """
    if not lambdas:
        msg = "sweep needs at least one diversity weight"
        raise ValueError(msg)
    if runs < 1:
        msg = f"runs must be >= 1, got {runs}"
        raise ValueError(msg)
    # One running total per position, so repeated weights (or 0.0 and
    # -0.0, which are equal keys) stay separate rows.
    totals = [[0.0, 0.0] for _ in lambdas]
    for offset in range(runs):
        spec = replace(config.dataset, rng_seed=config.dataset.rng_seed + offset)
        dataset = generate_clusters(spec)
        query = composite_query(dataset, spec.rng_seed)
        pool = top_n_candidates(query, dataset.points, config.pool_size)
        for lam, total in zip(lambdas, totals):
            result = compress(dataset, pool, config.k, lam)
            total[0] += result.relevance
            total[1] += result.diversity
    return [
        SweepPoint(lam=float(lam), relevance=relevance / runs, diversity=diversity / runs)
        for lam, (relevance, diversity) in zip(lambdas, totals)
    ]


# --- serialisation ----------------------------------------------------------


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "config": asdict(report.config),
        "results": [
            {
                "method": entry.method,
                "items": [[item_id, score] for item_id, score in entry.items],
                "relevance": entry.relevance,
                "diversity": entry.diversity,
            }
            for entry in report.results
        ],
        "runtimes_ms": dict(report.runtimes_ms),
    }


def report_to_csv(report: ExperimentReport) -> str:
    """Four columns, metrics at fixed 4-decimal precision, LF endings."""
    lines = ["method,relevance,diversity,items"]
    for entry in report.results:
        items = ";".join(entry.item_ids)
        lines.append(f"{entry.method},{entry.relevance:.4f},{entry.diversity:.4f},{items}")
    return "\n".join(lines) + "\n"


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
    lines = ["lambda,relevance,diversity"]
    for point in points:
        lines.append(f"{point.lam},{point.relevance:.4f},{point.diversity:.4f}")
    return "\n".join(lines) + "\n"


def sweep_to_json(points: Sequence[SweepPoint]) -> str:
    payload = [
        {"lambda": point.lam, "relevance": point.relevance, "diversity": point.diversity}
        for point in points
    ]
    return json.dumps(payload, indent=2) + "\n"
