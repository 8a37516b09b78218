"""Span tracing for the benchmark's traced run.

:meth:`Tracer.install` replaces each traced library function at every place
it is looked up (the defining module and every ``semrank`` module that
imported it by name; the class for methods) with a wrapper that records a
span: name, start, end, parent and root.  Spans and counters stay in memory
and are reduced to per-layer metrics after the run.  Counter hooks run after
a span closes and their time is taken off the tracer's clock, so no span,
parent or root includes it.  Nothing here edits the library.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator

# Per-layer metrics, in the order BENCHMARK.json lists them.  ``.ms`` is busy
# time, ``.self_ms`` busy time minus wrapped children, ``.calls`` a call
# count; the other names are counters filled by hooks or probes below.
LAYER_METRICS = {
    "graph.build_knn_graph.ms": "ms",
    "graph.build_knn_graph.self_ms": "ms",
    "graph.build_knn_graph.peak_mib": "MiB",
    "geometry.similarity_matrix.ms": "ms",
    "geometry.similarity_matrix.cells": "count",
    "graph.personalized_pagerank.ms": "ms",
    "graph.ppr.iterations": "count",
    "graph.normalize_adjacency.ms": "ms",
    "graph.normalize_adjacency.bytes": "bytes",
    "graph.out_neighbors.ms": "ms",
    "graph.out_neighbors.calls": "count",
    "hybrid.rank_hybrid.ms": "ms",
    "hybrid.rank_hybrid.self_ms": "ms",
    "hybrid.scope_size": "count",
    "hybrid.results_from_outside_pool": "count",
    "graph.elect_cluster_heads.ms": "ms",
    "graph.add_symbolic_edges.ms": "ms",
    "graph.edges.knn": "count",
    "graph.edges.symbolic": "count",
    "candidates.top_n_candidates.self_ms": "ms",
    "geometry.query_similarities.ms": "ms",
    "geometry.query_similarities.vectors": "count",
    "compression.greedy_select.ms": "ms",
    "compression.greedy_select.calls": "count",
    "compression.gain_evals": "count",
    "hybrid.build_result.ms": "ms",
    "datagen.generate_clusters.ms": "ms",
    "datagen.composite_query.ms": "ms",
    "fileio.save.ms": "ms",
    "fileio.load.ms": "ms",
    "fileio.bytes": "bytes",
    "plotting.emit_bundle_plot.ms": "ms",
    "plotting.svg_bytes": "bytes",
    "experiments.run_experiment_bundle.self_ms": "ms",
    "experiments.sweep_lambda.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.import_ms": "ms",
    "trace.untraced_op_p50_ms": "ms",
    "trace.op_p50_ms": "ms",
    "trace.overhead_ms": "ms",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    root: int = 0
    counts: dict[str, float] = field(default_factory=dict)


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[position]


def _count(span: Span, key: str, value: float) -> None:
    span.counts[key] = span.counts.get(key, 0) + value


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.first_calls: dict[str, tuple[tuple, dict]] = {}
        self._stack: list[int] = []
        self._hook_s = 0.0
        self._patches: list[tuple[Any, str, Any]] = []
        self._neighbors: dict[int, tuple[Any, dict[str, set[str]]]] = {}

    def now(self) -> float:
        return time.perf_counter() - self._hook_s

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = self.spans[parent].root if parent is not None else index
        self.spans.append(Span(name, self.now(), parent=parent, root=root))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = self.now()
        self._stack.pop()

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                began = time.perf_counter()
                hook(self, self.spans[index], args, kwargs, result)
                self._hook_s += time.perf_counter() - began
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "semrank" or n.startswith("semrank.")]
        for path, name, hook in TARGETS:
            module_name, attr = path.split(":")
            owner = importlib.import_module(module_name)
            *outer, last = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            wrapper = self.wrap(name, original, hook)
            if outer:
                self._patch(owner, last, wrapper)
                continue
            for module in modules:
                for key in [key for key, value in vars(module).items() if value is original]:
                    self._patch(module, key, wrapper)

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def scope_size(self, pool, graph) -> int:
        cached = self._neighbors.get(id(graph))
        if cached is None:
            table: dict[str, set[str]] = {}
            for edge in graph.edges:
                table.setdefault(edge.source, set()).add(edge.target)
            cached = self._neighbors[id(graph)] = (graph, table)
        scope = set(pool.ids)
        for item in pool.ids:
            scope |= cached[1].get(item, set())
        return len(scope)


# --- counter hooks ------------------------------------------------------------


def _ppr_call(tracer, span, args, kwargs, result) -> None:
    tracer.first_calls.setdefault("graph.personalized_pagerank", (args, kwargs))


def _similarity_cells(tracer, span, args, kwargs, result) -> None:
    _count(span, "geometry.similarity_matrix.cells", len(_arg(args, kwargs, 0, "vectors")) ** 2)


def _query_vectors(tracer, span, args, kwargs, result) -> None:
    _count(span, "geometry.query_similarities.vectors", len(_arg(args, kwargs, 1, "vectors")))


def _gain_evals(tracer, span, args, kwargs, result) -> None:
    pool = _arg(args, kwargs, 0, "pool")
    _count(span, "compression.gain_evals", _arg(args, kwargs, 1, "config").k * len(pool))


def _knn_edges(tracer, span, args, kwargs, result) -> None:
    tracer.first_calls.setdefault("graph.build_knn_graph", (args, kwargs))
    _count(span, "graph.edges.knn", len(result.edges))


def _symbolic_edges(tracer, span, args, kwargs, result) -> None:
    _count(span, "graph.edges.symbolic", len(result.edges) - len(_arg(args, kwargs, 0, "graph").edges))


def _adjacency_bytes(tracer, span, args, kwargs, result) -> None:
    _count(span, "graph.normalize_adjacency.bytes", result.matrix.nbytes)


def _hybrid_scope(tracer, span, args, kwargs, result) -> None:
    pool = _arg(args, kwargs, 0, "pool")
    _count(span, "hybrid.scope_size", tracer.scope_size(pool, _arg(args, kwargs, 1, "graph")))
    inside = set(pool.ids)
    _count(span, "hybrid.results_from_outside_pool", sum(item not in inside for item in result.item_ids))


def _saved_bytes(tracer, span, args, kwargs, result) -> None:
    _count(span, "fileio.bytes", Path(result).stat().st_size)


def _svg_bytes(tracer, span, args, kwargs, result) -> None:
    _count(span, "plotting.svg_bytes", Path(result).stat().st_size)


TARGETS: list[tuple[str, str, Callable | None]] = [
    ("semrank.geometry:similarity_matrix", "geometry.similarity_matrix", _similarity_cells),
    ("semrank.geometry:query_similarities", "geometry.query_similarities", _query_vectors),
    ("semrank.datagen:generate_clusters", "datagen.generate_clusters", None),
    ("semrank.datagen:composite_query", "datagen.composite_query", None),
    ("semrank.candidates:top_n_candidates", "candidates.top_n_candidates", None),
    ("semrank.compression:greedy_select", "compression.greedy_select", _gain_evals),
    ("semrank.graph:build_knn_graph", "graph.build_knn_graph", _knn_edges),
    ("semrank.graph:elect_cluster_heads", "graph.elect_cluster_heads", None),
    ("semrank.graph:add_symbolic_edges_sparse", "graph.add_symbolic_edges", _symbolic_edges),
    ("semrank.graph:add_symbolic_edges_dense", "graph.add_symbolic_edges", _symbolic_edges),
    ("semrank.graph:normalize_adjacency", "graph.normalize_adjacency", _adjacency_bytes),
    ("semrank.graph:personalized_pagerank", "graph.personalized_pagerank", _ppr_call),
    ("semrank.graph:SemanticGraph.out_neighbors", "graph.out_neighbors", None),
    ("semrank.hybrid:rank_hybrid", "hybrid.rank_hybrid", _hybrid_scope),
    ("semrank.hybrid:build_result", "hybrid.build_result", None),
    ("semrank.fileio:save_dataset", "fileio.save", _saved_bytes),
    ("semrank.fileio:save_graph", "fileio.save", _saved_bytes),
    ("semrank.fileio:load_dataset", "fileio.load", None),
    ("semrank.fileio:load_graph", "fileio.load", None),
    ("semrank.plotting:emit_bundle_plot", "plotting.emit_bundle_plot", _svg_bytes),
    ("semrank.experiments:run_experiment_bundle", "experiments.run_experiment_bundle", None),
    ("semrank.experiments:sweep_lambda", "experiments.sweep_lambda", None),
    ("semrank.cli:main", "cli.main", None),
]


# --- reduction and probes -----------------------------------------------------


def per_root(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Busy time, self time, calls and counters of every layer, summed
    within each root span (one op or one set-up)."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    totals: dict[int, dict[str, float]] = {i: {} for i, span in enumerate(spans) if span.parent is None}
    for i, span in enumerate(spans):
        if span.parent is None:
            continue
        agg = totals[span.root]
        took = span.end - span.start
        for key, value in (
            (f"{span.name}.ms", took * 1000.0),
            (f"{span.name}.self_ms", (took - child_s[i]) * 1000.0),
            (f"{span.name}.calls", 1),
            *span.counts.items(),
        ):
            agg[key] = agg.get(key, 0) + value
    return totals


def layer_values(spans: list[Span]) -> tuple[dict[str, float], set[str]]:
    """Every metric seen in the spans: the median over traced ops when ops
    call that layer, else the median over set-ups, so layers that only run
    in set-up (the query_stream index build, file I/O) still report.  Also
    returns the names that came from ops."""
    totals = per_root(spans)
    ops, setups = ([agg for i, agg in totals.items() if spans[i].name == kind] for kind in ("op", "setup"))
    values: dict[str, float] = {}
    for group in (ops, setups):
        for key in {key for agg in group for key in agg}:
            values.setdefault(key, statistics.median(agg.get(key, 0) for agg in group))
    return values, {key for agg in ops for key in agg}


def ppr_iterations(args: tuple, kwargs: dict) -> int:
    """Smallest ``max_iterations`` that converges, by bisection; untimed."""
    from semrank import graph

    adjacency = _arg(args, kwargs, 0, "adjacency")
    seed = _arg(args, kwargs, 1, "seed")
    config = (args[2] if len(args) > 2 else kwargs.get("config")) or graph.PprConfig()
    low, high = 1, config.max_iterations
    while low < high:
        middle = (low + high) // 2
        try:
            graph.personalized_pagerank(adjacency, seed, replace(config, max_iterations=middle))
            high = middle
        except graph.ConvergenceError:
            low = middle + 1
    return low


def knn_peak_mib(args: tuple, kwargs: dict) -> float:
    """Peak traced allocation of one untimed ``build_knn_graph`` call.
    tracemalloc is on only here: it slows allocation-heavy code severalfold,
    which would distort every busy time if it ran during the traced ops."""
    from semrank import graph

    tracemalloc.start()
    try:
        graph.build_knn_graph(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20
