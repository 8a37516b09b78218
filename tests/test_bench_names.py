"""Every library name the benchmark's workloads read still exists.

``bench/workloads.py`` calls the library through module attributes
(``graph.personalized_pagerank``, not a name imported from the module), so
a deletion or rename surfaces only when the benchmark runs.  Parsing the
file and resolving each ``<module>.<attr>`` it reads fails here first.
``bench/`` also reads attributes off the objects the library returns
(``graph.node_ids``, ``dataset.by_id``); one of each object is built here
and every such attribute resolved.
"""

import ast
import importlib
from pathlib import Path

from semrank import candidates, compression, datagen, experiments, graph, hybrid

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _names_read():
    """``(module, attr)`` for every attribute the file reads off a module
    it imports with ``from semrank import ...``."""
    tree = ast.parse(_WORKLOADS.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "semrank"
        for alias in node.names
    }
    return sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        }
    )


def test_every_library_name_the_workloads_read_resolves():
    names = _names_read()
    assert ("graph", "personalized_pagerank") in names
    assert ("graph", "normalize_adjacency") in names
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"semrank.{module}"), attr)
    ]
    assert missing == []


def test_every_attribute_the_bench_reads_off_library_objects_resolves():
    spec = datagen.SyntheticDatasetSpec(num_points=40)
    dataset = datagen.generate_clusters(spec)
    built = experiments.build_experiment_graph(experiments.ExperimentConfig(dataset=spec, pool_size=12), dataset)
    pool = candidates.top_n_candidates(datagen.composite_query(dataset, 0), dataset.points, 12)
    adjacency = graph.normalize_adjacency(built)
    trace = compression.greedy_select(pool, compression.CompressionConfig(k=4, lam=0.25))
    seed = graph.SeedVector.uniform(built.node_ids, pool.ids[:5])
    result = hybrid.rank_hybrid(pool, built, seed, graph.PprConfig(), hybrid.HybridConfig(beta=0.5, k=4))
    reads = [
        (built, ("node_ids", "nodes", "by_id", "edges")),
        (dataset, ("points", "by_id")),
        (pool, ("ids",)),
        (adjacency, ("matrix",)),
        (trace, ("chosen",)),
        (result, ("items", "item_ids")),
    ]
    missing = [f"{type(obj).__name__}.{name}" for obj, names in reads for name in names if not hasattr(obj, name)]
    assert missing == []
    assert len(built) == len(dataset.points)
