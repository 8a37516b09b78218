"""semrank: coverage+diversity reranking and graph-diffusion retrieval.

The package turns a flat embedding corpus into three complementary
retrieval strategies over a shared candidate pool:

* plain top-k by cosine similarity to the query,
* greedy subset selection balancing pool coverage against pairwise
  diversity,
* personalized-pagerank ranking over a kNN graph, optionally augmented
  with symbolic edges between cluster heads.

`semrank.experiments` wires the three into a reproducible benchmark with a
CLI front end (`python -m semrank.cli` or the ``semrank`` script).
"""

from .candidates import CandidatePool, top_n_candidates
from .compression import (
    CompressionConfig,
    SelectionTrace,
    coverage_term,
    diversity_term,
    facility_location_greedy,
    greedy_select,
    objective,
    select_topk,
)
from .datagen import SyntheticDataset, SyntheticDatasetSpec, composite_query, generate_clusters
from .experiments import (
    ExperimentBundle,
    ExperimentConfig,
    ExperimentReport,
    SweepPoint,
    export_report,
    run_experiment,
    run_experiment_bundle,
    sweep_lambda,
)
from .fileio import load_dataset, load_graph, save_dataset, save_graph
from .geometry import (
    EmbeddingVector,
    SimilarityMatrix,
    cosine_similarity,
    normalize,
    query_similarities,
    similarity_matrix,
)
from .graph import (
    ConvergenceError,
    GraphEdge,
    NormalizedAdjacency,
    PprConfig,
    SeedVector,
    SemanticGraph,
    add_symbolic_edges_dense,
    add_symbolic_edges_sparse,
    build_knn_graph,
    elect_cluster_heads,
    normalize_adjacency,
    personalized_pagerank,
)
from .hybrid import (
    HybridConfig,
    RetrievalResult,
    build_result,
    diversity_metric,
    rank_hybrid,
    relevance_metric,
)
from .plotting import emit_plot, render_svg

__version__ = "0.1.0"

__all__ = [
    "CandidatePool",
    "CompressionConfig",
    "ConvergenceError",
    "EmbeddingVector",
    "ExperimentBundle",
    "ExperimentConfig",
    "ExperimentReport",
    "GraphEdge",
    "HybridConfig",
    "NormalizedAdjacency",
    "PprConfig",
    "RetrievalResult",
    "SeedVector",
    "SelectionTrace",
    "SemanticGraph",
    "SimilarityMatrix",
    "SweepPoint",
    "SyntheticDataset",
    "SyntheticDatasetSpec",
    "add_symbolic_edges_dense",
    "add_symbolic_edges_sparse",
    "build_knn_graph",
    "build_result",
    "composite_query",
    "cosine_similarity",
    "coverage_term",
    "diversity_metric",
    "diversity_term",
    "elect_cluster_heads",
    "emit_plot",
    "export_report",
    "facility_location_greedy",
    "generate_clusters",
    "greedy_select",
    "load_dataset",
    "load_graph",
    "normalize",
    "normalize_adjacency",
    "objective",
    "personalized_pagerank",
    "query_similarities",
    "rank_hybrid",
    "relevance_metric",
    "render_svg",
    "run_experiment",
    "run_experiment_bundle",
    "save_dataset",
    "save_graph",
    "select_topk",
    "similarity_matrix",
    "sweep_lambda",
    "top_n_candidates",
]
