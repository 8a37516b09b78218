"""semrank: coverage+diversity reranking and graph-diffusion retrieval.

The package turns a flat embedding corpus into three complementary
retrieval strategies over a shared candidate pool:

* plain top-k by cosine similarity to the query,
* greedy subset selection balancing pool coverage against pairwise
  diversity,
* personalized-pagerank ranking over a kNN graph, optionally augmented
  with symbolic edges between cluster heads.

`semrank.experiments` wires the three into a reproducible benchmark with a
CLI front end (`python -m semrank.cli` or the ``semrank`` script).  The
top level re-exports the names the README's library example uses; every
other name lives in its submodule.
"""

from .candidates import top_n_candidates
from .compression import CompressionConfig, greedy_select
from .datagen import SyntheticDatasetSpec, composite_query, generate_clusters
from .experiments import ExperimentConfig, run_experiment

__version__ = "0.1.0"

__all__ = [
    "CompressionConfig",
    "ExperimentConfig",
    "SyntheticDatasetSpec",
    "composite_query",
    "generate_clusters",
    "greedy_select",
    "run_experiment",
    "top_n_candidates",
]
