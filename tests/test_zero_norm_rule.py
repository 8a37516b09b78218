"""One zero-norm rule: every public entry point that takes a cosine of a
zero vector fails with the same message, naming that vector."""

import numpy as np
import pytest

from semrank.candidates import CandidatePool, top_n_candidates
from semrank.geometry import (
    EmbeddingVector,
    cosine_similarity,
    query_similarities,
    similarity_matrix,
    similarity_rows,
)
from semrank.graph import PprConfig, SeedVector, SemanticGraph, add_symbolic_edges_dense, elect_cluster_heads
from semrank.hybrid import HybridConfig, rank_hybrid

_MESSAGE = "cosine similarity undefined for zero-norm vector 'z'"
_A = EmbeddingVector("a", [1.0, 0.0])
_B = EmbeddingVector("b", [0.0, 1.0])
_Z = EmbeddingVector("z", [0.0, 0.0])


def _rank(pool, edges):
    graph = SemanticGraph.from_named((*pool.candidates, _Z), edges)
    seeds = SeedVector.uniform(graph.node_ids, ["a"])
    rank_hybrid(pool, graph, seeds, PprConfig(), HybridConfig(beta=0.5, k=2))


def _rank_from_zero_node():
    """``z`` is no pool item, but an out-neighbour of one, so it is scored."""
    _rank(top_n_candidates(EmbeddingVector("q", [1.0, 1.0]), [_A, _B], 2), (("a", "z", 1.0, "knn"),))


def _rank_for_zero_query():
    """No scan builds a pool for a zero-norm query, so this one is built by hand."""
    _rank(CandidatePool(_Z, (_A, _B), np.zeros(2)), (("a", "b", 1.0, "knn"),))


def _dense(heads, labels):
    add_symbolic_edges_dense(SemanticGraph.from_named((_A, _B, _Z), ()), heads, 0.5, labels)


_ENTRY_POINTS = {
    "cosine_similarity": lambda: cosine_similarity(_A, _Z),
    "similarity_matrix": lambda: similarity_matrix([_A, _Z, _B]),
    "similarity_rows": lambda: similarity_rows([_A, _Z, _B]),
    "query_similarities corpus": lambda: query_similarities(_A, [_B, _Z]),
    "query_similarities query": lambda: query_similarities(_Z, [_A, _B]),
    "rank_hybrid node": _rank_from_zero_node,
    "rank_hybrid query": _rank_for_zero_query,
    "elect_cluster_heads": lambda: elect_cluster_heads([_A, _Z], {"a": 0, "z": 0}),
    "add_symbolic_edges_dense head": lambda: _dense(["z"], {"a": 0, "b": 0, "z": 1}),
    "add_symbolic_edges_dense node": lambda: _dense(["a"], {"a": 0, "b": 0, "z": 1}),
}


@pytest.mark.parametrize("entry_point", list(_ENTRY_POINTS))
def test_every_entry_point_gives_the_one_message(entry_point):
    with pytest.raises(ValueError) as error:
        _ENTRY_POINTS[entry_point]()
    assert str(error.value) == _MESSAGE
