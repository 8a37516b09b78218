"""Property tests of the array-backed graph read path against scans of the
edge list and a dense linear solve, on random multigraphs with dangling
nodes and parallel knn+symbolic edges."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semrank.candidates import top_n_candidates
from semrank.geometry import EmbeddingVector, cosine_similarity
from semrank.graph import (
    GraphEdge,
    PprConfig,
    SeedVector,
    SemanticGraph,
    normalize_adjacency,
    personalized_pagerank,
)
from semrank.hybrid import HybridConfig, rank_hybrid

_PPR_TOL = 1e-9
_SCORE_TOL = 1e-12


def _nonzero_values(dim: int):
    return st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).filter(
        lambda xs: np.linalg.norm(xs) > 1e-3
    )


@st.composite
def multigraphs(draw) -> SemanticGraph:
    """2-9 nodes in d=2..3; each ordered pair carries no edge, a knn edge, a
    symbolic edge or both, and a drawn subset of nodes has no out-edges."""
    n = draw(st.integers(2, 9))
    dim = draw(st.integers(2, 3))
    nodes = tuple(EmbeddingVector(f"n{i}", draw(_nonzero_values(dim))) for i in range(n))
    dangling = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    weights = st.floats(0.01, 2.0)
    edges = []
    for i in range(n):
        if i in dangling:
            continue
        for j in range(n):
            if i == j:
                continue
            for kind in draw(st.sampled_from([(), ("knn",), ("symbolic",), ("knn", "symbolic")])):
                edges.append(GraphEdge(f"n{i}", f"n{j}", draw(weights), kind))
    return SemanticGraph(nodes=nodes, edges=tuple(edges))


def _dense_adjacency(graph: SemanticGraph) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalised sum of parallel edges, and the dangling indicator."""
    positions = {node_id: i for i, node_id in enumerate(graph.node_ids)}
    matrix = np.zeros((len(graph), len(graph)))
    for edge in graph.edges:
        matrix[positions[edge.source], positions[edge.target]] += edge.weight
    sums = matrix.sum(axis=1)
    dangling = sums == 0.0
    matrix[~dangling] /= sums[~dangling, None]
    return matrix, dangling.astype(np.float64)


def _scan_out_neighbors(graph: SemanticGraph, node_id: str) -> set[str]:
    return {edge.target for edge in graph.edges if edge.source == node_id}


def _hybrid_score(item_id, query, ppr, config, embeddings) -> float:
    """One item's blend, from its cosine and its entry in the PPR list."""
    direct = cosine_similarity(embeddings[item_id], query)
    diffusion = next((float(score) for node_id, score in ppr if node_id == item_id), 0.0)
    return (1.0 - config.beta) * direct + config.beta * diffusion


def _seed(graph: SemanticGraph, data) -> SeedVector:
    chosen = data.draw(st.lists(st.sampled_from(graph.node_ids), min_size=1, max_size=4))
    return SeedVector.uniform(graph.node_ids, chosen)


class TestReadPathProperties:
    @settings(max_examples=100, deadline=None)
    @given(graph=multigraphs(), alpha=st.floats(0.1, 0.9), data=st.data())
    def test_ppr_matches_dense_solve_with_dangling_restart(self, graph, alpha, data):
        seed = _seed(graph, data)
        adjacency = normalize_adjacency(graph)
        matrix, dangling = _dense_adjacency(graph)
        np.testing.assert_allclose(adjacency.matrix, matrix, rtol=0, atol=1e-15)
        assert adjacency.dangling == {
            node_id for node_id, flag in zip(graph.node_ids, dangling) if flag
        }

        scores = personalized_pagerank(adjacency, seed, PprConfig(alpha=alpha, tolerance=1e-13))
        s = seed.weights
        system = np.eye(len(graph)) - (1.0 - alpha) * (matrix.T + np.outer(s, dangling))
        expected = np.linalg.solve(system, alpha * s)
        assert [node_id for node_id, _ in scores] == list(graph.node_ids)
        np.testing.assert_allclose([score for _, score in scores], expected, rtol=0, atol=_PPR_TOL)

    @settings(max_examples=100, deadline=None)
    @given(graph=multigraphs())
    def test_out_neighbors_match_edge_scan(self, graph):
        for node_id in graph.node_ids:
            assert graph.out_neighbors(node_id) == _scan_out_neighbors(graph, node_id)

    @settings(max_examples=100, deadline=None)
    @given(graph=multigraphs(), data=st.data())
    def test_rank_hybrid_scope_and_scores_match_per_item_blend(self, graph, data):
        query = EmbeddingVector("q", data.draw(_nonzero_values(graph.nodes[0].dim)))
        pool = top_n_candidates(query, graph.nodes, data.draw(st.integers(1, len(graph))))
        scope = set(pool.ids)
        for item_id in pool.ids:
            scope |= _scan_out_neighbors(graph, item_id)
        seed = _seed(graph, data)
        config = HybridConfig(beta=data.draw(st.floats(0.0, 1.0)), k=len(scope))
        ppr_config = PprConfig(tolerance=1e-13)

        result = rank_hybrid(pool, graph, seed, ppr_config, config)

        assert set(result.item_ids) == scope
        ppr = personalized_pagerank(normalize_adjacency(graph), seed, ppr_config)
        for item_id, score in result.items:
            expected = _hybrid_score(item_id, query, ppr, config, graph.by_id)
            assert abs(score - expected) <= _SCORE_TOL
        keys = [(-score, item_id) for item_id, score in result.items]
        assert keys == sorted(keys)
