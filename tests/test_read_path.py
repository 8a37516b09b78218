"""Property tests of the array-backed graph read path against scans of the
edge list and a dense linear solve, on random multigraphs with dangling
nodes and parallel knn+symbolic edges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semrank.candidates import top_n_candidates
from semrank.geometry import EmbeddingVector, cosine_similarity
from semrank.graph import (
    ConvergenceError,
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
                edges.append((f"n{i}", f"n{j}", draw(weights), kind))
    return SemanticGraph.from_named(nodes=nodes, edges=tuple(edges))


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


def _allocating_ppr(adjacency, seed, config):
    """The power iteration as first written, gathering with ``r[sources]``
    and allocating a fresh array per operation; the library's kernel must
    match it bit for bit, iterate for iterate."""
    s = seed.weights
    n = len(adjacency.order)
    sources = np.repeat(np.arange(n), np.diff(adjacency.indptr))
    targets = adjacency.indices
    dangling_idx = adjacency.dangling_index
    r = s.copy()
    residual = np.inf
    for _ in range(config.max_iterations):
        dangling_mass = float(r[dangling_idx].sum()) if dangling_idx.size else 0.0
        spread = np.bincount(targets, weights=adjacency.weights * r[sources], minlength=n)
        r_next = config.alpha * s + (1.0 - config.alpha) * (spread + dangling_mass * s)
        residual = float(np.abs(r_next - r).sum())
        r = r_next
        if residual < config.tolerance:
            return list(zip(adjacency.order, r.tolist()))
    raise ConvergenceError(residual=residual, iterations=config.max_iterations, tolerance=config.tolerance)


def _outcome(adjacency, seed, config, ppr=personalized_pagerank):
    """Node order and score bits of a converged run, or the iteration
    count, residual and message of a failed one."""
    try:
        scores = ppr(adjacency, seed, config)
    except ConvergenceError as error:
        return ("raised", error.iterations, error.residual, str(error))
    return ("converged", [node_id for node_id, _ in scores], [score.hex() for _, score in scores])


def _reference_outcome(adjacency, seed, config):
    return _outcome(adjacency, seed, config, _allocating_ppr)


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
        assert {adjacency.order[i] for i in adjacency.dangling_index} == {
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


_ALPHAS = (0.05, 0.15, 0.5, 0.85)


class TestPprKernelIsBitwiseTheAllocatingLoop:
    @settings(max_examples=150, deadline=None)
    @given(graph=multigraphs(), alpha=st.sampled_from(_ALPHAS), data=st.data())
    def test_converged_scores_and_order(self, graph, alpha, data):
        seed = _seed(graph, data)
        adjacency = normalize_adjacency(graph)
        config = PprConfig(alpha=alpha, tolerance=data.draw(st.sampled_from([1e-6, 1e-10, 1e-13])))
        outcome = _outcome(adjacency, seed, config)
        assert outcome[0] == "converged"
        assert outcome == _reference_outcome(adjacency, seed, config)

    @settings(max_examples=100, deadline=None)
    @given(graph=multigraphs(), alpha=st.sampled_from(_ALPHAS), data=st.data())
    def test_budget_exhaustion_reports_the_same_residual(self, graph, alpha, data):
        seed = _seed(graph, data)
        adjacency = normalize_adjacency(graph)
        config = PprConfig(alpha=alpha, tolerance=1e-300, max_iterations=data.draw(st.integers(1, 6)))
        # A seed that is already the fixed point converges with residual 0.
        assert _outcome(adjacency, seed, config) == _reference_outcome(adjacency, seed, config)

    @pytest.mark.parametrize("alpha", _ALPHAS)
    def test_adjacency_without_entries(self, alpha):
        """Every node dangling: ``np.bincount`` over no entries returns int64."""
        nodes = tuple(EmbeddingVector(f"n{i}", [1.0, float(i)]) for i in range(4))
        adjacency = normalize_adjacency(SemanticGraph.from_named(nodes=nodes, edges=()))
        assert adjacency.indices.size == 0
        seed = SeedVector.uniform(adjacency.order, ["n1", "n3", "n3"])
        for config in (PprConfig(alpha=alpha), PprConfig(alpha=alpha, tolerance=1e-300, max_iterations=2)):
            assert _outcome(adjacency, seed, config) == _reference_outcome(adjacency, seed, config)
        assert _outcome(adjacency, seed, PprConfig(alpha=alpha))[0] == "converged"

    @pytest.mark.parametrize("alpha", _ALPHAS)
    def test_one_node_graph(self, alpha):
        graph = SemanticGraph.from_named(nodes=(EmbeddingVector("only", [0.5, 2.0]),), edges=())
        adjacency = normalize_adjacency(graph)
        seed = SeedVector.uniform(adjacency.order, ["only"])
        outcome = _outcome(adjacency, seed, PprConfig(alpha=alpha))
        assert outcome == _reference_outcome(adjacency, seed, PprConfig(alpha=alpha))
        assert outcome[:2] == ("converged", ["only"])
        assert float.fromhex(outcome[2][0]) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_calls_on_one_adjacency_agree(self):
        """The cached degrees and dangling index are only read."""
        nodes = tuple(EmbeddingVector(f"n{i}", [1.0, float(i)]) for i in range(3))
        edges = (("n0", "n1", 1.0, "knn"), ("n1", "n0", 0.5, "knn"))
        adjacency = normalize_adjacency(SemanticGraph.from_named(nodes=nodes, edges=edges))
        seed = SeedVector.uniform(adjacency.order, ["n0"])
        first = _outcome(adjacency, seed, PprConfig())
        assert _outcome(adjacency, seed, PprConfig()) == first == _reference_outcome(adjacency, seed, PprConfig())
        assert adjacency.degrees.tolist() == [1, 1, 0]
        assert adjacency.dangling_index.tolist() == [2]
        assert not adjacency.degrees.flags.writeable
        assert not adjacency.dangling_index.flags.writeable
