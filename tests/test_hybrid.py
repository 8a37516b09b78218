"""Blended vector+graph ranking and the relevance/diversity metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semrank import hybrid
from semrank.candidates import CandidatePool, top_n_candidates
from semrank.geometry import EmbeddingVector, cosine_similarity
from semrank.graph import (
    PprConfig,
    SeedVector,
    SemanticGraph,
    build_knn_graph,
    normalize_adjacency,
    personalized_pagerank,
    ppr_mass,
)
from semrank.hybrid import (
    METHOD_TAGS,
    HybridConfig,
    RetrievalResult,
    build_result,
    diversity_metric,
    rank_hybrid,
    relevance_metric,
)


def _corpus(count=12, dim=3, seed=42):
    rng = np.random.default_rng(seed)
    return [EmbeddingVector(f"v{i:02d}", rng.normal(size=dim)) for i in range(count)]


def _scene(count=12, pool_size=8, graph_k=3, seed=42):
    corpus = _corpus(count=count, seed=seed)
    query = EmbeddingVector("q", np.random.default_rng(seed + 1).normal(size=3))
    pool = top_n_candidates(query, corpus, pool_size)
    graph = build_knn_graph(corpus, graph_k)
    seeds = SeedVector.uniform(graph.node_ids, pool.ids[:3])
    return pool, graph, seeds


class TestHybridConfig:
    def test_bounds(self):
        HybridConfig(beta=0.0, k=1)
        HybridConfig(beta=1.0, k=3)
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\]"):
            HybridConfig(beta=-0.1, k=1)
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\]"):
            HybridConfig(beta=1.1, k=1)
        with pytest.raises(ValueError, match="result size k must be >= 1"):
            HybridConfig(beta=0.5, k=0)


class TestRetrievalResult:
    def test_known_tags_only(self):
        assert METHOD_TAGS == ("topk_ann", "semantic_compression", "graph_ppr", "hybrid")
        with pytest.raises(ValueError, match="unknown method tag 'magic'"):
            RetrievalResult(method="magic", items=(), relevance=0.0, diversity=0.0)

    def test_duplicate_item_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate ids"):
            RetrievalResult(
                method="topk_ann",
                items=(("a", 1.0), ("a", 0.5)),
                relevance=0.0,
                diversity=0.0,
            )

    def test_item_ids_accessor(self):
        result = RetrievalResult(
            method="hybrid", items=(("b", 0.2), ("a", 0.1)), relevance=0.0, diversity=0.0
        )
        assert result.item_ids == ("b", "a")


class TestRankHybrid:
    def test_beta_zero_reduces_to_pool_topk(self):
        """With no graph weight the ranking is plain cosine order, which is
        exactly the pool prefix (the pool is the true top-N of the corpus)."""
        pool, graph, seeds = _scene()
        result = rank_hybrid(pool, graph, seeds, PprConfig(), HybridConfig(beta=0.0, k=5))
        assert result.method == "topk_ann"
        assert result.item_ids == pool.ids[:5]

    def test_beta_one_ranks_by_diffusion_mass(self):
        pool, graph, seeds = _scene()
        config = HybridConfig(beta=1.0, k=6)
        result = rank_hybrid(pool, graph, seeds, PprConfig(), config)
        assert result.method == "graph_ppr"
        ppr = dict(personalized_pagerank(normalize_adjacency(graph), seeds, PprConfig()))
        scope = set(pool.ids)
        for item_id in pool.ids:
            scope |= graph.out_neighbors(item_id)
        expected = sorted(scope, key=lambda item_id: (-ppr.get(item_id, 0.0), item_id))[:6]
        assert list(result.item_ids) == expected

    def test_intermediate_beta_blends_and_tags_hybrid(self):
        pool, graph, seeds = _scene()
        beta = 0.4
        result = rank_hybrid(pool, graph, seeds, PprConfig(), HybridConfig(beta=beta, k=4))
        assert result.method == "hybrid"
        ppr = dict(personalized_pagerank(normalize_adjacency(graph), seeds, PprConfig()))
        for item_id, score in result.items:
            direct = cosine_similarity(graph.by_id[item_id], pool.query)
            expected = (1.0 - beta) * direct + beta * ppr.get(item_id, 0.0)
            np.testing.assert_allclose(score, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_ppr_runs_once_through_the_module_attribute(self, beta, monkeypatch):
        """Tracing wraps library functions where they are looked up; the
        ranking runs the array PPR kernel once, through ``hybrid.ppr_mass``,
        so a wrapper there sees every call."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return ppr_mass(*args, **kwargs)

        monkeypatch.setattr(hybrid, "ppr_mass", counting)
        pool, graph, seeds = _scene()
        rank_hybrid(pool, graph, seeds, PprConfig(), HybridConfig(beta=beta, k=5))
        assert len(calls) == 1

    def test_scope_includes_out_of_pool_neighbors(self):
        """A node outside the pool but heavily favored by diffusion can enter
        the result set at full graph weight."""
        nodes = (
            EmbeddingVector("a", [1.0, 0.0]),
            EmbeddingVector("b", [0.95, 0.1]),
            EmbeddingVector("far", [0.0, 1.0]),
        )
        edges = (
            ("a", "far", 1.0, "knn"),
            ("b", "far", 1.0, "knn"),
        )
        graph = SemanticGraph.from_named(nodes=nodes, edges=edges)
        query = EmbeddingVector("q", [1.0, 0.0])
        pool = top_n_candidates(query, [nodes[0], nodes[1]], 2)
        seeds = SeedVector.uniform(graph.node_ids, ["a", "b"])
        result = rank_hybrid(pool, graph, seeds, PprConfig(), HybridConfig(beta=1.0, k=1))
        assert result.item_ids == ("far",)

    def test_pool_item_missing_from_graph_rejected(self):
        pool, _, _ = _scene()
        corpus = _corpus(count=4, seed=99)
        stranger = build_knn_graph(corpus, 1)
        seeds = SeedVector.uniform(stranger.node_ids, [corpus[0].id])
        with pytest.raises(ValueError, match="missing from the graph"):
            rank_hybrid(pool, stranger, seeds, PprConfig(), HybridConfig(beta=0.5, k=2))

    def test_result_size_cannot_exceed_scope(self):
        pool, graph, seeds = _scene(count=12, pool_size=8)
        with pytest.raises(ValueError, match="exceeds scored scope"):
            rank_hybrid(pool, graph, seeds, PprConfig(), HybridConfig(beta=0.5, k=13))

    def test_direct_channel_errors_name_the_offender(self):
        nodes = (
            EmbeddingVector("a", [1.0, 0.0]),
            EmbeddingVector("b", [0.0, 1.0]),
            EmbeddingVector("z", [0.0, 0.0]),
        )
        edges = (("a", "z", 1.0, "knn"), ("b", "a", 1.0, "knn"))
        graph = SemanticGraph.from_named(nodes=nodes, edges=edges)
        seeds = SeedVector.uniform(graph.node_ids, ["a"])
        query = EmbeddingVector("q", [1.0, 1.0])
        pool = top_n_candidates(query, list(nodes[:2]), 2)
        with pytest.raises(ValueError, match="zero-norm vector 'z'"):
            rank_hybrid(pool, graph, seeds, PprConfig(), HybridConfig(beta=0.5, k=2))
        wide = EmbeddingVector("q3", [1.0, 1.0, 1.0])
        wide_pool = top_n_candidates(wide, [EmbeddingVector(i, [1.0, 0.5, 0.0]) for i in ("a", "b")], 2)
        with pytest.raises(ValueError, match="dimension mismatch: 'a' has d=2, 'q3' has d=3"):
            rank_hybrid(wide_pool, graph, seeds, PprConfig(), HybridConfig(beta=0.5, k=2))

    def test_zero_norm_query_rejected(self):
        """No scan builds a pool for a zero-norm query, so this one is built by hand."""
        nodes = (EmbeddingVector("a", [1.0, 0.0]), EmbeddingVector("b", [0.0, 1.0]))
        graph = SemanticGraph.from_named(nodes, (("a", "b", 1.0, "knn"),))
        query = EmbeddingVector("q0", [0.0, 0.0])
        pool = CandidatePool(query, nodes, np.zeros(2))
        seeds = SeedVector.uniform(graph.node_ids, ["a"])
        with pytest.raises(ValueError, match="^cosine similarity undefined for zero-norm vector 'q0'$"):
            rank_hybrid(pool, graph, seeds, PprConfig(), HybridConfig(beta=0.5, k=2))

    def test_exact_ties_resolve_by_id(self):
        nodes = (
            EmbeddingVector("b", [1.0, 0.0]),
            EmbeddingVector("a", [1.0, 0.0]),
            EmbeddingVector("c", [0.0, 1.0]),
        )
        edges = (
            ("a", "c", 1.0, "knn"),
            ("b", "c", 1.0, "knn"),
            ("c", "a", 0.5, "knn"),
            ("c", "b", 0.5, "knn"),
        )
        graph = SemanticGraph.from_named(nodes=nodes, edges=edges)
        query = EmbeddingVector("q", [1.0, 0.0])
        pool = top_n_candidates(query, list(nodes), 3)
        seeds = SeedVector.uniform(graph.node_ids, ["c"])
        result = rank_hybrid(pool, graph, seeds, PprConfig(), HybridConfig(beta=1.0, k=2))
        # a and b receive identical diffusion mass by symmetry; a sorts first.
        assert list(result.item_ids)[0] in ("a", "c")
        mass = dict(personalized_pagerank(normalize_adjacency(graph), seeds, PprConfig()))
        np.testing.assert_allclose(mass["a"], mass["b"], rtol=0, atol=1e-12)
        ranked = sorted(["a", "b", "c"], key=lambda i: (-mass[i], i))
        assert list(result.item_ids) == ranked[:2]


class TestMetrics:
    def test_relevance_is_mean_query_cosine(self):
        corpus = _corpus(count=6, seed=3)
        query = EmbeddingVector("q", [1.0, 0.5, -0.2])
        ids = [v.id for v in corpus[:4]]
        expected = np.mean([cosine_similarity(v, query) for v in corpus[:4]])
        np.testing.assert_allclose(
            relevance_metric(ids, query, corpus), expected, rtol=0, atol=1e-12
        )

    def test_relevance_requires_items_and_known_ids(self):
        query = EmbeddingVector("q", [1.0])
        with pytest.raises(ValueError, match="empty item list"):
            relevance_metric([], query, ())
        with pytest.raises(ValueError, match="unknown item 'ghost'"):
            relevance_metric(["ghost"], query, ())

    def test_diversity_extremes(self):
        same = EmbeddingVector("a", [1.0, 2.0])
        clone = EmbeddingVector("b", [2.0, 4.0])
        opposite = EmbeddingVector("c", [-1.0, -2.0])
        corpus = (same, clone, opposite)
        np.testing.assert_allclose(diversity_metric(["a", "b"], corpus), 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(diversity_metric(["a", "c"], corpus), 2.0, rtol=0, atol=1e-12)

    def test_diversity_is_unordered_pair_mean(self):
        corpus = _corpus(count=5, seed=8)
        ids = [v.id for v in corpus]
        total, pairs = 0.0, 0
        for i in range(len(corpus)):
            for j in range(i + 1, len(corpus)):
                total += cosine_similarity(corpus[i], corpus[j])
                pairs += 1
        np.testing.assert_allclose(
            diversity_metric(ids, corpus), 1.0 - total / pairs, rtol=0, atol=1e-12
        )

    def test_diversity_needs_two_items(self):
        with pytest.raises(ValueError, match="at least two items, got 1"):
            diversity_metric(["a"], [EmbeddingVector("a", [1.0])])

    def test_diversity_range(self):
        corpus = _corpus(count=10, seed=13)
        value = diversity_metric([v.id for v in corpus], corpus)
        assert 0.0 <= value <= 2.0


def _loop_relevance(item_ids, query, embeddings):
    """The relevance metric as first written: one cosine call per item."""
    if not item_ids:
        raise ValueError("relevance is undefined for an empty item list")
    total = 0.0
    for item_id in item_ids:
        if item_id not in embeddings:
            raise ValueError(f"unknown item {item_id!r}")
        total += cosine_similarity(embeddings[item_id], query)
    return total / len(item_ids)


def _loop_diversity(item_ids, embeddings):
    """The diversity metric as first written: one cosine call per pair."""
    if len(item_ids) < 2:
        raise ValueError(f"diversity needs at least two items, got {len(item_ids)}")
    vectors = []
    for item_id in item_ids:
        if item_id not in embeddings:
            raise ValueError(f"unknown item {item_id!r}")
        vectors.append(embeddings[item_id])
    total = 0.0
    pairs = 0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            total += cosine_similarity(vectors[i], vectors[j])
            pairs += 1
    return 1.0 - total / pairs


@st.composite
def _vector_sets(draw):
    """Non-zero vectors of mixed norms, with duplicates and opposites of
    earlier rows, and a query of the same dimension."""
    dim = draw(st.integers(1, 4))
    coords = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim).filter(any)
    scales = st.sampled_from([1e-3, 0.5, 1.0, 3.0, 1e3])
    rows = []
    for _ in range(draw(st.integers(2, 12))):
        kind = draw(st.sampled_from(["new", "duplicate", "opposite"])) if rows else "new"
        if kind == "new":
            row = np.array(draw(coords), dtype=np.float64)
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))] * (1.0 if kind == "duplicate" else -1.0)
        rows.append(row * draw(scales))
    vectors = [EmbeddingVector(f"v{i:02d}", row) for i, row in enumerate(rows)]
    query = EmbeddingVector("q", np.array(draw(coords), dtype=np.float64) * draw(scales))
    return vectors, query


_A = EmbeddingVector("a", [1.0, 0.0])
_B = EmbeddingVector("b", [0.0, 1.0])
_Z = EmbeddingVector("z", [0.0, 0.0])
# A corpus has one dimension, so ``w`` lives in a corpus of its own, beside
# a zero vector of its dimension.
_PLANE = (_A, _B, _Z)
_SPACE = (EmbeddingVector("w", [1.0, 0.0, 0.0]), EmbeddingVector("z", [0.0, 0.0, 0.0]))
_Q = EmbeddingVector("q", [1.0, 1.0])
_Q0 = EmbeddingVector("q0", [0.0, 0.0])


class TestArrayMetricsMatchPerPairLoop:
    @settings(max_examples=200, deadline=None)
    @given(case=_vector_sets())
    def test_relevance_within_1e12(self, case):
        vectors, query = case
        embeddings = {v.id: v for v in vectors}
        ids = [v.id for v in vectors]
        assert abs(relevance_metric(ids, query, vectors) - _loop_relevance(ids, query, embeddings)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(case=_vector_sets())
    def test_diversity_within_1e12(self, case):
        vectors, _ = case
        embeddings = {v.id: v for v in vectors}
        ids = [v.id for v in vectors]
        assert abs(diversity_metric(ids, vectors) - _loop_diversity(ids, embeddings)) <= 1e-12

    @pytest.mark.parametrize(
        ("ids", "query", "message"),
        [
            ([], _Q, "relevance is undefined for an empty item list"),
            (["ghost"], _Q, "unknown item 'ghost'"),
            (["a", "ghost"], _Q, "unknown item 'ghost'"),
            (["ghost"], _Q0, "unknown item 'ghost'"),
            (["z", "ghost"], _Q, "cosine similarity undefined for zero-norm vector 'z'"),
            (["a", "z"], _Q, "cosine similarity undefined for zero-norm vector 'z'"),
            (["z"], _Q0, "cosine similarity undefined for zero-norm vector 'z'"),
            (["a"], _Q0, "cosine similarity undefined for zero-norm vector 'q0'"),
            (["w"], _Q0, "dimension mismatch: 'w' has d=3, 'q0' has d=2"),
            (["w", "z"], _Q, "dimension mismatch: 'w' has d=3, 'q' has d=2"),
        ],
    )
    def test_relevance_errors_match_the_loop(self, ids, query, message):
        corpus = _SPACE if "w" in ids else _PLANE
        with pytest.raises(ValueError) as array:
            relevance_metric(ids, query, corpus)
        with pytest.raises(ValueError) as loop:
            _loop_relevance(ids, query, {v.id: v for v in corpus})
        assert str(array.value) == str(loop.value) == message

    @pytest.mark.parametrize(
        ("ids", "message"),
        [
            ([], "diversity needs at least two items, got 0"),
            (["a"], "diversity needs at least two items, got 1"),
            (["a", "ghost"], "unknown item 'ghost'"),
            (["z", "ghost"], "unknown item 'ghost'"),
            (["z", "a"], "cosine similarity undefined for zero-norm vector 'z'"),
            (["a", "z"], "cosine similarity undefined for zero-norm vector 'z'"),
            (["a", "b", "z"], "cosine similarity undefined for zero-norm vector 'z'"),
            (["w", "z"], "cosine similarity undefined for zero-norm vector 'z'"),
        ],
    )
    def test_diversity_errors_match_the_loop(self, ids, message):
        corpus = _SPACE if "w" in ids else _PLANE
        with pytest.raises(ValueError) as array:
            diversity_metric(ids, corpus)
        with pytest.raises(ValueError) as loop:
            _loop_diversity(ids, {v.id: v for v in corpus})
        assert str(array.value) == str(loop.value) == message


class TestBuildResult:
    def test_metrics_recomputable_from_items(self):
        corpus = _corpus(count=6, seed=21)
        query = EmbeddingVector("q", [0.3, -1.0, 0.4])
        items = [(v.id, 0.5) for v in corpus[:3]]
        result = build_result("semantic_compression", items, corpus, query)
        ids = list(result.item_ids)
        np.testing.assert_allclose(
            result.relevance, relevance_metric(ids, query, corpus), rtol=0, atol=0
        )
        np.testing.assert_allclose(
            result.diversity, diversity_metric(ids, corpus), rtol=0, atol=0
        )

    def test_singleton_diversity_reported_as_zero(self):
        query = EmbeddingVector("q", [1.0])
        result = build_result("topk_ann", [("a", 1.0)], [EmbeddingVector("a", [2.0])], query)
        assert result.diversity == 0.0
        assert result.relevance == 1.0
