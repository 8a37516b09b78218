"""Graph construction, symbolic augmentation, and pagerank."""

import tracemalloc

import numpy as np
import pytest

from semrank.datagen import SyntheticDatasetSpec, generate_clusters
from semrank.geometry import EmbeddingVector, cosine_similarity
from semrank.graph import (
    EDGE_WEIGHT_FLOOR,
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


def _nodes(count=10, dim=4, seed=42):
    rng = np.random.default_rng(seed)
    return [EmbeddingVector(f"n{i:02d}", rng.normal(size=dim)) for i in range(count)]


def _line_graph():
    """a -> b with b dangling; the smallest graph with re-injected mass."""
    nodes = (EmbeddingVector("a", [1.0, 0.0]), EmbeddingVector("b", [0.0, 1.0]))
    edges = (GraphEdge(source="a", target="b", weight=1.0, kind="knn"),)
    return SemanticGraph(nodes=nodes, edges=edges)


def _cycle_graph():
    nodes = (EmbeddingVector("a", [1.0, 0.0]), EmbeddingVector("b", [0.0, 1.0]))
    edges = (
        GraphEdge(source="a", target="b", weight=1.0, kind="knn"),
        GraphEdge(source="b", target="a", weight=1.0, kind="knn"),
    )
    return SemanticGraph(nodes=nodes, edges=edges)


class TestSemanticGraphValidation:
    def test_duplicate_node_ids_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]), EmbeddingVector("x", [2.0]))
        with pytest.raises(ValueError, match="duplicate ids"):
            SemanticGraph(nodes=nodes, edges=())

    def test_unknown_endpoint_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]),)
        with pytest.raises(ValueError, match="references unknown node"):
            SemanticGraph(nodes=nodes, edges=(GraphEdge("x", "ghost", 1.0, "knn"),))

    def test_self_loop_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]),)
        with pytest.raises(ValueError, match="self-loop on 'x'"):
            SemanticGraph(nodes=nodes, edges=(GraphEdge("x", "x", 1.0, "knn"),))

    def test_non_positive_weight_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]), EmbeddingVector("y", [2.0]))
        for weight in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="must be finite and > 0"):
                SemanticGraph(nodes=nodes, edges=(GraphEdge("x", "y", weight, "knn"),))

    def test_unknown_kind_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]), EmbeddingVector("y", [2.0]))
        with pytest.raises(ValueError, match="unknown edge kind 'magic'"):
            SemanticGraph(nodes=nodes, edges=(GraphEdge("x", "y", 1.0, "magic"),))

    def test_duplicate_edge_key_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]), EmbeddingVector("y", [2.0]))
        edges = (GraphEdge("x", "y", 1.0, "knn"), GraphEdge("x", "y", 0.5, "knn"))
        with pytest.raises(ValueError, match="duplicate edge"):
            SemanticGraph(nodes=nodes, edges=edges)

    def test_parallel_edges_of_different_kinds_allowed(self):
        nodes = (EmbeddingVector("x", [1.0]), EmbeddingVector("y", [2.0]))
        edges = (GraphEdge("x", "y", 1.0, "knn"), GraphEdge("x", "y", 0.5, "symbolic"))
        graph = SemanticGraph(nodes=nodes, edges=edges)
        assert graph.out_neighbors("x") == {"y"}

    def test_unknown_cluster_head_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]),)
        with pytest.raises(ValueError, match="cluster head 'ghost'"):
            SemanticGraph(nodes=nodes, edges=(), cluster_heads=("ghost",))

    def test_lookups(self):
        graph = _line_graph()
        assert graph.node_ids == ("a", "b")
        assert graph.vector("a").id == "a"
        assert graph.out_neighbors("a") == {"b"}
        assert graph.out_neighbors("b") == set()
        with pytest.raises(ValueError, match="unknown graph node 'zz'"):
            graph.vector("zz")


class TestBuildKnnGraph:
    def test_out_degree_is_exactly_k(self):
        nodes = _nodes(count=12)
        for k in (1, 3, 5):
            graph = build_knn_graph(nodes, k)
            for node in nodes:
                assert len([e for e in graph.edges if e.source == node.id]) == k

    def test_neighbors_match_exhaustive_scan(self):
        """Each node's targets equal an independent sort of all cosines."""
        nodes = _nodes(count=9, seed=5)
        graph = build_knn_graph(nodes, 3)
        for node in nodes:
            ranked = sorted(
                (other for other in nodes if other.id != node.id),
                key=lambda other: (-cosine_similarity(node, other), other.id),
            )
            expected = {other.id for other in ranked[:3]}
            actual = {e.target for e in graph.edges if e.source == node.id}
            assert actual == expected

    def test_edge_weights_are_floored_similarities(self):
        nodes = [
            EmbeddingVector("a", [1.0, 0.0]),
            EmbeddingVector("b", [0.0, 1.0]),
            EmbeddingVector("c", [-1.0, -0.1]),
        ]
        graph = build_knn_graph(nodes, 1)
        for edge in graph.edges:
            sim = cosine_similarity(graph.vector(edge.source), graph.vector(edge.target))
            expected = max(sim, EDGE_WEIGHT_FLOOR)
            np.testing.assert_allclose(edge.weight, expected, rtol=0, atol=1e-15)
            assert edge.weight > 0.0
            assert edge.kind == "knn"

    def test_tied_neighbors_resolve_by_id(self):
        same = [1.0, 0.0]
        nodes = [
            EmbeddingVector("c", same),
            EmbeddingVector("a", same),
            EmbeddingVector("b", same),
        ]
        graph = build_knn_graph(nodes, 1)
        targets = {e.source: e.target for e in graph.edges}
        assert targets == {"a": "b", "b": "a", "c": "a"}

    def test_k_bounds(self):
        nodes = _nodes(count=4)
        with pytest.raises(ValueError, match="k must be >= 1"):
            build_knn_graph(nodes, 0)
        with pytest.raises(ValueError, match="k=4 needs at least 5 nodes"):
            build_knn_graph(nodes, 4)

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_peak_holds_one_similarity_matrix(self, n):
        points = generate_clusters(SyntheticDatasetSpec(num_points=n, rng_seed=0)).points
        tracemalloc.start()
        try:
            build_knn_graph(points, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The similarity matrix is n*n*8 bytes; a whole-matrix (E + E.T) / 2
        # and a defensive copy peak near three times that.
        assert peak <= 1.6 * n * n * 8


class TestElectClusterHeads:
    def test_head_is_most_mean_similar_member(self):
        """Pick the member with the highest cosine to the cluster mean."""
        rng = np.random.default_rng(42)
        nodes = []
        labels = {}
        for label, center in enumerate(([10.0, 0.0], [0.0, 10.0])):
            for i in range(6):
                node = EmbeddingVector(f"c{label}m{i}", np.asarray(center) + rng.normal(0, 1.0, 2))
                nodes.append(node)
                labels[node.id] = label
        heads = elect_cluster_heads(nodes, labels)
        assert len(heads) == 2
        for label, head in enumerate(heads):
            members = [n for n in nodes if labels[n.id] == label]
            mean = EmbeddingVector("mean", np.mean([m.values for m in members], axis=0))
            best = max(members, key=lambda m: (cosine_similarity(m, mean), ))
            assert labels[head] == label
            np.testing.assert_allclose(
                cosine_similarity(next(n for n in nodes if n.id == head), mean),
                cosine_similarity(best, mean),
                rtol=0,
                atol=1e-12,
            )

    def test_heads_ordered_by_ascending_label(self):
        nodes = [
            EmbeddingVector("z", [1.0, 0.0]),
            EmbeddingVector("y", [0.0, 1.0]),
        ]
        labels = {"z": 5, "y": 1}
        assert elect_cluster_heads(nodes, labels) == ["y", "z"]

    def test_ties_resolve_to_lowest_id(self):
        same = [1.0, 1.0]
        nodes = [EmbeddingVector("b", same), EmbeddingVector("a", same)]
        labels = {"a": 0, "b": 0}
        assert elect_cluster_heads(nodes, labels) == ["a"]

    def test_zero_norm_mean_collapses_to_lowest_id(self):
        nodes = [EmbeddingVector("p", [1.0, 0.0]), EmbeddingVector("m", [-1.0, 0.0])]
        labels = {"p": 0, "m": 0}
        assert elect_cluster_heads(nodes, labels) == ["m"]

    def test_unlabeled_node_rejected(self):
        nodes = [EmbeddingVector("a", [1.0])]
        with pytest.raises(ValueError, match="node 'a' has no cluster label"):
            elect_cluster_heads(nodes, {})


class TestSymbolicEdges:
    def _clustered(self):
        """Three tight clusters at roughly 0, 40 and 80 degrees: adjacent
        clusters clear a 0.5 cosine threshold, opposite ones do not."""
        nodes = [
            EmbeddingVector("a0", [1.0, 0.0]),
            EmbeddingVector("a1", [0.99, 0.05]),
            EmbeddingVector("b0", [0.766, 0.643]),
            EmbeddingVector("b1", [0.74, 0.67]),
            EmbeddingVector("c0", [0.174, 0.985]),
            EmbeddingVector("c1", [0.14, 0.99]),
        ]
        labels = {"a0": 0, "a1": 0, "b0": 1, "b1": 1, "c0": 2, "c1": 2}
        return nodes, labels

    def test_sparse_links_each_head_to_m_nearest_heads(self):
        nodes, labels = self._clustered()
        graph = build_knn_graph(nodes, 1)
        heads = elect_cluster_heads(nodes, labels)
        augmented = add_symbolic_edges_sparse(graph, heads, 1)
        assert augmented.cluster_heads == tuple(heads)
        symbolic = [e for e in augmented.edges if e.kind == "symbolic"]
        # Every symbolic edge is paired with its reverse at equal weight.
        keys = {(e.source, e.target) for e in symbolic}
        for edge in symbolic:
            assert (edge.target, edge.source) in keys
            assert edge.source in heads and edge.target in heads
            sim = cosine_similarity(augmented.vector(edge.source), augmented.vector(edge.target))
            np.testing.assert_allclose(edge.weight, max(sim, EDGE_WEIGHT_FLOOR), rtol=0, atol=1e-15)

    def test_sparse_is_idempotent(self):
        nodes, labels = self._clustered()
        graph = build_knn_graph(nodes, 1)
        heads = elect_cluster_heads(nodes, labels)
        once = add_symbolic_edges_sparse(graph, heads, 2)
        twice = add_symbolic_edges_sparse(once, heads, 2)
        assert twice.edges == once.edges

    def test_sparse_bounds(self):
        nodes, labels = self._clustered()
        graph = build_knn_graph(nodes, 1)
        heads = elect_cluster_heads(nodes, labels)
        with pytest.raises(ValueError, match="at least one head"):
            add_symbolic_edges_sparse(graph, [], 1)
        with pytest.raises(ValueError, match="m must be >= 1"):
            add_symbolic_edges_sparse(graph, heads, 0)
        with pytest.raises(ValueError, match="m=3 needs at least 4 heads"):
            add_symbolic_edges_sparse(graph, heads, 3)

    def test_dense_links_only_cross_cluster_above_threshold(self):
        nodes, labels = self._clustered()
        graph = build_knn_graph(nodes, 1)
        heads = elect_cluster_heads(nodes, labels)
        threshold = 0.5
        augmented = add_symbolic_edges_dense(graph, heads, threshold, labels)
        symbolic = [e for e in augmented.edges if e.kind == "symbolic"]
        assert symbolic, "expected at least one dense link in this layout"
        endpoints = {(e.source, e.target) for e in symbolic}
        for edge in symbolic:
            assert labels[edge.source] != labels[edge.target]
            sim = cosine_similarity(augmented.vector(edge.source), augmented.vector(edge.target))
            assert sim > threshold
            assert (edge.target, edge.source) in endpoints
        # Exhaustive cross-check: every qualifying (head, other-cluster node)
        # pair appears, and nothing else does.
        expected = set()
        for head in heads:
            for node in nodes:
                if labels[node.id] != labels[head]:
                    if cosine_similarity(augmented.vector(head), node) > threshold:
                        expected.add((head, node.id))
                        expected.add((node.id, head))
        assert endpoints == expected

    def test_dense_is_idempotent(self):
        nodes, labels = self._clustered()
        graph = build_knn_graph(nodes, 1)
        heads = elect_cluster_heads(nodes, labels)
        once = add_symbolic_edges_dense(graph, heads, 0.5, labels)
        twice = add_symbolic_edges_dense(once, heads, 0.5, labels)
        assert twice.edges == once.edges

    def test_dense_threshold_bounds(self):
        nodes, labels = self._clustered()
        graph = build_knn_graph(nodes, 1)
        heads = elect_cluster_heads(nodes, labels)
        for threshold in (-1.0, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"strictly inside \(-1, 1\)"):
                add_symbolic_edges_dense(graph, heads, threshold, labels)

    def test_dense_requires_full_labeling(self):
        nodes, labels = self._clustered()
        graph = build_knn_graph(nodes, 1)
        heads = elect_cluster_heads(nodes, labels)
        partial = dict(labels)
        del partial["c1"]
        with pytest.raises(ValueError, match="node 'c1' has no cluster label"):
            add_symbolic_edges_dense(graph, heads, 0.5, partial)


class TestNormalizeAdjacency:
    def test_rows_are_stochastic_and_parallel_edges_sum(self):
        nodes = (
            EmbeddingVector("x", [1.0, 0.0]),
            EmbeddingVector("y", [0.0, 1.0]),
            EmbeddingVector("z", [1.0, 1.0]),
        )
        edges = (
            GraphEdge("x", "y", 0.4, "knn"),
            GraphEdge("x", "y", 0.6, "symbolic"),  # parallel, summed to 1.0
            GraphEdge("x", "z", 1.0, "knn"),
            GraphEdge("y", "x", 2.0, "knn"),
        )
        adjacency = normalize_adjacency(SemanticGraph(nodes=nodes, edges=edges))
        assert adjacency.order == ("x", "y", "z")
        np.testing.assert_allclose(adjacency.matrix[0], [0.0, 0.5, 0.5], rtol=0, atol=1e-15)
        np.testing.assert_allclose(adjacency.matrix[1], [1.0, 0.0, 0.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(adjacency.matrix[2], [0.0, 0.0, 0.0], rtol=0, atol=0)
        assert adjacency.dangling == frozenset({"z"})

    def test_built_once_per_graph(self):
        graph = build_knn_graph(_nodes(count=10), 3)
        adjacency = normalize_adjacency(graph)
        assert normalize_adjacency(graph) is adjacency
        augmented = add_symbolic_edges_sparse(graph, ["n00", "n04", "n08"], 2)
        cached = normalize_adjacency(augmented)
        assert cached is not adjacency
        rebuilt = normalize_adjacency(SemanticGraph(nodes=augmented.nodes, edges=augmented.edges))
        assert not np.array_equal(rebuilt.matrix, adjacency.matrix)
        for name in ("indptr", "indices", "weights"):
            np.testing.assert_array_equal(getattr(cached, name), getattr(rebuilt, name))
        assert cached.dangling == rebuilt.dangling

    def test_validation_checks_row_sums(self):
        matrix = np.array([[0.0, 0.7], [0.0, 0.0]])
        with pytest.raises(ValueError, match="row for 'a' sums to"):
            NormalizedAdjacency.from_dense(("a", "b"), matrix, frozenset({"b"}))

    def test_validation_checks_shape(self):
        with pytest.raises(ValueError, match="does not match"):
            NormalizedAdjacency.from_dense(("a",), np.eye(2), frozenset())

    def test_validation_checks_csr_arrays(self):
        with pytest.raises(ValueError, match="do not describe a 2-node adjacency"):
            NormalizedAdjacency(("a", "b"), [0, 1, 1], [5], [1.0], frozenset({"b"}))

    def test_dense_view_round_trips_through_csr(self):
        matrix = np.array([[0.0, 0.25, 0.75], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        adjacency = NormalizedAdjacency.from_dense(("a", "b", "c"), matrix, {"c"})
        assert adjacency.indptr.tolist() == [0, 2, 3, 3]
        assert adjacency.indices.tolist() == [1, 2, 0]
        np.testing.assert_array_equal(adjacency.matrix, matrix)
        assert not adjacency.matrix.flags.writeable


class TestSeedVector:
    def test_uniform_over_one_node_is_one_hot(self):
        seed = SeedVector.uniform(("a", "b", "c"), ["b"])
        assert seed.weights.tolist() == [0.0, 1.0, 0.0]

    def test_uniform(self):
        seed = SeedVector.uniform(("a", "b", "c", "d"), ["b", "d"])
        np.testing.assert_allclose(seed.weights, [0.0, 0.5, 0.0, 0.5], rtol=0, atol=1e-15)

    def test_uniform_accumulates_repeats(self):
        seed = SeedVector.uniform(("a", "b"), ["a", "a", "b"])
        np.testing.assert_allclose(seed.weights, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-15)

    def test_uniform_requires_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            SeedVector.uniform(("a",), [])
        with pytest.raises(ValueError, match="seed node 'z'"):
            SeedVector.uniform(("a",), ["z"])

    def test_validation(self):
        with pytest.raises(ValueError, match="do not match node order"):
            SeedVector(order=("a", "b"), weights=np.array([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            SeedVector(order=("a", "b"), weights=np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="sum to"):
            SeedVector(order=("a", "b"), weights=np.array([0.9, 0.3]))


class TestPprConfig:
    def test_bounds(self):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            PprConfig(alpha=0.0)
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            PprConfig(alpha=1.0)
        with pytest.raises(ValueError, match="tolerance must be > 0"):
            PprConfig(tolerance=0.0)
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            PprConfig(max_iterations=0)


class TestPersonalizedPagerank:
    def test_two_node_chain_analytic_fixed_point(self):
        """a -> b with b dangling, restart on a, alpha 0.15.

        The fixed point solves r_a = alpha + (1-alpha) r_b and
        r_b = (1-alpha) r_a, giving r_a = alpha / (1 - (1-alpha)^2)
        = 0.15 / 0.2775 and r_b = 0.85 r_a.
        """
        adjacency = normalize_adjacency(_line_graph())
        seed = SeedVector.uniform(adjacency.order, ["a"])
        result = dict(personalized_pagerank(adjacency, seed, PprConfig(alpha=0.15, tolerance=1e-14)))
        np.testing.assert_allclose(result["a"], 0.5405405405405406, rtol=0, atol=1e-10)
        np.testing.assert_allclose(result["b"], 0.4594594594594595, rtol=0, atol=1e-10)

    def test_symmetric_cycle_splits_evenly(self):
        adjacency = normalize_adjacency(_cycle_graph())
        seed = SeedVector.uniform(adjacency.order, ["a", "b"])
        result = dict(personalized_pagerank(adjacency, seed))
        np.testing.assert_allclose(result["a"], 0.5, rtol=0, atol=1e-9)
        np.testing.assert_allclose(result["b"], 0.5, rtol=0, atol=1e-9)

    def test_two_node_cycle_with_one_hot_seed(self):
        """a <-> b with the seed on a reaches the same fixed point as the
        dangling chain: r_a = alpha + (1-alpha) r_b and r_b = (1-alpha) r_a
        hold in both graphs (the chain re-injects b's mass at the seed).
        Note this is NOT the lazy-walk value (1+alpha)/2 = 0.575."""
        adjacency = normalize_adjacency(_cycle_graph())
        seed = SeedVector.uniform(adjacency.order, ["a"])
        result = dict(
            personalized_pagerank(adjacency, seed, PprConfig(alpha=0.15, tolerance=1e-14))
        )
        np.testing.assert_allclose(result["a"], 0.5405405405405406, rtol=0, atol=1e-10)
        np.testing.assert_allclose(result["b"], 0.4594594594594595, rtol=0, atol=1e-10)

    def test_matches_dense_linear_solve(self):
        """On graphs without dangling nodes the stationary vector solves
        (I - (1-alpha) A^T) r = alpha s; compare against numpy's solver."""
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = int(rng.integers(2, 9))
            matrix = rng.uniform(0.1, 1.0, size=(n, n))
            np.fill_diagonal(matrix, 0.0)
            matrix /= matrix.sum(axis=1, keepdims=True)
            order = tuple(f"n{i}" for i in range(n))
            adjacency = NormalizedAdjacency.from_dense(order, matrix, frozenset())
            weights = rng.uniform(0.1, 1.0, size=n)
            seed = SeedVector(order=order, weights=weights / weights.sum())
            alpha = float(rng.uniform(0.1, 0.9))
            result = personalized_pagerank(adjacency, seed, PprConfig(alpha=alpha, tolerance=1e-13))
            expected = np.linalg.solve(
                np.eye(n) - (1.0 - alpha) * matrix.T, alpha * seed.weights
            )
            np.testing.assert_allclose(
                [score for _, score in result], expected, rtol=0, atol=1e-8
            )

    def test_returns_probability_distribution_in_node_order(self):
        adjacency = normalize_adjacency(_line_graph())
        seed = SeedVector.uniform(adjacency.order, ["a"])
        result = personalized_pagerank(adjacency, seed)
        assert [node_id for node_id, _ in result] == list(adjacency.order)
        scores = np.array([score for _, score in result])
        assert (scores >= 0.0).all()
        np.testing.assert_allclose(scores.sum(), 1.0, rtol=0, atol=1e-9)

    def test_seed_order_mismatch_rejected(self):
        adjacency = normalize_adjacency(_line_graph())
        seed = SeedVector(order=("b", "a"), weights=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="seed order does not match"):
            personalized_pagerank(adjacency, seed)

    def test_budget_exhaustion_raises_with_residual(self):
        adjacency = normalize_adjacency(_cycle_graph())
        seed = SeedVector.uniform(adjacency.order, ["a"])
        config = PprConfig(alpha=0.15, tolerance=1e-300, max_iterations=3)
        with pytest.raises(ConvergenceError, match="no convergence after 3 iterations"):
            personalized_pagerank(adjacency, seed, config)
        try:
            personalized_pagerank(adjacency, seed, config)
        except ConvergenceError as error:
            assert error.iterations == 3
            assert error.residual >= 0.0
        assert issubclass(ConvergenceError, RuntimeError)
