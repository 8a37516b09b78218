"""Graph construction, symbolic augmentation, and pagerank."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semrank.datagen import SyntheticDatasetSpec, generate_clusters
from semrank.geometry import (
    _BLOCK,
    EmbeddingVector,
    Embeddings,
    cosine_similarity,
    query_similarities,
    ranked,
    similarity_matrix,
    vector_norms,
)
from semrank.graph import (
    EDGE_WEIGHT_FLOOR,
    ConvergenceError,
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
    ppr_mass,
)


def _nodes(count=10, dim=4, seed=42):
    rng = np.random.default_rng(seed)
    return [EmbeddingVector(f"n{i:02d}", rng.normal(size=dim)) for i in range(count)]


def _exhaustive_knn(nodes, k):
    """Each node's ``k`` nearest by a sort of every per-pair cosine (ties
    by id), as ``(source, target, floored weight)`` in node order."""
    edges = []
    for node in nodes:
        ranked = sorted((-cosine_similarity(node, other), other.id) for other in nodes if other.id != node.id)
        edges.extend((node.id, other_id, max(-negated, EDGE_WEIGHT_FLOOR)) for negated, other_id in ranked[:k])
    return edges


def _nodes_with_twins(count, dim=3, seed=0):
    """``count`` nodes with shuffled ids, where rows 1 and ``count - 1``
    share a vector, and rows 2, ``_BLOCK + 3`` and ``count - 2`` share
    another, so exact ties span row blocks."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(count, dim))
    values[count - 1] = values[1]
    values[[_BLOCK + 3, count - 2]] = values[2]
    ids = [f"n{i:03d}" for i in rng.permutation(count)]
    return [EmbeddingVector(item_id, row) for item_id, row in zip(ids, values)]


def _code_point_twins(count, dim=3, seed=0):
    """``count`` nodes with two triples of equal vectors, each spread over
    the row blocks, whose ids sort one way in code-point order and another
    in natural order: ``"B" < "a" < "b"`` and ``"p10" < "p11" < "p9"``.
    Every other id is ``"n<i>"`` unpadded, so ``"n10" < "n9"`` too."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(count, dim))
    ids = [f"n{i}" for i in rng.permutation(count)]
    triples = (((1, _BLOCK + 1, count - 1), ("p11", "p9", "p10")), ((2, _BLOCK + 3, count - 2), ("b", "a", "B")))
    for rows, names in triples:
        values[list(rows)] = values[rows[0]]
        for row, name in zip(rows, names):
            ids[row] = name
    return [EmbeddingVector(item_id, row) for item_id, row in zip(ids, values)]


def _reference_merge(graph, added):
    """The symbolic edges in ``added``, ``(sources, targets, weights)``
    lists, after ``graph``'s own, first occurrence of each (source, target,
    kind) kept: the four edge arrays the per-pair build produced."""
    new_sources, new_targets, new_weights = added
    sources = np.concatenate([graph.sources, np.array(new_sources, dtype=np.intp)])
    targets = np.concatenate([graph.targets, np.array(new_targets, dtype=np.intp)])
    weights = np.concatenate([graph.weights, np.array(new_weights, dtype=np.float64)])
    kind = np.concatenate([graph.kind, np.full(len(new_weights), 1, dtype=np.int8)])
    keys = (sources * len(graph) + targets) * 2 + kind
    keep = np.sort(np.unique(keys, return_index=True)[1])
    return sources[keep], targets[keep], weights[keep], kind[keep]


def _reference_pair(added, a, b, sim):
    weight = max(float(sim), EDGE_WEIGHT_FLOOR)
    sources, targets, weights = added
    sources += (a, b)
    targets += (b, a)
    weights += (weight, weight)


def _reference_sparse(graph, heads, m):
    """The sparse pass as a loop over heads and pairs."""
    head_vectors = Embeddings(graph.vector(head) for head in heads)
    sims = similarity_matrix(head_vectors)
    positions = [graph.nodes.positions[head] for head in heads]
    added = ([], [], [])
    for i in range(len(heads)):
        others = [j for j in ranked(sims[i], head_vectors.id_ranks) if j != i]
        for j in others[:m]:
            _reference_pair(added, positions[i], positions[j], sims[i, j])
    return _reference_merge(graph, added)


def _zero_norm(item_id):
    return ValueError(f"cosine similarity undefined for zero-norm vector {item_id!r}")


def _reference_norm(vector):
    """The per-vector norm as it was first written, one vector at a time."""
    return float(np.linalg.norm(vector.values))


def _require_labels(nodes, labels):
    for node in nodes:
        if node.id not in labels:
            raise ValueError(f"node {node.id!r} has no cluster label")


def _reference_heads(nodes, labels):
    """Head election as a loop over clusters and their members."""
    _require_labels(nodes, labels)
    members = {}
    for node in nodes:
        members.setdefault(int(labels[node.id]), []).append(node)
    heads = []
    for label in sorted(members):
        cluster = sorted(members[label], key=lambda node: node.id)
        mean = np.mean([node.values for node in cluster], axis=0)
        mean_norm = float(np.linalg.norm(mean))
        cosines = [0.0] * len(cluster)
        if mean_norm > 0.0:
            for i, node in enumerate(cluster):
                if not _reference_norm(node) > 0.0:
                    raise _zero_norm(node.id)
                cosines[i] = float(np.dot(node.values, mean) / (_reference_norm(node) * mean_norm))
        heads.append(cluster[min(range(len(cluster)), key=lambda i: (-cosines[i], i))].id)
    return heads


def _reference_dense(graph, heads, threshold, labels):
    """The dense pass as a loop over heads and nodes."""
    _require_labels(graph.nodes, labels)
    added = ([], [], [])
    for head in heads:
        head_vector = graph.vector(head)
        head_label = int(labels[head])
        head_norm = _reference_norm(head_vector)
        if not head_norm > 0.0:
            raise _zero_norm(head)
        others = [position for position, node in enumerate(graph.nodes) if int(labels[node.id]) != head_label]
        for position in others:
            if not _reference_norm(graph.nodes[position]) > 0.0:
                raise _zero_norm(graph.nodes[position].id)
        for position in others:
            node = graph.nodes[position]
            sim = float(np.dot(head_vector.values, node.values) / (head_norm * _reference_norm(node)))
            if sim > threshold:
                _reference_pair(added, graph.nodes.positions[head], position, sim)
    return _reference_merge(graph, added)


def _assert_edges_equal(graph, expected):
    for name, array in zip(("sources", "targets", "weights", "kind"), expected):
        got = getattr(graph, name)
        assert got.dtype == array.dtype and got.tobytes() == array.tobytes(), name


@st.composite
def _clustered_corpora(draw):
    """Generated clusters under ids whose code-point order is not natural
    order; rounded to whole coordinates half the time, so that equal
    vectors and exactly tied similarities are common."""
    spec = SyntheticDatasetSpec(
        num_points=draw(st.integers(8, 48)),
        dim=draw(st.integers(2, 4)),
        num_clusters=draw(st.integers(2, 6)),
        cluster_std=draw(st.sampled_from([0.5, 2.0, 6.0])),
        rng_seed=draw(st.integers(0, 2**16)),
    )
    dataset = generate_clusters(spec)
    values = np.array([point.values for point in dataset.points])
    if draw(st.booleans()):
        values = np.round(values)
        values[~values.any(axis=1), 0] = 1.0
    ids = [f"{'pP'[i % 2]}{i}" for i in range(len(values))]
    labels = {item_id: dataset.labels[point.id] for item_id, point in zip(ids, dataset.points)}
    return [EmbeddingVector(item_id, row) for item_id, row in zip(ids, values)], labels


def _line_graph():
    """a -> b with b dangling; the smallest graph with re-injected mass."""
    nodes = (EmbeddingVector("a", [1.0, 0.0]), EmbeddingVector("b", [0.0, 1.0]))
    edges = (("a", "b", 1.0, "knn"),)
    return SemanticGraph.from_named(nodes=nodes, edges=edges)


def _cycle_graph():
    nodes = (EmbeddingVector("a", [1.0, 0.0]), EmbeddingVector("b", [0.0, 1.0]))
    edges = (
        ("a", "b", 1.0, "knn"),
        ("b", "a", 1.0, "knn"),
    )
    return SemanticGraph.from_named(nodes=nodes, edges=edges)


class TestSemanticGraphValidation:
    def test_duplicate_node_ids_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]), EmbeddingVector("x", [2.0]))
        with pytest.raises(ValueError, match="duplicate ids"):
            SemanticGraph.from_named(nodes=nodes, edges=())

    def test_unknown_endpoint_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]),)
        with pytest.raises(ValueError, match="references unknown node"):
            SemanticGraph.from_named(nodes=nodes, edges=(("x", "ghost", 1.0, "knn"),))

    def test_self_loop_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]),)
        with pytest.raises(ValueError, match="self-loop on 'x'"):
            SemanticGraph.from_named(nodes=nodes, edges=(("x", "x", 1.0, "knn"),))

    def test_non_positive_weight_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]), EmbeddingVector("y", [2.0]))
        for weight in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="must be finite and > 0"):
                SemanticGraph.from_named(nodes=nodes, edges=(("x", "y", weight, "knn"),))

    def test_unknown_kind_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]), EmbeddingVector("y", [2.0]))
        with pytest.raises(ValueError, match="unknown edge kind 'magic'"):
            SemanticGraph.from_named(nodes=nodes, edges=(("x", "y", 1.0, "magic"),))

    def test_duplicate_edge_key_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]), EmbeddingVector("y", [2.0]))
        edges = (("x", "y", 1.0, "knn"), ("x", "y", 0.5, "knn"))
        with pytest.raises(ValueError, match="duplicate edge"):
            SemanticGraph.from_named(nodes=nodes, edges=edges)

    def test_parallel_edges_of_different_kinds_allowed(self):
        nodes = (EmbeddingVector("x", [1.0]), EmbeddingVector("y", [2.0]))
        edges = (("x", "y", 1.0, "knn"), ("x", "y", 0.5, "symbolic"))
        graph = SemanticGraph.from_named(nodes=nodes, edges=edges)
        assert graph.out_neighbors("x") == {"y"}

    def test_unknown_cluster_head_rejected(self):
        nodes = (EmbeddingVector("x", [1.0]),)
        with pytest.raises(ValueError, match="cluster head 'ghost'"):
            SemanticGraph.from_named(nodes=nodes, edges=(), cluster_heads=("ghost",))

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

    @pytest.mark.parametrize("count", [2 * _BLOCK + 1, 3 * _BLOCK + 5])
    def test_blocked_build_matches_an_exhaustive_sort(self, count):
        """Odd sizes over several row blocks: a one-row tail (folded into
        the block before it) and a five-row tail block."""
        nodes = _nodes_with_twins(count)
        graph = build_knn_graph(nodes, 4)
        expected = _exhaustive_knn(nodes, 4)
        assert [(e.source, e.target) for e in graph.edges] == [(s, t) for s, t, _ in expected]
        np.testing.assert_allclose([e.weight for e in graph.edges], [w for _, _, w in expected], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("count", [2 * _BLOCK + 1, 3 * _BLOCK + 5])
    def test_twins_in_different_blocks_tie_by_id(self, count):
        nodes = _nodes_with_twins(count)
        graph = build_knn_graph(nodes, 2)
        targets = {}
        for edge in graph.edges:
            targets.setdefault(edge.source, []).append((edge.target, edge.weight))
        ids = [node.id for node in nodes]
        assert targets[ids[1]][0][0] == ids[count - 1]
        assert targets[ids[count - 1]][0][0] == ids[1]
        triple = [ids[2], ids[_BLOCK + 3], ids[count - 2]]
        for member in triple:
            (first, first_weight), (second, second_weight) = targets[member]
            assert [first, second] == sorted(other for other in triple if other != member)
            assert first_weight == second_weight

    @pytest.mark.parametrize(
        "spec",
        [SyntheticDatasetSpec(num_points=999, dim=2, rng_seed=0), SyntheticDatasetSpec(num_points=389, dim=5)],
        ids=["n999-d2-seed0", "n389-d5"],
    )
    def test_mutual_neighbours_carry_equal_weights(self, spec):
        """The similarities are exactly symmetric, so ``w(i -> j)`` and
        ``w(j -> i)`` are the same float wherever both edges exist."""
        graph = build_knn_graph(generate_clusters(spec).points, 5)
        weights = {(edge.source, edge.target): edge.weight for edge in graph.edges}
        mutual = [(pair, (pair[1], pair[0])) for pair in weights if pair[0] < pair[1] and (pair[1], pair[0]) in weights]
        assert mutual
        assert [pair for pair, back in mutual if weights[pair] != weights[back]] == []

    @pytest.mark.parametrize("count", [2 * _BLOCK + 1, 3 * _BLOCK + 5])
    def test_ties_follow_code_point_order(self, count):
        """Twins tie by code-point order, the order of a string sort, not
        by natural order."""
        nodes = _code_point_twins(count)
        graph = build_knn_graph(nodes, 4)
        expected = _exhaustive_knn(nodes, 4)
        assert [(e.source, e.target) for e in graph.edges] == [(s, t) for s, t, _ in expected]
        targets = {}
        for edge in graph.edges:
            targets.setdefault(edge.source, []).append(edge.target)
        assert targets["p11"][:2] == ["p10", "p9"]
        assert targets["p9"][:2] == ["p10", "p11"]
        assert targets["a"][:2] == ["B", "b"]
        assert targets["b"][:2] == ["B", "a"]

    def test_peak_holds_row_blocks(self):
        """A full similarity array alone is n*n*8 bytes; the build holds one
        block of rows and one tile plus the edges."""
        n = 2000
        points = generate_clusters(SyntheticDatasetSpec(num_points=n, rng_seed=0)).points
        tracemalloc.start()
        try:
            build_knn_graph(points, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n * n * 8

    # At n=2000 this repeated test_peak_holds_row_blocks' build under a
    # looser bound; n=1000 keeps the bound's scaling checked.
    @pytest.mark.parametrize("n", [1000])
    def test_peak_holds_one_similarity_matrix(self, n):
        points = generate_clusters(SyntheticDatasetSpec(num_points=n, rng_seed=0)).points
        tracemalloc.start()
        try:
            build_knn_graph(points, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A whole similarity matrix would be n*n*8 bytes; the build reads
        # row blocks and holds none.
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

    def test_zero_norm_member_of_a_nonzero_mean_cluster_rejected(self):
        nodes = [EmbeddingVector("a", [1.0, 0.0]), EmbeddingVector("z", [0.0, 0.0])]
        with pytest.raises(ValueError, match="^cosine similarity undefined for zero-norm vector 'z'$"):
            elect_cluster_heads(nodes, {"a": 0, "z": 0})


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

    def test_dense_needs_heads_with_nonzero_norm(self):
        nodes, labels = self._clustered()
        graph = build_knn_graph(nodes, 1)
        with pytest.raises(ValueError, match="^dense symbolic augmentation needs at least one head$"):
            add_symbolic_edges_dense(graph, [], 0.5, labels)
        zero = SemanticGraph.from_named([*nodes, EmbeddingVector("z", [0.0, 0.0])], ())
        with pytest.raises(ValueError, match="^cosine similarity undefined for zero-norm vector 'z'$"):
            add_symbolic_edges_dense(zero, ["z"], 0.5, {**labels, "z": 3})

    def test_dense_names_a_node_of_another_dimension(self):
        nodes, _ = self._clustered()
        # The graph cannot be built, so the dense pass never meets such a node.
        with pytest.raises(ValueError, match="^dimension mismatch: 'w' has d=3, expected 2$"):
            SemanticGraph.from_named([*nodes, EmbeddingVector("w", [1.0, 0.0, 0.0])], ())

    def test_dense_zero_norm_node_fails_only_outside_the_head_cluster(self):
        nodes, labels = self._clustered()
        graph = SemanticGraph.from_named([*nodes, EmbeddingVector("z", [0.0, 0.0])], ())
        with pytest.raises(ValueError, match="^cosine similarity undefined for zero-norm vector 'z'$"):
            add_symbolic_edges_dense(graph, ["a0"], 0.5, {**labels, "z": 1})
        same_cluster = add_symbolic_edges_dense(graph, ["a0"], 0.5, {**labels, "z": 0})
        assert "z" not in {edge.target for edge in same_cluster.edges}


class TestSymbolicReference:
    """Both symbolic passes against their per-pair loops, edge arrays bit
    for bit."""

    @settings(max_examples=60, deadline=None)
    @given(corpus=_clustered_corpora())
    def test_passes_match_the_per_pair_loops(self, corpus):
        nodes, labels = corpus
        graph = build_knn_graph(nodes, 3)
        heads = elect_cluster_heads(nodes, labels)
        # Every m, up to m = h - 1, where every pair of heads is mutual.
        for m in range(1, len(heads)):
            once = add_symbolic_edges_sparse(graph, heads, m)
            _assert_edges_equal(once, _reference_sparse(graph, heads, m))
            assert once.cluster_heads == tuple(heads)
            _assert_edges_equal(add_symbolic_edges_sparse(once, heads, m), _reference_sparse(once, heads, m))
        top = max(
            cosine_similarity(graph.vector(head), node)
            for head in heads
            for node in nodes
            if labels[node.id] != labels[head]
        )
        # ``top`` is the largest similarity there is, so it adds no pair.
        thresholds = [-0.5, 0.0, 0.5, 0.9] + ([top] if top < 1.0 else [])
        for threshold in thresholds:
            once = add_symbolic_edges_dense(graph, heads, threshold, labels)
            _assert_edges_equal(once, _reference_dense(graph, heads, threshold, labels))
            assert once.cluster_heads == tuple(heads)
            twice = add_symbolic_edges_dense(once, heads, threshold, labels)
            _assert_edges_equal(twice, _reference_dense(once, heads, threshold, labels))
        if top < 1.0:
            assert not (add_symbolic_edges_dense(graph, heads, top, labels).kind == 1).any()


def _outcome(run):
    """What ``run()`` returns, or the message of the ``ValueError`` it raises."""
    try:
        return run()
    except ValueError as error:
        return str(error)


def _bytes_of(arrays):
    return [(array.dtype, array.tobytes()) for array in arrays]


@st.composite
def _tied_corpora(draw):
    """Small corpora, from a matrix or vector by vector, under shuffled ids,
    with some zero rows; 1 to 4 labels, so a corpus can be one cluster; and
    a few heads, any node.  Coordinates are whole numbers in [-2, 2], so
    equal vectors and exact ties are common, or Gaussian, or whole
    multiples of one Gaussian vector, whose cosines tie up to rounding, so
    that a norm off in the last bit elects another head."""
    n = draw(st.integers(1, 40))
    dim = draw(st.sampled_from([1, 2, 3, 8, 33]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["whole", "gaussian", "multiples"]))
    if kind == "whole":
        values = rng.integers(-2, 3, size=(n, dim)).astype(float)
    elif kind == "gaussian":
        values = rng.normal(size=(n, dim))
    else:
        values = rng.integers(1, 10, size=(n, 1)) * rng.normal(size=dim)
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]))] = 0.0
    ids = [f"n{i}" for i in rng.permutation(n)]
    labels = dict(zip(ids, rng.integers(0, draw(st.integers(1, 4)), size=n).tolist()))
    if draw(st.booleans()):
        nodes = Embeddings.from_matrix(ids, values)
    else:
        nodes = Embeddings(EmbeddingVector(item_id, row) for item_id, row in zip(ids, values))
    heads = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4))
    threshold = draw(st.sampled_from([-0.5, 0.0, 0.5]) | st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    return nodes, labels, heads, threshold


class TestVectorNorms:
    """The per-vector norm in array form: one ``ddot`` per row, bit for bit
    the per-vector loops it replaced."""

    def test_array_form_matches_the_per_vector_norm(self):
        points = generate_clusters(SyntheticDatasetSpec(num_points=2000, dim=32, rng_seed=0)).points
        rows = points.matrix
        per_vector = np.array([np.linalg.norm(row) for row in rows])
        # The batched norm differs, so the comparisons below can fail.
        assert (points.norms != per_vector).any()
        assert vector_norms(rows).tobytes() == per_vector.tobytes()
        # Every row against one head, gathered in shuffled order.
        head = rows[7]
        order = np.random.default_rng(0).permutation(len(rows))
        dots = np.array([np.dot(head, rows[i]) for i in order])
        assert np.vecdot(rows[order], head).tobytes() == dots.tobytes()

    def test_matrix_layout_changes_no_bit(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(600, 32))
        ids = [f"v{i:03d}" for i in range(600)]
        labels = {item_id: i % 4 for i, item_id in enumerate(ids)}
        query = EmbeddingVector("q", rng.normal(size=32))
        outputs = []
        for matrix in (np.ascontiguousarray(values), np.asfortranarray(values)):
            points = Embeddings.from_matrix(ids, matrix)
            graph = build_knn_graph(points, 5)
            # Its weights are the kNN weights, then the symbolic ones.
            dense = add_symbolic_edges_dense(graph, elect_cluster_heads(points, labels), 0.2, labels)
            arrays = (points.norms, query_similarities(query, points), similarity_matrix(points), dense.weights)
            outputs.append([array.tobytes() for array in arrays])
        assert outputs[0] == outputs[1]

    @settings(max_examples=300, deadline=None)
    @given(corpus=_tied_corpora())
    def test_election_and_dense_pass_match_the_per_item_loops(self, corpus):
        nodes, labels, heads, threshold = corpus
        elected = _outcome(lambda: elect_cluster_heads(nodes, labels))
        assert elected == _outcome(lambda: _reference_heads(nodes, labels))
        graph = SemanticGraph.from_named(nodes, ())

        def dense():
            augmented = add_symbolic_edges_dense(graph, heads, threshold, labels)
            return _bytes_of((augmented.sources, augmented.targets, augmented.weights, augmented.kind))

        assert _outcome(dense) == _outcome(lambda: _bytes_of(_reference_dense(graph, heads, threshold, labels)))


class TestNormalizeAdjacency:
    def test_rows_are_stochastic_and_parallel_edges_sum(self):
        nodes = (
            EmbeddingVector("x", [1.0, 0.0]),
            EmbeddingVector("y", [0.0, 1.0]),
            EmbeddingVector("z", [1.0, 1.0]),
        )
        edges = (
            ("x", "y", 0.4, "knn"),
            ("x", "y", 0.6, "symbolic"),  # parallel, summed to 1.0
            ("x", "z", 1.0, "knn"),
            ("y", "x", 2.0, "knn"),
        )
        adjacency = normalize_adjacency(SemanticGraph.from_named(nodes=nodes, edges=edges))
        assert adjacency.order == ("x", "y", "z")
        np.testing.assert_allclose(adjacency.matrix[0], [0.0, 0.5, 0.5], rtol=0, atol=1e-15)
        np.testing.assert_allclose(adjacency.matrix[1], [1.0, 0.0, 0.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(adjacency.matrix[2], [0.0, 0.0, 0.0], rtol=0, atol=0)
        assert {adjacency.order[i] for i in adjacency.dangling_index} == frozenset({"z"})

    def test_built_once_per_graph(self):
        graph = build_knn_graph(_nodes(count=10), 3)
        adjacency = normalize_adjacency(graph)
        assert normalize_adjacency(graph) is adjacency
        augmented = add_symbolic_edges_sparse(graph, ["n00", "n04", "n08"], 2)
        cached = normalize_adjacency(augmented)
        assert cached is not adjacency
        rebuilt = normalize_adjacency(SemanticGraph(augmented.nodes, augmented.sources, augmented.targets, augmented.weights, augmented.kind))
        assert not np.array_equal(rebuilt.matrix, adjacency.matrix)
        for name in ("indptr", "indices", "weights"):
            np.testing.assert_array_equal(getattr(cached, name), getattr(rebuilt, name))
        np.testing.assert_array_equal(cached.dangling_index, rebuilt.dangling_index)

    def test_validation_checks_row_sums(self):
        matrix = np.array([[0.0, 0.7], [0.0, 0.0]])
        with pytest.raises(ValueError, match="row for 'a' sums to"):
            NormalizedAdjacency.from_dense(("a", "b"), matrix)

    @pytest.mark.parametrize("row, bad", [([np.nan, 1.0], "nan"), ([1.5, -0.5], "-0.5"), ([-0.5, 0.2], "-0.5")])
    def test_validation_rejects_nan_and_negative_weights(self, row, bad):
        """Checked before the row sums: these rows sum to NaN, to 1 and to
        -0.3, which the sum check would report instead."""
        matrix = np.array([[0.0, 0.0], row])
        with pytest.raises(ValueError, match=f"^row for 'b' has weight {bad}, expected >= 0$"):
            NormalizedAdjacency.from_dense(("a", "b"), matrix)

    def test_validation_checks_shape(self):
        with pytest.raises(ValueError, match="does not match"):
            NormalizedAdjacency.from_dense(("a",), np.eye(2))

    def test_validation_checks_csr_arrays(self):
        with pytest.raises(ValueError, match="do not describe a 2-node adjacency"):
            NormalizedAdjacency(("a", "b"), [0, 1, 1], [5], [1.0])

    def test_a_row_of_explicit_zeros_is_dangling(self):
        """Row 'c' holds two stored 0.0 entries: it sums to 0, so it is
        dangling like an empty row, and its mass restarts through the seed."""
        order = ("a", "b", "c")
        adjacency = NormalizedAdjacency(order, [0, 2, 3, 5], [1, 2, 0, 0, 1], [0.25, 0.75, 1.0, 0.0, 0.0])
        assert adjacency.dangling_index.tolist() == [2]
        assert not adjacency.dangling_index.flags.writeable
        seed = SeedVector.uniform(order, ["a"])
        alpha = 0.15
        mass = ppr_mass(adjacency, seed, PprConfig(alpha=alpha, tolerance=1e-13))
        dangling = np.array([0.0, 0.0, 1.0])
        system = np.eye(3) - (1.0 - alpha) * (adjacency.matrix.T + np.outer(seed.weights, dangling))
        expected = np.linalg.solve(system, alpha * seed.weights)
        np.testing.assert_allclose(mass, expected, rtol=0, atol=1e-9)

    def test_validation_rejects_repeated_ids(self):
        with pytest.raises(ValueError, match="^adjacency order repeats id 'a'$"):
            NormalizedAdjacency(("a", "a"), [0, 1, 2], [1, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="^adjacency order repeats id 'b'$"):
            NormalizedAdjacency.from_dense(("b", "a", "b", "a"), np.zeros((4, 4)))

    def test_dense_view_round_trips_through_csr(self):
        matrix = np.array([[0.0, 0.25, 0.75], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        adjacency = NormalizedAdjacency.from_dense(("a", "b", "c"), matrix)
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
        with pytest.raises(ValueError, match="^seed needs at least one positive weight$"):
            SeedVector(order=("a", "b"), weights=np.array([0.0, 0.0]))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="^seed weights must be non-negative$"):
            SeedVector(order=("a", "b"), weights=np.array([np.nan, 1.0]))


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
            adjacency = NormalizedAdjacency.from_dense(order, matrix)
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

    def test_list_wraps_the_array_kernel(self):
        nodes = _nodes(count=30, seed=3)
        adjacency = normalize_adjacency(build_knn_graph(nodes, 3))
        seed = SeedVector.uniform(adjacency.order, [nodes[0].id, nodes[7].id])
        mass = ppr_mass(adjacency, seed)
        assert mass.dtype == np.float64 and mass.shape == (len(nodes),)
        pairs = personalized_pagerank(adjacency, seed)
        assert [node_id for node_id, _ in pairs] == list(adjacency.order)
        assert np.array([score for _, score in pairs]).tobytes() == mass.tobytes()
        config = PprConfig(tolerance=1e-300, max_iterations=2)
        with pytest.raises(ConvergenceError, match="no convergence after 2 iterations"):
            ppr_mass(adjacency, seed, config)

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
