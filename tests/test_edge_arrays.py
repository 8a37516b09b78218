"""The graph's edges as parallel arrays: pinned outputs, validation
messages, and memory on the build, save and load path."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semrank import datagen, experiments, fileio, graph as graph_module
from semrank.candidates import top_n_candidates
from semrank.cli import main
from semrank.geometry import EmbeddingVector
from semrank.graph import EDGE_KINDS, GraphEdge, PprConfig, SeedVector, SemanticGraph
from semrank.hybrid import HybridConfig, rank_hybrid
from semrank.plotting import render_svg

# SHA-256 of ``semrank build-graph --num-points 150 --dim 3 --graph-k 4``
# output for (symbolic mode, seed), pinned from a build that stored every
# edge as its own GraphEdge object.
_BUILD_GRAPH_DIGESTS = {
    ("none", 3): "a8763faf7223a3edbdf99f2261ef6a099814bd27a9b0a308f4471678f22ce11f",
    ("none", 11): "6fa14a9d431560dbae0d0164f721287bf0a2f83c7bb99ca9276ad12f867293f4",
    ("sparse", 3): "e7bb05bcdcfe3fb4fcd0d6aa21c6603ff4f6babb084fba886a5605b5435845f9",
    ("sparse", 11): "19d926218aba744d7275a7d572d5c19680e5a3c7037b2241de13973a89d4c96b",
    ("dense", 3): "880b10c81a6be37eaf03a4552cce854e21ee27ff5741e21c2b14e8757bc6177e",
    ("dense", 11): "ceab48f8987898091a9526bd8f11cccba8a564e4eb3462f2999a58e5a731fccf",
}

# SHA-256 of the edge list (source, target, kind and the weight's hex
# digits, one line per edge in edge order) and the edge count, pinned from
# the same build, for the graphs the benchmark's CLI and query workloads
# build at seed 0.
_CLI_EDGES = ("1d75e97ccd62ddfe23fb1d7cf0f9c4639505a6ef81c698b54a00a6c030635447", 5014)
_STREAM_EDGES = ("52688526150f83cc8e600078235caee49c41454bc18471678a401101014d8214", 19630)

_STREAM_CONFIG = experiments.ExperimentConfig(
    dataset=datagen.SyntheticDatasetSpec(num_points=2000, dim=32, rng_seed=0),
    graph_k=5,
    symbolic_mode="dense",
    symbolic_threshold=0.85,
)


def _edge_digest(edges):
    digest = hashlib.sha256()
    for edge in edges:
        digest.update(f"{edge.source}\t{edge.target}\t{edge.kind}\t{float(edge.weight).hex()}\n".encode())
    return digest.hexdigest(), len(edges)


def _build(config):
    return experiments.build_experiment_graph(config, datagen.generate_clusters(config.dataset))


@pytest.fixture(scope="module")
def stream_graph():
    return _build(_STREAM_CONFIG)


@pytest.fixture(scope="module")
def stream_graph_file(stream_graph, tmp_path_factory):
    return fileio.save_graph(stream_graph, tmp_path_factory.mktemp("stream") / "graph.tsv")


class TestPinnedOutputs:
    @pytest.mark.parametrize("case", sorted(_BUILD_GRAPH_DIGESTS))
    def test_build_graph_tsv_bytes_are_unchanged(self, case, tmp_path):
        mode, seed = case
        out = tmp_path / "graph.tsv"
        flags = ["--num-points", "150", "--dim", "3", "--seed", str(seed), "--graph-k", "4"]
        assert main(["build-graph", *flags, "--symbolic-mode", mode, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _BUILD_GRAPH_DIGESTS[case]

    def test_cli_graph_edges_are_unchanged(self):
        config = experiments.ExperimentConfig(dataset=datagen.SyntheticDatasetSpec(num_points=1000, rng_seed=0))
        assert _edge_digest(_build(config).edges) == _CLI_EDGES

    def test_stream_graph_edges_are_unchanged(self, stream_graph):
        assert _edge_digest(stream_graph.edges) == _STREAM_EDGES

    def test_edges_view_reads_the_arrays(self, stream_graph):
        edges = stream_graph.edges
        assert stream_graph.edges is edges
        ids = stream_graph.node_ids
        assert [ids.index(edge.source) for edge in edges[:50]] == stream_graph.sources[:50].tolist()
        assert [edge.weight for edge in edges] == stream_graph.weights.tolist()
        assert [EDGE_KINDS.index(edge.kind) for edge in edges] == stream_graph.kind.tolist()


def _per_edge_check(nodes, edges, cluster_heads=None):
    """The validation of a graph that held one GraphEdge per edge, check
    for check, as a reference for the array validator."""
    ids = [node.id for node in nodes]
    known = set(ids)
    if len(known) != len(ids):
        msg = "graph nodes contain duplicate ids"
        raise ValueError(msg)
    seen = set()
    for source, target, weight, kind in edges:
        if kind not in EDGE_KINDS:
            msg = f"unknown edge kind {kind!r}"
            raise ValueError(msg)
        if source not in known or target not in known:
            msg = f"edge {source!r}->{target!r} references unknown node"
            raise ValueError(msg)
        if source == target:
            msg = f"self-loop on {source!r}"
            raise ValueError(msg)
        if not (np.isfinite(weight) and weight > 0.0):
            msg = f"edge {source!r}->{target!r} weight must be finite and > 0"
            raise ValueError(msg)
        key = (source, target, kind)
        if key in seen:
            msg = f"duplicate edge {key}"
            raise ValueError(msg)
        seen.add(key)
    if cluster_heads is not None:
        for head in cluster_heads:
            if head not in known:
                msg = f"cluster head {head!r} is not a graph node"
                raise ValueError(msg)


def _outcome(check):
    try:
        check()
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return None


# Mostly well-formed edges, so that faults of every kind, several per list,
# reach the validator and some lists pass it.
_known = ["a", "b", "c", "x'y"]
_pairs = st.sampled_from(
    [(s, t) for s in _known for t in _known if s != t] * 4
    + [(s, s) for s in _known]
    + [("ghost", "a"), ("b", "ghost"), ("ghost", "ghost")]
)
_weights = st.one_of(
    st.floats(min_value=1e-6, max_value=10.0),
    st.sampled_from([1.0] * 20 + [0.0, -0.0, -1.5, math.nan, math.inf, -math.inf, 5e-324]),
)
_kinds = st.sampled_from([*EDGE_KINDS] * 6 + ["magic"])
_edges = st.builds(lambda pair, weight, kind: (*pair, weight, kind), _pairs, _weights, _kinds)


class TestValidationMessages:
    @settings(max_examples=400, deadline=None)
    @given(
        node_ids=st.sampled_from([("a", "b", "c", "x'y")] * 5 + [("x'y", "c", "b", "a", "d"), ("a", "b", "a")]),
        edges=st.lists(_edges, max_size=10),
        cluster_heads=st.one_of(st.none(), st.lists(st.sampled_from(["a", "c", "ghost"]), max_size=2)),
    )
    def test_array_validator_raises_what_the_per_edge_loop_raised(self, node_ids, edges, cluster_heads):
        nodes = tuple(EmbeddingVector(node_id, [float(i + 1), 1.0]) for i, node_id in enumerate(node_ids))
        want = _outcome(lambda: _per_edge_check(nodes, edges, cluster_heads))
        got = _outcome(lambda: SemanticGraph.from_named(nodes, edges, cluster_heads))
        assert got == want
        if want is None:
            graph = SemanticGraph.from_named(nodes, edges, cluster_heads)
            assert graph.edges == tuple(GraphEdge(*edge) for edge in edges)
            assert [edge.weight.hex() for edge in graph.edges] == [float(edge[2]).hex() for edge in edges]

    def test_arrays_are_validated_with_positions_and_codes(self):
        nodes = (EmbeddingVector("a", [1.0]), EmbeddingVector("b", [2.0]))
        with pytest.raises(ValueError, match=r"^edge 'a'->5 references unknown node$"):
            SemanticGraph(nodes, [0], [5], [1.0], [0])
        with pytest.raises(ValueError, match=r"^unknown edge kind 7$"):
            SemanticGraph(nodes, [0, 1], [1, 0], [1.0, 1.0], [0, 7])
        with pytest.raises(ValueError, match=r"^duplicate edge \('b', 'a', 'symbolic'\)$"):
            SemanticGraph(nodes, [1, 1], [0, 0], [1.0, 2.0], [1, 1])
        with pytest.raises(ValueError, match="one-dimensional and of one length"):
            SemanticGraph(nodes, [0, 1], [1], [1.0], [0])

    def test_a_row_whose_weights_overflow_is_rejected(self):
        nodes = tuple(EmbeddingVector(node_id, [1.0]) for node_id in "abc")
        for edges in (
            (("b", "a", 1.0, "knn"), ("a", "b", 1e308, "knn"), ("a", "c", 1e308, "knn")),
            (("b", "a", 1.0, "knn"), ("a", "b", 1e308, "knn"), ("a", "b", 1e308, "symbolic")),
        ):
            with pytest.raises(ValueError, match="^out-edge weights of 'a' do not sum to a finite value$"):
                SemanticGraph.from_named(nodes, edges)
        # Each weight may be as large as the row's sum allows.
        graph = SemanticGraph.from_named(nodes, (("a", "b", 8e307, "knn"), ("a", "c", 8e307, "knn")))
        assert graph.adjacency.weights.tolist() == [0.5, 0.5]

    def test_arrays_are_read_only_copies(self):
        nodes = (EmbeddingVector("a", [1.0]), EmbeddingVector("b", [2.0]))
        sources = np.array([0, 1])
        graph = SemanticGraph(nodes, sources, np.array([1, 0]), np.array([0.5, 2.0]), np.array([0, 1]))
        sources[0] = 1
        assert graph.sources.tolist() == [0, 1]
        for array, dtype in ((graph.sources, np.intp), (graph.targets, np.intp), (graph.weights, np.float64), (graph.kind, np.int8)):
            assert array.dtype == dtype
            assert not array.flags.writeable
        assert graph.edges == (GraphEdge("a", "b", 0.5, "knn"), GraphEdge("b", "a", 2.0, "symbolic"))


class TestUnitRows:
    def test_loaded_graph_reads_its_node_matrix(self, tmp_path, monkeypatch):
        built = _build(experiments.ExperimentConfig(dataset=datagen.SyntheticDatasetSpec(num_points=60, dim=3)))
        loaded = fileio.load_graph(fileio.save_graph(built, tmp_path / "graph.tsv"))
        expected = SemanticGraph(tuple(built.nodes), built.sources, built.targets, built.weights, built.kind).nodes.unit_rows

        def no_stack(*args, **kwargs):
            raise AssertionError("unit_rows restacked the node vectors")

        monkeypatch.setattr(graph_module.np, "stack", no_stack)
        assert loaded.nodes.unit_rows.tobytes() == expected.tobytes()
        assert not loaded.nodes.unit_rows.flags.writeable

    def test_tuple_nodes_keep_the_dimension_check(self):
        nodes = (EmbeddingVector("a", [1.0, 0.0]), EmbeddingVector("b", [1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="^dimension mismatch: 'b' has d=3, expected 2$"):
            SemanticGraph.from_named(nodes, ()).nodes.unit_rows

    def test_empty_graph_has_no_rows(self):
        assert SemanticGraph.from_named((), ()).nodes.unit_rows.shape == (0, 0)


@pytest.fixture
def no_graph_edge(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a GraphEdge was built")

    monkeypatch.setattr(GraphEdge, "__init__", refuse)


class TestMemory:
    def test_loading_keeps_no_per_edge_objects(self, stream_graph_file):
        """19,630 edges as GraphEdge objects held about 7.2 MB after the
        load and peaked at about 12.7 MB; as arrays the edges are about
        0.5 MB and the node matrix another 0.5 MB."""
        tracemalloc.start()
        try:
            loaded = fileio.load_graph(stream_graph_file)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded.weights) == _STREAM_EDGES[1]
        assert retained < 3 * 2**20
        assert peak < 10 * 2**20

    def test_build_save_load_and_rank_build_no_graph_edge(self, no_graph_edge, tmp_path):
        config = experiments.ExperimentConfig(
            dataset=datagen.SyntheticDatasetSpec(num_points=300, dim=4, rng_seed=1),
            symbolic_mode="dense",
            symbolic_threshold=0.5,
        )
        dataset = datagen.generate_clusters(config.dataset)
        built = experiments.build_experiment_graph(config, dataset)
        assert (built.kind == EDGE_KINDS.index("symbolic")).any()
        loaded = fileio.load_graph(fileio.save_graph(built, tmp_path / "graph.tsv"))
        query = datagen.composite_query(dataset, 1)
        pool = top_n_candidates(query, dataset.points, 50)
        seed = SeedVector.uniform(loaded.node_ids, pool.ids[:5])
        result = rank_hybrid(pool, loaded, seed, PprConfig(), HybridConfig(beta=0.5, k=10))
        assert len(result.items) == 10
        with pytest.raises(AssertionError, match="a GraphEdge was built"):
            loaded.edges

    def test_experiment_and_plot_build_no_graph_edge(self, no_graph_edge):
        config = experiments.ExperimentConfig(dataset=datagen.SyntheticDatasetSpec(num_points=200, rng_seed=2))
        bundle = experiments.run_experiment_bundle(config)
        svg = render_svg(bundle.report, bundle.dataset, bundle.graph, bundle.query)
        assert svg.count('class="knn-edge"') == len(bundle.dataset.points) * config.graph_k
        assert svg.count('class="symbolic-edge"') == np.count_nonzero(bundle.graph.kind == EDGE_KINDS.index("symbolic"))
