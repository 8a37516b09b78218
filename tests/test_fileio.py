"""Round-trip persistence for datasets and graphs, and parse-error surfaces."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semrank import experiments
from semrank.datagen import SyntheticDataset, SyntheticDatasetSpec, generate_clusters
from semrank.fileio import load_dataset, load_graph, save_dataset, save_graph
from semrank.geometry import EmbeddingVector, Embeddings
from semrank.graph import SemanticGraph, build_knn_graph


def _dataset(seed=42):
    return generate_clusters(SyntheticDatasetSpec(num_points=15, num_clusters=3, rng_seed=seed))


class TestDatasetRoundTrip:
    def test_exact_values_and_labels(self, tmp_path):
        dataset = _dataset()
        path = save_dataset(dataset, tmp_path / "data.tsv")
        loaded = load_dataset(path)
        assert loaded.labels == dataset.labels
        assert loaded.spec is None
        assert [p.id for p in loaded.points] == [p.id for p in dataset.points]
        for original, restored in zip(dataset.points, loaded.points):
            np.testing.assert_array_equal(original.values, restored.values)

    def test_file_shape(self, tmp_path):
        dataset = _dataset()
        path = save_dataset(dataset, tmp_path / "data.tsv")
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "#nodes 15 #dim 2"
        assert len(lines) == 16
        assert all(line.count("\t") == 2 for line in lines[1:])

    def test_empty_dataset_rejected(self, tmp_path):
        empty = SyntheticDataset(points=(), labels={}, spec=None)
        with pytest.raises(ValueError, match="empty dataset"):
            save_dataset(empty, tmp_path / "nope.tsv")


class TestDatasetParsing:
    def _write(self, tmp_path, text):
        path = tmp_path / "broken.tsv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ValueError, match="empty dataset file"):
            load_dataset(path)

    def test_malformed_header(self, tmp_path):
        path = self._write(tmp_path, "nodes 2 dim 2\n")
        with pytest.raises(ValueError, match="malformed header"):
            load_dataset(path)

    def test_non_integer_header(self, tmp_path):
        path = self._write(tmp_path, "#nodes two #dim 2\n")
        with pytest.raises(ValueError, match="non-integer header"):
            load_dataset(path)

    def test_invalid_header_sizes(self, tmp_path):
        path = self._write(tmp_path, "#nodes 1 #dim 0\na\t0\t\n")
        with pytest.raises(ValueError, match="invalid sizes"):
            load_dataset(path)

    def test_row_count_mismatch(self, tmp_path):
        path = self._write(tmp_path, "#nodes 2 #dim 1\na\t0\t1.0\n")
        with pytest.raises(ValueError, match="declares 2 rows, found 1"):
            load_dataset(path)

    def test_malformed_row(self, tmp_path):
        path = self._write(tmp_path, "#nodes 1 #dim 1\na\t0\n")
        with pytest.raises(ValueError, match="malformed dataset row"):
            load_dataset(path)

    def test_duplicate_id(self, tmp_path):
        path = self._write(tmp_path, "#nodes 2 #dim 1\na\t0\t1.0\na\t1\t2.0\n")
        with pytest.raises(ValueError, match="duplicate item id 'a'"):
            load_dataset(path)

    def test_non_integer_label(self, tmp_path):
        path = self._write(tmp_path, "#nodes 1 #dim 1\na\tx\t1.0\n")
        with pytest.raises(ValueError, match="non-integer cluster label"):
            load_dataset(path)

    def test_wrong_coordinate_count(self, tmp_path):
        path = self._write(tmp_path, "#nodes 1 #dim 2\na\t0\t1.0\n")
        with pytest.raises(ValueError, match="has 1 coordinates, expected 2"):
            load_dataset(path)

    def test_non_numeric_coordinate(self, tmp_path):
        path = self._write(tmp_path, "#nodes 1 #dim 1\na\t0\tabc\n")
        with pytest.raises(ValueError, match="non-numeric coordinate"):
            load_dataset(path)

    def test_non_finite_coordinate(self, tmp_path):
        path = self._write(tmp_path, "#nodes 2 #dim 2\na\t0\t1.0,2.0\nb\t0\t1.0,inf\n")
        with pytest.raises(ValueError, match="^vector 'b' has non-finite coordinates$"):
            load_dataset(path)

    def test_non_finite_row_is_reported_before_a_later_row_error(self, tmp_path):
        text = "#nodes 3 #dim 1\na\t0\t1.0\nb\t0\tnan\na\t0\t2.0\n"
        with pytest.raises(ValueError, match="^vector 'b' has non-finite coordinates$"):
            load_dataset(self._write(tmp_path, text))

    def test_a_row_error_is_reported_before_a_later_non_finite_row(self, tmp_path):
        text = "#nodes 3 #dim 1\na\t0\t1.0\na\t0\t2.0\nb\t0\tnan\n"
        with pytest.raises(ValueError, match="duplicate item id 'a'"):
            load_dataset(self._write(tmp_path, text))

    def test_other_row_errors_precede_the_rows_own_non_finite_value(self, tmp_path):
        with pytest.raises(ValueError, match="non-integer cluster label for 'a'"):
            load_dataset(self._write(tmp_path, "#nodes 1 #dim 1\na\tx\tnan\n"))
        with pytest.raises(ValueError, match="has 2 coordinates, expected 1"):
            load_dataset(self._write(tmp_path, "#nodes 1 #dim 1\na\t0\tnan,1.0\n"))

    def test_header_only_file_loads_an_empty_corpus(self, tmp_path):
        loaded = load_dataset(self._write(tmp_path, "#nodes 0 #dim 3\n"))
        assert len(loaded.points) == 0
        assert loaded.labels == {}
        assert loaded.points.matrix.shape == (0, 3)

    def test_errors_name_the_file(self, tmp_path):
        path = self._write(tmp_path, "bad\n")
        with pytest.raises(ValueError, match="broken.tsv"):
            load_dataset(path)


class TestGraphRoundTrip:
    def test_nodes_edges_and_weights_survive(self, tmp_path):
        dataset = _dataset(seed=5)
        graph = build_knn_graph(dataset.points, 3)
        path = save_graph(graph, tmp_path / "graph.tsv")
        loaded = load_graph(path)
        assert loaded.node_ids == graph.node_ids
        for original, restored in zip(graph.nodes, loaded.nodes):
            np.testing.assert_array_equal(original.values, restored.values)
        assert loaded.edges == graph.edges
        assert loaded.cluster_heads is None

    def test_symbolic_kinds_survive(self, tmp_path):
        nodes = (
            EmbeddingVector("a", [1.0, 0.0]),
            EmbeddingVector("b", [0.9, 0.1]),
        )
        edges = (
            ("a", "b", 0.993, "knn"),
            ("a", "b", 0.993, "symbolic"),
            ("b", "a", 0.993, "symbolic"),
        )
        graph = SemanticGraph.from_named(nodes=nodes, edges=edges)
        loaded = load_graph(save_graph(graph, tmp_path / "graph.tsv"))
        assert sorted(e.kind for e in loaded.edges) == ["knn", "symbolic", "symbolic"]
        assert loaded.edges == graph.edges

    def test_loaded_nodes_are_views_of_one_matrix(self, tmp_path):
        graph = build_knn_graph(_dataset(seed=5).points, 3)
        loaded = load_graph(save_graph(graph, tmp_path / "graph.tsv"))
        assert isinstance(loaded.nodes, Embeddings)
        assert not loaded.nodes.matrix.flags.writeable
        for node in loaded.nodes:
            assert np.shares_memory(node.values, loaded.nodes.matrix)
            assert not node.values.flags.writeable
        np.testing.assert_array_equal(loaded.nodes.matrix, np.stack([node.values for node in graph.nodes]))

    def test_empty_graph_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty graph"):
            save_graph(SemanticGraph.from_named(nodes=(), edges=()), tmp_path / "nope.tsv")


class TestGraphParsing:
    def _write(self, tmp_path, text):
        path = tmp_path / "broken.tsv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ValueError, match="empty graph file"):
            load_graph(path)

    def test_missing_vector_rows(self, tmp_path):
        path = self._write(tmp_path, "#nodes 2 #dim 1\na\t1.0\n")
        with pytest.raises(ValueError, match="declares 2 vector rows, found 1"):
            load_graph(path)

    def test_malformed_vector_row(self, tmp_path):
        path = self._write(tmp_path, "#nodes 1 #dim 1\na\t1.0\textra\n")
        with pytest.raises(ValueError, match="malformed vector row"):
            load_graph(path)

    def test_duplicate_node_id(self, tmp_path):
        path = self._write(tmp_path, "#nodes 2 #dim 1\na\t1.0\na\t2.0\n")
        with pytest.raises(ValueError, match="duplicate item id 'a'"):
            load_graph(path)

    def test_non_finite_coordinate(self, tmp_path):
        path = self._write(tmp_path, "#nodes 2 #dim 2\na\t1.0,2.0\nb\t1.0,inf\n")
        with pytest.raises(ValueError, match="^vector 'b' has non-finite coordinates$"):
            load_graph(path)

    def test_non_finite_row_is_reported_before_a_later_row_error(self, tmp_path):
        path = self._write(tmp_path, "#nodes 3 #dim 1\na\t1.0\nb\tnan\na\t2.0\n")
        with pytest.raises(ValueError, match="^vector 'b' has non-finite coordinates$"):
            load_graph(path)

    def test_a_row_error_is_reported_before_a_later_non_finite_row(self, tmp_path):
        path = self._write(tmp_path, "#nodes 3 #dim 1\na\t1.0\na\t2.0\nb\tnan\n")
        with pytest.raises(ValueError, match="duplicate item id 'a'"):
            load_graph(path)

    def test_other_row_errors_precede_the_rows_own_non_finite_value(self, tmp_path):
        with pytest.raises(ValueError, match="malformed vector row"):
            load_graph(self._write(tmp_path, "#nodes 1 #dim 1\na\tnan\textra\n"))
        with pytest.raises(ValueError, match="has 2 coordinates, expected 1"):
            load_graph(self._write(tmp_path, "#nodes 1 #dim 1\na\tnan,1.0\n"))
        with pytest.raises(ValueError, match="has a non-numeric coordinate"):
            load_graph(self._write(tmp_path, "#nodes 1 #dim 2\na\tnan,x\n"))

    def test_a_non_finite_node_is_reported_before_edge_errors(self, tmp_path):
        path = self._write(tmp_path, "#nodes 1 #dim 1\na\tinf\na\tb\theavy\tknn\n")
        with pytest.raises(ValueError, match="^vector 'a' has non-finite coordinates$"):
            load_graph(path)

    def test_header_only_file_loads_an_empty_graph(self, tmp_path):
        loaded = load_graph(self._write(tmp_path, "#nodes 0 #dim 3\n"))
        assert len(loaded.nodes) == 0 and loaded.edges == ()
        assert loaded.nodes.matrix.shape == (0, 3)

    def test_malformed_edge_row(self, tmp_path):
        path = self._write(tmp_path, "#nodes 2 #dim 1\na\t1.0\nb\t2.0\na\tb\t0.5\n")
        with pytest.raises(ValueError, match="malformed edge row"):
            load_graph(path)

    def test_non_numeric_weight(self, tmp_path):
        path = self._write(tmp_path, "#nodes 2 #dim 1\na\t1.0\nb\t2.0\na\tb\theavy\tknn\n")
        with pytest.raises(ValueError, match="non-numeric weight"):
            load_graph(path)

    def test_unknown_kind_rejected_on_load(self, tmp_path):
        path = self._write(tmp_path, "#nodes 2 #dim 1\na\t1.0\nb\t2.0\na\tb\t0.5\tmagic\n")
        with pytest.raises(ValueError, match="unknown edge kind 'magic'"):
            load_graph(path)

    def test_edge_to_unknown_node_rejected_on_load(self, tmp_path):
        path = self._write(tmp_path, "#nodes 1 #dim 1\na\t1.0\na\tghost\t0.5\tknn\n")
        with pytest.raises(ValueError, match="references unknown node"):
            load_graph(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            # Edge row format errors, in any row, come before edge checks.
            ("a\tb\tnan\tknn\na\tb\t0.5\n", "malformed edge row 'a\\tb\\t0.5'"),
            ("a\tghost\t0.5\tknn\na\tb\theavy\tknn\n", "non-numeric weight in edge row 'a\\tb\\theavy\\tknn'"),
            # Then the first offending edge in edge order, whatever its fault.
            ("a\tb\tnan\tknn\na\tghost\t1.0\tmagic\n", "edge 'a'->'b' weight must be finite and > 0"),
            ("a\tb\t1.0\tknn\nb\ta\t1.0\tknn\na\tb\t2.0\tknn\nb\tb\t1.0\tknn\n", "duplicate edge ('a', 'b', 'knn')"),
            # Within one edge: kind, endpoints, self-loop, weight.
            ("a\ta\t-1.0\tmagic\n", "unknown edge kind 'magic'"),
            ("ghost\tghost\t-1.0\tknn\n", "edge 'ghost'->'ghost' references unknown node"),
            ("b\tb\t-1.0\tsymbolic\n", "self-loop on 'b'"),
        ],
    )
    def test_edge_errors_keep_their_order(self, tmp_path, body, message):
        path = self._write(tmp_path, "#nodes 2 #dim 1\na\t1.0\nb\t2.0\n" + body)
        with pytest.raises(ValueError) as caught:
            load_graph(path)
        assert str(caught.value).removeprefix(f"{path}: ") == message

    def test_a_row_whose_weights_overflow_is_rejected(self, tmp_path):
        edges = "b\ta\t1.0\tknn\na\tb\t1e308\tknn\na\tc\t1e308\tknn\n"
        path = self._write(tmp_path, "#nodes 3 #dim 1\na\t1.0\nb\t2.0\nc\t3.0\n" + edges)
        with pytest.raises(ValueError, match="^out-edge weights of 'a' do not sum to a finite value$"):
            load_graph(path)

    def test_vector_rows_are_read_before_edge_rows(self, tmp_path):
        with pytest.raises(ValueError, match="malformed vector row"):
            load_graph(self._write(tmp_path, "#nodes 2 #dim 1\na\t1.0\textra\nb\t2.0\na\tb\t0.5\n"))
        with pytest.raises(ValueError, match="^vector 'a' has non-finite coordinates$"):
            load_graph(self._write(tmp_path, "#nodes 2 #dim 1\na\tnan\nb\t2.0\na\tb\n"))


_UNWRITABLE_IDS = ["a\tb", "a\rb", "a\nb", "line\u2028break"]


class TestUnwritableIds:
    @pytest.mark.parametrize("bad", _UNWRITABLE_IDS)
    def test_dataset_rejects_tab_and_line_breaks(self, bad, tmp_path):
        points = (EmbeddingVector("ok", [1.0, 0.0]), EmbeddingVector(bad, [0.0, 1.0]))
        dataset = SyntheticDataset(points=points, labels={"ok": 0, bad: 1})
        path = tmp_path / "data.tsv"
        with pytest.raises(ValueError, match="contains a tab or line break") as caught:
            save_dataset(dataset, path)
        assert repr(bad) in str(caught.value)
        assert not path.exists()

    @pytest.mark.parametrize("bad", _UNWRITABLE_IDS)
    def test_graph_rejects_tab_and_line_breaks(self, bad, tmp_path):
        nodes = (EmbeddingVector("ok", [1.0, 0.0]), EmbeddingVector(bad, [0.0, 1.0]))
        graph = SemanticGraph.from_named(nodes=nodes, edges=(("ok", bad, 0.5, "knn"),))
        path = tmp_path / "graph.tsv"
        with pytest.raises(ValueError, match="contains a tab or line break") as caught:
            save_graph(graph, path)
        assert repr(bad) in str(caught.value)
        assert not path.exists()


class TestFailedSaves:
    """Every check runs before the file is opened: a failed save creates
    no file and leaves an existing one byte-identical."""

    _MIXED = (EmbeddingVector("a", [1.0, 0.0]), EmbeddingVector("b", [1.0]))

    def _check_writes_nothing(self, save, value, path, message):
        with pytest.raises(ValueError, match=message):
            save(value, path)
        assert not path.exists()
        path.write_bytes(b"kept\n")
        with pytest.raises(ValueError, match=message):
            save(value, path)
        assert path.read_bytes() == b"kept\n"

    def test_unlabelled_point(self, tmp_path):
        dataset = SyntheticDataset(points=(EmbeddingVector("a", [1.0]), EmbeddingVector("b", [2.0])), labels={"a": 0})
        self._check_writes_nothing(save_dataset, dataset, tmp_path / "data.tsv", "^point 'b' has no cluster label$")

    # Mixed dimensions are rejected as the dataset or graph is built, so
    # there is nothing to save.
    def test_mixed_dimension_dataset(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 'b' has d=1, expected 2$"):
            SyntheticDataset(points=self._MIXED, labels={"a": 0, "b": 1})

    def test_mixed_dimension_graph(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 'b' has d=1, expected 2$"):
            SemanticGraph.from_named(nodes=self._MIXED, edges=(("a", "b", 0.5, "knn"),))

    def test_unwritable_id(self, tmp_path):
        graph = SemanticGraph.from_named(nodes=(EmbeddingVector("a\tb", [1.0]),), edges=())
        self._check_writes_nothing(save_graph, graph, tmp_path / "graph.tsv", "contains a tab or line break")


@pytest.fixture(scope="module")
def dense_500():
    """A dataset of 500 points in 32 dimensions and its dense symbolic graph."""
    config = experiments.ExperimentConfig(
        dataset=SyntheticDatasetSpec(num_points=500, dim=32, rng_seed=0),
        graph_k=5,
        symbolic_mode="dense",
        symbolic_threshold=0.85,
    )
    dataset = generate_clusters(config.dataset)
    return dataset, experiments.build_experiment_graph(config, dataset)


def _save_peak(save, value, path):
    tracemalloc.start()
    try:
        save(value, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestStreamedSaves:
    """Rows are written one at a time, not gathered into the file's text
    first: that held 0.95 MiB for the dataset (321 KB on disk) and 2.15 MiB
    for the graph (493 KB); streamed they peak at about 0.02 and 0.48 MiB,
    the latter mostly the edge columns as lists."""

    def test_save_dataset_peak(self, dense_500, tmp_path):
        assert _save_peak(save_dataset, dense_500[0], tmp_path / "data.tsv") < 0.25 * 2**20

    def test_save_graph_peak(self, dense_500, tmp_path):
        assert _save_peak(save_graph, dense_500[1], tmp_path / "graph.tsv") < 1 * 2**20


# Any id the formats can hold: no tab, no line boundary, no lone surrogate.
_ids = st.text(
    st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029",
    ),
    max_size=6,
)
# Any coordinate of a vector with up to three of them whose norm is finite,
# as every vector's must be: no square may reach a quarter of the largest
# float.
_LIMIT = math.sqrt(sys.float_info.max / 4)
_coordinates = st.floats(min_value=-_LIMIT, max_value=_LIMIT)


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_datasets_round_trip_exactly(self, tmp_path_factory, data, dim):
        ids = data.draw(st.lists(_ids, min_size=1, max_size=6, unique=True))
        points = tuple(
            EmbeddingVector(item_id, data.draw(st.lists(_coordinates, min_size=dim, max_size=dim)))
            for item_id in ids
        )
        labels = {item_id: data.draw(st.integers(-3, 3)) for item_id in ids}
        path = tmp_path_factory.mktemp("data") / "data.tsv"
        loaded = load_dataset(save_dataset(SyntheticDataset(points=points, labels=labels), path))
        assert [p.id for p in loaded.points] == list(ids)
        assert loaded.labels == labels
        for original, restored in zip(points, loaded.points):
            assert original.values.tobytes() == restored.values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_graphs_round_trip_exactly(self, tmp_path_factory, data, dim):
        ids = data.draw(st.lists(_ids, min_size=1, max_size=5, unique=True))
        nodes = tuple(
            EmbeddingVector(item_id, data.draw(st.lists(_coordinates, min_size=dim, max_size=dim)))
            for item_id in ids
        )
        slots = [(a, b, kind) for a in ids for b in ids if a != b for kind in ("knn", "symbolic")]
        chosen = data.draw(st.lists(st.sampled_from(slots), unique=True)) if slots else []
        weights = st.floats(min_value=1e-300, max_value=1e300)
        edges = tuple((a, b, data.draw(weights), kind) for a, b, kind in chosen)
        graph = SemanticGraph.from_named(nodes=nodes, edges=edges)
        path = tmp_path_factory.mktemp("graph") / "graph.tsv"
        loaded = load_graph(save_graph(graph, path))
        assert loaded.node_ids == graph.node_ids
        assert loaded.edges == graph.edges
        for original, restored in zip(nodes, loaded.nodes):
            assert original.values.tobytes() == restored.values.tobytes()
