"""Round-trip persistence for datasets and graphs, and parse-error surfaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semrank.datagen import SyntheticDataset, SyntheticDatasetSpec, generate_clusters
from semrank.fileio import load_dataset, load_graph, save_dataset, save_graph
from semrank.geometry import EmbeddingVector
from semrank.graph import GraphEdge, SemanticGraph, build_knn_graph


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
        assert loaded.points == ()
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
            GraphEdge("a", "b", 0.993, "knn"),
            GraphEdge("a", "b", 0.993, "symbolic"),
            GraphEdge("b", "a", 0.993, "symbolic"),
        )
        graph = SemanticGraph(nodes=nodes, edges=edges)
        loaded = load_graph(save_graph(graph, tmp_path / "graph.tsv"))
        assert sorted(e.kind for e in loaded.edges) == ["knn", "symbolic", "symbolic"]
        assert loaded.edges == graph.edges

    def test_empty_graph_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty graph"):
            save_graph(SemanticGraph(nodes=(), edges=()), tmp_path / "nope.tsv")


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
        graph = SemanticGraph(nodes=nodes, edges=(GraphEdge("ok", bad, 0.5, "knn"),))
        path = tmp_path / "graph.tsv"
        with pytest.raises(ValueError, match="contains a tab or line break") as caught:
            save_graph(graph, path)
        assert repr(bad) in str(caught.value)
        assert not path.exists()


# Any id the formats can hold: no tab, no line boundary, no lone surrogate.
_ids = st.text(
    st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029",
    ),
    max_size=6,
)
_coordinates = st.floats(allow_nan=False, allow_infinity=False)


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
        edges = tuple(GraphEdge(a, b, data.draw(weights), kind) for a, b, kind in chosen)
        graph = SemanticGraph(nodes=nodes, edges=edges)
        path = tmp_path_factory.mktemp("graph") / "graph.tsv"
        loaded = load_graph(save_graph(graph, path))
        assert loaded.node_ids == graph.node_ids
        assert loaded.edges == graph.edges
        for original, restored in zip(nodes, loaded.nodes):
            assert original.values.tobytes() == restored.values.tobytes()
