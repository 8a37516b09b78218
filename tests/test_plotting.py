"""Deterministic SVG emission for 2D experiment scenes."""

import hashlib
from dataclasses import replace

import pytest

from semrank.cli import main

from semrank.datagen import SyntheticDatasetSpec
from semrank.experiments import ExperimentConfig, run_experiment_bundle
from semrank.hybrid import RetrievalResult
from semrank.plotting import emit_bundle_plot, render_svg

_CONFIG = ExperimentConfig(
    dataset=SyntheticDatasetSpec(num_points=30, num_clusters=3, rng_seed=7),
    pool_size=10,
    k=3,
    graph_k=3,
    seed_size=3,
)


_CLI_SMALL = ["--num-points", "30", "--clusters", "3", "--seed", "7", "--pool-size", "10", "--k", "3", "--graph-k", "3"]
_HYBRID_PLOT_DIGEST = "45f2449b0ea93b2b3fb6b19cb9c69bb719c6248c145edb526f42c0f9d768b1ec"


def _scene():
    bundle = run_experiment_bundle(_CONFIG)
    return bundle.report, bundle.dataset, bundle.graph, bundle.query


class TestRenderSvg:
    def test_is_a_single_svg_document(self):
        svg = render_svg(*_scene())
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert svg.count("<svg ") == 1

    def test_draws_every_dataset_point(self):
        svg = render_svg(*_scene())
        assert svg.count('class="point"') == 30

    def test_marks_each_retrieval_method(self):
        svg = render_svg(*_scene())
        for method in ("topk_ann", "semantic_compression", "graph_ppr"):
            assert svg.count(f'class="mark-{method}"') == _CONFIG.k
            assert f'class="legend-{method}"' in svg

    def test_draws_graph_edges_by_kind(self):
        report, dataset, graph, query = _scene()
        svg = render_svg(report, dataset, graph, query)
        knn = sum(1 for e in graph.edges if e.kind == "knn")
        symbolic = sum(1 for e in graph.edges if e.kind == "symbolic")
        assert symbolic > 0  # sparse mode links cluster heads
        assert svg.count('class="knn-edge"') == knn
        assert svg.count('class="symbolic-edge"') == symbolic

    def test_shows_query_and_cluster_heads(self):
        report, dataset, graph, query = _scene()
        svg = render_svg(report, dataset, graph, query)
        assert svg.count('class="query"') == 1
        assert svg.count('class="head"') == len(graph.cluster_heads)
        assert "composite query" in svg
        assert "cluster head" in svg

    def test_legend_labels(self):
        svg = render_svg(*_scene())
        assert "top-k by query similarity" in svg
        assert "coverage+diversity greedy" in svg
        assert "graph diffusion (ppr)" in svg

    def test_byte_identical_across_runs(self):
        assert render_svg(*_scene()) == render_svg(*_scene())

    def test_rejects_non_planar_datasets(self):
        config = replace(_CONFIG, dataset=replace(_CONFIG.dataset, dim=3))
        bundle = run_experiment_bundle(config)
        with pytest.raises(ValueError, match="requires a 2-dimensional dataset"):
            render_svg(bundle.report, bundle.dataset, bundle.graph, bundle.query)

    def test_rejects_result_items_missing_from_dataset(self):
        report, dataset, graph, query = _scene()
        ghost = RetrievalResult(
            method="topk_ann", items=(("ghost", 1.0),), relevance=1.0, diversity=0.0
        )
        tampered = replace(report, results=(ghost,) + report.results[1:])
        with pytest.raises(ValueError, match="result item 'ghost' is not in the dataset"):
            render_svg(tampered, dataset, graph, query)


class TestEmitPlot:
    def test_writes_svg_with_unix_newlines(self, tmp_path):
        bundle = run_experiment_bundle(_CONFIG)
        path = emit_bundle_plot(bundle, tmp_path / "scene.svg")
        data = path.read_bytes()
        assert data == render_svg(bundle.report, bundle.dataset, bundle.graph, bundle.query).encode("utf-8")
        assert b"\r" not in data

    def test_hybrid_plot_bytes_are_unchanged(self, tmp_path):
        """A beta=0.5 run tags its graph result ``hybrid``, which draws the
        square marker; its ``--plot`` SVG's SHA-256 is pinned."""
        svg = tmp_path / "scene.svg"
        argv = ["experiment", *_CLI_SMALL, "--beta", "0.5", "--out", str(tmp_path / "report.csv"), "--plot", str(svg)]
        assert main(argv) == 0
        data = svg.read_bytes()
        assert data.count(b'class="mark-hybrid"') == 3
        assert hashlib.sha256(data).hexdigest() == _HYBRID_PLOT_DIGEST
