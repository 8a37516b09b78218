"""End-to-end benchmark pipeline, sweeps, and report serialisation."""

import gc
import json
from dataclasses import asdict

import numpy as np
import pytest

from semrank.candidates import top_n_candidates
from semrank.compression import CompressionConfig, greedy_select
from semrank.datagen import SyntheticDatasetSpec, composite_query, generate_clusters
from semrank.experiments import (
    SYMBOLIC_MODES,
    ExperimentConfig,
    ExperimentReport,
    SweepPoint,
    build_experiment_graph,
    compress,
    report_to_csv,
    report_to_dict,
    report_to_json,
    run_experiment,
    run_experiment_bundle,
    sweep_lambda,
    sweep_to_csv,
    sweep_to_json,
)
from semrank.graph import ConvergenceError, PprConfig
from semrank.hybrid import RetrievalResult

# Small but structurally complete configuration to keep runs quick.
_SMALL = ExperimentConfig(
    dataset=SyntheticDatasetSpec(num_points=40, num_clusters=4, rng_seed=3),
    pool_size=15,
    k=5,
    graph_k=3,
    seed_size=3,
)


def _hand_report():
    results = (
        RetrievalResult(
            method="topk_ann",
            items=(("p01", 0.75), ("p02", 0.5)),
            relevance=0.98765,
            diversity=0.01234,
        ),
        RetrievalResult(
            method="semantic_compression",
            items=(("p03", 1.25),),
            relevance=0.5,
            diversity=0.0,
        ),
    )
    return ExperimentReport(results=results, config=_SMALL, runtimes_ms={"pool": 1.5})


class TestExperimentConfig:
    def test_symbolic_modes(self):
        assert SYMBOLIC_MODES == ("none", "sparse", "dense")
        with pytest.raises(ValueError, match="symbolic_mode must be one of"):
            ExperimentConfig(symbolic_mode="ultra")

    def test_bounds(self):
        with pytest.raises(ValueError, match=r"pool_size must lie in \[1, num_points\]"):
            ExperimentConfig(pool_size=500)
        with pytest.raises(ValueError, match=r"k must lie in \[1, pool_size\]"):
            ExperimentConfig(pool_size=10, k=11)
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\]"):
            ExperimentConfig(beta=1.5)
        with pytest.raises(ValueError, match="seed_size must be >= 1"):
            ExperimentConfig(seed_size=0)

    def test_defaults_mirror_the_benchmark_setup(self):
        config = ExperimentConfig()
        assert config.pool_size == 50
        assert config.k == 10
        assert config.lam == 0.25
        assert config.graph_k == 5
        assert config.symbolic_mode == "sparse"
        assert config.symbolic_threshold == 0.85
        assert config.symbolic_m == 2
        assert config.beta == 1.0
        assert config.seed_size == 5


class TestBuildExperimentGraph:
    def _dataset(self):
        return generate_clusters(_SMALL.dataset)

    def test_none_mode_has_only_knn_edges(self):
        from dataclasses import replace

        graph = build_experiment_graph(replace(_SMALL, symbolic_mode="none"), self._dataset())
        assert {e.kind for e in graph.edges} == {"knn"}
        assert graph.cluster_heads is None
        assert len(graph.nodes) == 40

    def test_sparse_mode_adds_head_links(self):
        graph = build_experiment_graph(_SMALL, self._dataset())
        symbolic = [e for e in graph.edges if e.kind == "symbolic"]
        assert symbolic
        assert graph.cluster_heads is not None
        heads = set(graph.cluster_heads)
        assert all(e.source in heads and e.target in heads for e in symbolic)

    def test_dense_mode_links_cross_cluster_only(self):
        from dataclasses import replace

        dataset = self._dataset()
        graph = build_experiment_graph(
            replace(_SMALL, symbolic_mode="dense", symbolic_threshold=0.5), dataset
        )
        symbolic = [e for e in graph.edges if e.kind == "symbolic"]
        assert symbolic
        label_of = dict(zip(dataset.points.ids, dataset.labels.tolist()))
        for edge in symbolic:
            assert label_of[edge.source] != label_of[edge.target]


class TestRunExperiment:
    def test_three_methods_in_order(self):
        report = run_experiment(_SMALL)
        assert [r.method for r in report.results] == [
            "topk_ann",
            "semantic_compression",
            "graph_ppr",
        ]
        for entry in report.results:
            assert len(entry.items) == _SMALL.k

    def test_runtimes_cover_every_stage(self):
        report = run_experiment(_SMALL)
        expected = {
            "generate",
            "query",
            "pool",
            "topk_ann",
            "semantic_compression",
            "graph_build",
            "graph_rank",
        }
        assert expected <= set(report.runtimes_ms)
        assert all(value >= 0.0 for value in report.runtimes_ms.values())

    def test_deterministic_results(self):
        first = run_experiment(_SMALL)
        second = run_experiment(_SMALL)
        for a, b in zip(first.results, second.results):
            assert a.items == b.items
            assert a.relevance == b.relevance
            assert a.diversity == b.diversity

    def test_topk_result_matches_pool_prefix(self):
        bundle = run_experiment_bundle(_SMALL)
        dataset = generate_clusters(_SMALL.dataset)
        query = composite_query(dataset, _SMALL.dataset.rng_seed)
        pool = top_n_candidates(query, dataset.points, _SMALL.pool_size)
        assert bundle.report.result("topk_ann").item_ids == pool.ids[: _SMALL.k]

    def test_compression_result_matches_direct_greedy(self):
        bundle = run_experiment_bundle(_SMALL)
        trace = greedy_select(bundle.pool, CompressionConfig(k=_SMALL.k, lam=_SMALL.lam))
        entry = bundle.report.result("semantic_compression")
        assert entry.item_ids == trace.chosen
        np.testing.assert_allclose(
            [score for _, score in entry.items], trace.marginal_gains, rtol=0, atol=0
        )

    def test_graph_result_items_come_from_graph(self):
        bundle = run_experiment_bundle(_SMALL)
        entry = bundle.report.result("graph_ppr")
        assert set(entry.item_ids) <= set(bundle.graph.node_ids)

    def test_beta_below_one_changes_the_tag(self):
        from dataclasses import replace

        report = run_experiment(replace(_SMALL, beta=0.5))
        assert [r.method for r in report.results] == [
            "topk_ann",
            "semantic_compression",
            "hybrid",
        ]

    def test_unknown_method_lookup_rejected(self):
        report = run_experiment(_SMALL)
        with pytest.raises(ValueError, match="no result for method 'hybrid'"):
            report.result("hybrid")

    def test_stage_failures_carry_the_stage_name(self):
        from dataclasses import replace

        broken = replace(_SMALL, graph_k=40)  # needs 41 nodes, only 40 exist
        with pytest.raises(ValueError, match="experiment stage 'graph_build' failed: k=40 needs"):
            run_experiment(broken)

    def test_stage_failures_keep_the_convergence_error(self):
        from dataclasses import replace

        starved = replace(_SMALL, ppr=PprConfig(max_iterations=1))
        expected = "experiment stage 'graph_rank' failed: no convergence"
        with pytest.raises(ConvergenceError, match=expected) as caught:
            run_experiment(starved)
        assert caught.value.iterations == 1


class TestSweepLambda:
    def test_one_point_per_weight(self):
        points = sweep_lambda(_SMALL, (0.0, 0.5, 2.0), runs=2)
        assert [point.lam for point in points] == [0.0, 0.5, 2.0]

    def test_deterministic(self):
        first = sweep_lambda(_SMALL, (0.0, 1.0), runs=2)
        second = sweep_lambda(_SMALL, (0.0, 1.0), runs=2)
        assert first == second

    def test_zero_weight_point_averages_topk_metrics(self):
        """At zero diversity weight greedy selection is plain top-k, so the
        sweep point equals the mean of per-seed top-k metrics."""
        from dataclasses import replace

        runs = 3
        point = sweep_lambda(_SMALL, (0.0,), runs=runs)[0]
        relevances, diversities = [], []
        for offset in range(runs):
            spec = replace(_SMALL.dataset, rng_seed=_SMALL.dataset.rng_seed + offset)
            report = run_experiment(replace(_SMALL, dataset=spec))
            entry = report.result("topk_ann")
            relevances.append(entry.relevance)
            diversities.append(entry.diversity)
        np.testing.assert_allclose(point.relevance, np.mean(relevances), rtol=0, atol=1e-12)
        np.testing.assert_allclose(point.diversity, np.mean(diversities), rtol=0, atol=1e-12)

    def test_repeated_weights_give_equal_rows(self):
        """Each position is its own row: a repeated weight (and 0.0 beside
        -0.0, an equal key) must not pool its runs into one total."""
        points = sweep_lambda(_SMALL, (0.25, 0.25, 1.0, 0.0, -0.0), runs=2)
        single = sweep_lambda(_SMALL, (0.25,), runs=2)[0]
        zero = sweep_lambda(_SMALL, (0.0,), runs=2)[0]
        assert [point.lam for point in points] == [0.25, 0.25, 1.0, 0.0, -0.0]
        assert points[0] == points[1] == single
        assert (points[3].relevance, points[3].diversity) == (zero.relevance, zero.diversity)
        assert (points[4].relevance, points[4].diversity) == (zero.relevance, zero.diversity)
        assert all(point.relevance <= 1.0 for point in points)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 3.0])
    def test_single_run_point_is_the_compress_stage(self, lam):
        dataset = generate_clusters(_SMALL.dataset)
        query = composite_query(dataset, _SMALL.dataset.rng_seed)
        result = compress(dataset, top_n_candidates(query, dataset.points, _SMALL.pool_size), _SMALL.k, lam)
        (point,) = sweep_lambda(_SMALL, (lam,), 1)
        assert (point.relevance, point.diversity) == (result.relevance, result.diversity)

    def test_bounds(self):
        with pytest.raises(ValueError, match="at least one diversity weight"):
            sweep_lambda(_SMALL, (), runs=1)
        with pytest.raises(ValueError, match="runs must be >= 1"):
            sweep_lambda(_SMALL, (0.5,), runs=0)


class TestNoCyclicGarbage:
    def test_pipeline_runs_leave_no_cycles(self):
        """Every object a run drops is freed by reference counting: a
        cycle (say, a corpus that keeps a mapping holding itself) would
        wait for the cyclic collector and raise the peak memory of a
        long sweep."""
        config = ExperimentConfig(dataset=SyntheticDatasetSpec(num_points=300))
        gc.collect()
        gc.disable()
        try:
            run_experiment(config)
            sweep_lambda(config, (0.0, 0.25, 1.0), runs=2)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSerialisation:
    @staticmethod
    def _assert_payload_describes(payload, report):
        assert payload["config"] == asdict(report.config)
        assert len(payload["results"]) == len(report.results)
        for entry, result in zip(payload["results"], report.results):
            assert entry["method"] == result.method
            assert [tuple(item) for item in entry["items"]] == list(result.items)
            assert entry["relevance"] == result.relevance
            assert entry["diversity"] == result.diversity

    def test_dict_payload_is_lossless(self):
        report = run_experiment(_SMALL)
        self._assert_payload_describes(report_to_dict(report), report)

    def test_json_payload_survives_the_text(self):
        report = run_experiment(_SMALL)
        text = report_to_json(report)
        assert text.endswith("\n")
        self._assert_payload_describes(json.loads(text), report)

    def test_csv_layout_is_fixed_precision(self):
        text = report_to_csv(_hand_report())
        assert text == (
            "method,relevance,diversity,items\n"
            "topk_ann,0.9877,0.0123,p01;p02\n"
            "semantic_compression,0.5000,0.0000,p03\n"
        )

    def test_sweep_csv_layout(self):
        points = [SweepPoint(lam=0.0, relevance=0.98765, diversity=0.5)]
        assert sweep_to_csv(points) == "lambda,relevance,diversity\n0.0,0.9877,0.5000\n"

    def test_sweep_json_layout(self):
        points = [SweepPoint(lam=0.25, relevance=0.9, diversity=0.1)]
        payload = json.loads(sweep_to_json(points))
        assert payload == [{"lambda": 0.25, "relevance": 0.9, "diversity": 0.1}]

    def test_csv_is_byte_stable_across_runs(self):
        first = report_to_csv(run_experiment(_SMALL)).encode("utf-8")
        assert report_to_csv(run_experiment(_SMALL)).encode("utf-8") == first
