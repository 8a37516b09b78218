"""Top-level acceptance checks, one per advertised behaviour.

Each test prints a single ``[criterion N] PASS/FAIL`` line (outside pytest's
capture, so the verdicts are visible in any run) before asserting, so a red
test still reports how far off the measurement was.
"""

import itertools
import math
import statistics
import time
from dataclasses import replace

import numpy as np

from semrank.candidates import top_n_candidates
from semrank.cli import main
from semrank.compression import (
    CompressionConfig,
    coverage_term,
    facility_location_greedy,
    greedy_select,
    select_topk,
)
from semrank.experiments import ExperimentConfig, run_experiment, sweep_lambda
from semrank.geometry import EmbeddingVector
from semrank.graph import (
    NormalizedAdjacency,
    PprConfig,
    SeedVector,
    SemanticGraph,
    normalize_adjacency,
    personalized_pagerank,
)
from semrank.hybrid import diversity_metric, relevance_metric


def _verdict(capsys, number: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[criterion {number}] {status} - {detail}")


def _random_pool(seed: int, size: int, dim: int = 8):
    rng = np.random.default_rng(seed)
    corpus = [EmbeddingVector(f"x{i:03d}", rng.normal(size=dim)) for i in range(size)]
    query = EmbeddingVector("query", rng.normal(size=dim))
    return top_n_candidates(query, corpus, size)


def _seeded_config(base: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(base, dataset=replace(base.dataset, rng_seed=seed))


class TestAcceptance:
    def test_criterion_1_zero_weight_equals_topk(self, capsys):
        """Greedy selection with zero diversity weight returns the exact
        top-k set on 100 random pools, in under a second total."""
        matches = 0
        start = time.perf_counter()
        for seed in range(100):
            pool = _random_pool(seed, size=50)
            chosen = greedy_select(pool, CompressionConfig(k=10, lam=0.0)).chosen
            matches += set(chosen) == set(select_topk(pool, 10))
        elapsed = time.perf_counter() - start
        ok = matches == 100 and elapsed < 1.0
        _verdict(
            capsys, 1, ok,
            f"{matches}/100 exact set matches in {elapsed * 1e3:.0f} ms (budget 1000 ms)",
        )
        assert ok

    def test_criterion_2_greedy_approximation_bound(self, capsys):
        """Coverage-only greedy reaches at least (1 - 1/e) of the brute-force
        optimum on 50 small instances."""
        bound = 1.0 - 1.0 / math.e
        holds = 0
        worst_ratio = float("inf")
        start = time.perf_counter()
        for instance in range(50):
            rng = np.random.default_rng(1000 + instance)
            n = int(rng.integers(6, 13))
            k = int(rng.integers(1, 4))
            pool = _random_pool(2000 + instance, size=n, dim=4)
            greedy_value = facility_location_greedy(pool, k).objective_value
            optimum = max(
                coverage_term(pool, combo)
                for combo in itertools.combinations(pool.ids, k)
            )
            holds += greedy_value >= bound * optimum - 1e-9
            worst_ratio = min(worst_ratio, greedy_value / optimum)
        elapsed = time.perf_counter() - start
        ok = holds == 50 and elapsed < 5.0
        _verdict(
            capsys, 2, ok,
            f"{holds}/50 instances above the bound, worst greedy/optimum ratio "
            f"{worst_ratio:.4f} (bound {bound:.4f}), {elapsed:.2f} s (budget 5 s)",
        )
        assert ok

    def test_criterion_3_ppr_matches_dense_solve(self, capsys):
        """Power iteration agrees with the dense linear solve on 50 random
        graphs without dangling nodes, and satisfies the fixed point."""
        rng = np.random.default_rng(99)
        agree = 0
        max_entry_gap = 0.0
        max_residual = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 9))
            nodes = tuple(
                EmbeddingVector(f"n{i}", rng.normal(size=3)) for i in range(n)
            )
            edges = []
            for i in range(n):
                out_degree = int(rng.integers(1, n))
                targets = rng.choice(
                    [j for j in range(n) if j != i], size=out_degree, replace=False
                )
                edges.extend(
                    (f"n{i}", f"n{j}", float(rng.uniform(0.1, 2.0)), "knn")
                    for j in targets
                )
            adjacency = normalize_adjacency(SemanticGraph.from_named(nodes=nodes, edges=tuple(edges)))
            alpha = float(rng.uniform(0.1, 0.9))
            seed = SeedVector.uniform(adjacency.order, [f"n{int(rng.integers(0, n))}"])
            config = PprConfig(alpha=alpha, tolerance=1e-12)
            scores = dict(personalized_pagerank(adjacency, seed, config))
            r = np.array([scores[node_id] for node_id in adjacency.order])

            matrix = adjacency.matrix
            solved = np.linalg.solve(
                np.eye(n) - (1.0 - alpha) * matrix.T, alpha * seed.weights
            )
            entry_gap = float(np.max(np.abs(r - solved)))
            residual = float(
                np.sum(np.abs(r - (alpha * seed.weights + (1.0 - alpha) * matrix.T @ r)))
            )
            max_entry_gap = max(max_entry_gap, entry_gap)
            max_residual = max(max_residual, residual)
            agree += entry_gap <= 1e-8 and residual < 1e-10
        ok = agree == 50
        _verdict(
            capsys, 3, ok,
            f"{agree}/50 graphs, max entry gap {max_entry_gap:.2e} (tol 1e-08), "
            f"max L1 residual {max_residual:.2e} (tol 1e-10)",
        )
        assert ok

    def test_criterion_4_sparse_regime_orderings(self, capsys):
        """Sparse symbolic regime over 20 seeds: graph ranking should beat
        both baselines on relevance while top-k keeps the diversity edge."""
        base = ExperimentConfig()
        ppr_rel_gt_ann = ppr_rel_gt_comp = ann_div_gt_ppr = 0
        for seed in range(20):
            report = run_experiment(_seeded_config(base, seed))
            ann = report.result("topk_ann")
            comp = report.result("semantic_compression")
            ppr = report.result("graph_ppr")
            ppr_rel_gt_ann += ppr.relevance > ann.relevance
            ppr_rel_gt_comp += ppr.relevance > comp.relevance
            ann_div_gt_ppr += ann.diversity > ppr.diversity
        ok = min(ppr_rel_gt_ann, ppr_rel_gt_comp, ann_div_gt_ppr) >= 18
        _verdict(
            capsys, 4, ok,
            f"ppr_rel>ann_rel {ppr_rel_gt_ann}/20, ppr_rel>comp_rel "
            f"{ppr_rel_gt_comp}/20, ann_div>ppr_div {ann_div_gt_ppr}/20 (need >= 18 each); "
            "ann relevance is the pool's top-k mean, so no reranking of the same pool "
            "can exceed it under this metric",
        )
        assert ok

    def test_criterion_5_dense_regime_orderings(self, capsys):
        """Dense symbolic regime over 20 seeds: graph ranking should beat
        both baselines on diversity at a small relevance cost."""
        base = ExperimentConfig(symbolic_mode="dense")
        ppr_div_gt_ann = ppr_div_gt_comp = 0
        gaps = []
        for seed in range(20):
            report = run_experiment(_seeded_config(base, seed))
            ann = report.result("topk_ann")
            comp = report.result("semantic_compression")
            ppr = report.result("graph_ppr")
            ppr_div_gt_ann += ppr.diversity > ann.diversity
            ppr_div_gt_comp += ppr.diversity > comp.diversity
            gaps.append(ann.relevance - ppr.relevance)
        mean_gap = sum(gaps) / len(gaps)
        ok = min(ppr_div_gt_ann, ppr_div_gt_comp) >= 18 and abs(mean_gap) <= 0.15
        _verdict(
            capsys, 5, ok,
            f"ppr_div>ann_div {ppr_div_gt_ann}/20, ppr_div>comp_div "
            f"{ppr_div_gt_comp}/20 (need >= 18 each), mean relevance gap "
            f"{mean_gap:.4f} (budget 0.15)",
        )
        assert ok

    def test_criterion_6_diversity_weight_tradeoff(self, capsys):
        """Averaged over 20 seeds, diversity is non-decreasing in the weight
        (one adjacent inversion up to 0.01 allowed) and relevance loses less
        than 0.3 end to end."""
        lambdas = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
        points = sweep_lambda(ExperimentConfig(), lambdas, runs=20)
        diversities = [point.diversity for point in points]
        inversions = [
            max(0.0, diversities[i] - diversities[i + 1])
            for i in range(len(diversities) - 1)
        ]
        bad = [gap for gap in inversions if gap > 0.0]
        monotone_ok = len(bad) == 0 or (len(bad) == 1 and bad[0] <= 0.01)
        drop = points[0].relevance - points[-1].relevance
        ok = monotone_ok and drop < 0.3
        _verdict(
            capsys, 6, ok,
            f"diversity {['%.4f' % d for d in diversities]}, "
            f"{len(bad)} inversion(s), relevance drop {drop:.4f} (budget 0.3)",
        )
        assert ok

    def test_criterion_7_selection_latency(self, capsys):
        """Median greedy selection time at pool 100, k 10 stays under 10 ms."""
        pool = _random_pool(7, size=100)
        config = CompressionConfig(k=10, lam=0.25)
        times = []
        for _ in range(100):
            start = time.perf_counter()
            greedy_select(pool, config)
            times.append(time.perf_counter() - start)
        median_ms = statistics.median(times) * 1e3
        ok = median_ms < 10.0
        _verdict(
            capsys, 7, ok,
            f"median {median_ms:.2f} ms over 100 runs (budget 10 ms)",
        )
        assert ok

    def test_criterion_8_experiment_determinism(self, capsys, tmp_path):
        """Two experiment CLI runs with identical flags emit byte-identical
        CSV and SVG files."""
        outputs = []
        for name in ("first", "second"):
            csv_path = tmp_path / f"{name}.csv"
            svg_path = tmp_path / f"{name}.svg"
            code = main(
                ["experiment", "--out", str(csv_path), "--plot", str(svg_path)]
            )
            assert code == 0
            outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
        capsys.readouterr()
        csv_same = outputs[0][0] == outputs[1][0]
        svg_same = outputs[0][1] == outputs[1][1]
        ok = csv_same and svg_same
        _verdict(
            capsys, 8, ok,
            f"csv identical: {csv_same} ({len(outputs[0][0])} bytes), "
            f"svg identical: {svg_same} ({len(outputs[0][1])} bytes)",
        )
        assert ok

    def test_criterion_9_metric_definitions(self, capsys):
        """Degenerate metric inputs hit their analytic values exactly."""
        same = {f"i{j}": EmbeddingVector(f"i{j}", [0.6, 0.8]) for j in range(5)}
        identical_div = diversity_metric(tuple(same), same)

        basis = {
            f"e{j}": EmbeddingVector(f"e{j}", np.eye(4)[j]) for j in range(4)
        }
        orthogonal_div = diversity_metric(tuple(basis), basis)

        query = EmbeddingVector("query", [1.0, 2.0, 2.0])
        copies = {f"q{j}": EmbeddingVector(f"q{j}", [1.0, 2.0, 2.0]) for j in range(3)}
        self_rel = relevance_metric(tuple(copies), query, copies)

        ok = (
            abs(identical_div - 0.0) <= 1e-12
            and abs(orthogonal_div - 1.0) <= 1e-12
            and abs(self_rel - 1.0) <= 1e-12
        )
        _verdict(
            capsys, 9, ok,
            f"identical diversity {identical_div:.2e}, orthogonal diversity "
            f"1{orthogonal_div - 1.0:+.2e}, self relevance 1{self_rel - 1.0:+.2e} "
            "(tolerance 1e-12)",
        )
        assert ok
