"""First-stage pool construction: exact top-N scan and pool invariants."""

import tracemalloc

import numpy as np
import pytest

from semrank.candidates import CandidatePool, top_n_candidates
from semrank.datagen import SyntheticDatasetSpec, generate_clusters
from semrank.fileio import load_dataset, save_dataset
from semrank.geometry import (
    EmbeddingVector,
    Embeddings,
    cosine_similarity,
    query_similarities,
    similarity_matrix,
)


def _corpus(count=30, dim=5, seed=42):
    rng = np.random.default_rng(seed)
    return [EmbeddingVector(f"v{i:02d}", rng.normal(size=dim)) for i in range(count)]


class TestTopNCandidates:
    def test_hand_built_ordering_with_tie(self):
        """Colinear vectors tie on cosine, and ties resolve by ascending id."""
        query = EmbeddingVector("q", [1.0, 0.0])
        corpus = [
            EmbeddingVector("c", [0.0, 1.0]),     # sim 0
            EmbeddingVector("e", [2.0, 0.0]),     # sim 1 (tied with a)
            EmbeddingVector("a", [1.0, 0.0]),     # sim 1
            EmbeddingVector("d", [-1.0, 0.0]),    # sim -1
            EmbeddingVector("b", [1.0, 1.0]),     # sim 1/sqrt(2)
        ]
        pool = top_n_candidates(query, corpus, 3)
        assert pool.ids == ("a", "e", "b")
        np.testing.assert_allclose(pool.query_sims, [1.0, 1.0, 1.0 / np.sqrt(2.0)], rtol=0, atol=1e-15)

    def test_matches_exhaustive_sort_oracle(self):
        """The pool equals a from-scratch sort of every corpus similarity."""
        corpus = _corpus()
        query = EmbeddingVector("q", np.random.default_rng(7).normal(size=5))
        ranked = sorted(
            corpus, key=lambda v: (-cosine_similarity(query, v), v.id)
        )
        for n in (1, 7, len(corpus)):
            pool = top_n_candidates(query, corpus, n)
            assert pool.ids == tuple(v.id for v in ranked[:n])

    def test_pool_carries_consistent_artifacts(self):
        corpus = _corpus(count=12)
        query = EmbeddingVector("q", np.random.default_rng(3).normal(size=5))
        pool = top_n_candidates(query, corpus, 6)
        assert len(pool) == 6
        assert pool.query == query
        assert pool.pairwise.order == pool.ids
        for i, item_id in enumerate(pool.ids):
            np.testing.assert_allclose(
                pool.query_sims[i],
                cosine_similarity(query, pool.vector(item_id)),
                rtol=0,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                pool.query_similarity(item_id), pool.query_sims[i], rtol=0, atol=0
            )

    def test_full_corpus_pool(self):
        corpus = _corpus(count=5)
        query = EmbeddingVector("q", np.random.default_rng(0).normal(size=5))
        pool = top_n_candidates(query, corpus, 5)
        assert sorted(pool.ids) == sorted(v.id for v in corpus)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="non-empty corpus"):
            top_n_candidates(EmbeddingVector("q", [1.0]), [], 1)

    def test_pool_size_bounds(self):
        corpus = _corpus(count=4)
        query = EmbeddingVector("q", np.random.default_rng(1).normal(size=5))
        with pytest.raises(ValueError, match="pool size must be >= 1"):
            top_n_candidates(query, corpus, 0)
        with pytest.raises(ValueError, match="pool size 5 exceeds corpus size 4"):
            top_n_candidates(query, corpus, 5)

    def test_duplicate_corpus_ids_rejected(self):
        corpus = [EmbeddingVector("dup", [1.0, 0.0]), EmbeddingVector("dup", [0.0, 1.0])]
        with pytest.raises(ValueError, match="duplicate item id 'dup'"):
            top_n_candidates(EmbeddingVector("q", [1.0, 0.0]), corpus, 1)


class TestCandidatePoolValidation:
    def _parts(self):
        query = EmbeddingVector("q", [1.0, 0.0])
        a = EmbeddingVector("a", [1.0, 0.0])
        b = EmbeddingVector("b", [1.0, 1.0])
        return query, (a, b), np.array([1.0, 1.0 / np.sqrt(2.0)]), similarity_matrix([a, b])

    def test_valid_pool_constructs(self):
        query, candidates, sims, pairwise = self._parts()
        pool = CandidatePool(query=query, candidates=candidates, query_sims=sims, pairwise=pairwise)
        assert pool.ids == ("a", "b")

    def test_unsorted_pool_rejected(self):
        query, candidates, sims, pairwise = self._parts()
        backwards = (candidates[1], candidates[0])
        with pytest.raises(ValueError, match="sorted by descending query similarity"):
            CandidatePool(
                query=query,
                candidates=backwards,
                query_sims=sims[::-1],
                pairwise=similarity_matrix(list(backwards)),
            )

    def test_size_mismatch_rejected(self):
        query, candidates, sims, pairwise = self._parts()
        with pytest.raises(ValueError, match="disagree in size"):
            CandidatePool(query=query, candidates=candidates, query_sims=sims[:1], pairwise=pairwise)

    def test_order_mismatch_rejected(self):
        query, candidates, sims, _ = self._parts()
        other = similarity_matrix([candidates[1], candidates[0]])
        with pytest.raises(ValueError, match="does not match pairwise matrix order"):
            CandidatePool(query=query, candidates=candidates, query_sims=sims, pairwise=other)

    def test_unknown_item_lookup_rejected(self):
        query, candidates, sims, pairwise = self._parts()
        pool = CandidatePool(query=query, candidates=candidates, query_sims=sims, pairwise=pairwise)
        with pytest.raises(ValueError, match="unknown pool item 'zzz'"):
            pool.vector("zzz")

    def test_query_sims_are_read_only(self):
        query, candidates, sims, pairwise = self._parts()
        pool = CandidatePool(query=query, candidates=candidates, query_sims=sims, pairwise=pairwise)
        with pytest.raises(ValueError):
            pool.query_sims[0] = 0.0


def _message(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


def _both(vectors):
    """The same vectors as a plain tuple and as a stacked corpus."""
    return tuple(vectors), Embeddings(vectors)


class TestStackedCorpus:
    def test_generated_and_loaded_points_are_stacked_corpora(self, tmp_path):
        dataset = generate_clusters(SyntheticDatasetSpec(num_points=20, dim=3, rng_seed=1))
        loaded = load_dataset(save_dataset(dataset, tmp_path / "data.tsv"))
        for points in (dataset.points, loaded.points):
            assert isinstance(points, Embeddings)
            assert points == tuple(points)
            assert points.matrix is points.matrix
            assert not points.matrix.flags.writeable
            assert not points.norms.flags.writeable
            for point in points:
                # Each vector is a read-only view of its row of the matrix.
                assert np.shares_memory(point.values, points.matrix)
                assert not point.values.flags.writeable
        np.testing.assert_array_equal(loaded.points.matrix, np.stack([p.values for p in dataset.points]))

    @pytest.mark.parametrize("seed", range(5))
    def test_scores_and_pools_match_a_plain_tuple(self, seed):
        rng = np.random.default_rng(seed)
        plain, stacked = _both(_corpus(count=200, dim=6, seed=seed))
        query = EmbeddingVector("q", rng.normal(size=6))
        rows = np.stack([v.values for v in plain])
        expected = np.clip(rows @ query.values / (query.norm() * np.linalg.norm(rows, axis=1)), -1.0, 1.0)
        for corpus in (plain, stacked, stacked):
            assert query_similarities(query, corpus).tobytes() == expected.tobytes()
        for n in (1, 17, 200):
            a, b = top_n_candidates(query, plain, n), top_n_candidates(query, stacked, n)
            assert a.ids == b.ids
            assert a.query_sims.tobytes() == b.query_sims.tobytes()

    def test_pool_rows_are_gathered_from_the_corpus_matrix(self):
        points = generate_clusters(SyntheticDatasetSpec(num_points=300, dim=4, rng_seed=2)).points
        query = EmbeddingVector("q", np.ones(4))
        pool = top_n_candidates(query, points, 40)
        assert isinstance(pool.candidates, Embeddings)
        assert "matrix" in vars(pool.candidates)
        stacked = np.stack([v.values for v in pool.candidates])
        assert pool.candidates.matrix.tobytes() == stacked.tobytes()
        plain = similarity_matrix(tuple(pool.candidates))
        assert pool.pairwise.entries.tobytes() == plain.entries.tobytes()

    def test_first_duplicate_id(self):
        a, b = EmbeddingVector("a", [1.0]), EmbeddingVector("b", [1.0])
        assert Embeddings([a, b]).first_duplicate is None
        assert Embeddings([a, b, b, a]).first_duplicate == "b"
        assert Embeddings([]).first_duplicate is None

    def test_errors_match_a_plain_tuple(self):
        q = EmbeddingVector("q", [1.0, 0.0])
        zero_q = EmbeddingVector("q0", [0.0, 0.0])
        ok = EmbeddingVector("ok", [0.0, 1.0])
        nil = EmbeddingVector("nil", [0.0, 0.0])
        nil2 = EmbeddingVector("nil2", [0.0, 0.0])
        wide = EmbeddingVector("wide", [1.0, 0.0, 0.0])
        wide2 = EmbeddingVector("wide2", [0.0, 1.0, 0.0])
        cases = [
            # (query, corpus, expected message); earlier checks win.
            (q, [ok, wide, nil], "dimension mismatch: 'q' has d=2, 'wide' has d=3"),
            (q, [wide, wide2], "dimension mismatch: 'q' has d=2, 'wide' has d=3"),
            (q, [nil, ok, wide], "dimension mismatch: 'q' has d=2, 'wide' has d=3"),
            (zero_q, [ok, nil], "cosine similarity undefined for zero-norm vector 'q0'"),
            (q, [ok, nil, nil2], "cosine similarity undefined for zero-norm vector 'nil'"),
        ]
        for query, vectors, message in cases:
            for corpus in _both(vectors):
                assert _message(lambda: query_similarities(query, corpus)) == message
                assert _message(lambda: top_n_candidates(query, corpus, 1)) == message
        for corpus in _both([ok, nil, ok, wide]):
            assert _message(lambda: top_n_candidates(q, corpus, 1)) == "duplicate item id 'ok'"
            assert _message(lambda: top_n_candidates(q, corpus, 5)) == "pool size 5 exceeds corpus size 4"

    def test_mixed_dimensions_are_not_stacked(self):
        corpus = Embeddings([EmbeddingVector("a", [1.0]), EmbeddingVector("b", [1.0, 0.0])])
        with pytest.raises(ValueError):
            corpus.matrix

    def test_repeat_scan_of_a_loaded_corpus_does_not_restack(self, tmp_path):
        spec = SyntheticDatasetSpec(num_points=2000, dim=32, rng_seed=0)
        points = load_dataset(save_dataset(generate_clusters(spec), tmp_path / "data.tsv")).points
        query = EmbeddingVector("q", np.ones(32))
        first = query_similarities(query, points)
        tracemalloc.start()
        try:
            second = query_similarities(query, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert second.tobytes() == first.tobytes()
        # Restacking would allocate one N x d float64 array.
        assert peak < 2000 * 32 * 8
