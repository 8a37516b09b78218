"""Vector primitives: cosine similarity, normalization, similarity matrices."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semrank.datagen import SyntheticDatasetSpec, generate_clusters
from semrank.geometry import (
    _BLOCK,
    MATRIX_TOL,
    EmbeddingVector,
    Embeddings,
    cosine_similarity,
    query_similarities,
    ranked,
    similarity_matrix,
    similarity_rows,
)


def _cosine_reference(a, b):
    """Independent cosine: stdlib fsum/sqrt, no numpy, no clamping."""
    dot = math.fsum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(math.fsum(x * x for x in a))
    norm_b = math.sqrt(math.fsum(y * y for y in b))
    return dot / (norm_a * norm_b)


class TestEmbeddingVector:
    def test_accepts_lists_and_stores_float64(self):
        vector = EmbeddingVector("a", [1, 2, 3])
        assert vector.values.dtype == np.float64
        assert vector.dim == 3
        np.testing.assert_allclose(vector.norm(), math.sqrt(14.0), rtol=0, atol=1e-15)

    def test_values_are_read_only(self):
        vector = EmbeddingVector("a", [1.0, 2.0])
        with pytest.raises(ValueError):
            vector.values[0] = 5.0

    def test_copies_the_input_buffer(self):
        source = np.array([1.0, 2.0])
        vector = EmbeddingVector("a", source)
        source[0] = 99.0
        assert vector.values[0] == 1.0

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            EmbeddingVector("a", np.ones((2, 2)))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            EmbeddingVector("a", [])

    def test_rejects_non_finite_coordinates(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingVector("bad", [1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingVector("bad", [np.inf, 0.0])


def _message(build):
    with pytest.raises(ValueError) as error:
        build()
    return str(error.value)


class TestEmbeddingsFromMatrix:
    def test_vectors_are_read_only_views_of_one_matrix(self):
        source = np.arange(12.0).reshape(4, 3)
        points = Embeddings.from_matrix(["a", "b", "c", "d"], source)
        source[0, 0] = 99.0
        assert len(points) == 4 and not isinstance(points, tuple)
        assert [p.id for p in points] == ["a", "b", "c", "d"]
        assert points.matrix.tobytes() == np.arange(12.0).tobytes()
        assert not points.matrix.flags.writeable
        for i, point in enumerate(points):
            assert isinstance(point, EmbeddingVector)
            assert np.shares_memory(point.values, points.matrix)
            assert point.values.tobytes() == points.matrix[i].tobytes()
            assert point.dim == 3
            with pytest.raises(ValueError):
                point.values[0] = 5.0

    def test_integer_input_is_stored_as_float64(self):
        points = Embeddings.from_matrix(["a"], [[1, 2]])
        assert points.matrix.dtype == np.float64
        assert points[0].values.dtype == np.float64

    def test_non_finite_rows_name_the_first_bad_id(self):
        for bad in (np.nan, np.inf, -np.inf):
            matrix = np.ones((4, 2))
            matrix[2, 1] = bad
            matrix[3, 0] = np.nan
            message = _message(lambda: Embeddings.from_matrix(["a", "b", "c", "d"], matrix))
            assert message == "vector 'c' has non-finite coordinates"
            assert message == _message(lambda: EmbeddingVector("c", matrix[2]))

    def test_a_norm_that_overflows_names_the_first_bad_id(self):
        """Finite coordinates whose squares overflow are rejected when the
        vector is built, without a RuntimeWarning (an error here)."""
        matrix = np.ones((3, 2))
        matrix[1] = 1e200
        matrix[2] = [1e300, 0.0]
        message = _message(lambda: Embeddings.from_matrix(["a", "big", "c"], matrix))
        assert message == "vector 'big' has a non-finite norm"
        assert message == _message(lambda: EmbeddingVector("big", matrix[1]))
        with pytest.raises(ValueError, match="^vector 'big' has a non-finite norm$"):
            similarity_matrix([EmbeddingVector("big", [1e200, 1e200]), EmbeddingVector("b", [1.0, 1.0])])

    def test_norms_whose_squares_stay_finite_are_kept(self):
        points = Embeddings.from_matrix(["a", "b"], [[1e153, 1e153], [1e154, 0.0]])
        assert np.isfinite(points.norms).all()
        assert similarity_matrix(points)[0, 1] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_a_corpus_holds_no_per_vector_memory(self):
        """Beyond its matrix a corpus keeps a few words per vector (its id
        tuple and row norms), not a vector object per row."""
        count = 20_000
        ids = [f"v{i:05d}" for i in range(count)]
        matrix = np.random.default_rng(0).normal(size=(count, 8))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            points = Embeddings.from_matrix(ids, matrix)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= points.matrix.nbytes + 32 * count

    def test_the_norms_of_the_check_are_kept(self, monkeypatch):
        points = Embeddings.from_matrix(["a", "b"], [[3.0, 4.0], [0.0, 2.0]])

        def no_norm(*args, **kwargs):
            raise AssertionError("the row norms were computed again")

        monkeypatch.setattr(np.linalg, "norm", no_norm)
        assert points.norms.tolist() == [5.0, 2.0]
        assert not points.norms.flags.writeable

    def test_rows_must_be_one_dimensional_and_non_empty(self):
        expected = "vector 'a' must be one-dimensional and non-empty"
        assert _message(lambda: Embeddings.from_matrix(["a", "b"], np.ones(2))) == expected
        assert _message(lambda: Embeddings.from_matrix(["a", "b"], np.ones((2, 0)))) == expected
        assert _message(lambda: Embeddings.from_matrix(["a", "b"], np.ones((2, 2, 1)))) == expected
        assert _message(lambda: EmbeddingVector("a", np.ones((2, 0))[0])) == expected
        with pytest.raises(ValueError, match="two dimensions"):
            Embeddings.from_matrix([], np.ones(0))

    def test_ids_must_match_the_rows(self):
        with pytest.raises(ValueError, match=r"2 ids do not match a matrix of shape \(3, 2\)"):
            Embeddings.from_matrix(["a", "b"], np.ones((3, 2)))
        with pytest.raises(ValueError, match="1 ids do not match"):
            Embeddings.from_matrix(["a"], np.float64(1.0))

    def test_an_empty_corpus_keeps_its_width(self):
        points = Embeddings.from_matrix([], np.empty((0, 3)))
        assert len(points) == 0
        assert points.matrix.shape == (0, 3)

    def test_take_gathers_the_rows_once(self):
        rng = np.random.default_rng(3)
        points = Embeddings.from_matrix([f"v{i}" for i in range(10)], rng.normal(size=(10, 4)))
        order = [7, 2, 9, 0]
        taken = points.take(order)
        assert taken.ids == tuple(points.ids[i] for i in order)
        assert not any(np.shares_memory(vector.values, points.matrix) for vector in taken)
        assert "matrix" in vars(taken)
        assert taken.matrix.tobytes() == np.stack([points[i].values for i in order]).tobytes()
        assert not taken.matrix.flags.writeable


class TestOneCorpusForm:
    """A corpus built from vectors is the corpus :meth:`Embeddings.from_matrix`
    builds from the same rows, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 32])
    @pytest.mark.parametrize("count", [1, 7, _BLOCK + 1])
    def test_vectors_and_rows_build_the_same_corpus(self, dim, count):
        rng = np.random.default_rng(1000 * dim + count)
        rows = rng.normal(size=(count, dim))
        ids = [f"v{i:03d}" for i in range(count)]
        from_vectors = Embeddings(EmbeddingVector(item_id, row) for item_id, row in zip(ids, rows))
        from_rows = Embeddings.from_matrix(ids, rows)
        query = EmbeddingVector("q", rng.normal(size=dim))
        for name in ("matrix", "norms", "unit_rows"):
            a, b = getattr(from_vectors, name), getattr(from_rows, name)
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
        assert similarity_matrix(from_vectors).tobytes() == similarity_matrix(from_rows).tobytes()
        assert query_similarities(query, from_vectors).tobytes() == query_similarities(query, from_rows).tobytes()
        for corpus in (from_vectors, from_rows):
            assert corpus.ids == tuple(ids)
            assert corpus.matrix.flags.c_contiguous and not corpus.matrix.flags.writeable
            for vector in corpus:
                assert not vector.values.flags.writeable
                assert np.shares_memory(vector.values, corpus.matrix)

    def test_an_empty_corpus_has_an_empty_matrix(self):
        corpus = Embeddings(())
        assert len(corpus) == 0
        assert corpus.matrix.shape == (0, 0)
        assert not corpus.matrix.flags.writeable


class TestCorpusIndex:
    """The ids, positions, vectors and unit rows the pool, the graph and the
    dataset all read from their corpus."""

    def test_index_is_worked_out_once(self):
        points = Embeddings([EmbeddingVector("b", [3.0, 4.0]), EmbeddingVector("a", [0.0, 1.0])])
        for name in ("ids", "positions", "unit_rows"):
            assert getattr(points, name) is getattr(points, name)
        assert points.by_id is not points.by_id
        assert points.ids == ("b", "a")
        assert points.positions == {"b": 0, "a": 1}
        for item_id, i in (("b", 0), ("a", 1)):
            vector = points.by_id[item_id]
            assert vector.id == item_id and vector.values.tobytes() == points[i].values.tobytes()
        assert list(points.by_id) == ["b", "a"]
        assert points.by_id.get("ghost") is None

    def test_a_repeated_id_maps_to_its_last_row(self):
        points = Embeddings.from_matrix(["b", "a", "b", "c"], np.arange(8.0).reshape(4, 2))
        assert points.by_id["b"].values.tolist() == [4.0, 5.0]
        assert list(points.by_id) == ["b", "a", "c"]
        assert len(points.by_id) == len(set(points.ids)) == 3

    def test_the_corpus_reads_as_a_sequence_of_row_views(self):
        points = Embeddings.from_matrix([f"v{i}" for i in range(4)], np.arange(8.0).reshape(4, 2))
        assert Embeddings(points) is points
        assert points[-1].id == "v3" and points[-1].values.tolist() == [6.0, 7.0]
        with pytest.raises(IndexError):
            points[len(points)]
        middle = points[1:3]
        assert isinstance(middle, Embeddings) and middle.ids == ("v1", "v2")
        assert middle.matrix.tolist() == [[2.0, 3.0], [4.0, 5.0]]
        assert not np.shares_memory(middle.matrix, points.matrix)
        assert points[::-1].ids == ("v3", "v2", "v1", "v0")
        for vector in [*points, *points.by_id.values(), points[0], middle[0]]:
            assert not vector.values.flags.writeable

    def test_vector_membership_is_asked_by_id(self):
        """A vector is a view made on request, with no identity to find, so
        the sequence searches by vector refuse rather than miss."""
        points = Embeddings.from_matrix(["a", "b"], np.eye(2))
        for search in (lambda: points[0] in points, lambda: points.index(points[1]), lambda: points.count(points[0])):
            with pytest.raises(TypeError, match="find a vector by id in positions"):
                search()
        assert "b" in points.positions and "b" in points.by_id

    def test_unit_rows_are_the_scaled_rows_bit_for_bit(self):
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(40, 5)) * rng.uniform(1e-3, 1e3, size=(40, 1))
        matrix[[4, 31]] = 0.0
        points = Embeddings.from_matrix([f"v{i}" for i in range(40)], matrix)
        unit = points.unit_rows
        assert not unit.flags.writeable
        nonzero = points.norms > 0.0
        assert nonzero.sum() == 38
        with np.errstate(invalid="ignore"):
            expected = points.matrix / points.norms[:, None]
        assert unit[nonzero].tobytes() == expected[nonzero].tobytes()
        assert unit[~nonzero].tobytes() == np.zeros((2, 5)).tobytes()

    def test_empty_corpus_has_no_unit_rows(self):
        for points in (Embeddings(()), Embeddings.from_matrix([], np.empty((0, 3)))):
            assert points.unit_rows.shape == (0, 0)
            assert not points.unit_rows.flags.writeable


# Few distinct scores, so that exact ties are common; -0.0 ties with 0.0.
_TIED_SCORES = (-math.inf, -0.0, 0.0, 0.5, 1.0)
# Code-point order puts "B" before "a", "p10" before "p9" and "é" last.
_ODD_IDS = ("p9", "a", "x'y", "B", "é", "p10", "b")


class TestRanked:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_an_exhaustive_sort(self, data):
        ids = data.draw(st.permutations(_ODD_IDS))
        ids = ids[: data.draw(st.integers(0, len(ids)))]
        scores = data.draw(st.lists(st.sampled_from(_TIED_SCORES), min_size=len(ids), max_size=len(ids)))
        corpus = Embeddings(EmbeddingVector(item_id, [1.0]) for item_id in ids)
        expected = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
        assert ranked(np.array(scores, dtype=np.float64), corpus.id_ranks).tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_two_dimensional_scores_rank_row_by_row(self, data):
        """Scores drawn from ``_TIED_SCORES`` (exact ties, -0.0 against
        0.0), ranked as one array against one broadcast id-rank row."""
        ids = data.draw(st.permutations(_ODD_IDS))
        ids = ids[: data.draw(st.integers(1, len(ids)))]
        rows = data.draw(st.integers(1, 5))
        cells = st.lists(st.sampled_from(_TIED_SCORES), min_size=rows * len(ids), max_size=rows * len(ids))
        scores = np.array(data.draw(cells), dtype=np.float64).reshape(rows, len(ids))
        id_ranks = Embeddings(EmbeddingVector(item_id, [1.0]) for item_id in ids).id_ranks
        expected = np.stack([ranked(row, id_ranks) for row in scores])
        assert ranked(scores, np.broadcast_to(id_ranks, scores.shape)).tolist() == expected.tolist()

    def test_equal_scores_follow_code_point_order(self):
        corpus = Embeddings(EmbeddingVector(item_id, [1.0]) for item_id in _ODD_IDS)
        order = ranked(np.zeros(len(corpus)), corpus.id_ranks)
        assert [corpus[i].id for i in order] == ["B", "a", "b", "p10", "p9", "x'y", "é"]
        with pytest.raises(ValueError):
            corpus.id_ranks[0] = 0


class TestCosineSimilarity:
    def test_known_angles(self):
        e1 = EmbeddingVector("e1", [1.0, 0.0])
        diag = EmbeddingVector("diag", [1.0, 1.0])
        e2 = EmbeddingVector("e2", [0.0, 1.0])
        neg = EmbeddingVector("neg", [-1.0, 0.0])
        assert cosine_similarity(e1, e1) == 1.0
        np.testing.assert_allclose(cosine_similarity(e1, diag), 1.0 / math.sqrt(2.0), rtol=0, atol=1e-15)
        assert cosine_similarity(e1, e2) == 0.0
        assert cosine_similarity(e1, neg) == -1.0

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            expected = _cosine_reference(a, b)
            actual = cosine_similarity(EmbeddingVector("a", a), EmbeddingVector("b", b))
            np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            va, vb = EmbeddingVector("a", a), EmbeddingVector("b", b)
            scaled = EmbeddingVector("s", 7.5 * a)
            assert cosine_similarity(va, vb) == cosine_similarity(vb, va)
            np.testing.assert_allclose(
                cosine_similarity(scaled, vb), cosine_similarity(va, vb), rtol=0, atol=1e-12
            )

    def test_result_is_clamped_to_unit_interval(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.normal(size=3)
            va = EmbeddingVector("a", a)
            vs = EmbeddingVector("s", a * 1e-8)
            assert -1.0 <= cosine_similarity(va, vs) <= 1.0

    def test_dimension_mismatch_names_both_ids(self):
        a = EmbeddingVector("left", [1.0, 0.0])
        b = EmbeddingVector("right", [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="'left'.*'right'"):
            cosine_similarity(a, b)

    def test_zero_norm_operand_names_the_offender(self):
        zero = EmbeddingVector("nil", [0.0, 0.0])
        ok = EmbeddingVector("ok", [1.0, 0.0])
        with pytest.raises(ValueError, match="zero-norm vector 'nil'"):
            cosine_similarity(zero, ok)
        with pytest.raises(ValueError, match="zero-norm vector 'nil'"):
            cosine_similarity(ok, zero)


class TestSimilarityMatrix:
    def _vectors(self, count=5, dim=4, seed=42):
        rng = np.random.default_rng(seed)
        return [EmbeddingVector(f"v{i}", rng.normal(size=dim)) for i in range(count)]

    def test_matches_pairwise_cosine_calls(self):
        vectors = self._vectors()
        sims = similarity_matrix(vectors)
        assert sims.shape == (len(vectors), len(vectors))
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                np.testing.assert_allclose(
                    sims[i, j], cosine_similarity(a, b), rtol=0, atol=1e-12
                )

    def test_contract_symmetric_unit_diagonal_bounded(self):
        sims = similarity_matrix(self._vectors(count=8))
        np.testing.assert_allclose(sims, sims.T, rtol=0, atol=MATRIX_TOL)
        np.testing.assert_allclose(np.diagonal(sims), 1.0, rtol=0, atol=MATRIX_TOL)
        assert sims.min() >= -1.0
        assert sims.max() <= 1.0

    def test_duplicate_ids_rejected(self):
        twice = [EmbeddingVector("same", [1.0, 0.0]), EmbeddingVector("same", [0.0, 1.0])]
        with pytest.raises(ValueError, match="duplicate item id 'same'"):
            similarity_matrix(twice)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one vector"):
            similarity_matrix([])

    def test_mixed_dimensions_rejected(self):
        vectors = [EmbeddingVector("a", [1.0, 0.0]), EmbeddingVector("b", [1.0, 0.0, 0.0])]
        with pytest.raises(ValueError, match="dimension mismatch"):
            similarity_matrix(vectors)

    def test_zero_norm_vector_rejected(self):
        vectors = [EmbeddingVector("a", [1.0, 0.0]), EmbeddingVector("nil", [0.0, 0.0])]
        with pytest.raises(ValueError, match="zero-norm vector 'nil'"):
            similarity_matrix(vectors)

    def test_entries_are_read_only(self):
        sims = similarity_matrix(self._vectors(count=3))
        with pytest.raises(ValueError):
            sims[0, 1] = 0.0

    @pytest.mark.parametrize("n", [3, 2 * _BLOCK + 1])
    def test_diagonal_is_exactly_one(self, n):
        """A unit row's product with itself can round away from 1; the
        kernel writes the diagonal as 1 exactly."""
        vectors = self._vectors(count=n)
        unit = Embeddings(vectors).unit_rows
        assert (np.einsum("ij,ij->i", unit, unit) != 1.0).any()
        np.testing.assert_array_equal(np.diagonal(similarity_matrix(vectors)), 1.0)

    def test_values_are_clipped_to_the_unit_interval(self):
        """Scaled copies of one vector give products just outside
        ``[-1, 1]``; each of those cells is exactly 1 or -1."""
        base = np.random.default_rng(1).normal(size=3)
        scales = [1.0, 3.0, 7.0, -1.0, -5.0, 0.1, 11.0, -13.0]
        corpus = Embeddings.from_matrix([f"v{i}" for i in range(len(scales))], [s * base for s in scales])
        raw = corpus.unit_rows @ corpus.unit_rows.T
        above, below = raw > 1.0, raw < -1.0
        assert above.any() and below.any()
        sims = similarity_matrix(corpus)
        assert sims.min() >= -1.0 and sims.max() <= 1.0
        np.testing.assert_array_equal(sims[above], 1.0)
        np.testing.assert_array_equal(sims[below], -1.0)

    def test_rows_and_columns_follow_the_input_order(self):
        vectors = self._vectors(count=6)
        sims = similarity_matrix(vectors)
        backwards = similarity_matrix(vectors[::-1])
        np.testing.assert_allclose(backwards, sims[::-1, ::-1], rtol=0, atol=1e-15)


def _three_array_similarities(vectors):
    """The pairwise stage written with whole-matrix temporaries:
    Gram product, ``(E + E.T) / 2``, clip, unit diagonal."""
    stacked = np.stack([v.values for v in vectors])
    unit = stacked / np.linalg.norm(stacked, axis=1)[:, None]
    entries = unit @ unit.T
    entries = np.clip((entries + entries.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(entries, 1.0)
    return entries


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


_BLOCK_EDGE_SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)


class TestOneArraySimilarityStage:
    @pytest.mark.parametrize("n", _BLOCK_EDGE_SIZES)
    def test_similarity_matrix_is_bitwise_the_whole_matrix_pipeline(self, n):
        rng = np.random.default_rng(7)
        vectors = [EmbeddingVector(f"v{i}", rng.normal(size=3)) for i in range(n)]
        sims = similarity_matrix(vectors)
        np.testing.assert_array_equal(_bits(sims), _bits(_three_array_similarities(vectors)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tied_integer_corpora_are_exactly_symmetric(self, data):
        """Cell ``(j, i)`` holds the bits of cell ``(i, j)``, signs of zeros
        included, at every block edge; the greedy reads rows as columns."""
        n = data.draw(st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 2 * _BLOCK + 2]))
        dim = data.draw(st.integers(1, 3))
        rows = data.draw(arrays(np.int64, (n, dim), elements=st.integers(-2, 2))).astype(np.float64)
        rows[~rows.any(axis=1), 0] = 1.0
        ids = [f"v{i:03d}" for i in data.draw(st.permutations(range(n)))]
        sims = similarity_matrix(Embeddings.from_matrix(ids, rows))
        np.testing.assert_array_equal(_bits(sims), _bits(sims.T))

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_peak_holds_one_matrix(self, n):
        points = generate_clusters(SyntheticDatasetSpec(num_points=n, rng_seed=0)).points
        tracemalloc.start()
        try:
            similarity_matrix(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The result is n*n*8 bytes; a whole-matrix (E + E.T) / 2 and a
        # defensive copy peak near three times that.
        assert peak <= 1.6 * n * n * 8

    def test_blocks_are_written_into_the_result(self):
        """Beyond the n*n*8 bytes of the result, the kernel holds one tile
        and the unit rows, not a block of rows to copy from."""
        n = 1000
        points = generate_clusters(SyntheticDatasetSpec(num_points=n, rng_seed=0)).points
        tracemalloc.start()
        try:
            similarity_matrix(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 64 KiB covers the unit rows and norms of these 2-d points.
        assert peak < n * n * 8 + (_BLOCK + 1) ** 2 * 8 + 2**16


def _collect(blocks):
    """Copies of the blocks' rows, which share buffers, and their starts."""
    starts, rows = [], []
    for start, block in blocks:
        starts.append(start)
        rows.append(block.copy())
    return starts, rows


class TestSimilarityRows:
    @pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 5])
    def test_rows_are_the_matrix_rows_in_blocks(self, n):
        points = generate_clusters(SyntheticDatasetSpec(num_points=n, dim=5, num_clusters=1, rng_seed=n)).points
        order, blocks = points.ids, similarity_rows(points)
        starts, rows = _collect(blocks)
        assert order == tuple(p.id for p in points)
        sizes = [len(block) for block in rows]
        assert starts == [sum(sizes[:i]) for i in range(len(sizes))]
        assert sum(sizes) == n
        # A one-row tail joins the block before it.
        assert all(size > 1 for size in sizes) or n == 1
        assert max(sizes) <= _BLOCK + 1
        stacked = np.concatenate(rows)
        np.testing.assert_array_equal(_bits(stacked), _bits(stacked.T))
        np.testing.assert_array_equal(_bits(stacked), _bits(similarity_matrix(points)))
        np.testing.assert_array_equal(np.diagonal(stacked), 1.0)
        assert stacked.min() >= -1.0 and stacked.max() <= 1.0

    @pytest.mark.parametrize("n, dim", [(257, 8), (999, 2), (2003, 32)], ids=["n257-d8", "n999-d2", "n2003-d32"])
    def test_rows_are_exactly_symmetric_on_clustered_corpora(self, n, dim):
        """Averaging two full-width products per block left 172, 1,528 and
        5,026 cells here with ``S[i, j] != S[j, i]``; the tile-pair kernel
        computes each pair once, and the greedy relies on that."""
        points = generate_clusters(SyntheticDatasetSpec(num_points=n, dim=dim, rng_seed=0)).points
        stacked = np.concatenate(_collect(similarity_rows(points))[1])
        np.testing.assert_array_equal(_bits(stacked), _bits(stacked.T))
        np.testing.assert_array_equal(_bits(stacked), _bits(similarity_matrix(points)))

    @pytest.mark.parametrize("n", [_BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 5])
    def test_each_block_is_bitwise_its_tile_products(self, n):
        """Rows ``R`` are the tiles ``U[R] @ U[C].T`` for column blocks ``C``
        at or after ``R`` and ``(U[C] @ U[R].T).T`` before it, clipped to
        ``[-1, 1]`` with a unit diagonal, written here with fresh
        temporaries."""
        points = generate_clusters(SyntheticDatasetSpec(num_points=n, dim=7, num_clusters=3, rng_seed=n)).points
        stacked = np.stack([p.values for p in points])
        unit = stacked / np.linalg.norm(stacked, axis=1)[:, None]
        starts, rows = _collect(similarity_rows(points))
        spans = [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]
        for a, (span, block) in enumerate(zip(spans, rows)):
            tiles = [unit[span] @ unit[other].T if b >= a else (unit[other] @ unit[span].T).T for b, other in enumerate(spans)]
            expected = np.clip(np.concatenate(tiles, axis=1), -1.0, 1.0)
            np.fill_diagonal(expected[:, span], 1.0)
            np.testing.assert_array_equal(_bits(block), _bits(expected))

    @pytest.mark.parametrize(
        "values, message",
        [
            ([], "^similarity matrix requires at least one vector$"),
            ([("a", [1.0, 0.0]), ("b", [0.0, 0.0]), ("a", [0.0, 1.0])], "^duplicate item id 'a'$"),
            ([("a", [0.0, 0.0]), ("b", [1.0, 0.0, 0.0])], "^dimension mismatch: 'b' has d=3, expected 2$"),
            ([("a", [1.0, 0.0]), ("nil", [0.0, 0.0])], "^cosine similarity undefined for zero-norm vector 'nil'$"),
        ],
    )
    def test_input_is_checked_before_any_block(self, values, message):
        vectors = [EmbeddingVector(item_id, row) for item_id, row in values]
        with pytest.raises(ValueError, match=message):
            similarity_matrix(vectors)
        with pytest.raises(ValueError, match=message):
            similarity_rows(vectors)

    def test_a_block_outside_the_unit_interval_is_rejected(self):
        """Only a corpus that skipped validation can reach the range check:
        an infinite coordinate gives an infinite norm and a NaN unit row."""
        rows = np.array([[1.0, 0.0], [np.inf, 1.0], [0.0, 1.0]])
        corpus = Embeddings._over(tuple(f"v{i}" for i in range(len(rows))), rows)
        with np.errstate(invalid="ignore"):
            blocks = similarity_rows(corpus)
        with pytest.raises(ValueError, match=r"^similarity values must lie in \[-1, 1\]$"):
            next(blocks)
        with pytest.raises(ValueError, match=r"^similarity values must lie in \[-1, 1\]$"):
            similarity_matrix(corpus)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, _BLOCK - 1, _BLOCK + 1], ids=["first", "end-of-block", "tail-block"])
    @pytest.mark.parametrize("path", ["rows", "matrix"])
    def test_non_finite_entries_are_rejected(self, bad, row, path):
        """A non-finite coordinate in a corpus that skipped validation never
        yields a similarity: a NaN gives a NaN norm, which fails the
        zero-norm check, and an infinity gives a NaN unit row, which fails
        the range check of the first block, wherever the row lies."""
        rows = np.random.default_rng(row).normal(size=(_BLOCK + 2, 2))
        rows[row, 0] = bad
        corpus = Embeddings._over(tuple(f"v{i}" for i in range(len(rows))), rows)
        if np.isnan(bad):
            message = f"^cosine similarity undefined for zero-norm vector 'v{row}'$"
        else:
            message = r"^similarity values must lie in \[-1, 1\]$"
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
            if path == "rows":
                next(similarity_rows(corpus))
            else:
                similarity_matrix(corpus)

    @pytest.mark.parametrize("cell", [(-1, -2), (-1, 0), (0, -1)])
    def test_the_last_block_is_exactly_symmetric(self, cell):
        """The last row block is written from the tiles above it, so its
        cells hold the bits of their mirror images in earlier blocks."""
        n = 2 * _BLOCK + 3
        rng = np.random.default_rng(n)
        vectors = [EmbeddingVector(f"v{i}", rng.normal(size=5)) for i in range(n)]
        stacked = np.concatenate(_collect(similarity_rows(vectors))[1])
        i, j = cell
        assert _bits(stacked[i, j]) == _bits(stacked[j, i])
        assert _bits(stacked[i, j]) == _bits(similarity_matrix(vectors)[j, i])


class TestQuerySimilarities:
    def test_order_matches_input(self):
        query = EmbeddingVector("q", [1.0, 0.0])
        vectors = [
            EmbeddingVector("a", [1.0, 0.0]),
            EmbeddingVector("b", [0.0, 1.0]),
            EmbeddingVector("c", [-1.0, 0.0]),
        ]
        sims = query_similarities(query, vectors)
        np.testing.assert_allclose(sims, [1.0, 0.0, -1.0], rtol=0, atol=1e-15)

    def test_empty_corpus_gives_empty_array(self):
        sims = query_similarities(EmbeddingVector("q", [1.0]), [])
        assert sims.shape == (0,)

    def test_matches_per_vector_cosine(self):
        rng = np.random.default_rng(11)
        query = EmbeddingVector("q", rng.normal(size=5))
        vectors = [EmbeddingVector(f"v{i}", rng.normal(size=5)) for i in range(40)]
        expected = [cosine_similarity(query, v) for v in vectors]
        np.testing.assert_allclose(query_similarities(query, vectors), expected, rtol=0, atol=1e-15)

    def test_errors_name_the_offender(self):
        query = EmbeddingVector("q", [1.0, 0.0])
        ok = EmbeddingVector("a", [0.0, 1.0])
        wide = EmbeddingVector("b", [1.0, 0.0, 0.0])
        # A ragged corpus is rejected as it is built, before the query.
        with pytest.raises(ValueError, match="^dimension mismatch: 'b' has d=3, expected 2$"):
            query_similarities(query, [ok, wide])
        with pytest.raises(ValueError, match="dimension mismatch: 'q' has d=2, 'b' has d=3"):
            query_similarities(query, [wide])
        with pytest.raises(ValueError, match="zero-norm vector 'nil'"):
            query_similarities(query, [ok, EmbeddingVector("nil", [0.0, 0.0])])
        with pytest.raises(ValueError, match="zero-norm vector 'q0'"):
            query_similarities(EmbeddingVector("q0", [0.0, 0.0]), [ok])
