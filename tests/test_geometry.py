"""Vector primitives: cosine similarity, normalization, similarity matrices."""

import math
import tracemalloc

import numpy as np
import pytest

from semrank.datagen import SyntheticDatasetSpec, generate_clusters
from semrank.geometry import (
    _BLOCK,
    MATRIX_TOL,
    EmbeddingVector,
    Embeddings,
    SimilarityMatrix,
    _symmetrize_clip,
    cosine_similarity,
    normalize,
    query_similarities,
    similarity_matrix,
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
        assert points == tuple(points)
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
        assert points == ()
        assert points.matrix.shape == (0, 3)

    def test_take_gathers_the_rows_once(self):
        rng = np.random.default_rng(3)
        points = Embeddings.from_matrix([f"v{i}" for i in range(10)], rng.normal(size=(10, 4)))
        order = [7, 2, 9, 0]
        taken = points.take(order)
        assert taken == tuple(points[i] for i in order)
        assert "matrix" in vars(taken)
        assert taken.matrix.tobytes() == np.stack([points[i].values for i in order]).tobytes()
        assert not taken.matrix.flags.writeable


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


class TestNormalize:
    def test_unit_norm_and_direction_preserved(self):
        vector = EmbeddingVector("a", [3.0, 4.0])
        unit = normalize(vector)
        assert unit.id == "a"
        np.testing.assert_allclose(unit.norm(), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(unit.values, [0.6, 0.8], rtol=0, atol=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="cannot normalize zero-norm vector 'nil'"):
            normalize(EmbeddingVector("nil", [0.0]))


class TestSimilarityMatrix:
    def _vectors(self, count=5, dim=4, seed=42):
        rng = np.random.default_rng(seed)
        return [EmbeddingVector(f"v{i}", rng.normal(size=dim)) for i in range(count)]

    def test_matches_pairwise_cosine_calls(self):
        vectors = self._vectors()
        sims = similarity_matrix(vectors)
        assert sims.order == tuple(v.id for v in vectors)
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                np.testing.assert_allclose(
                    sims.entries[i, j], cosine_similarity(a, b), rtol=0, atol=1e-12
                )

    def test_contract_symmetric_unit_diagonal_bounded(self):
        sims = similarity_matrix(self._vectors(count=8))
        np.testing.assert_allclose(sims.entries, sims.entries.T, rtol=0, atol=MATRIX_TOL)
        np.testing.assert_allclose(np.diagonal(sims.entries), 1.0, rtol=0, atol=MATRIX_TOL)
        assert sims.entries.min() >= -1.0
        assert sims.entries.max() <= 1.0

    def test_value_lookup_by_id(self):
        vectors = self._vectors(count=3)
        sims = similarity_matrix(vectors)
        np.testing.assert_allclose(
            sims.value("v0", "v2"), cosine_similarity(vectors[0], vectors[2]), rtol=0, atol=1e-12
        )
        assert sims.value("v1", "v1") == 1.0

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

    def test_validation_rejects_asymmetry(self):
        entries = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            SimilarityMatrix(order=("a", "b"), entries=entries)

    def test_validation_rejects_bad_diagonal(self):
        entries = np.array([[0.9, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="diagonal must be 1"):
            SimilarityMatrix(order=("a", "b"), entries=entries)

    def test_validation_rejects_out_of_range_values(self):
        entries = np.array([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(ValueError, match=r"lie in \[-1, 1\]"):
            SimilarityMatrix(order=("a", "b"), entries=entries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cells", [((0, 1), (1, 0)), ((1, 1),), ((2, 0),)], ids=["pair", "diagonal", "one-cell"])
    @pytest.mark.parametrize("adopt", [False, True], ids=["copy", "adopt"])
    def test_non_finite_entries_are_rejected(self, bad, cells, adopt):
        entries = np.eye(3)
        for cell in cells:
            entries[cell] = bad
        build = SimilarityMatrix._adopt if adopt else SimilarityMatrix
        with pytest.raises(ValueError, match="similarity matrix|similarity values"):
            build(("a", "b", "c"), entries)

    def test_nan_fails_the_range_check(self):
        """NaN passes the symmetry and diagonal checks, which are written as
        ``>`` comparisons, so the range check is the one that rejects it."""
        entries = np.eye(2)
        entries[0, 1] = entries[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"^similarity values must lie in \[-1, 1\]$"):
            SimilarityMatrix(order=("a", "b"), entries=entries)

    def test_validation_rejects_duplicate_order_ids(self):
        with pytest.raises(ValueError, match="duplicate ids"):
            SimilarityMatrix(order=("a", "a"), entries=np.eye(2))

    def test_validation_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            SimilarityMatrix(order=("a", "b"), entries=np.eye(3))

    def test_entries_are_read_only(self):
        sims = similarity_matrix(self._vectors(count=3))
        with pytest.raises(ValueError):
            sims.entries[0, 1] = 0.0


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
    def test_in_place_symmetrisation_matches_whole_matrix_formula(self, n):
        # Asymmetric input with values past +-1, so the clip bites too.
        entries = np.random.default_rng(n).uniform(-1.2, 1.2, size=(n, n))
        expected = np.clip((entries + entries.T) / 2.0, -1.0, 1.0)
        _symmetrize_clip(entries)
        np.testing.assert_array_equal(_bits(entries), _bits(expected))

    @pytest.mark.parametrize("n", _BLOCK_EDGE_SIZES)
    def test_similarity_matrix_is_bitwise_the_whole_matrix_pipeline(self, n):
        rng = np.random.default_rng(7)
        vectors = [EmbeddingVector(f"v{i}", rng.normal(size=3)) for i in range(n)]
        sims = similarity_matrix(vectors)
        np.testing.assert_array_equal(_bits(sims.entries), _bits(_three_array_similarities(vectors)))

    @pytest.mark.parametrize("cell", [(-1, -2), (-1, 0), (0, -1)])
    def test_asymmetry_in_the_last_block_is_rejected(self, cell):
        n = 2 * _BLOCK + 3
        order = tuple(f"v{i}" for i in range(n))
        entries = np.eye(n)
        entries[cell] = MATRIX_TOL / 2
        SimilarityMatrix(order=order, entries=entries)
        entries[cell] = 2 * MATRIX_TOL
        with pytest.raises(ValueError, match="^similarity matrix is not symmetric$"):
            SimilarityMatrix(order=order, entries=entries)

    def test_callers_array_is_copied(self):
        source = np.array([[1.0, 0.5], [0.5, 1.0]])
        sims = SimilarityMatrix(order=("a", "b"), entries=source)
        source[0, 1] = source[1, 0] = -0.25
        np.testing.assert_array_equal(sims.entries, [[1.0, 0.5], [0.5, 1.0]])
        assert source.flags.writeable

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
        for corpus in ([ok, wide], [wide]):
            with pytest.raises(ValueError, match="dimension mismatch: 'q' has d=2, 'b' has d=3"):
                query_similarities(query, corpus)
        with pytest.raises(ValueError, match="zero-norm vector 'nil'"):
            query_similarities(query, [ok, EmbeddingVector("nil", [0.0, 0.0])])
        with pytest.raises(ValueError, match="zero-norm vector 'q0'"):
            query_similarities(EmbeddingVector("q0", [0.0, 0.0]), [ok])
