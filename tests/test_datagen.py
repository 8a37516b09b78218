"""Synthetic cluster generation and composite query construction."""

import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semrank import datagen
from semrank.cli import main
from semrank.datagen import (
    SyntheticDataset,
    SyntheticDatasetSpec,
    composite_query,
    generate_clusters,
)
from semrank.geometry import EmbeddingVector, Embeddings, label_groups


class TestSyntheticDatasetSpec:
    def test_defaults(self):
        spec = SyntheticDatasetSpec()
        assert (spec.num_points, spec.dim, spec.num_clusters) == (200, 2, 5)
        assert (spec.cluster_std, spec.separation, spec.rng_seed) == (0.5, 5.0, 42)

    def test_bounds(self):
        with pytest.raises(ValueError, match="num_points must be >= 1"):
            SyntheticDatasetSpec(num_points=0)
        with pytest.raises(ValueError, match="dim must be >= 1"):
            SyntheticDatasetSpec(dim=0)
        with pytest.raises(ValueError, match=r"num_clusters must lie in \[1, num_points\]"):
            SyntheticDatasetSpec(num_points=3, num_clusters=4)
        with pytest.raises(ValueError, match="cluster_std must be > 0"):
            SyntheticDatasetSpec(cluster_std=0.0)
        with pytest.raises(ValueError, match="separation must be > 0"):
            SyntheticDatasetSpec(separation=-1.0)
        with pytest.raises(ValueError, match="^rng_seed must be >= 0, got -1$"):
            SyntheticDatasetSpec(rng_seed=-1)

    @pytest.mark.parametrize("name", ["cluster_std", "separation"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scales_are_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            SyntheticDatasetSpec(**{name: value})

    @pytest.mark.parametrize("name", ["cluster_std", "separation"])
    @pytest.mark.parametrize("value", [1.5e100, 1e200, 1e308])
    def test_scales_too_large_to_generate_are_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be <= 1e+100, got {value}')}$"):
            SyntheticDatasetSpec(**{name: value})


class TestGenerateClusters:
    def test_deterministic_for_fixed_seed(self):
        spec = SyntheticDatasetSpec(num_points=40, num_clusters=4, rng_seed=11)
        first = generate_clusters(spec)
        second = generate_clusters(spec)
        np.testing.assert_array_equal(first.labels, second.labels)
        for a, b in zip(first.points, second.points):
            assert a.id == b.id
            np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        base = SyntheticDatasetSpec(num_points=40, num_clusters=4, rng_seed=1)
        other = SyntheticDatasetSpec(num_points=40, num_clusters=4, rng_seed=2)
        a = generate_clusters(base)
        b = generate_clusters(other)
        assert any(
            not np.array_equal(p.values, q.values) for p, q in zip(a.points, b.points)
        )

    def test_cluster_sizes_differ_by_at_most_one(self):
        dataset = generate_clusters(SyntheticDatasetSpec(num_points=23, num_clusters=5, rng_seed=3))
        sizes = [len(dataset.clusters[label]) for label in range(5)]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1
        # Larger clusters come first.
        assert sizes == sorted(sizes, reverse=True)

    def test_default_shape(self):
        dataset = generate_clusters(SyntheticDatasetSpec())
        assert len(dataset.points) == 200
        assert all(point.dim == 2 for point in dataset.points)
        assert sorted(set(dataset.labels.tolist())) == [0, 1, 2, 3, 4]
        assert all(len(dataset.clusters[label]) == 40 for label in range(5))

    def test_ids_zero_padded_in_generation_order(self):
        dataset = generate_clusters(SyntheticDatasetSpec(num_points=12, num_clusters=3, rng_seed=4))
        assert [point.id for point in dataset.points] == [f"p{i:02d}" for i in range(12)]
        big = generate_clusters(SyntheticDatasetSpec(num_points=101, num_clusters=2, rng_seed=4))
        assert big.points[0].id == "p000"

    def test_centroids_respect_separation(self):
        """With a tiny blob spread the empirical means sit on the centroids,
        so the pairwise centroid distances are observable."""
        spec = SyntheticDatasetSpec(
            num_points=50, num_clusters=5, cluster_std=1e-3, separation=5.0, rng_seed=6
        )
        dataset = generate_clusters(spec)
        means = [
            np.mean(dataset.points.matrix[dataset.clusters[label]], axis=0) for label in range(5)
        ]
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(means[i] - means[j]) >= spec.separation * 0.99

    def test_centroids_lie_in_the_annular_sector(self):
        """Cluster centers live in a 60-degree sector with radii between 2x
        and 4.8x the separation floor (in the first-two-coordinate plane)."""
        spec = SyntheticDatasetSpec(
            num_points=50, num_clusters=5, cluster_std=1e-3, separation=5.0, rng_seed=7
        )
        dataset = generate_clusters(spec)
        for label in range(5):
            mean = np.mean(dataset.points.matrix[dataset.clusters[label]], axis=0)
            radius = float(np.linalg.norm(mean))
            angle = math.atan2(mean[1], mean[0])
            assert 2.0 * spec.separation - 0.1 <= radius <= 4.8 * spec.separation + 0.1
            assert -0.01 <= angle <= math.pi / 3.0 + 0.01

    def test_higher_dimensions_carry_noise_only(self):
        spec = SyntheticDatasetSpec(
            num_points=60, dim=4, num_clusters=3, cluster_std=1e-3, rng_seed=8
        )
        dataset = generate_clusters(spec)
        for point in dataset.points:
            assert point.dim == 4
            assert abs(point.values[2]) < 0.01
            assert abs(point.values[3]) < 0.01

    def test_no_zero_norm_points(self):
        for seed in range(5):
            dataset = generate_clusters(SyntheticDatasetSpec(num_points=30, rng_seed=seed))
            assert all(point.norm() > 0.0 for point in dataset.points)

    def test_spec_echoed_and_members_partition(self):
        spec = SyntheticDatasetSpec(num_points=20, num_clusters=4, rng_seed=9)
        dataset = generate_clusters(spec)
        assert dataset.spec == spec
        seen = set()
        for label in range(4):
            ids = {dataset.points.ids[i] for i in dataset.clusters[label]}
            assert not ids & seen
            seen |= ids
        assert len(seen) == 20

    def test_impossible_placement_fails_loudly(self):
        spec = SyntheticDatasetSpec(
            num_points=40, num_clusters=40, separation=100.0, rng_seed=0
        )
        with pytest.raises(ValueError, match="could not place centroid"):
            generate_clusters(spec)


class TestCompositeQuery:
    def test_deterministic_for_fixed_seed(self):
        dataset = generate_clusters(SyntheticDatasetSpec(num_points=30, num_clusters=3, rng_seed=5))
        first = composite_query(dataset, rng_seed=17)
        second = composite_query(dataset, rng_seed=17)
        assert first.id == "query"
        np.testing.assert_array_equal(first.values, second.values)

    def test_mean_of_single_member_clusters_is_exact(self):
        """With one point per cluster the representative choice is forced and
        the query is exactly the mean of all points."""
        dataset = generate_clusters(
            SyntheticDatasetSpec(num_points=4, num_clusters=4, rng_seed=10)
        )
        query = composite_query(dataset, rng_seed=0)
        expected = np.mean([p.values for p in dataset.points], axis=0)
        np.testing.assert_allclose(query.values, expected, rtol=0, atol=1e-15)

    def test_query_is_mean_of_one_member_per_cluster(self):
        """The query times the cluster count must decompose into one member
        vector from each cluster; brute force over all combinations."""
        dataset = generate_clusters(SyntheticDatasetSpec(num_points=30, num_clusters=3, rng_seed=12))
        query = composite_query(dataset, rng_seed=1)
        total = query.values * 3.0
        choices = [dataset.points.matrix[dataset.clusters[label]] for label in range(3)]
        matches = any(
            np.allclose(sum(choice), total, rtol=0, atol=1e-9)
            for choice in itertools.product(*choices)
        )
        assert matches

    def test_label_gaps_are_tolerated(self):
        """Labels need not be contiguous; each labelled group contributes."""
        points = generate_clusters(
            SyntheticDatasetSpec(num_points=6, num_clusters=2, rng_seed=13)
        ).points
        dataset = SyntheticDataset(points=points, labels=[0, 0, 0, 7, 7, 7], spec=None)
        query = composite_query(dataset, rng_seed=2)
        assert query.dim == points[0].dim

    def test_a_mean_that_always_cancels_fails_loudly(self):
        points = [EmbeddingVector("a", [1.0, 0.0]), EmbeddingVector("b", [-1.0, 0.0])]
        dataset = SyntheticDataset(points=points, labels=[0, 1])
        with pytest.raises(ValueError, match="^composite query kept collapsing to a zero-norm mean$"):
            composite_query(dataset, rng_seed=0)


class TestLabels:
    _POINTS = (EmbeddingVector("b", [1.0, 0.0]), EmbeddingVector("a", [0.0, 1.0]), EmbeddingVector("c", [1.0, 1.0]))

    def test_kept_as_a_read_only_int64_copy_by_position(self):
        given_labels = np.array([2, -1, 2], dtype=np.int16)
        dataset = SyntheticDataset(points=self._POINTS, labels=given_labels)
        assert dataset.labels.dtype == np.int64 and dataset.labels.tolist() == [2, -1, 2]
        assert not dataset.labels.flags.writeable and given_labels.flags.writeable
        assert dataset.clusters[2].tolist() == [0, 2] and dataset.clusters[-1].tolist() == [1]
        assert list(dataset.clusters) == [-1, 2]

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 2, 3], [[0, 1, 2]], 0])
    def test_one_label_per_point(self, labels):
        shape = np.asarray(labels).shape
        with pytest.raises(ValueError, match=re.escape(f"cluster labels of shape {shape} do not match 3 points")):
            SyntheticDataset(points=self._POINTS, labels=labels)

    @pytest.mark.parametrize(
        "labels",
        [np.array([1.5, 0.0, 2.0]), np.array([1.0, 0.0, 2.0]), [True, False, True], [0, 1, 2**63], ["0", "1", "2"]],
    )
    def test_labels_that_are_not_int64_integers_are_rejected(self, labels):
        # A cast would truncate 1.5 to 1, or overflow; the label is refused instead.
        dtype = np.asarray(labels).dtype
        with pytest.raises(ValueError, match=f"^cluster labels must be integers that fit int64, got dtype {dtype}$"):
            SyntheticDataset(points=self._POINTS, labels=labels)

    def test_an_empty_dataset_takes_empty_labels(self):
        assert SyntheticDataset(points=(), labels=[]).clusters == {}


@st.composite
def _labelled_ids(draw):
    """Shuffled ids whose code-point order is not natural order, with
    negative and non-contiguous labels, sometimes all one label."""
    n = draw(st.integers(0, 40))
    ids = draw(st.permutations([f"{'pP'[i % 2]}{i}" for i in range(n)]))
    values = st.sampled_from([-7, -1, 0, 3, 10**12]) if draw(st.booleans()) else st.just(draw(st.integers(-5, 5)))
    return ids, draw(st.lists(values, min_size=n, max_size=n))


class TestLabelGroups:
    @settings(max_examples=200, deadline=None)
    @given(corpus=_labelled_ids())
    def test_matches_a_per_point_grouping_in_id_order(self, corpus):
        ids, labels = corpus
        grouped = {}
        for item_id, label in sorted(zip(ids, labels)):
            grouped.setdefault(label, []).append(ids.index(item_id))
        want = {label: grouped[label] for label in sorted(grouped)}
        corpus = Embeddings.from_matrix(ids, np.ones((len(ids), 1)))
        got = label_groups(np.array(labels, dtype=np.int64), corpus.id_ranks)
        assert list(got) == list(want)
        assert {label: members.tolist() for label, members in got.items()} == want
        assert all(not members.flags.writeable for members in got.values())


def _scanning_composite_query(dataset, rng_seed):
    """composite_query as first written: one scan of every point per cluster."""
    labels = dict(zip(dataset.points.ids, dataset.labels.tolist()))
    member_lists = []
    for label in sorted(set(labels.values())):
        members = [p for p in dataset.points if labels[p.id] == label]
        member_lists.append(sorted(members, key=lambda point: point.id))
    rng = np.random.default_rng(rng_seed)
    for _ in range(100):
        representatives = [members[int(rng.integers(len(members)))] for members in member_lists]
        mean = np.mean([point.values for point in representatives], axis=0)
        if np.linalg.norm(mean) > 1e-9:
            return mean
    raise AssertionError("reference query collapsed")


class TestClusterMembersCache:
    def test_composite_query_is_bitwise_unchanged(self):
        dataset = generate_clusters(SyntheticDatasetSpec(num_points=300, dim=4, num_clusters=6, rng_seed=3))
        # The same data in reverse point order with non-contiguous labels,
        # as a loaded file may hold it.
        shuffled = SyntheticDataset(
            points=dataset.points[::-1],
            labels=3 * dataset.labels[::-1] + 1,
        )
        for data in (dataset, shuffled):
            for seed in range(40):
                got = composite_query(data, seed).values
                want = _scanning_composite_query(data, seed)
                assert got.tobytes() == want.tobytes()

    def test_clusters_are_id_sorted(self):
        dataset = generate_clusters(SyntheticDatasetSpec(num_points=40, num_clusters=4, rng_seed=5))
        reordered = SyntheticDataset(points=dataset.points[::-1], labels=dataset.labels[::-1])
        for label in range(4):
            members = reordered.clusters[label]
            want = sorted(item_id for item_id, of in zip(dataset.points.ids, dataset.labels) if of == label)
            assert [reordered.points.ids[i] for i in members] == want
        assert list(reordered.clusters) == [0, 1, 2, 3]

    def test_clusters_hold_no_per_point_objects(self):
        """The members of a cluster are their positions, so the first
        composite query keeps them and the corpus's id ranks, two integers
        per point, not an object or a row per point."""
        dataset = generate_clusters(SyntheticDatasetSpec(num_points=20_000, dim=8))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            composite_query(dataset, 0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 24 * len(dataset.points)


def _per_point_generate(spec):
    """generate_clusters as first written: one ``rng.normal`` call per
    point, each zero-norm sample redrawn in place.  Returns (id, values,
    label) triples."""
    rng = np.random.default_rng(spec.rng_seed)
    centroids = datagen._place_centroids(rng, spec)
    base, extra = divmod(spec.num_points, spec.num_clusters)
    sizes = [base + (1 if label < extra else 0) for label in range(spec.num_clusters)]
    width = len(str(spec.num_points - 1))
    triples = []
    for label, size in enumerate(sizes):
        for _ in range(size):
            for _ in range(100):
                sample = centroids[label] + rng.normal(0.0, spec.cluster_std, size=spec.dim)
                if np.linalg.norm(sample) > 1e-9:
                    break
            else:
                raise ValueError("could not sample a non-zero point")
            triples.append((f"p{len(triples):0{width}d}", sample, label))
    return triples


class TestBulkDraw:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("shape", [(1000, 2), (200, 2), (300, 32), (7, 1)])
    def test_matches_the_per_point_loop(self, shape, seed):
        num_points, dim = shape
        spec = SyntheticDatasetSpec(
            num_points=num_points, dim=dim, num_clusters=2 if dim == 1 else 5, rng_seed=seed
        )
        dataset = generate_clusters(spec)
        want = _per_point_generate(spec)
        assert [point.id for point in dataset.points] == [item_id for item_id, _, _ in want]
        assert [point.values.tobytes() for point in dataset.points] == [values.tobytes() for _, values, _ in want]
        assert dataset.labels.tolist() == [label for _, _, label in want]

    def test_the_largest_accepted_scales_match_the_per_point_loop(self):
        spec = SyntheticDatasetSpec(num_points=60, dim=4, cluster_std=1e100, separation=1e100, rng_seed=5)
        dataset = generate_clusters(spec)
        want = _per_point_generate(spec)
        assert [point.values.tobytes() for point in dataset.points] == [values.tobytes() for _, values, _ in want]
        assert np.isfinite(dataset.points.norms).all()

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("at_origin", [0, 1])
    def test_zero_norm_resamples_match_the_per_point_loop(self, monkeypatch, at_origin, seed):
        """A centroid at the origin with a 1e-9 spread makes most draws of
        its cluster zero-norm, so the resample path runs many times, in the
        first cluster (later bulk draws must continue the stream) or in the
        last (a resampled row ends the data)."""
        place = datagen._place_centroids

        def with_origin(rng, spec):
            centroids = place(rng, spec)
            centroids[at_origin] = 0.0
            return centroids

        monkeypatch.setattr(datagen, "_place_centroids", with_origin)
        spec = SyntheticDatasetSpec(num_points=60, dim=1, num_clusters=2, cluster_std=1e-9, rng_seed=seed)
        dataset = generate_clusters(spec)
        want = _per_point_generate(spec)
        assert [point.values.tobytes() for point in dataset.points] == [values.tobytes() for _, values, _ in want]
        assert dataset.labels.tolist() == [label for _, _, label in want]
        assert all(point.norm() > 1e-9 for point in dataset.points)

    def test_resample_budget_fails_loudly(self, monkeypatch):
        place = datagen._place_centroids
        monkeypatch.setattr(datagen, "_place_centroids", lambda rng, spec: 0.0 * place(rng, spec))
        spec = SyntheticDatasetSpec(num_points=10, dim=1, num_clusters=2, cluster_std=1e-300, rng_seed=0)
        with pytest.raises(ValueError, match="could not sample a non-zero point"):
            generate_clusters(spec)


# SHA-256 of ``semrank generate`` output for (num_points, dim, clusters,
# seed), pinned from a build that made each point its own EmbeddingVector,
# so building the corpus from one matrix must not move a byte.
_GENERATE_DIGESTS = {
    (15, 2, 3, 42): "c8071df4f797f3b35e2bc64c120f72522457dda95bcea31c538e7c352a8bc007",
    (200, 2, 5, 0): "234a6d05e6f732a890fbcc0a531f9c618786d8b8e208eb5361c1070ef6ce1bec",
    (1000, 2, 5, 7): "b4480cf1e397dcf6548fb082ccd60c144a7266a04eb2db5a99fb8a0276da57e8",
    (60, 5, 4, 3): "98ed38f69332411e1a7f9574fc6e458e89a3b14484ac85cfab174684d48f398c",
    (31, 1, 2, 11): "0ab72b4f98b2c79f4e6dcf54a87bb3a2316cc919dbe8045a18b7b8a98a7c8432",
    (100, 32, 5, 1000): "075994fd0336a638d856c12019ab9224d64d2352b84a66a53b293792a8719065",
}


class TestGeneratedCorpus:
    @pytest.mark.parametrize("shape", sorted(_GENERATE_DIGESTS))
    def test_generate_tsv_bytes_are_unchanged(self, shape, tmp_path):
        num_points, dim, clusters, seed = shape
        out = tmp_path / "data.tsv"
        flags = ["--num-points", num_points, "--dim", dim, "--clusters", clusters, "--seed", seed]
        assert main(["generate", *map(str, flags), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _GENERATE_DIGESTS[shape]
