"""Synthetic cluster generation and composite query construction."""

import itertools
import math

import numpy as np
import pytest

from semrank.datagen import (
    SyntheticDataset,
    SyntheticDatasetSpec,
    composite_query,
    generate_clusters,
)


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


class TestGenerateClusters:
    def test_deterministic_for_fixed_seed(self):
        spec = SyntheticDatasetSpec(num_points=40, num_clusters=4, rng_seed=11)
        first = generate_clusters(spec)
        second = generate_clusters(spec)
        assert first.labels == second.labels
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
        sizes = [len(dataset.members(label)) for label in range(5)]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1
        # Larger clusters come first.
        assert sizes == sorted(sizes, reverse=True)

    def test_default_shape(self):
        dataset = generate_clusters(SyntheticDatasetSpec())
        assert len(dataset.points) == 200
        assert all(point.dim == 2 for point in dataset.points)
        assert sorted(set(dataset.labels.values())) == [0, 1, 2, 3, 4]
        assert all(len(dataset.members(label)) == 40 for label in range(5))

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
            np.mean([p.values for p in dataset.members(label)], axis=0) for label in range(5)
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
            mean = np.mean([p.values for p in dataset.members(label)], axis=0)
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
            ids = {p.id for p in dataset.members(label)}
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
        choices = [[m.values for m in dataset.members(label)] for label in range(3)]
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
        labels = {p.id: (0 if i < 3 else 7) for i, p in enumerate(points)}
        dataset = SyntheticDataset(points=points, labels=labels, spec=None)
        query = composite_query(dataset, rng_seed=2)
        assert query.dim == points[0].dim


def _scanning_composite_query(dataset, rng_seed):
    """composite_query as first written: one scan of every point per cluster."""
    member_lists = []
    for label in sorted(set(dataset.labels.values())):
        members = [p for p in dataset.points if dataset.labels[p.id] == label]
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
            labels={item_id: 3 * label + 1 for item_id, label in dataset.labels.items()},
        )
        for data in (dataset, shuffled):
            for seed in range(40):
                got = composite_query(data, seed).values
                want = _scanning_composite_query(data, seed)
                assert got.tobytes() == want.tobytes()

    def test_members_are_id_sorted_fresh_lists(self):
        dataset = generate_clusters(SyntheticDatasetSpec(num_points=40, num_clusters=4, rng_seed=5))
        reordered = SyntheticDataset(points=dataset.points[::-1], labels=dataset.labels)
        for label in range(4):
            members = reordered.members(label)
            assert [p.id for p in members] == sorted(p.id for p in dataset.points if dataset.labels[p.id] == label)
            members.clear()
            assert len(reordered.members(label)) == 10
        assert reordered.members(99) == []
