"""Synthetic clustered datasets and composite queries for the benchmark runs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .geometry import EmbeddingVector, Embeddings, vector_norms

# Rejection-sampling budgets; generation fails loudly instead of looping.
_PLACEMENT_ATTEMPTS = 1_000
_RESAMPLE_ATTEMPTS = 100

_ZERO_NORM = 1e-9

# Largest accepted ``cluster_std`` and ``separation``.  Coordinates reach a
# few times these scales, and squared coordinates must stay finite, or
# vector norms overflow and no cosine can be taken; at this bound a square
# is near 1e202, far below the float64 limit of about 1.8e308.
_MAX_SCALE = 1e100

# Centroids occupy a 60-degree sector of an annulus (in the plane of the
# first two coordinates).  Cosine similarity responds to direction only, so
# the angular spacing is what makes clusters distinct to the retrieval
# stack, while the radial band leaves the rejection sampler room to honour
# the Euclidean separation floor.  Keeping neighbouring clusters close in
# angle also means threshold-gated links between cluster heads can fire.
_SECTOR_SPAN = np.pi / 3
_RADIUS_SPAN = (2.0, 4.8)  # multiples of the separation floor


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    """Shape of a generated dataset: isotropic Gaussian blobs around
    centroids that keep a minimum mutual distance."""

    num_points: int = 200
    dim: int = 2
    num_clusters: int = 5
    cluster_std: float = 0.5
    separation: float = 5.0
    rng_seed: int = 42

    def __post_init__(self) -> None:
        if self.num_points < 1:
            msg = f"num_points must be >= 1, got {self.num_points}"
            raise ValueError(msg)
        if self.dim < 1:
            msg = f"dim must be >= 1, got {self.dim}"
            raise ValueError(msg)
        if not 1 <= self.num_clusters <= self.num_points:
            msg = f"num_clusters must lie in [1, num_points], got {self.num_clusters}"
            raise ValueError(msg)
        for name in ("cluster_std", "separation"):
            value = getattr(self, name)
            # Written so that a NaN, which fails every comparison, fails it too.
            if not abs(value) < np.inf:
                msg = f"{name} must be finite, got {value}"
                raise ValueError(msg)
            if value <= 0.0:
                msg = f"{name} must be > 0, got {value}"
                raise ValueError(msg)
            if value > _MAX_SCALE:
                msg = f"{name} must be <= {_MAX_SCALE:g}, got {value}"
                raise ValueError(msg)
        if self.rng_seed < 0:
            msg = f"rng_seed must be >= 0, got {self.rng_seed}"
            raise ValueError(msg)


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    """Generated points with their cluster labels."""

    points: tuple[EmbeddingVector, ...]
    labels: dict[str, int]
    spec: SyntheticDatasetSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", Embeddings(self.points))

    @cached_property
    def by_id(self) -> Mapping[str, EmbeddingVector]:
        return self.points.by_id

    @cached_property
    def clusters(self) -> dict[int, np.ndarray]:
        """Read-only positions in :attr:`points` of the members of each
        cluster label, in id order; every point must carry a label (see
        :func:`require_labels`)."""
        require_labels(self.points.ids, self.labels)
        grouped: dict[int, list[int]] = {}
        for i in np.argsort(self.points.id_ranks).tolist():
            grouped.setdefault(self.labels[self.points.ids[i]], []).append(i)
        clusters = {label: np.array(members, dtype=np.intp) for label, members in grouped.items()}
        for members in clusters.values():
            members.setflags(write=False)
        return clusters


def require_labels(ids: Iterable[str], labels: Mapping[str, int]) -> None:
    """Raise ``ValueError`` naming the first of ``ids`` that has no label."""
    missing = next((item_id for item_id in ids if item_id not in labels), None)
    if missing is not None:
        msg = f"point {missing!r} has no cluster label"
        raise ValueError(msg)


def _place_centroids(rng: np.random.Generator, spec: SyntheticDatasetSpec) -> np.ndarray:
    radius_lo = _RADIUS_SPAN[0] * spec.separation
    radius_hi = _RADIUS_SPAN[1] * spec.separation
    centroids: list[np.ndarray] = []
    for index in range(spec.num_clusters):
        for _ in range(_PLACEMENT_ATTEMPTS):
            angle = rng.uniform(0.0, _SECTOR_SPAN)
            radius = rng.uniform(radius_lo, radius_hi)
            candidate = np.zeros(spec.dim)
            candidate[0] = radius * np.cos(angle)
            if spec.dim > 1:
                candidate[1] = radius * np.sin(angle)
            if all(np.linalg.norm(candidate - other) >= spec.separation for other in centroids):
                centroids.append(candidate)
                break
        else:
            msg = (
                f"could not place centroid {index} at separation {spec.separation} "
                f"after {_PLACEMENT_ATTEMPTS} attempts"
            )
            raise ValueError(msg)
    return np.stack(centroids)


def generate_clusters(spec: SyntheticDatasetSpec) -> SyntheticDataset:
    """Sample ``num_points`` points from ``num_clusters`` Gaussian blobs.

    Deterministic for a fixed ``rng_seed``.  Cluster sizes differ by at most
    one; ids are zero-padded in generation order so lexicographic and numeric
    order coincide.  Zero-norm samples (a measure-zero event) are resampled
    so every point works under cosine similarity.
    """
    rng = np.random.default_rng(spec.rng_seed)
    centroids = _place_centroids(rng, spec)
    base, extra = divmod(spec.num_points, spec.num_clusters)
    sizes = [base + (1 if label < extra else 0) for label in range(spec.num_clusters)]
    samples = _draw_samples(rng, np.repeat(centroids, sizes, axis=0), spec)
    width = len(str(spec.num_points - 1))
    ids = [f"p{index:0{width}d}" for index in range(spec.num_points)]
    points = Embeddings.from_matrix(ids, samples)
    labels = dict(zip(ids, (label for label, size in enumerate(sizes) for _ in range(size))))
    return SyntheticDataset(points=points, labels=labels, spec=spec)


def _draw_samples(rng: np.random.Generator, centers: np.ndarray, spec: SyntheticDatasetSpec) -> np.ndarray:
    """``centers`` plus Gaussian noise of ``spec.cluster_std``, drawn in bulk.

    The generator is consumed exactly as by one ``rng.normal`` call per row
    in which a zero-norm row is redrawn on its own, up to
    ``_RESAMPLE_ATTEMPTS`` times, before the next row is drawn: the bulk
    draw is rewound to the first zero-norm row, which is resampled alone
    before the next bulk draw.
    """
    count, dim = centers.shape
    std = spec.cluster_std
    samples = np.empty_like(centers)
    start = 0
    while start < count:
        state = rng.bit_generator.state
        block = centers[start:] + rng.normal(0.0, std, size=(count - start, dim))
        kept = vector_norms(block) > _ZERO_NORM
        if kept.all():
            samples[start:] = block
            break
        bad = int(kept.argmin())
        samples[start : start + bad] = block[:bad]
        rng.bit_generator.state = state
        rng.normal(0.0, std, size=(bad, dim))
        for _ in range(_RESAMPLE_ATTEMPTS):
            sample = centers[start + bad] + rng.normal(0.0, std, size=dim)
            if vector_norms(sample) > _ZERO_NORM:
                break
        else:
            msg = (
                f"could not sample a non-zero point: cluster_std {spec.cluster_std} and separation "
                f"{spec.separation} are too small against the zero-norm floor {_ZERO_NORM:g}"
            )
            raise ValueError(msg)
        samples[start + bad] = sample
        start += bad + 1
    return samples


def composite_query(dataset: SyntheticDataset, rng_seed: int) -> EmbeddingVector:
    """Mean of one uniformly chosen representative per cluster.

    Deterministic for a fixed ``rng_seed``.  On the measure-zero event that
    the representatives cancel to a zero-norm mean, a fresh set is drawn.
    """
    cluster_labels = sorted(set(dataset.labels.values()))
    member_lists = []
    for label in cluster_labels:
        members = dataset.clusters.get(label, ())
        if not len(members):
            msg = f"cluster {label} has no members"
            raise ValueError(msg)
        member_lists.append(members)
    rng = np.random.default_rng(rng_seed)
    for _ in range(_RESAMPLE_ATTEMPTS):
        representatives = [members[int(rng.integers(len(members)))] for members in member_lists]
        mean = np.mean(dataset.points.matrix[representatives], axis=0)
        if np.linalg.norm(mean) > _ZERO_NORM:
            return EmbeddingVector("query", mean)
    msg = "composite query kept collapsing to a zero-norm mean"
    raise ValueError(msg)
