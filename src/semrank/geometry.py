"""Cosine-similarity vector primitives shared by every retrieval stage.

All scoring in this package is angular: vectors are compared by the cosine
of the angle between them, so magnitudes never matter once a vector is
non-zero.  Dot-product scoring would slot in next to :func:`cosine_similarity`
if it were ever needed, but only cosine is implemented today.

The pairwise stage holds one N x N array.  :func:`similarity_matrix` fills
it with a single Gram product, then symmetrises, clips and validates it in
place, one square block pair at a time, so no other N x N temporary exists;
the array it built is handed to :class:`SimilarityMatrix` without a copy.
An array any other caller passes to :class:`SimilarityMatrix` is copied, so
later writes to it never reach ``entries``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

# Slack allowed on symmetry / unit diagonal / value range of a validated
# similarity matrix.  Double precision keeps us far inside this.
MATRIX_TOL = 1e-12

# Side of the square blocks the pairwise stage is symmetrised and checked
# in; one block of float64 is 128 KiB.
_BLOCK = 128


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """A d-dimensional embedding with an opaque item id."""

    id: str
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            msg = f"vector {self.id!r} must be one-dimensional and non-empty"
            raise ValueError(msg)
        if not np.all(np.isfinite(values)):
            msg = f"vector {self.id!r} has non-finite coordinates"
            raise ValueError(msg)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Pairwise cosine similarities for an ordered set of items.

    ``entries[i, j]`` is the cosine similarity between the items at
    positions ``i`` and ``j`` of ``order``.  The matrix is symmetric with a
    unit diagonal and every entry in ``[-1, 1]`` (all within ``MATRIX_TOL``).
    """

    order: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", np.array(self.entries, dtype=np.float64))
        self._validate()

    @classmethod
    def _adopt(cls, order: tuple[str, ...], entries: np.ndarray) -> "SimilarityMatrix":
        """Validate and wrap a float64 array nothing else references,
        without the defensive copy."""
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "order", order)
        object.__setattr__(matrix, "entries", entries)
        matrix._validate()
        return matrix

    def _validate(self) -> None:
        """Check the contract on ``entries`` in place, then freeze it."""
        entries = self.entries
        n = len(self.order)
        if len(set(self.order)) != n:
            msg = "similarity matrix order contains duplicate ids"
            raise ValueError(msg)
        if entries.shape != (n, n):
            msg = f"entries shape {entries.shape} does not match {n} ids"
            raise ValueError(msg)
        if n and _asymmetry(entries) > MATRIX_TOL:
            msg = "similarity matrix is not symmetric"
            raise ValueError(msg)
        if n and np.abs(np.diagonal(entries) - 1.0).max() > MATRIX_TOL:
            msg = "similarity matrix diagonal must be 1"
            raise ValueError(msg)
        if n and (entries.min() < -1.0 - MATRIX_TOL or entries.max() > 1.0 + MATRIX_TOL):
            msg = "similarity values must lie in [-1, 1]"
            raise ValueError(msg)
        entries.setflags(write=False)

    def __len__(self) -> int:
        return len(self.order)

    @cached_property
    def positions(self) -> dict[str, int]:
        return {item_id: i for i, item_id in enumerate(self.order)}

    def value(self, a: str, b: str) -> float:
        return float(self.entries[self.positions[a], self.positions[b]])


def _block_pairs(n: int) -> Iterator[tuple[slice, slice]]:
    """Row and column slices of every ``_BLOCK``-square block of an
    ``n x n`` array on or above the diagonal."""
    for start in range(0, n, _BLOCK):
        rows = slice(start, start + _BLOCK)
        for column in range(start, n, _BLOCK):
            yield rows, slice(column, column + _BLOCK)


def _asymmetry(entries: np.ndarray) -> float:
    """``abs(entries - entries.T).max()``, one block pair at a time; a NaN
    anywhere makes it NaN, as it does the whole-matrix expression."""
    pairs = _block_pairs(len(entries))
    return float(np.max([np.abs(entries[rows, cols] - entries[cols, rows].T).max() for rows, cols in pairs]))


def _symmetrize_clip(entries: np.ndarray) -> None:
    """Replace ``entries`` by ``np.clip((entries + entries.T) / 2, -1, 1)``
    in place, bit for bit.

    Each block pair is averaged once and written to both halves: IEEE
    addition commutes, so the lower half gets the very bits the full
    formula gives it.
    """
    buffer = np.empty((_BLOCK, _BLOCK))
    for rows, cols in _block_pairs(len(entries)):
        upper = entries[rows, cols]
        mean = buffer[: upper.shape[0], : upper.shape[1]]
        np.add(upper, entries[cols, rows].T, out=mean)
        mean /= 2.0
        np.clip(mean, -1.0, 1.0, out=mean)
        upper[...] = mean
        entries[cols, rows] = mean.T


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine of the angle between two embeddings.

    Raises ``ValueError`` on dimension mismatch or a zero-norm operand; the
    offending id is named in the message.
    """
    if a.dim != b.dim:
        msg = f"dimension mismatch: {a.id!r} has d={a.dim}, {b.id!r} has d={b.dim}"
        raise ValueError(msg)
    norm_a = a.norm()
    norm_b = b.norm()
    if not norm_a > 0.0:
        msg = f"cosine similarity undefined for zero-norm vector {a.id!r}"
        raise ValueError(msg)
    if not norm_b > 0.0:
        msg = f"cosine similarity undefined for zero-norm vector {b.id!r}"
        raise ValueError(msg)
    value = float(np.dot(a.values, b.values) / (norm_a * norm_b))
    # Clamp floating-point spill so the contract value stays in [-1, 1].
    return float(min(1.0, max(-1.0, value)))


def normalize(vector: EmbeddingVector) -> EmbeddingVector:
    """Return the unit-norm version of ``vector`` (same id)."""
    norm = vector.norm()
    if not norm > 0.0:
        msg = f"cannot normalize zero-norm vector {vector.id!r}"
        raise ValueError(msg)
    return EmbeddingVector(vector.id, vector.values / norm)


def similarity_matrix(vectors: Sequence[EmbeddingVector]) -> SimilarityMatrix:
    """Dense pairwise cosine matrix over ``vectors``.

    Ids must be unique and dimensions uniform; zero-norm rows are rejected
    with the offending id, mirroring :func:`cosine_similarity`.
    """
    if not vectors:
        msg = "similarity matrix requires at least one vector"
        raise ValueError(msg)
    ids = [v.id for v in vectors]
    seen: set[str] = set()
    for item_id in ids:
        if item_id in seen:
            msg = f"duplicate item id {item_id!r}"
            raise ValueError(msg)
        seen.add(item_id)
    dim = vectors[0].dim
    for v in vectors[1:]:
        if v.dim != dim:
            msg = f"dimension mismatch: {v.id!r} has d={v.dim}, expected {dim}"
            raise ValueError(msg)
    stacked = np.stack([v.values for v in vectors])
    norms = np.linalg.norm(stacked, axis=1)
    for v, norm in zip(vectors, norms):
        if not norm > 0.0:
            msg = f"cosine similarity undefined for zero-norm vector {v.id!r}"
            raise ValueError(msg)
    unit = stacked / norms[:, None]
    entries = unit @ unit.T
    _symmetrize_clip(entries)
    np.fill_diagonal(entries, 1.0)
    return SimilarityMatrix._adopt(tuple(ids), entries)


def query_similarities(query: EmbeddingVector, vectors: Sequence[EmbeddingVector]) -> np.ndarray:
    """Cosine similarity of ``query`` against each vector, in input order.

    Raises the errors of :func:`cosine_similarity`, naming the first
    offending vector.
    """
    if not vectors:
        return np.zeros(0)
    try:
        stacked = np.stack([v.values for v in vectors])
        uniform = stacked.shape[1] == query.dim
    except ValueError:  # rows of different lengths
        uniform = False
    if not uniform:
        v = next(v for v in vectors if v.dim != query.dim)
        msg = f"dimension mismatch: {query.id!r} has d={query.dim}, {v.id!r} has d={v.dim}"
        raise ValueError(msg)
    query_norm = query.norm()
    if not query_norm > 0.0:
        msg = f"cosine similarity undefined for zero-norm vector {query.id!r}"
        raise ValueError(msg)
    norms = np.linalg.norm(stacked, axis=1)
    zero = np.flatnonzero(~(norms > 0.0))
    if zero.size:
        msg = f"cosine similarity undefined for zero-norm vector {vectors[zero[0]].id!r}"
        raise ValueError(msg)
    return np.clip(stacked @ query.values / (query_norm * norms), -1.0, 1.0)
