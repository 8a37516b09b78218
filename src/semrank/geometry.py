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

A corpus that many queries scan is an :class:`Embeddings`, a tuple of
vectors over one read-only matrix, so :func:`query_similarities` does not
restack N vectors per query.  :meth:`Embeddings.from_matrix` validates a
whole matrix at once and makes each vector a view of its row; a corpus
built from separate vectors stacks them on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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


def _row_view(item_id: str, row: np.ndarray) -> EmbeddingVector:
    """An :class:`EmbeddingVector` over ``row`` as it is: no copy, no checks."""
    vector = object.__new__(EmbeddingVector)
    vector.__dict__.update(id=item_id, values=row)
    return vector


class Embeddings(tuple):
    """An immutable corpus: a tuple of :class:`EmbeddingVector` over one
    read-only matrix.

    It reads as a plain tuple.  The stacked matrix, its row norms and the
    first duplicate id are worked out on first use and kept, so repeated
    scans of the same corpus do not restack or re-check its vectors.
    """

    @classmethod
    def of(cls, vectors: Sequence[EmbeddingVector]) -> "Embeddings":
        """``vectors`` itself if it already is an :class:`Embeddings`,
        else a new one over the same vectors."""
        return vectors if isinstance(vectors, cls) else cls(vectors)

    @classmethod
    def from_matrix(cls, ids: Sequence[str], matrix: np.ndarray) -> "Embeddings":
        """The corpus whose vector ``ids[i]`` is row ``i`` of a float64 copy
        of ``matrix``.

        The copy is validated once, with the messages of
        :class:`EmbeddingVector` naming the first offending id, then frozen;
        each vector is a read-only view of its row.
        """
        ids = tuple(ids)
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim < 1 or len(matrix) != len(ids):
            msg = f"{len(ids)} ids do not match a matrix of shape {matrix.shape}"
            raise ValueError(msg)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            if ids:
                msg = f"vector {ids[0]!r} must be one-dimensional and non-empty"
            else:
                msg = f"corpus matrix of shape {matrix.shape} needs two dimensions and a column"
            raise ValueError(msg)
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            msg = f"vector {ids[int(finite.argmin())]!r} has non-finite coordinates"
            raise ValueError(msg)
        return cls._over(map(_row_view, ids, matrix), matrix)

    @classmethod
    def _over(cls, vectors: Iterable[EmbeddingVector], matrix: np.ndarray) -> "Embeddings":
        """``vectors`` with ``matrix``, which holds their values row by row,
        frozen and kept as :attr:`matrix`."""
        # Frozen before ``vectors`` is consumed: a view taken of a writable
        # array stays writable.
        matrix.setflags(write=False)
        corpus = cls(vectors)
        corpus.__dict__["matrix"] = matrix
        return corpus

    def take(self, positions: Sequence[int]) -> "Embeddings":
        """The vectors at ``positions``, in that order, over the matching
        rows of :attr:`matrix` gathered once."""
        return Embeddings._over((self[i] for i in positions), self.matrix[positions])

    @cached_property
    def matrix(self) -> np.ndarray:
        """The values stacked into a read-only ``len x d`` array; raises
        ``ValueError`` when the vectors differ in dimension."""
        matrix = np.stack([v.values for v in self])
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def norms(self) -> np.ndarray:
        """Read-only Euclidean norm of every row of :attr:`matrix`."""
        norms = np.linalg.norm(self.matrix, axis=1)
        norms.setflags(write=False)
        return norms

    @cached_property
    def first_duplicate(self) -> str | None:
        """The first id that repeats an earlier one, or ``None``."""
        seen: set[str] = set()
        for v in self:
            if v.id in seen:
                return v.id
            seen.add(v.id)
        return None


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Pairwise cosine similarities for an ordered set of items.

    ``entries[i, j]`` is the cosine similarity between the items at
    positions ``i`` and ``j`` of ``order``.  The matrix is symmetric with a
    unit diagonal and every entry in ``[-1, 1]`` (all within ``MATRIX_TOL``);
    NaN and infinite entries are rejected.
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
        # Written so that a NaN, which fails every comparison, fails it too.
        if n and not (entries.min() >= -1.0 - MATRIX_TOL and entries.max() <= 1.0 + MATRIX_TOL):
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
    anywhere makes it NaN, as it does the whole-matrix expression.

    An infinite entry gives ``inf - inf``, a NaN too, without the
    invalid-value warning: the entry itself fails the diagonal or range
    check that follows.
    """
    pairs = _block_pairs(len(entries))
    with np.errstate(invalid="ignore"):
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
    corpus = Embeddings.of(vectors)
    if corpus.first_duplicate is not None:
        msg = f"duplicate item id {corpus.first_duplicate!r}"
        raise ValueError(msg)
    dim = vectors[0].dim
    for v in vectors[1:]:
        if v.dim != dim:
            msg = f"dimension mismatch: {v.id!r} has d={v.dim}, expected {dim}"
            raise ValueError(msg)
    norms = corpus.norms
    for v, norm in zip(vectors, norms):
        if not norm > 0.0:
            msg = f"cosine similarity undefined for zero-norm vector {v.id!r}"
            raise ValueError(msg)
    unit = corpus.matrix / norms[:, None]
    entries = unit @ unit.T
    _symmetrize_clip(entries)
    np.fill_diagonal(entries, 1.0)
    return SimilarityMatrix._adopt(tuple(v.id for v in vectors), entries)


def query_similarities(query: EmbeddingVector, vectors: Sequence[EmbeddingVector]) -> np.ndarray:
    """Cosine similarity of ``query`` against each vector, in input order.

    Raises the errors of :func:`cosine_similarity`, naming the first
    offending vector.
    """
    if not vectors:
        return np.zeros(0)
    corpus = Embeddings.of(vectors)
    try:
        uniform = corpus.matrix.shape[1] == query.dim
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
    zero = np.flatnonzero(~(corpus.norms > 0.0))
    if zero.size:
        msg = f"cosine similarity undefined for zero-norm vector {vectors[zero[0]].id!r}"
        raise ValueError(msg)
    return np.clip(corpus.matrix @ query.values / (query_norm * corpus.norms), -1.0, 1.0)
