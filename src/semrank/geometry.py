"""Cosine-similarity vector primitives shared by every retrieval stage.

All scoring in this package is angular: vectors are compared by the cosine
of the angle between them, so magnitudes never matter once a vector is
non-zero.  Dot-product scoring would slot in next to :func:`cosine_similarity`
if it were ever needed, but only cosine is implemented today.

Every pairwise cosine comes from one kernel over the unit rows ``U``, in
square tiles of side about ``_BLOCK``: the tile at row block ``a`` and
column block ``b`` is ``U[a] @ U[b].T`` when ``b >= a`` and the transpose of
``U[b] @ U[a].T``, the same product recomputed, when ``b < a``.  Cells
``(i, j)`` and ``(j, i)`` therefore always hold the same bits, so the
similarities are exactly symmetric by construction and need no symmetry
pass.  :func:`similarity_rows` gives the clipped rows one block at a time,
so a caller that reads the matrix row by row (the kNN build) never holds
N x N values; :func:`similarity_matrix`, for pools, which need all of it,
has the kernel write the same blocks straight into the rows of one N x N
array, with no row buffer between, and returns that array read-only.

A corpus that many queries scan is an :class:`Embeddings`, a tuple of
vectors over one read-only matrix, so :func:`query_similarities` does not
restack N vectors per query.  :meth:`Embeddings.from_matrix` validates a
whole matrix at once; a corpus built from separate vectors checks that they
share one dimension and stacks them as it is built.  Either way each vector
is a read-only view of its row.  The corpus also keeps its index (ids,
positions, vectors by id, unit rows), which the pool, the graph and the
dataset read rather than rebuild.

A vector's norm has two definitions, each implemented once, and both stay
because pinned outputs use both.  :attr:`Embeddings.norms` takes every
row's norm in one batch; the pairwise kernel and the query scans divide by
it.  :func:`vector_norms` takes each vector's norm as the dot product of
the vector with itself, the same bits alone or as a matrix row; the
cosines taken one vector at a time divide by it
(:meth:`EmbeddingVector.norm`, the head election, the dense symbolic
pass).  The two can differ in the last bit.

Every ranking in the package follows one rule: descending score, exact
ties to the smaller id.  :func:`ranked` applies it to positions of a
corpus, given their ranks in id order (:attr:`Embeddings.id_ranks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

# Slack allowed on the range [-1, 1] of a similarity: of every block the
# pairwise kernel yields, and of a pool's query similarities.  Double
# precision keeps us far inside this.
MATRIX_TOL = 1e-12

# Side of the square tiles the pairwise kernel computes (one tile of
# float64 is 128 KiB), and the number of rows per block of
# :func:`similarity_rows`.
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
        with np.errstate(over="ignore"):
            norm = vector_norms(values)
        if not np.isfinite(norm):
            raise _infinite_norm(self.id)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def norm(self) -> float:
        return float(vector_norms(self.values))


def _infinite_norm(item_id: str) -> ValueError:
    """The error for a vector whose coordinates are finite but whose
    squares overflow, so that no cosine can be taken of it."""
    return ValueError(f"vector {item_id!r} has a non-finite norm")


def _row_view(item_id: str, row: np.ndarray) -> EmbeddingVector:
    """An :class:`EmbeddingVector` over ``row`` as it is: no copy, no checks."""
    vector = object.__new__(EmbeddingVector)
    vector.__dict__.update(id=item_id, values=row)
    return vector


class Embeddings(tuple):
    """An immutable corpus: a tuple of :class:`EmbeddingVector` over one
    read-only, C-ordered float64 ``matrix`` that holds their values row by
    row, each vector a read-only view of a matrix row (for a corpus from
    :meth:`take`, a row of the corpus it was taken from).

    It reads as a plain tuple.  The row norms and unit rows, the ids with
    their positions, vectors and ranks, and the first duplicate id are
    worked out on first use and kept, so repeated scans of the same corpus
    do not restack or re-check its vectors.
    """

    def __new__(cls, vectors: Iterable[EmbeddingVector] = ()) -> "Embeddings":
        """``vectors`` stacked into ``matrix`` (shape ``(0, 0)`` when empty);
        raises ``ValueError`` naming the first vector whose dimension
        differs from the first vector's."""
        vectors = tuple(vectors)
        dim = vectors[0].dim if vectors else 0
        for v in vectors:
            if v.dim != dim:
                msg = f"dimension mismatch: {v.id!r} has d={v.dim}, expected {dim}"
                raise ValueError(msg)
        matrix = np.array([v.values for v in vectors]).reshape(len(vectors), dim)
        return cls._over(map(_row_view, [v.id for v in vectors], matrix), matrix)

    @classmethod
    def of(cls, vectors: Sequence[EmbeddingVector]) -> "Embeddings":
        """``vectors`` itself if it already is an :class:`Embeddings`,
        else a new one over their values."""
        return vectors if isinstance(vectors, cls) else cls(vectors)

    @classmethod
    def from_matrix(cls, ids: Sequence[str], matrix: np.ndarray) -> "Embeddings":
        """The corpus whose vector ``ids[i]`` is row ``i`` of a C-ordered
        float64 copy of ``matrix``.

        The copy is validated once, with the messages of
        :class:`EmbeddingVector` naming the first offending id, then frozen;
        each vector is a read-only view of its row.  The row norms that the
        check takes are kept as :attr:`norms`.
        """
        ids = tuple(ids)
        # C order, so that every row has the unit stride of
        # :func:`vector_norms`, and a layout never changes a result.
        matrix = np.array(matrix, dtype=np.float64, order="C")
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
        with np.errstate(over="ignore"):
            norms = _row_norms(matrix)
        finite = np.isfinite(norms)
        if not finite.all():
            raise _infinite_norm(ids[int(finite.argmin())])
        corpus = cls._over(map(_row_view, ids, matrix), matrix)
        corpus.__dict__["norms"] = norms
        return corpus

    @classmethod
    def _over(cls, vectors: Iterable[EmbeddingVector], matrix: np.ndarray) -> "Embeddings":
        """``vectors`` with ``matrix``, which holds their values row by row,
        frozen and kept as :attr:`matrix`."""
        # Frozen before ``vectors`` is consumed: a view taken of a writable
        # array stays writable.
        matrix.setflags(write=False)
        corpus = tuple.__new__(cls, vectors)
        corpus.matrix = matrix
        return corpus

    def take(self, positions: Sequence[int]) -> "Embeddings":
        """The vectors at ``positions``, in that order, over the matching
        rows of :attr:`matrix` gathered once."""
        return Embeddings._over((self[i] for i in positions), self.matrix[positions])

    @cached_property
    def norms(self) -> np.ndarray:
        """Read-only Euclidean norm of every row of :attr:`matrix`, taken in
        one batch: the norm of the pairwise kernel (through
        :attr:`unit_rows`) and of the query scans.

        These batched norms and :func:`vector_norms`, one dot product per
        row, sum the squares in different orders, so the two can differ in
        the last bit.  Outputs pinned with one (the head election and the
        dense symbolic weights use the per-vector norm) change if their
        code switches to the other.
        """
        return _row_norms(self.matrix)

    @cached_property
    def unit_rows(self) -> np.ndarray:
        """Read-only rows of :attr:`matrix` scaled to unit norm; a zero-norm
        row stays all zero, and an empty corpus gives shape ``(0, 0)``."""
        if not self:
            rows = np.zeros((0, 0))
        else:
            norms = self.norms[:, None]
            rows = np.divide(self.matrix, norms, out=np.zeros(self.matrix.shape), where=norms > 0.0)
        rows.setflags(write=False)
        return rows

    @cached_property
    def ids(self) -> tuple[str, ...]:
        """Every vector's id, in order."""
        return tuple(v.id for v in self)

    @cached_property
    def positions(self) -> dict[str, int]:
        """Position of each id; a repeated id maps to its last position."""
        return {item_id: i for i, item_id in enumerate(self.ids)}

    @cached_property
    def by_id(self) -> dict[str, EmbeddingVector]:
        """Vector of each id; a repeated id maps to its last vector."""
        return dict(zip(self.ids, self))

    @cached_property
    def id_ranks(self) -> np.ndarray:
        """Read-only rank of each vector's id in ascending id order, so
        positions can be ordered by id with an integer sort."""
        ranks = np.empty(len(self), dtype=np.intp)
        ranks[sorted(range(len(self)), key=self.ids.__getitem__)] = np.arange(len(self))
        ranks.setflags(write=False)
        return ranks

    @cached_property
    def first_duplicate(self) -> str | None:
        """The first id that repeats an earlier one, or ``None``."""
        seen: set[str] = set()
        for v in self:
            if v.id in seen:
                return v.id
            seen.add(v.id)
        return None


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """Read-only Euclidean norm of every row of ``matrix``."""
    norms = np.linalg.norm(matrix, axis=1)
    norms.setflags(write=False)
    return norms


def vector_norms(rows: np.ndarray) -> np.ndarray:
    """Norm of each vector along the last axis of ``rows``, one ``ddot`` of
    the vector with itself, so alone or as a matrix row it gives one value.
    Each vector needs unit stride (a C-ordered row): a strided vector is
    summed in another order, which can change the last bit."""
    return np.sqrt(np.vecdot(rows, rows))


def positive_norm(vector: EmbeddingVector) -> float:
    """``vector.norm()``; raises ``ValueError`` naming the vector unless
    it is > 0, since no cosine can be taken of a zero vector."""
    norm = vector.norm()
    if not norm > 0.0:
        raise _zero_norm(vector.id)
    return norm


def reject_zero_norms(ids: Sequence[str], norms: np.ndarray, positions: np.ndarray | None = None) -> None:
    """Raise :func:`positive_norm`'s error naming ``ids[i]`` for the first
    ``i`` of ``positions`` (by default every position, ascending) whose
    ``norms[i]`` is not > 0, as a NaN is not."""
    if positions is None:
        positions = np.arange(len(norms))
    zero = positions[~(norms[positions] > 0.0)]
    if zero.size:
        raise _zero_norm(ids[zero[0]])


def _zero_norm(item_id: str) -> ValueError:
    return ValueError(f"cosine similarity undefined for zero-norm vector {item_id!r}")


def ranked(scores: np.ndarray, id_ranks: np.ndarray) -> np.ndarray:
    """Positions of ``scores`` by descending score, exact ties by ascending
    ``id_ranks`` (the ranks of the positions' ids in id order).

    A 2-D ``scores`` is ranked row by row, each row against the same row of
    an ``id_ranks`` of its shape (``np.broadcast_to`` gives one without a
    copy): row ``i`` of the result is ``ranked(scores[i], id_ranks[i])``."""
    return np.lexsort((id_ranks, -scores))


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine of the angle between two embeddings.

    Raises ``ValueError`` on dimension mismatch or a zero-norm operand; the
    offending id is named in the message.
    """
    if a.dim != b.dim:
        msg = f"dimension mismatch: {a.id!r} has d={a.dim}, {b.id!r} has d={b.dim}"
        raise ValueError(msg)
    norm_a = positive_norm(a)
    norm_b = positive_norm(b)
    value = float(np.dot(a.values, b.values) / (norm_a * norm_b))
    # Clamp floating-point spill so the contract value stays in [-1, 1].
    return float(min(1.0, max(-1.0, value)))


def _unit_rows(corpus: Embeddings) -> np.ndarray:
    """:attr:`Embeddings.unit_rows` of ``corpus``, after the checks of
    :func:`similarity_matrix`."""
    if not corpus:
        msg = "similarity matrix requires at least one vector"
        raise ValueError(msg)
    if corpus.first_duplicate is not None:
        msg = f"duplicate item id {corpus.first_duplicate!r}"
        raise ValueError(msg)
    reject_zero_norms(corpus.ids, corpus.norms)
    return corpus.unit_rows


def similarity_matrix(vectors: Sequence[EmbeddingVector]) -> np.ndarray:
    """Read-only N x N pairwise cosine matrix over ``vectors``, in their
    order: the blocks of :func:`similarity_rows`, written in place into one
    array, so it is exactly symmetric with a unit diagonal.

    Ids must be unique and dimensions uniform; zero-norm rows are rejected
    with the offending id, mirroring :func:`cosine_similarity`.
    """
    unit = _unit_rows(Embeddings.of(vectors))
    entries = np.empty((len(unit), len(unit)))
    for _ in _row_blocks(unit, entries):
        pass
    entries.setflags(write=False)
    return entries


def similarity_rows(vectors: Sequence[EmbeddingVector]) -> Iterator[tuple[int, np.ndarray]]:
    """The rows of the pairwise cosine matrix over ``vectors``, about
    ``_BLOCK`` rows at a time.

    ``vectors`` is checked at once, with :func:`similarity_matrix`'s errors
    in its order.  Each block is ``(start, rows)``, where ``rows[r]`` is row
    ``start + r`` of the tile kernel's matrix (see the module docstring),
    clipped to ``[-1, 1]`` with a unit diagonal; stacked, the blocks are
    exactly symmetric.  A block whose values leave ``[-1, 1]`` (a NaN does)
    raises ``ValueError``.

    ``rows`` lives in one buffer every block overwrites, so the iteration
    holds one block of values and one tile; copy what must outlive a step.
    """
    return _row_blocks(_unit_rows(Embeddings.of(vectors)))


def _row_blocks(unit: np.ndarray, out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """The tile kernel: ``(start, rows)`` for each row block of the matrix
    over the unit rows ``unit``.  ``rows`` is the block's rows of ``out``, an
    N x N array that ends up holding the whole matrix, or, without ``out``,
    one buffer every block overwrites."""
    n = len(unit)
    starts = list(range(0, n, _BLOCK))
    # A one-row product goes through gemv, which rounds differently from
    # the matrix products, so a one-row tail joins the block before it.
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    blocks = [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]
    height = max(block.stop - block.start for block in blocks)
    # Flat buffers, so the head of each is a C-contiguous block or tile and
    # numpy writes each product straight into the tile.
    row_buffer = np.empty(height * n) if out is None else None
    tile_buffer = np.empty(height * height)
    for a, rows_of in enumerate(blocks):
        if out is None:
            rows = row_buffer[: (rows_of.stop - rows_of.start) * n].reshape(-1, n)
        else:
            rows = out[rows_of]
        for b, columns in enumerate(blocks):
            # Below the diagonal, recompute the tile above it with the same
            # operands, so cell (j, i) is the very product cell (i, j) was.
            left, right = (unit[rows_of], unit[columns]) if a <= b else (unit[columns], unit[rows_of])
            tile = tile_buffer[: len(left) * len(right)].reshape(len(left), len(right))
            np.matmul(left, right.T, out=tile)
            rows[:, columns] = tile if a <= b else tile.T
        np.clip(rows, -1.0, 1.0, out=rows)
        np.fill_diagonal(rows[:, rows_of], 1.0)
        # Written so that a NaN, which fails every comparison, fails it too.
        if not (rows.min() >= -1.0 - MATRIX_TOL and rows.max() <= 1.0 + MATRIX_TOL):
            msg = "similarity values must lie in [-1, 1]"
            raise ValueError(msg)
        yield rows_of.start, rows


def query_similarities(query: EmbeddingVector, vectors: Sequence[EmbeddingVector]) -> np.ndarray:
    """Cosine similarity of ``query`` against each vector, in input order.

    Raises the errors of :func:`cosine_similarity`, naming the first
    offending vector.
    """
    if not vectors:
        return np.zeros(0)
    corpus = Embeddings.of(vectors)
    if corpus.matrix.shape[1] != query.dim:
        msg = f"dimension mismatch: {query.id!r} has d={query.dim}, {corpus[0].id!r} has d={corpus[0].dim}"
        raise ValueError(msg)
    query_norm = positive_norm(query)
    reject_zero_norms(corpus.ids, corpus.norms)
    return np.clip(corpus.matrix @ query.values / (query_norm * corpus.norms), -1.0, 1.0)
