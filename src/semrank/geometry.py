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

A corpus that many queries scan is an :class:`Embeddings`, its ids and one
read-only matrix, so :func:`query_similarities` does not restack N vectors
per query; each vector is a read-only view of its row, made when it is
asked for.  :meth:`Embeddings.from_matrix` holds the vector checks, and an
:class:`EmbeddingVector` is checked as a one-row corpus; a corpus built
from separate vectors checks that they share one dimension and stacks them.
The corpus also keeps its index (positions, ranks, unit rows), which the
pool, the graph and the dataset read rather than rebuild; the package finds
a vector by its position, never through :attr:`Embeddings.by_id`.

Cluster labels are an int64 array aligned with a corpus's rows, checked by
:func:`cluster_labels` and grouped, each label's positions in id order, by
:func:`label_groups`, which the dataset and the head election share.

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
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

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
        # Checked as a one-row corpus, with the corpus's messages.
        values = np.asarray(self.values, dtype=np.float64)[None]
        object.__setattr__(self, "values", Embeddings.from_matrix((self.id,), values).matrix[0])

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def norm(self) -> float:
        return float(vector_norms(self.values))


def _row_view(item_id: str, row: np.ndarray) -> EmbeddingVector:
    """An :class:`EmbeddingVector` over ``row`` as it is: no copy, no checks."""
    vector = object.__new__(EmbeddingVector)
    vector.__dict__.update(id=item_id, values=row)
    return vector


class Embeddings(Sequence[EmbeddingVector]):
    """An immutable corpus: the item ``ids`` and one read-only, C-ordered
    float64 ``matrix`` whose row ``i`` holds the values of ``ids[i]``.

    It reads as a sequence of :class:`EmbeddingVector`, each a read-only
    view of its row made when it is asked for, with no identity to search
    for: ``in``, ``index`` and ``count`` raise ``TypeError``, and a vector is
    found by id in :attr:`positions`.  The row norms and unit
    rows, the positions and ranks of the ids, and the first duplicate id
    are worked out on first use and kept, so repeated scans of the same
    corpus do not redo them.
    """

    def __new__(cls, vectors: Iterable[EmbeddingVector] = ()) -> "Embeddings":
        """``vectors`` if it is an :class:`Embeddings`, else their values
        stacked into ``matrix`` (shape ``(0, 0)`` when empty); raises
        ``ValueError`` naming the first vector whose dimension differs."""
        if isinstance(vectors, Embeddings):
            return vectors
        vectors = tuple(vectors)
        dim = vectors[0].dim if vectors else 0
        for v in vectors:
            if v.dim != dim:
                msg = f"dimension mismatch: {v.id!r} has d={v.dim}, expected {dim}"
                raise ValueError(msg)
        matrix = np.array([v.values for v in vectors]).reshape(len(vectors), dim)
        return cls._over(tuple(v.id for v in vectors), matrix)

    @classmethod
    def from_matrix(cls, ids: Sequence[str], matrix: np.ndarray) -> "Embeddings":
        """The corpus whose vector ``ids[i]`` is row ``i`` of a C-ordered
        float64 copy of ``matrix``.

        The copy is validated once, with messages naming the first
        offending id, then frozen.  The row norms that the check takes are
        kept as :attr:`norms`.
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
            # Finite coordinates whose squares overflow: no cosine exists.
            raise ValueError(f"vector {ids[int(finite.argmin())]!r} has a non-finite norm")
        corpus = cls._over(ids, matrix)
        corpus.__dict__["norms"] = norms
        return corpus

    @classmethod
    def _over(cls, ids: tuple[str, ...], matrix: np.ndarray) -> "Embeddings":
        """The corpus of ``ids`` over ``matrix``, which holds their values
        row by row, frozen; nothing is checked."""
        matrix.setflags(write=False)
        corpus = object.__new__(cls)
        corpus.__dict__.update(ids=ids, matrix=matrix)
        return corpus

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[EmbeddingVector]:
        return map(_row_view, self.ids, self.matrix)

    def __getitem__(self, index: int | slice) -> "EmbeddingVector | Embeddings":
        if isinstance(index, slice):
            return self.take(range(len(self))[index])
        return _row_view(self.ids[index], self.matrix[index])

    def _no_vector_identity(self, *args: object) -> NoReturn:
        raise TypeError("a corpus holds rows, not vector objects: find a vector by id in positions")

    __contains__ = index = count = _no_vector_identity

    def take(self, positions: Sequence[int]) -> "Embeddings":
        """The vectors at ``positions``, in that order, over their rows of
        :attr:`matrix` gathered into a matrix of their own."""
        return Embeddings._over(tuple(self.ids[i] for i in positions), self.matrix[positions])

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
    def positions(self) -> dict[str, int]:
        """Position of each id; a repeated id maps to its last position."""
        return {item_id: i for i, item_id in enumerate(self.ids)}

    @property
    def by_id(self) -> Mapping[str, EmbeddingVector]:
        """Vector of each id, made on lookup; a repeated id maps to its last
        row.  Not kept: kept by the corpus it holds, it would be a cycle."""
        return _VectorsById(self)

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
        for item_id in self.ids:
            if item_id in seen:
                return item_id
            seen.add(item_id)
        return None


class _VectorsById(Mapping[str, EmbeddingVector]):
    """:attr:`Embeddings.by_id` of ``corpus``."""

    def __init__(self, corpus: Embeddings) -> None:
        self._corpus = corpus

    def __getitem__(self, item_id: str) -> EmbeddingVector:
        return self._corpus[self._corpus.positions[item_id]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._corpus.positions)

    def __len__(self) -> int:
        return len(self._corpus.positions)


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


def cluster_labels(labels: Sequence[int] | np.ndarray, count: int) -> np.ndarray:
    """A read-only int64 copy of ``labels``, the cluster label of each of
    ``count`` corpus rows by position; raises ``ValueError`` unless its shape
    is ``(count,)`` and, if not empty, its dtype is an integer one that fits
    int64 (a cast would turn a label of 1.5 into 1)."""
    array = np.asarray(labels)
    if array.shape != (count,):
        msg = f"cluster labels of shape {array.shape} do not match {count} points"
        raise ValueError(msg)
    if array.size and not (array.dtype.kind in "iu" and np.can_cast(array.dtype, np.int64)):
        msg = f"cluster labels must be integers that fit int64, got dtype {array.dtype}"
        raise ValueError(msg)
    array = array.astype(np.int64)
    array.setflags(write=False)
    return array


def label_groups(labels: np.ndarray, id_ranks: np.ndarray) -> dict[int, np.ndarray]:
    """Positions of each label's members, in id order (by ``id_ranks``, the
    ranks of the positions' ids), keyed by ascending label; each is a
    read-only view of one array.  Every key has at least one member."""
    order = np.lexsort((id_ranks, labels))
    order.setflags(write=False)
    ordered = labels[order]
    starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return dict(zip(ordered[:1].tolist() + ordered[starts].tolist(), np.split(order, starts)))


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
    unit = _unit_rows(Embeddings(vectors))
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
    return _row_blocks(_unit_rows(Embeddings(vectors)))


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
    corpus = Embeddings(vectors)
    if corpus.matrix.shape[1] != query.dim:
        msg = f"dimension mismatch: {query.id!r} has d={query.dim}, {corpus[0].id!r} has d={corpus[0].dim}"
        raise ValueError(msg)
    query_norm = positive_norm(query)
    reject_zero_norms(corpus.ids, corpus.norms)
    return np.clip(corpus.matrix @ query.values / (query_norm * corpus.norms), -1.0, 1.0)
