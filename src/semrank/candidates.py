"""First-stage candidate generation: exact top-N scan over a corpus.

A :class:`CandidatePool` checks its query similarities and works out its
own pairwise matrix from its candidates; its ids, positions and vectors are
its candidates' :class:`~semrank.geometry.Embeddings` index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import (
    MATRIX_TOL,
    EmbeddingVector,
    Embeddings,
    query_similarities,
    ranked,
    similarity_matrix,
)


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """A query plus its retrieval pool, sorted by query similarity.

    ``candidates`` (kept as an :class:`Embeddings`) are in :func:`ranked`
    order of their query similarities ``query_sims``, which are finite and
    in ``[-1, 1]`` within ``MATRIX_TOL``.  ``query_sims[i]`` belongs to
    ``candidates[i]``, and ``pairwise`` is the read-only
    :func:`~semrank.geometry.similarity_matrix` of the candidates in the same
    order, computed with the pool and raising that function's errors.
    """

    query: EmbeddingVector
    candidates: Embeddings
    query_sims: np.ndarray
    pairwise: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        candidates = Embeddings(self.candidates)
        object.__setattr__(self, "candidates", candidates)
        sims = np.asarray(self.query_sims, dtype=np.float64)
        if len(candidates) != sims.size:
            msg = "pool candidates and query similarities disagree in size"
            raise ValueError(msg)
        # Written so that a NaN, which fails every comparison, fails it too.
        bad = np.flatnonzero(~(np.abs(sims) <= 1.0 + MATRIX_TOL))
        if bad.size:
            i = bad[0]
            msg = f"query similarity of {candidates[i].id!r} is {float(sims[i])}, expected a value in [-1, 1]"
            raise ValueError(msg)
        if not np.array_equal(ranked(sims, candidates.id_ranks), np.arange(sims.size)):
            msg = "pool must be sorted by descending query similarity, ties by id"
            raise ValueError(msg)
        sims = sims.copy()
        sims.setflags(write=False)
        object.__setattr__(self, "query_sims", sims)
        object.__setattr__(self, "pairwise", similarity_matrix(candidates))

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def ids(self) -> tuple[str, ...]:
        return self.candidates.ids

    def vector(self, item_id: str) -> EmbeddingVector:
        position = self.candidates.positions.get(item_id)
        if position is None:
            msg = f"unknown pool item {item_id!r}"
            raise ValueError(msg)
        return self.candidates[position]


def top_n_candidates(query: EmbeddingVector, corpus: Sequence[EmbeddingVector], n: int) -> CandidatePool:
    """Exact scan: the ``n`` corpus items most cosine-similar to ``query``.

    The scan is exhaustive (no index, no approximation), so the pool is the
    true top-N.  Requires ``1 <= n <= len(corpus)`` and unique corpus ids.
    """
    if not corpus:
        msg = "candidate generation requires a non-empty corpus"
        raise ValueError(msg)
    if n < 1:
        msg = f"pool size must be >= 1, got {n}"
        raise ValueError(msg)
    if n > len(corpus):
        msg = f"pool size {n} exceeds corpus size {len(corpus)}"
        raise ValueError(msg)
    corpus = Embeddings(corpus)
    if corpus.first_duplicate is not None:
        msg = f"duplicate item id {corpus.first_duplicate!r}"
        raise ValueError(msg)
    sims = query_similarities(query, corpus)
    # Only items at or above the n-th largest similarity can make the pool.
    cutoff = np.partition(sims, sims.size - n)[sims.size - n]
    contenders = np.flatnonzero(sims >= cutoff)
    order = contenders[ranked(sims[contenders], corpus.id_ranks[contenders])[:n]]
    return CandidatePool(query=query, candidates=corpus.take(order), query_sims=sims[order])
