"""First-stage candidate generation: exact top-N scan over a corpus."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import EmbeddingVector, Embeddings, SimilarityMatrix, query_similarities, similarity_matrix


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """A query plus its retrieval pool, sorted by query similarity.

    ``candidates`` are ordered by descending cosine similarity to the query;
    exact ties fall back to ascending item id so pools are deterministic.
    ``query_sims[i]`` belongs to ``candidates[i]`` and ``pairwise`` covers the
    pool in the same order.
    """

    query: EmbeddingVector
    candidates: tuple[EmbeddingVector, ...]
    query_sims: np.ndarray
    pairwise: SimilarityMatrix

    def __post_init__(self) -> None:
        sims = np.asarray(self.query_sims, dtype=np.float64)
        if len(self.candidates) != sims.size or len(self.candidates) != len(self.pairwise):
            msg = "pool candidates, similarities and pairwise matrix disagree in size"
            raise ValueError(msg)
        if tuple(v.id for v in self.candidates) != self.pairwise.order:
            msg = "pool candidate order does not match pairwise matrix order"
            raise ValueError(msg)
        keys = [(-float(s), v.id) for s, v in zip(sims, self.candidates)]
        if keys != sorted(keys):
            msg = "pool must be sorted by descending query similarity, ties by id"
            raise ValueError(msg)
        sims = sims.copy()
        sims.setflags(write=False)
        object.__setattr__(self, "query_sims", sims)

    def __len__(self) -> int:
        return len(self.candidates)

    @property
    def ids(self) -> tuple[str, ...]:
        return self.pairwise.order

    @cached_property
    def _by_id(self) -> dict[str, EmbeddingVector]:
        return {v.id: v for v in self.candidates}

    def vector(self, item_id: str) -> EmbeddingVector:
        try:
            return self._by_id[item_id]
        except KeyError:
            msg = f"unknown pool item {item_id!r}"
            raise ValueError(msg) from None

    def query_similarity(self, item_id: str) -> float:
        return float(self.query_sims[self.pairwise.positions[self.vector(item_id).id]])


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
    corpus = Embeddings.of(corpus)
    if corpus.first_duplicate is not None:
        msg = f"duplicate item id {corpus.first_duplicate!r}"
        raise ValueError(msg)
    sims = query_similarities(query, corpus)
    # Only items at or above the n-th largest similarity can make the pool.
    cutoff = np.partition(sims, sims.size - n)[sims.size - n]
    contenders = np.flatnonzero(sims >= cutoff).tolist()
    order = sorted(contenders, key=lambda i: (-sims[i], corpus[i].id))[:n]
    chosen = corpus.take(order)
    return CandidatePool(
        query=query,
        candidates=chosen,
        query_sims=sims[order],
        pairwise=similarity_matrix(chosen),
    )
