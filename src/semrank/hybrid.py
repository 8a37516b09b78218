"""Blend direct vector similarity with graph diffusion mass into one ranking.

The blended score of an item ``v`` for query ``q`` is

    score(v) = (1 - beta) * cos(v, q) + beta * ppr_mass(v)

``beta = 0`` is plain similarity ranking, ``beta = 1`` ranks purely by
diffusion.  Scores of the two channels live on different scales (cosine in
[-1, 1], diffusion mass in [0, 1] summing to 1); they are blended raw.

The relevance and diversity metrics take the corpus their item ids index
and read the items' rows and norms from it by position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .candidates import CandidatePool
from .geometry import EmbeddingVector, Embeddings, cosine_similarity, positive_norm, ranked, reject_zero_norms
from .graph import PprConfig, SeedVector, SemanticGraph, normalize_adjacency, ppr_mass

METHOD_TAGS = ("topk_ann", "semantic_compression", "graph_ppr", "hybrid")


@dataclass(frozen=True)
class HybridConfig:
    """Blend weight and result size."""

    beta: float
    k: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            msg = f"beta must lie in [0, 1], got {self.beta}"
            raise ValueError(msg)
        if self.k < 1:
            msg = f"result size k must be >= 1, got {self.k}"
            raise ValueError(msg)


@dataclass(frozen=True)
class RetrievalResult:
    """One method's ranked output plus its evaluation metrics.

    ``items`` pairs item ids with the scores that ranked them; ids are
    distinct.  ``relevance`` and ``diversity`` are recomputable from the item
    list via :func:`relevance_metric` and :func:`diversity_metric`
    (``diversity`` is reported as 0 for single-item results, where the
    pairwise metric is undefined).
    """

    method: str
    items: tuple[tuple[str, float], ...]
    relevance: float
    diversity: float

    def __post_init__(self) -> None:
        if self.method not in METHOD_TAGS:
            msg = f"unknown method tag {self.method!r}"
            raise ValueError(msg)
        ids = [item_id for item_id, _ in self.items]
        if len(ids) != len(set(ids)):
            msg = "result items contain duplicate ids"
            raise ValueError(msg)

    @property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(item_id for item_id, _ in self.items)


def _method_tag(beta: float) -> str:
    if beta == 0.0:
        return "topk_ann"
    if beta == 1.0:
        return "graph_ppr"
    return "hybrid"


def rank_hybrid(
    pool: CandidatePool,
    graph: SemanticGraph,
    seed: SeedVector,
    ppr_config: PprConfig,
    config: HybridConfig,
) -> RetrievalResult:
    """Score the pool plus its graph out-neighbours and keep the top k.

    The graph must cover every pool node.  Neighbours outside the pool are
    scored from their stored embeddings, not defaulted, so a strong graph
    signal can promote an item the first stage missed.  Items are in
    :func:`ranked` order of blended score.
    """
    positions = graph.nodes.positions
    for item_id in pool.ids:
        if item_id not in positions:
            msg = f"pool item {item_id!r} is missing from the graph"
            raise ValueError(msg)
    adjacency = normalize_adjacency(graph)
    in_pool = np.zeros(len(graph), dtype=bool)
    in_pool[[positions[item_id] for item_id in pool.ids]] = True
    in_scope = in_pool.copy()
    in_scope[adjacency.indices[np.repeat(in_pool, adjacency.degrees)]] = True
    scope = np.flatnonzero(in_scope)
    if config.k > scope.size:
        msg = f"result size {config.k} exceeds scored scope of {scope.size} items"
        raise ValueError(msg)

    graph_raw = ppr_mass(adjacency, seed, ppr_config)[scope]
    direct = _query_cosines(pool.query, graph, scope)
    blended = (1.0 - config.beta) * direct + config.beta * graph_raw
    top = ranked(blended, graph.nodes.id_ranks[scope])[: config.k]
    items = [(graph.node_ids[scope[j]], float(blended[j])) for j in top]
    return build_result(_method_tag(config.beta), items, graph.nodes, pool.query)


def _query_cosines(query: EmbeddingVector, graph: SemanticGraph, rows: np.ndarray) -> np.ndarray:
    """Cosine of ``query`` against the graph nodes at positions ``rows``,
    with :func:`cosine_similarity`'s errors and clamping."""
    unit = graph.nodes.unit_rows
    if rows.size and unit.shape[1] != query.dim:
        first = graph.nodes[rows[0]]
        msg = f"dimension mismatch: {first.id!r} has d={first.dim}, {query.id!r} has d={query.dim}"
        raise ValueError(msg)
    reject_zero_norms(graph.node_ids, graph.nodes.norms, rows)
    query_norm = positive_norm(query)
    return np.clip(unit[rows] @ (query.values / query_norm), -1.0, 1.0)


def _located(item_ids: Sequence[str], corpus: Iterable[EmbeddingVector]) -> tuple[np.ndarray, Embeddings]:
    """The position in ``corpus`` of each of ``item_ids`` (``-1`` for an
    unknown id), and ``corpus`` as an :class:`Embeddings`."""
    corpus = Embeddings(corpus)
    positions = corpus.positions
    return np.array([positions.get(item_id, -1) for item_id in item_ids], dtype=np.intp), corpus


def relevance_metric(item_ids: Sequence[str], query: EmbeddingVector, corpus: Iterable[EmbeddingVector]) -> float:
    """Mean cosine similarity between the query and the retrieved items,
    found by id in ``corpus``.

    Errors are those of :func:`cosine_similarity` applied item by item:
    the first item that is unknown, of the wrong dimension or zero-norm is
    named, and a zero-norm query fails at the first item.
    """
    return _relevance(item_ids, query, *_located(item_ids, corpus))


def _relevance(item_ids: Sequence[str], query: EmbeddingVector, rows: np.ndarray, corpus: Embeddings) -> float:
    """:func:`relevance_metric` of ``item_ids``, at positions ``rows`` of ``corpus``."""
    if not item_ids:
        msg = "relevance is undefined for an empty item list"
        raise ValueError(msg)
    query_norm = query.norm()
    valid = (rows >= 0).all() and corpus.matrix.shape[1] == query.dim and (corpus.norms[rows] > 0.0).all()
    if not (valid and query_norm > 0.0):
        # Raises at the first item that fails.
        for item_id, row in zip(item_ids, rows.tolist()):
            if row < 0:
                msg = f"unknown item {item_id!r}"
                raise ValueError(msg)
            cosine_similarity(corpus[row], query)
    cosines = np.clip(corpus.matrix[rows] @ query.values / (corpus.norms[rows] * query_norm), -1.0, 1.0)
    return float(cosines.sum()) / len(item_ids)


def diversity_metric(item_ids: Sequence[str], corpus: Iterable[EmbeddingVector]) -> float:
    """One minus the mean pairwise cosine over unordered distinct pairs of
    the items, found by id in ``corpus``.

    Needs at least two items; the value lies in [0, 2] (2 when every pair
    points in exactly opposite directions).  Errors name the first unknown
    item, then the first zero-norm one, as :func:`cosine_similarity` over
    the pairs in order ``(0, 1), (0, 2), ...`` would.
    """
    return _diversity(item_ids, *_located(item_ids, corpus))


def _diversity(item_ids: Sequence[str], rows: np.ndarray, corpus: Embeddings) -> float:
    """:func:`diversity_metric` of ``item_ids``, at positions ``rows`` of ``corpus``."""
    if len(item_ids) < 2:
        msg = f"diversity needs at least two items, got {len(item_ids)}"
        raise ValueError(msg)
    if (rows < 0).any():
        msg = f"unknown item {item_ids[(rows < 0).argmax()]!r}"
        raise ValueError(msg)
    reject_zero_norms(corpus.ids, corpus.norms, rows)
    values, norms = corpus.matrix[rows], corpus.norms[rows]
    cosines = np.clip(values @ values.T / np.outer(norms, norms), -1.0, 1.0)
    upper = cosines[np.triu_indices(len(rows), 1)]
    return 1.0 - float(upper.sum()) / upper.size


def build_result(
    method: str,
    items: Sequence[tuple[str, float]],
    corpus: Iterable[EmbeddingVector],
    query: EmbeddingVector,
) -> RetrievalResult:
    """Assemble a :class:`RetrievalResult`, computing both metrics of the
    items, found by id in ``corpus`` once for both."""
    ids = [item_id for item_id, _ in items]
    rows, corpus = _located(ids, corpus)
    relevance = _relevance(ids, query, rows, corpus)
    diversity = _diversity(ids, rows, corpus) if len(ids) >= 2 else 0.0
    return RetrievalResult(
        method=method,
        items=tuple((item_id, float(score)) for item_id, score in items),
        relevance=float(relevance),
        diversity=float(diversity),
    )
