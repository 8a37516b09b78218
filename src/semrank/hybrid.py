"""Blend direct vector similarity with graph diffusion mass into one ranking.

The blended score of an item ``v`` for query ``q`` is

    score(v) = (1 - beta) * cos(v, q) + beta * ppr_mass(v)

``beta = 0`` is plain similarity ranking, ``beta = 1`` ranks purely by
diffusion.  Scores of the two channels live on different scales (cosine in
[-1, 1], diffusion mass in [0, 1] summing to 1); they are blended raw by
default, with optional min-max rescaling of the graph channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .candidates import CandidatePool
from .geometry import EmbeddingVector
from .graph import PprConfig, SeedVector, SemanticGraph, normalize_adjacency, personalized_pagerank

METHOD_TAGS = ("topk_ann", "semantic_compression", "graph_ppr", "hybrid")


@dataclass(frozen=True)
class HybridConfig:
    """Blend weight, result size, and optional graph-score rescaling."""

    beta: float
    k: int
    rescale_graph: bool = False

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
    signal can promote an item the first stage missed.  Ordering is by
    descending blended score with exact ties broken by ascending id.
    """
    positions = graph.positions
    for item_id in pool.ids:
        if item_id not in positions:
            msg = f"pool item {item_id!r} is missing from the graph"
            raise ValueError(msg)
    indptr, indices, _ = graph.csr
    in_pool = np.zeros(len(graph), dtype=bool)
    in_pool[[positions[item_id] for item_id in pool.ids]] = True
    in_scope = in_pool.copy()
    in_scope[indices[np.repeat(in_pool, np.diff(indptr))]] = True
    scope = np.flatnonzero(in_scope)
    if config.k > scope.size:
        msg = f"result size {config.k} exceeds scored scope of {scope.size} items"
        raise ValueError(msg)

    ppr = personalized_pagerank(normalize_adjacency(graph), seed, ppr_config)
    mass = np.fromiter(map(itemgetter(1), ppr), dtype=np.float64, count=len(ppr))
    graph_raw = mass[scope]
    if config.rescale_graph:
        low = graph_raw.min()
        span = graph_raw.max() - low
        graph_raw = (graph_raw - low) / span if span > 0.0 else np.zeros_like(graph_raw)

    direct = _query_cosines(pool.query, graph, scope)
    blended = (1.0 - config.beta) * direct + config.beta * graph_raw
    top = np.lexsort((graph.id_ranks[scope], -blended))[: config.k]
    items = [(graph.node_ids[scope[j]], float(blended[j])) for j in top]
    return build_result(_method_tag(config.beta), items, graph.by_id, pool.query)


def _query_cosines(query: EmbeddingVector, graph: SemanticGraph, rows: np.ndarray) -> np.ndarray:
    """Cosine of ``query`` against the graph nodes at positions ``rows``,
    with :func:`cosine_similarity`'s errors and clamping."""
    unit = graph.unit_rows
    if rows.size and unit.shape[1] != query.dim:
        first = graph.nodes[rows[0]]
        msg = f"dimension mismatch: {first.id!r} has d={first.dim}, {query.id!r} has d={query.dim}"
        raise ValueError(msg)
    chosen = unit[rows]
    zero = np.flatnonzero(~chosen.any(axis=1))
    if zero.size:
        msg = f"cosine similarity undefined for zero-norm vector {graph.node_ids[rows[zero[0]]]!r}"
        raise ValueError(msg)
    query_norm = query.norm()
    if not query_norm > 0.0:
        msg = f"cosine similarity undefined for zero-norm vector {query.id!r}"
        raise ValueError(msg)
    return np.clip(chosen @ (query.values / query_norm), -1.0, 1.0)


def _known_prefix(item_ids: Sequence[str], embeddings: Mapping[str, EmbeddingVector]) -> list[EmbeddingVector]:
    """Embeddings of the ids before the first one missing from ``embeddings``."""
    vectors = []
    for item_id in item_ids:
        if item_id not in embeddings:
            break
        vectors.append(embeddings[item_id])
    return vectors


def _leading_rows(vectors: Sequence[EmbeddingVector], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked values and norms of the vectors before the first whose
    dimension is not ``dim``."""
    run = next((i for i, vector in enumerate(vectors) if vector.dim != dim), len(vectors))
    rows = np.array([vector.values for vector in vectors[:run]]).reshape(run, dim)
    return rows, np.linalg.norm(rows, axis=1)


def relevance_metric(
    item_ids: Sequence[str],
    query: EmbeddingVector,
    embeddings: Mapping[str, EmbeddingVector],
) -> float:
    """Mean cosine similarity between the retrieved items and the query.

    Errors are those of :func:`cosine_similarity` applied item by item:
    the first item that is unknown, of the wrong dimension or zero-norm is
    named, and a zero-norm query fails at the first item.
    """
    if not item_ids:
        msg = "relevance is undefined for an empty item list"
        raise ValueError(msg)
    vectors = _known_prefix(item_ids, embeddings)
    rows, norms = _leading_rows(vectors, query.dim)
    zero = np.flatnonzero(~(norms > 0.0))
    first_bad = int(zero[0]) if zero.size else len(rows)
    query_norm = query.norm()
    # A zero-norm query fails the first item unless that item fails first.
    if first_bad > 0 and not query_norm > 0.0:
        msg = f"cosine similarity undefined for zero-norm vector {query.id!r}"
        raise ValueError(msg)
    if first_bad < len(item_ids):
        if zero.size:
            msg = f"cosine similarity undefined for zero-norm vector {vectors[first_bad].id!r}"
        elif first_bad == len(vectors):
            msg = f"unknown item {item_ids[first_bad]!r}"
        else:
            item = vectors[first_bad]
            msg = f"dimension mismatch: {item.id!r} has d={item.dim}, {query.id!r} has d={query.dim}"
        raise ValueError(msg)
    cosines = np.clip(rows @ query.values / (norms * query_norm), -1.0, 1.0)
    return float(cosines.sum()) / len(item_ids)


def diversity_metric(item_ids: Sequence[str], embeddings: Mapping[str, EmbeddingVector]) -> float:
    """One minus the mean pairwise cosine over unordered distinct pairs.

    Needs at least two items; the value lies in [0, 2] (2 when every pair
    points in exactly opposite directions).  Errors are those of
    :func:`cosine_similarity` over the pairs in order ``(0, 1), (0, 2), ...``,
    after every id has been looked up.
    """
    if len(item_ids) < 2:
        msg = f"diversity needs at least two items, got {len(item_ids)}"
        raise ValueError(msg)
    vectors = _known_prefix(item_ids, embeddings)
    if len(vectors) < len(item_ids):
        msg = f"unknown item {item_ids[len(vectors)]!r}"
        raise ValueError(msg)
    rows, norms = _leading_rows(vectors, vectors[0].dim)
    zero = np.flatnonzero(~(norms > 0.0))
    # Pair (0, j) checks the dimension of j, then the norm of item 0, then
    # the norm of j, so a zero-norm item 0 only hides behind a mismatched item 1.
    if zero.size and max(int(zero[0]), 1) < len(rows):
        msg = f"cosine similarity undefined for zero-norm vector {vectors[zero[0]].id!r}"
        raise ValueError(msg)
    if len(rows) < len(vectors):
        first, other = vectors[0], vectors[len(rows)]
        msg = f"dimension mismatch: {first.id!r} has d={first.dim}, {other.id!r} has d={other.dim}"
        raise ValueError(msg)
    cosines = np.clip(rows @ rows.T / np.outer(norms, norms), -1.0, 1.0)
    upper = cosines[np.triu_indices(len(rows), 1)]
    return 1.0 - float(upper.sum()) / upper.size


def build_result(
    method: str,
    items: Sequence[tuple[str, float]],
    embeddings: Mapping[str, EmbeddingVector],
    query: EmbeddingVector,
) -> RetrievalResult:
    """Assemble a :class:`RetrievalResult`, computing both metrics."""
    ids = [item_id for item_id, _ in items]
    relevance = relevance_metric(ids, query, embeddings)
    diversity = diversity_metric(ids, embeddings) if len(ids) >= 2 else 0.0
    return RetrievalResult(
        method=method,
        items=tuple((item_id, float(score)) for item_id, score in items),
        relevance=float(relevance),
        diversity=float(diversity),
    )
