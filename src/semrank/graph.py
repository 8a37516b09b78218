"""Similarity graphs over embeddings and diffusion-based ranking on them.

A graph has two edge kinds: ``knn`` edges, directed from each node to its k
most cosine-similar neighbours, and ``symbolic`` edges, added in both
directions between cluster heads (sparse mode) or between a head and any
sufficiently similar node of another cluster (dense mode).  Parallel edges
of different kinds are legal; adjacency normalisation sums them.

Ranking runs personalized pagerank

    r = alpha * s + (1 - alpha) * A^T r

over the row-stochastic adjacency ``A`` with restart distribution ``s``.
Rows without out-edges (dangling nodes) push their mass back into ``s`` on
every step, which keeps ``r`` a probability distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import EmbeddingVector, similarity_matrix

EDGE_KINDS = ("knn", "symbolic")

# Similarity-derived edge weights are floored here so rows stay strictly
# positive even for orthogonal or opposed neighbours.
EDGE_WEIGHT_FLOOR = 1e-9


@dataclass(frozen=True)
class GraphEdge:
    source: str
    target: str
    weight: float
    kind: str


@dataclass(frozen=True, eq=False)
class SemanticGraph:
    """Immutable directed multigraph over embedded items.

    Invariants: unique node ids, edge endpoints known, weights finite and
    positive, no self-loops, and at most one edge per (source, target, kind).
    Augmentation helpers return new graphs rather than mutating.
    """

    nodes: tuple[EmbeddingVector, ...]
    edges: tuple[GraphEdge, ...]
    cluster_heads: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        ids = [node.id for node in self.nodes]
        known = set(ids)
        if len(known) != len(ids):
            msg = "graph nodes contain duplicate ids"
            raise ValueError(msg)
        seen: set[tuple[str, str, str]] = set()
        for edge in self.edges:
            if edge.kind not in EDGE_KINDS:
                msg = f"unknown edge kind {edge.kind!r}"
                raise ValueError(msg)
            if edge.source not in known or edge.target not in known:
                msg = f"edge {edge.source!r}->{edge.target!r} references unknown node"
                raise ValueError(msg)
            if edge.source == edge.target:
                msg = f"self-loop on {edge.source!r}"
                raise ValueError(msg)
            if not (np.isfinite(edge.weight) and edge.weight > 0.0):
                msg = f"edge {edge.source!r}->{edge.target!r} weight must be finite and > 0"
                raise ValueError(msg)
            key = (edge.source, edge.target, edge.kind)
            if key in seen:
                msg = f"duplicate edge {key}"
                raise ValueError(msg)
            seen.add(key)
        if self.cluster_heads is not None:
            for head in self.cluster_heads:
                if head not in known:
                    msg = f"cluster head {head!r} is not a graph node"
                    raise ValueError(msg)

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)

    @cached_property
    def by_id(self) -> dict[str, EmbeddingVector]:
        return {node.id: node for node in self.nodes}

    @cached_property
    def positions(self) -> dict[str, int]:
        """Position of each node id in ``nodes``."""
        return {node_id: i for i, node_id in enumerate(self.node_ids)}

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Out-edges as read-only CSR arrays ``(indptr, indices, weights)``.

        Row ``i`` lists the targets of ``nodes[i]`` by ascending position;
        parallel edges of different kinds share one entry with their
        weights summed.
        """
        n = len(self.nodes)
        count = len(self.edges)
        positions = self.positions
        sources = np.fromiter((positions[edge.source] for edge in self.edges), dtype=np.intp, count=count)
        targets = np.fromiter((positions[edge.target] for edge in self.edges), dtype=np.intp, count=count)
        weights = np.fromiter((edge.weight for edge in self.edges), dtype=np.float64, count=count)
        keys, slots = np.unique(sources * n + targets, return_inverse=True)
        summed = np.bincount(slots, weights=weights, minlength=keys.size).astype(np.float64)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        arrays = (indptr, keys % n, summed)
        for array in arrays:
            array.setflags(write=False)
        return arrays

    @cached_property
    def adjacency(self) -> "NormalizedAdjacency":
        """Row-stochastic CSR adjacency; see :func:`normalize_adjacency`."""
        indptr, indices, weights = self.csr
        rows = _entry_rows(indptr)
        sums = np.bincount(rows, weights=weights, minlength=len(self.nodes))
        dangling = frozenset(self.node_ids[i] for i in np.flatnonzero(sums == 0.0))
        return NormalizedAdjacency(self.node_ids, indptr, indices, weights / sums[rows], dangling)

    @cached_property
    def unit_rows(self) -> np.ndarray:
        """Node vectors scaled to unit norm, one read-only row per node in
        node order; a zero-norm node keeps an all-zero row."""
        if not self.nodes:
            return np.zeros((0, 0))
        dim = self.nodes[0].dim
        for node in self.nodes:
            if node.dim != dim:
                msg = f"dimension mismatch: {node.id!r} has d={node.dim}, expected {dim}"
                raise ValueError(msg)
        rows = np.stack([node.values for node in self.nodes])
        norms = np.linalg.norm(rows, axis=1)
        nonzero = norms > 0.0
        rows[nonzero] /= norms[nonzero, None]
        rows[~nonzero] = 0.0
        rows.setflags(write=False)
        return rows

    @cached_property
    def id_ranks(self) -> np.ndarray:
        """Rank of each node's id in ascending id order, in node order, so
        node positions can be ordered by id with an integer sort."""
        ranks = np.empty(len(self.nodes), dtype=np.intp)
        ranks[sorted(range(len(self.nodes)), key=self.node_ids.__getitem__)] = np.arange(len(self.nodes))
        ranks.setflags(write=False)
        return ranks

    def vector(self, node_id: str) -> EmbeddingVector:
        try:
            return self.by_id[node_id]
        except KeyError:
            msg = f"unknown graph node {node_id!r}"
            raise ValueError(msg) from None

    def out_neighbors(self, node_id: str) -> set[str]:
        self.vector(node_id)
        indptr, indices, _ = self.csr
        row = self.positions[node_id]
        return {self.node_ids[j] for j in indices[indptr[row] : indptr[row + 1]]}


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """Row index of every CSR entry."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


@dataclass(frozen=True, eq=False)
class NormalizedAdjacency:
    """Row-stochastic adjacency in CSR form; dangling rows stay empty.

    Row ``i`` of the matrix holds ``weights[indptr[i]:indptr[i + 1]]`` at
    columns ``indices[indptr[i]:indptr[i + 1]]``.  Every row sums to 1,
    except the rows of ``dangling`` nodes, which sum to 0.
    """

    order: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    dangling: frozenset[str]

    def __post_init__(self) -> None:
        n = len(self.order)
        indptr = np.array(self.indptr, dtype=np.intp)
        indices = np.array(self.indices, dtype=np.intp)
        weights = np.array(self.weights, dtype=np.float64)
        if (
            indptr.shape != (n + 1,)
            or indptr[0] != 0
            or (np.diff(indptr) < 0).any()
            or indices.shape != (indptr[-1],)
            or weights.shape != indices.shape
            or ((indices < 0) | (indices >= n)).any()
        ):
            msg = f"CSR arrays do not describe a {n}-node adjacency"
            raise ValueError(msg)
        sums = np.bincount(_entry_rows(indptr), weights=weights, minlength=n)
        expected = np.where(self.dangling_rows, 0.0, 1.0)
        wrong = np.flatnonzero(np.abs(sums - expected) > 1e-9)
        if wrong.size:
            i = wrong[0]
            msg = f"row for {self.order[i]!r} sums to {sums[i]}, expected {float(expected[i])}"
            raise ValueError(msg)
        for name, array in (("indptr", indptr), ("indices", indices), ("weights", weights)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def from_dense(
        cls, order: Sequence[str], matrix: np.ndarray, dangling: Iterable[str]
    ) -> "NormalizedAdjacency":
        """Adjacency from a dense row-stochastic matrix; zero entries are dropped."""
        order = tuple(order)
        matrix = np.asarray(matrix, dtype=np.float64)
        n = len(order)
        if matrix.shape != (n, n):
            msg = f"adjacency shape {matrix.shape} does not match {n} nodes"
            raise ValueError(msg)
        rows, columns = np.nonzero(matrix)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(order, indptr, columns, matrix[rows, columns], frozenset(dangling))

    @cached_property
    def dangling_rows(self) -> np.ndarray:
        """Boolean mask of the ``dangling`` nodes, in node order."""
        return np.array([node_id in self.dangling for node_id in self.order], dtype=bool)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Number of entries in every row, in node order."""
        degrees = np.diff(self.indptr)
        degrees.setflags(write=False)
        return degrees

    @cached_property
    def dangling_index(self) -> np.ndarray:
        """Positions of the ``dangling`` nodes, ascending."""
        index = np.flatnonzero(self.dangling_rows)
        index.setflags(write=False)
        return index

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only dense view; ``n * n`` floats, so only for small graphs."""
        n = len(self.order)
        dense = np.zeros((n, n), dtype=np.float64)
        dense[_entry_rows(self.indptr), self.indices] = self.weights
        dense.setflags(write=False)
        return dense


@dataclass(frozen=True)
class PprConfig:
    """Restart weight and convergence budget for personalized pagerank."""

    alpha: float = 0.15
    tolerance: float = 1e-10
    max_iterations: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            msg = f"alpha must lie strictly between 0 and 1, got {self.alpha}"
            raise ValueError(msg)
        if not self.tolerance > 0.0:
            msg = f"tolerance must be > 0, got {self.tolerance}"
            raise ValueError(msg)
        if self.max_iterations < 1:
            msg = f"max_iterations must be >= 1, got {self.max_iterations}"
            raise ValueError(msg)


@dataclass(frozen=True, eq=False)
class SeedVector:
    """Restart distribution aligned to an adjacency's node order."""

    order: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (len(self.order),):
            msg = "seed weights do not match node order"
            raise ValueError(msg)
        if weights.min(initial=0.0) < 0.0:
            msg = "seed weights must be non-negative"
            raise ValueError(msg)
        if not (weights > 0.0).any():
            msg = "seed needs at least one positive weight"
            raise ValueError(msg)
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            msg = f"seed weights sum to {weights.sum()}, expected 1"
            raise ValueError(msg)
        weights = weights.copy()
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, order: Sequence[str], node_ids: Iterable[str]) -> "SeedVector":
        order = tuple(order)
        chosen = list(node_ids)
        if not chosen:
            msg = "uniform seed needs at least one node"
            raise ValueError(msg)
        positions = {node_id: i for i, node_id in enumerate(order)}
        weights = np.zeros(len(order))
        for node_id in chosen:
            if node_id not in positions:
                msg = f"seed node {node_id!r} is not in the graph"
                raise ValueError(msg)
            weights[positions[node_id]] += 1.0 / len(chosen)
        return cls(order=order, weights=weights)


class ConvergenceError(RuntimeError):
    """Raised when power iteration exhausts its budget; carries the residual."""

    def __init__(self, residual: float, iterations: int, tolerance: float) -> None:
        self.residual = float(residual)
        self.iterations = int(iterations)
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"residual {residual:.3e} above tolerance {tolerance:.3e}"
        )


def build_knn_graph(nodes: Sequence[EmbeddingVector], k: int) -> SemanticGraph:
    """Directed graph with an edge from every node to its ``k`` nearest.

    Neighbours rank by cosine similarity, exact ties by ascending id, so the
    out-degree is exactly ``k`` everywhere.  Requires ``1 <= k < len(nodes)``.
    """
    if k < 1:
        msg = f"k must be >= 1, got {k}"
        raise ValueError(msg)
    if k >= len(nodes):
        msg = f"k={k} needs at least {k + 1} nodes, got {len(nodes)}"
        raise ValueError(msg)
    sims = similarity_matrix(nodes)
    ids = sims.order
    edges: list[GraphEdge] = []
    for i, source in enumerate(ids):
        others = [j for j in range(len(ids)) if j != i]
        others.sort(key=lambda j: (-sims.entries[i, j], ids[j]))
        for j in others[:k]:
            weight = max(float(sims.entries[i, j]), EDGE_WEIGHT_FLOOR)
            edges.append(GraphEdge(source=source, target=ids[j], weight=weight, kind="knn"))
    return SemanticGraph(nodes=tuple(nodes), edges=tuple(edges))


def elect_cluster_heads(nodes: Sequence[EmbeddingVector], labels: Mapping[str, int]) -> list[str]:
    """Pick one representative per cluster: the member most similar to the
    cluster's mean vector (cosine; ties to the lowest id).

    Returned heads are ordered by ascending cluster label.  Every node must
    carry a label.  A zero-norm cluster mean makes every member equally good,
    which collapses to the lowest-id member.
    """
    for node in nodes:
        if node.id not in labels:
            msg = f"node {node.id!r} has no cluster label"
            raise ValueError(msg)
    members: dict[int, list[EmbeddingVector]] = {}
    for node in nodes:
        members.setdefault(int(labels[node.id]), []).append(node)
    heads: list[str] = []
    for label in sorted(members):
        cluster = sorted(members[label], key=lambda node: node.id)
        mean = np.mean([node.values for node in cluster], axis=0)
        mean_norm = float(np.linalg.norm(mean))
        if mean_norm > 0.0:
            scored = []
            for node in cluster:
                norm = node.norm()
                if not norm > 0.0:
                    msg = f"cosine similarity undefined for zero-norm vector {node.id!r}"
                    raise ValueError(msg)
                scored.append((-float(np.dot(node.values, mean) / (norm * mean_norm)), node.id))
            heads.append(min(scored)[1])
        else:
            heads.append(cluster[0].id)
    return heads


def _merge_edges(existing: tuple[GraphEdge, ...], added: Iterable[GraphEdge]) -> tuple[GraphEdge, ...]:
    seen = {(edge.source, edge.target, edge.kind) for edge in existing}
    merged = list(existing)
    for edge in added:
        key = (edge.source, edge.target, edge.kind)
        if key not in seen:
            seen.add(key)
            merged.append(edge)
    return tuple(merged)


def _symbolic_pair(a: EmbeddingVector, b: EmbeddingVector, sim: float) -> list[GraphEdge]:
    weight = max(float(sim), EDGE_WEIGHT_FLOOR)
    return [
        GraphEdge(source=a.id, target=b.id, weight=weight, kind="symbolic"),
        GraphEdge(source=b.id, target=a.id, weight=weight, kind="symbolic"),
    ]


def add_symbolic_edges_sparse(graph: SemanticGraph, heads: Sequence[str], m: int) -> SemanticGraph:
    """Link every cluster head to its ``m`` most similar other heads, both
    directions.  Re-running is a no-op thanks to duplicate suppression.
    """
    if not heads:
        msg = "sparse symbolic augmentation needs at least one head"
        raise ValueError(msg)
    if m < 1:
        msg = f"m must be >= 1, got {m}"
        raise ValueError(msg)
    if m >= len(heads):
        msg = f"m={m} needs at least {m + 1} heads, got {len(heads)}"
        raise ValueError(msg)
    head_vectors = [graph.vector(head) for head in heads]
    sims = similarity_matrix(head_vectors)
    added: list[GraphEdge] = []
    for i, head in enumerate(sims.order):
        others = [j for j in range(len(sims.order)) if j != i]
        others.sort(key=lambda j: (-sims.entries[i, j], sims.order[j]))
        for j in others[:m]:
            added.extend(_symbolic_pair(head_vectors[i], head_vectors[j], sims.entries[i, j]))
    return replace(graph, edges=_merge_edges(graph.edges, added), cluster_heads=tuple(heads))


def add_symbolic_edges_dense(
    graph: SemanticGraph,
    heads: Sequence[str],
    threshold: float,
    labels: Mapping[str, int],
) -> SemanticGraph:
    """Link each head to every node of a *different* cluster whose cosine
    similarity exceeds ``threshold``, both directions.

    ``threshold`` must lie strictly inside (-1, 1) and every graph node must
    be labelled.  Idempotent for the same arguments.
    """
    if not heads:
        msg = "dense symbolic augmentation needs at least one head"
        raise ValueError(msg)
    if not -1.0 < threshold < 1.0:
        msg = f"threshold must lie strictly inside (-1, 1), got {threshold}"
        raise ValueError(msg)
    for node in graph.nodes:
        if node.id not in labels:
            msg = f"node {node.id!r} has no cluster label"
            raise ValueError(msg)
    added: list[GraphEdge] = []
    for head in heads:
        head_vector = graph.vector(head)
        head_label = int(labels[head])
        head_norm = head_vector.norm()
        if not head_norm > 0.0:
            msg = f"cosine similarity undefined for zero-norm vector {head!r}"
            raise ValueError(msg)
        for node in graph.nodes:
            if int(labels[node.id]) == head_label:
                continue
            norm = node.norm()
            if not norm > 0.0:
                msg = f"cosine similarity undefined for zero-norm vector {node.id!r}"
                raise ValueError(msg)
            sim = float(np.dot(head_vector.values, node.values) / (head_norm * norm))
            if sim > threshold:
                added.extend(_symbolic_pair(head_vector, node, sim))
    return replace(graph, edges=_merge_edges(graph.edges, added), cluster_heads=tuple(heads))


def normalize_adjacency(graph: SemanticGraph) -> NormalizedAdjacency:
    """Sum parallel edge weights, then normalise each row to sum to 1.

    Nodes without out-edges keep an empty row and are reported in
    ``dangling``.  Built once per graph and cached on it, like
    :attr:`SemanticGraph.csr`.
    """
    return graph.adjacency


def personalized_pagerank(
    adjacency: NormalizedAdjacency,
    seed: SeedVector,
    config: PprConfig | None = None,
) -> list[tuple[str, float]]:
    """Power-iterate ``r = alpha * s + (1 - alpha) * A^T r`` to a fixed point.

    Mass sitting on dangling nodes is re-injected through the seed each step,
    so the result is a probability distribution over nodes (returned in node
    order).  Raises :class:`ConvergenceError` if the L1 step change never
    drops below ``config.tolerance``; because the update is a contraction
    with factor ``1 - alpha``, a converged iterate also satisfies the fixed-
    point equation within the same tolerance.
    """
    config = config or PprConfig()
    if seed.order != adjacency.order:
        msg = "seed order does not match adjacency order"
        raise ValueError(msg)
    s = seed.weights
    n = len(adjacency.order)
    degrees = adjacency.degrees
    targets = adjacency.indices
    weights = adjacency.weights
    dangling = adjacency.dangling_index
    restart = config.alpha * s
    damping = 1.0 - config.alpha
    r = s.copy()
    work = np.empty(n)
    residual = np.inf
    for _ in range(config.max_iterations):
        dangling_mass = float(r[dangling].sum()) if dangling.size else 0.0
        # A^T r: every entry's weighted source mass, scattered onto its
        # target column.  The source masses are gathered row by row.
        mass = r.repeat(degrees)
        np.multiply(weights, mass, out=mass)
        spread = np.bincount(targets, weights=mass, minlength=n)
        # alpha * s + (1 - alpha) * (spread + dangling_mass * s), operation
        # for operation; ``spread`` is int64 when there are no entries, so
        # it is never written to.
        np.multiply(s, dangling_mass, out=work)
        np.add(spread, work, out=work)
        np.multiply(work, damping, out=work)
        np.add(restart, work, out=work)
        # The old iterate's buffer takes |r_next - r| and then becomes the
        # next work buffer.
        np.subtract(work, r, out=r)
        residual = float(np.abs(r, out=r).sum())
        r, work = work, r
        if residual < config.tolerance:
            return list(zip(adjacency.order, r.tolist()))
    raise ConvergenceError(residual=residual, iterations=config.max_iterations, tolerance=config.tolerance)
