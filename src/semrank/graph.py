"""Similarity graphs over embeddings and diffusion-based ranking on them.

A graph has two edge kinds: ``knn`` edges, directed from each node to its k
most cosine-similar neighbours, and ``symbolic`` edges, added in both
directions between cluster heads (sparse mode) or between a head and any
sufficiently similar node of another cluster (dense mode).  Parallel edges
of different kinds are legal; adjacency normalisation sums them.

A :class:`SemanticGraph` keeps its edges as four parallel read-only arrays
(source and target positions, weights, kind codes), which every builder,
the file format and the read path work on directly; per-edge
:class:`GraphEdge` objects exist only in the lazy :attr:`SemanticGraph.edges`
view, and :meth:`SemanticGraph.from_named` takes edges by id.  The kNN build
fills ``(N, k)`` target and weight arrays row by row, and both symbolic
passes hand ``(m, 2)`` arrays of node-position pairs to one merge.  Node
positions, vectors and unit rows come from the graph's
:class:`~semrank.geometry.Embeddings` ``nodes``, the one place they are
worked out.  Head election and the dense pass take cluster labels as an
array aligned with the nodes.

Ranking runs personalized pagerank

    r = alpha * s + (1 - alpha) * A^T r

over the row-stochastic adjacency ``A`` with restart distribution ``s``.
Rows without out-edges (dangling nodes) push their mass back into ``s`` on
every step, which keeps ``r`` a probability distribution.  A
:class:`NormalizedAdjacency` finds its dangling rows from its own row sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import (
    EmbeddingVector,
    Embeddings,
    cluster_labels,
    label_groups,
    positive_norm,
    ranked,
    reject_zero_norms,
    similarity_matrix,
    similarity_rows,
    vector_norms,
)

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

    Edges are stored as parallel read-only arrays, one entry per edge in
    edge order: ``sources`` and ``targets`` hold node positions (``intp``),
    ``weights`` the weights (``float64``) and ``kind`` a code into
    :data:`EDGE_KINDS` (``int8``).  :attr:`edges` is a lazily built, cached
    tuple of :class:`GraphEdge` over the same arrays, for callers that want
    one object per edge; nothing in this package reads it.

    Invariants: unique node ids, edge endpoints known, weights finite and
    positive, no self-loops, and at most one edge per (source, target, kind).
    A violation raises for the first offending edge in edge order, with its
    checks in that order.  Then every node's out-edge weights must sum to a
    finite value, or the first node whose sum overflows is named.
    Augmentation helpers return new graphs rather than mutating.
    """

    nodes: Embeddings
    sources: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    kind: np.ndarray
    cluster_heads: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", Embeddings(self.nodes))
        n = len(self.nodes)
        if self.nodes.first_duplicate is not None:
            msg = "graph nodes contain duplicate ids"
            raise ValueError(msg)
        codes = np.asarray(self.kind)
        sources = np.array(self.sources, dtype=np.intp)
        targets = np.array(self.targets, dtype=np.intp)
        weights = np.array(self.weights, dtype=np.float64)
        if not (sources.ndim == 1 and sources.shape == targets.shape == weights.shape == codes.shape):
            msg = "edge arrays must be one-dimensional and of one length"
            raise ValueError(msg)
        bad_kind = (codes < 0) | (codes >= len(EDGE_KINDS))
        outside = (sources < 0) | (sources >= n) | (targets < 0) | (targets >= n)
        loop = sources == targets
        bad_weight = ~(np.isfinite(weights) & (weights > 0.0))
        kind = np.where(bad_kind, 0, codes).astype(np.int8)
        keys = _edge_keys(np.where(outside, 0, sources), np.where(outside, 0, targets), kind, n)
        repeat = np.ones(keys.size, dtype=bool)
        repeat[np.unique(keys, return_index=True)[1]] = False
        bad = np.flatnonzero(bad_kind | outside | loop | bad_weight | repeat)
        if bad.size:
            i = int(bad[0])
            source, target = _name(self.node_ids, sources[i]), _name(self.node_ids, targets[i])
            kind_name = _name(EDGE_KINDS, codes[i])
            if bad_kind[i] or outside[i]:
                raise _unknown_name(source, target, kind_name, bool(bad_kind[i]))
            if loop[i]:
                msg = f"self-loop on {source!r}"
            elif bad_weight[i]:
                msg = f"edge {source!r}->{target!r} weight must be finite and > 0"
            else:
                msg = f"duplicate edge {(source, target, kind_name)}"
            raise ValueError(msg)
        # Each weight is finite, but a row's sum can still overflow.
        finite = np.isfinite(np.bincount(sources, weights=weights))
        if not finite.all():
            msg = f"out-edge weights of {self.node_ids[int(finite.argmin())]!r} do not sum to a finite value"
            raise ValueError(msg)
        if self.cluster_heads is not None:
            known = self.nodes.positions
            for head in self.cluster_heads:
                if head not in known:
                    msg = f"cluster head {head!r} is not a graph node"
                    raise ValueError(msg)
        for name, array in (("sources", sources), ("targets", targets), ("weights", weights), ("kind", kind)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def from_named(
        cls,
        nodes: Sequence[EmbeddingVector],
        edges: Iterable[tuple[str, str, float, str]],
        cluster_heads: Sequence[str] | None = None,
    ) -> "SemanticGraph":
        """The graph over ``nodes`` whose edges, in order, are ``(source id,
        target id, weight, kind name)`` tuples.

        Validated like the constructor, except that an unknown id or kind is
        reported as it was given.
        """
        nodes = Embeddings(nodes)
        positions = nodes.positions
        sources: list[int] = []
        targets: list[int] = []
        weights: list[float] = []
        kind: list[int] = []
        unknown = None
        for i, (source, target, weight, kind_name) in enumerate(edges):
            codes = (positions.get(source, -1), positions.get(target, -1), _KIND_CODES.get(kind_name, -1))
            if unknown is None and min(codes) < 0:
                unknown = (i, source, target, kind_name)
            sources.append(codes[0])
            targets.append(codes[1])
            kind.append(codes[2])
            weights.append(weight)
        heads = None if cluster_heads is None else tuple(cluster_heads)
        if unknown is None:
            return cls(nodes, sources, targets, weights, kind, heads)
        # Raises for a fault in an earlier edge, if there is one.
        i, source, target, kind_name = unknown
        cls(nodes, sources[:i], targets[:i], weights[:i], kind[:i])
        raise _unknown_name(source, target, kind_name, kind_name not in _KIND_CODES)

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        return self.nodes.ids

    @cached_property
    def by_id(self) -> Mapping[str, EmbeddingVector]:
        """The node corpus's id -> vector mapping.  The library finds nodes
        by position; this stays only because the benchmark harness reads it."""
        return self.nodes.by_id

    @cached_property
    def edges(self) -> tuple[GraphEdge, ...]:
        """The edges as :class:`GraphEdge` objects, in edge order; built
        on first use."""
        ids = self.node_ids
        columns = (self.sources.tolist(), self.targets.tolist(), self.weights.tolist(), self.kind.tolist())
        return tuple(GraphEdge(ids[s], ids[t], w, EDGE_KINDS[k]) for s, t, w, k in zip(*columns))

    @cached_property
    def adjacency(self) -> "NormalizedAdjacency":
        """Row-stochastic CSR adjacency; see :func:`normalize_adjacency`.

        Row ``i`` lists the targets of ``nodes[i]`` by ascending position;
        parallel edges of different kinds share one entry with their
        weights summed in edge order.
        """
        n = len(self.nodes)
        keys, slots = np.unique(self.sources * n + self.targets, return_inverse=True)
        summed = np.bincount(slots, weights=self.weights, minlength=keys.size)
        rows = keys // n
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        sums = np.bincount(rows, weights=summed, minlength=n)
        return NormalizedAdjacency(self.node_ids, indptr, keys % n, summed / sums[rows])

    def vector(self, node_id: str) -> EmbeddingVector:
        position = self.nodes.positions.get(node_id)
        if position is None:
            msg = f"unknown graph node {node_id!r}"
            raise ValueError(msg)
        return self.nodes[position]

    def out_neighbors(self, node_id: str) -> set[str]:
        self.vector(node_id)
        adjacency = self.adjacency
        row = self.nodes.positions[node_id]
        start, stop = adjacency.indptr[row : row + 2]
        return {self.node_ids[j] for j in adjacency.indices[start:stop]}


_KIND_CODES = {kind: code for code, kind in enumerate(EDGE_KINDS)}


def _name(names: Sequence[str], code: int) -> str | int:
    """``names[code]``, or ``code`` itself when it indexes no name."""
    return names[code] if 0 <= code < len(names) else int(code)


def _unknown_name(source: object, target: object, kind_name: object, bad_kind: bool) -> ValueError:
    """The error for an edge whose kind (if ``bad_kind``) or an endpoint
    is unknown."""
    if bad_kind:
        return ValueError(f"unknown edge kind {kind_name!r}")
    return ValueError(f"edge {source!r}->{target!r} references unknown node")


def _edge_keys(sources: np.ndarray, targets: np.ndarray, kind: np.ndarray, n: int) -> np.ndarray:
    """One integer per edge that identifies its (source, target, kind)."""
    return (sources * n + targets) * len(EDGE_KINDS) + kind


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """Row index of every CSR entry."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


@dataclass(frozen=True, eq=False)
class NormalizedAdjacency:
    """Row-stochastic adjacency in CSR form.

    Row ``i`` of the matrix holds ``weights[indptr[i]:indptr[i + 1]]`` at
    columns ``indices[indptr[i]:indptr[i + 1]]``.  The ids in ``order`` are
    unique and every weight is ``>= 0``.  A row whose weights sum to at most
    ``1e-9`` is dangling, and ``dangling_index`` holds the positions of
    those rows, ascending; every other row sums to 1 within ``1e-9``.
    """

    order: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.order)
        known: set[str] = set()
        for node_id in self.order:
            if node_id in known:
                msg = f"adjacency order repeats id {node_id!r}"
                raise ValueError(msg)
            known.add(node_id)
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
        rows = _entry_rows(indptr)
        # Written so that a NaN, which fails every comparison, fails it too.
        negative = np.flatnonzero(~(weights >= 0.0))
        if negative.size:
            i = negative[0]
            msg = f"row for {self.order[rows[i]]!r} has weight {weights[i]}, expected >= 0"
            raise ValueError(msg)
        sums = np.bincount(rows, weights=weights, minlength=n)
        dangling = sums <= 1e-9
        wrong = np.flatnonzero(~dangling & (np.abs(sums - 1.0) > 1e-9))
        if wrong.size:
            i = wrong[0]
            msg = f"row for {self.order[i]!r} sums to {sums[i]}, expected 1.0"
            raise ValueError(msg)
        arrays = {"indptr": indptr, "indices": indices, "weights": weights, "dangling_index": np.flatnonzero(dangling)}
        for name, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def from_dense(cls, order: Sequence[str], matrix: np.ndarray) -> "NormalizedAdjacency":
        """Adjacency from a dense row-stochastic matrix; zero entries are
        dropped, so an all-zero row is dangling."""
        order = tuple(order)
        matrix = np.asarray(matrix, dtype=np.float64)
        n = len(order)
        if matrix.shape != (n, n):
            msg = f"adjacency shape {matrix.shape} does not match {n} nodes"
            raise ValueError(msg)
        rows, columns = np.nonzero(matrix)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(order, indptr, columns, matrix[rows, columns])

    @cached_property
    def degrees(self) -> np.ndarray:
        """Number of entries in every row, in node order."""
        degrees = np.diff(self.indptr)
        degrees.setflags(write=False)
        return degrees

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
        # Written so that a NaN, which fails every comparison, fails it too.
        if not weights.min(initial=0.0) >= 0.0:
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

    Neighbours rank by cosine similarity, exact ties by ascending id (a
    Python sort of each row keyed on :attr:`Embeddings.id_ranks`), so the
    out-degree is exactly ``k`` everywhere.  Requires ``1 <= k < len(nodes)``.
    Similarities arrive in row blocks from :func:`similarity_rows`, so the
    build holds one block of about ``_BLOCK x N`` of them and one tile,
    never ``N x N``.  The similarities are exactly symmetric, so a mutual
    pair of neighbours carries the same weight both ways.
    """
    if k < 1:
        msg = f"k must be >= 1, got {k}"
        raise ValueError(msg)
    if k >= len(nodes):
        msg = f"k={k} needs at least {k + 1} nodes, got {len(nodes)}"
        raise ValueError(msg)
    nodes = Embeddings(nodes)
    blocks = similarity_rows(nodes)
    id_ranks = nodes.id_ranks.tolist()
    n = len(nodes)
    targets = np.empty((n, k), dtype=np.intp)
    weights = np.empty((n, k))
    for start, rows in blocks:
        for r in range(len(rows)):
            i = start + r
            others = [j for j in range(n) if j != i]
            others.sort(key=lambda j: (-rows[r, j], id_ranks[j]))
            targets[i] = others[:k]
            np.maximum(rows[r, targets[i]], EDGE_WEIGHT_FLOOR, out=weights[i])
    kind = np.full(n * k, _KIND_CODES["knn"], dtype=np.int8)
    return SemanticGraph(nodes, np.arange(n).repeat(k), targets.ravel(), weights.ravel(), kind)


def elect_cluster_heads(nodes: Sequence[EmbeddingVector], labels: np.ndarray) -> list[str]:
    """Pick one representative per cluster: the member that :func:`ranked`
    puts first by cosine similarity to the cluster's mean vector.

    ``labels[i]`` is the cluster label of ``nodes[i]`` (see
    :func:`cluster_labels`).  Returned heads are ordered by ascending
    cluster label.  A zero-norm cluster mean scores every member 0, which
    picks the lowest-id member.
    """
    corpus = Embeddings(nodes)
    groups = label_groups(cluster_labels(labels, len(corpus)), corpus.id_ranks)
    # Per-vector norms: the batched ``corpus.norms`` could elect another head.
    norms = vector_norms(corpus.matrix)
    heads: list[str] = []
    for members in groups.values():
        rows = corpus.matrix[members]
        mean = rows.mean(axis=0)
        mean_norm = vector_norms(mean)
        cosines = np.zeros(len(members))
        if mean_norm > 0.0:
            reject_zero_norms(corpus.ids, norms, members)
            cosines = np.vecdot(rows, mean) / (norms[members] * mean_norm)
        heads.append(corpus.ids[members[ranked(cosines, corpus.id_ranks[members])[0]]])
    return heads


def _with_symbolic(graph: SemanticGraph, heads: Sequence[str], pairs: np.ndarray, sims: np.ndarray) -> SemanticGraph:
    """``graph`` with, after its own edges, a symbolic edge each way between
    the two node positions of every row of the (m, 2) array ``pairs``,
    weighted by its floored similarity in ``sims``; an edge whose (source,
    target, kind) came earlier is dropped."""
    sources = np.concatenate([graph.sources, pairs.ravel()])
    targets = np.concatenate([graph.targets, pairs[:, ::-1].ravel()])
    weights = np.concatenate([graph.weights, np.maximum(sims, EDGE_WEIGHT_FLOOR).repeat(2)])
    kind = np.concatenate([graph.kind, np.full(pairs.size, _KIND_CODES["symbolic"], dtype=np.int8)])
    first = np.unique(_edge_keys(sources, targets, kind, len(graph)), return_index=True)[1]
    keep = np.sort(first)
    return SemanticGraph(graph.nodes, sources[keep], targets[keep], weights[keep], kind[keep], tuple(heads))


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
    head_vectors = Embeddings(graph.vector(head) for head in heads)
    sims = similarity_matrix(head_vectors)
    h = len(heads)
    order = ranked(sims, np.broadcast_to(head_vectors.id_ranks, sims.shape))
    rows = np.arange(h).repeat(m)
    columns = order[order != np.arange(h)[:, None]].reshape(h, h - 1)[:, :m].ravel()
    positions = np.array([graph.nodes.positions[head] for head in heads])
    return _with_symbolic(graph, heads, positions[np.stack([rows, columns], axis=1)], sims[rows, columns])


def add_symbolic_edges_dense(
    graph: SemanticGraph,
    heads: Sequence[str],
    threshold: float,
    labels: np.ndarray,
) -> SemanticGraph:
    """Link each head to every node of a *different* cluster whose cosine
    similarity exceeds ``threshold``, both directions.

    ``threshold`` must lie strictly inside (-1, 1), and ``labels[i]`` is the
    cluster label of ``graph.nodes[i]`` (see :func:`cluster_labels`).
    Idempotent for the same arguments.
    """
    if not heads:
        msg = "dense symbolic augmentation needs at least one head"
        raise ValueError(msg)
    if not -1.0 < threshold < 1.0:
        msg = f"threshold must lie strictly inside (-1, 1), got {threshold}"
        raise ValueError(msg)
    codes = cluster_labels(labels, len(graph))
    # Per-vector norms: the pinned symbolic weights use these, not ``norms`` of the corpus.
    norms = vector_norms(graph.nodes.matrix)
    pairs: list[np.ndarray] = []
    sims: list[np.ndarray] = []
    for head in heads:
        head_vector = graph.vector(head)
        head_position = graph.nodes.positions[head]
        head_norm = positive_norm(head_vector)
        others = np.flatnonzero(codes != codes[head_position])
        reject_zero_norms(graph.node_ids, norms, others)
        cosines = np.vecdot(graph.nodes.matrix, head_vector.values)[others] / (head_norm * norms[others])
        above = cosines > threshold
        pairs.append(np.stack([np.full(above.sum(), head_position), others[above]], axis=1))
        sims.append(cosines[above])
    return _with_symbolic(graph, heads, np.concatenate(pairs), np.concatenate(sims))


def normalize_adjacency(graph: SemanticGraph) -> NormalizedAdjacency:
    """Sum parallel edge weights, then normalise each row to sum to 1.

    Nodes without out-edges keep an empty row and are reported in
    ``dangling_index``.  Built once per graph and cached on it as
    :attr:`SemanticGraph.adjacency`.
    """
    return graph.adjacency


def personalized_pagerank(
    adjacency: NormalizedAdjacency,
    seed: SeedVector,
    config: PprConfig | None = None,
) -> list[tuple[str, float]]:
    """``(id, mass)`` pairs in node order, from :func:`ppr_mass`."""
    return list(zip(adjacency.order, ppr_mass(adjacency, seed, config).tolist()))


def ppr_mass(
    adjacency: NormalizedAdjacency,
    seed: SeedVector,
    config: PprConfig | None = None,
) -> np.ndarray:
    """Power-iterate ``r = alpha * s + (1 - alpha) * A^T r`` to a fixed point.

    Mass sitting on dangling nodes is re-injected through the seed each step,
    so the result is a probability distribution over nodes (an array in node
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
            return r
    raise ConvergenceError(residual=residual, iterations=config.max_iterations, tolerance=config.tolerance)
