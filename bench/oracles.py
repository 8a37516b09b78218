"""Independent oracles for the semrank benchmark.

Each oracle recomputes a result with plain numpy from the raw vectors and
edges, without calling the library function it checks, and raises
:class:`OracleError` with a message naming the offending item when the
library disagrees.  Rankings are compared by score within a tolerance, so a
later change that only moves the last bits of a similarity (a different
summation order, a sparse matvec) still passes, while a wrong item does not.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# Scores computed two ways (BLAS matmul against a row-wise dot) agree to a
# few ulps; anything closer than this counts as a tie.
SIM_TOL = 1e-12
# Power iteration stops when the L1 step change drops below 1e-10, which
# bounds its L1 error by (1 - alpha) / alpha * 1e-10 (about 5.7e-10 at
# alpha 0.15).  Per-entry PPR mass and blended scores are compared within this.
PPR_TOL = 2e-9


class OracleError(AssertionError):
    """An independent recomputation disagrees with the library."""


def unit_rows(points: Sequence) -> tuple[list[str], np.ndarray]:
    """Ids and unit-normalised coordinate rows of ``EmbeddingVector``s."""
    ids = [point.id for point in points]
    stacked = np.stack([np.asarray(point.values, dtype=np.float64) for point in points])
    return ids, stacked / np.linalg.norm(stacked, axis=1)[:, None]


def cosines(unit: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Cosine of every unit row against ``vector``."""
    return unit @ (np.asarray(vector, dtype=np.float64) / np.linalg.norm(vector))


def check_top(got: Sequence[str], scores: dict[str, float], k: int, what: str, tol: float) -> None:
    """``got`` must be a top-``k`` of ``scores``: distinct known ids, in
    non-increasing score order, none beaten by an item left out."""
    if len(got) != k:
        raise OracleError(f"{what}: expected {k} items, got {len(got)}")
    if len(set(got)) != k:
        raise OracleError(f"{what}: duplicate ids in {list(got)}")
    for item in got:
        if item not in scores:
            raise OracleError(f"{what}: item {item!r} is not a candidate")
    for a, b in zip(got, got[1:]):
        if scores[b] > scores[a] + tol:
            raise OracleError(f"{what}: {b!r} ({scores[b]!r}) ranked below {a!r} ({scores[a]!r})")
    chosen = set(got)
    floor = min(scores[item] for item in got)
    for item, score in scores.items():
        if item not in chosen and score > floor + tol:
            raise OracleError(f"{what}: {item!r} ({score!r}) beats the kept floor {floor!r}")


def check_pool(pool_ids: Sequence[str], points: Sequence, query_values: np.ndarray, what: str) -> dict[str, float]:
    """The pool must be the exact top-N by cosine; returns every item's cosine."""
    ids, unit = unit_rows(points)
    sims = dict(zip(ids, cosines(unit, query_values).tolist()))
    check_top(pool_ids, sims, len(pool_ids), what, SIM_TOL)
    return sims


def check_first_pick(first: str, pool_ids: Sequence[str], by_id: dict, what: str) -> None:
    """Greedy's first pick maximises the singleton objective, which for a
    one-item set is pure coverage: the sum of its cosines to the pool."""
    _, unit = unit_rows([by_id[item] for item in pool_ids])
    singleton = (unit @ unit.T).sum(axis=0)
    check_top([first], dict(zip(pool_ids, singleton.tolist())), 1, what, 1e-9)


def out_edges(graph) -> dict[str, list[tuple[str, float, str]]]:
    """Out-edges per source, in stored order, from the raw edge list."""
    table: dict[str, list[tuple[str, float, str]]] = {node_id: [] for node_id in graph.node_ids}
    for edge in graph.edges:
        table[edge.source].append((edge.target, edge.weight, edge.kind))
    return table


def check_knn(graph, k: int, sample: Iterable[int], what: str) -> int:
    """The kNN out-edges of each sampled node are an exhaustive top-``k`` by
    cosine over the other nodes, with weights equal to the cosine (floored at
    1e-9).  Returns the number of nodes checked."""
    ids, unit = unit_rows(graph.nodes)
    table = out_edges(graph)
    checked = 0
    for i in sample:
        sims = cosines(unit, unit[i])
        scores = {ids[j]: float(sims[j]) for j in range(len(ids)) if j != i}
        knn = [(target, weight) for target, weight, kind in table[ids[i]] if kind == "knn"]
        check_top([target for target, _ in knn], scores, k, f"{what} node {ids[i]!r}", SIM_TOL)
        for target, weight in knn:
            if abs(weight - max(scores[target], 1e-9)) > SIM_TOL:
                raise OracleError(f"{what}: edge {ids[i]!r}->{target!r} weight {weight!r} != {scores[target]!r}")
        checked += 1
    return checked


def dense_ppr(graph, seeds: np.ndarray, alpha: float) -> np.ndarray:
    """Personalized pagerank by direct solve, one column per seed column.

    Solves ``(I - (1 - alpha) (A^T + s d^T)) r = alpha s`` where ``A`` is the
    row-normalised sum of parallel edge weights and ``d`` marks dangling
    nodes, whose mass restarts through ``s``.
    """
    order = graph.node_ids
    positions = {node_id: i for i, node_id in enumerate(order)}
    n = len(order)
    adjacency = np.zeros((n, n))
    for edge in graph.edges:
        adjacency[positions[edge.source], positions[edge.target]] += edge.weight
    sums = adjacency.sum(axis=1)
    dangling = sums == 0.0
    adjacency[~dangling] /= sums[~dangling, None]
    base = np.eye(n) - (1.0 - alpha) * adjacency.T
    seeds = np.asarray(seeds, dtype=np.float64).reshape(n, -1)
    if not dangling.any():
        return np.linalg.solve(base, alpha * seeds)
    columns = []
    for s in seeds.T:
        system = base - (1.0 - alpha) * np.outer(s, dangling.astype(np.float64))
        columns.append(np.linalg.solve(system, alpha * s))
    return np.stack(columns, axis=1)


def check_ppr(scores: Sequence[tuple[str, float]], reference: np.ndarray, order: Sequence[str], what: str) -> None:
    """Power-iteration output against one dense-solve column."""
    if [node_id for node_id, _ in scores] != list(order):
        raise OracleError(f"{what}: scores are not in node order")
    got = np.array([score for _, score in scores])
    worst = int(np.argmax(np.abs(got - reference)))
    if abs(got[worst] - reference[worst]) > PPR_TOL:
        raise OracleError(f"{what}: node {order[worst]!r} mass {got[worst]!r} != dense {reference[worst]!r}")


def check_hybrid(
    items: Sequence[tuple[str, float]],
    pool_ids: Sequence[str],
    graph,
    edges: dict[str, list[tuple[str, float, str]]],
    mass: np.ndarray,
    query_sims: dict[str, float],
    beta: float,
    k: int,
    what: str,
) -> None:
    """Blended top-``k`` over the pool plus its out-neighbours, with the graph
    channel taken from the dense PPR solve."""
    positions = {node_id: i for i, node_id in enumerate(graph.node_ids)}
    scope = set(pool_ids)
    for item in pool_ids:
        scope.update(target for target, _, _ in edges[item])
    blended = {
        item: (1.0 - beta) * query_sims[item] + beta * float(mass[positions[item]]) for item in scope
    }
    check_top([item for item, _ in items], blended, k, what, PPR_TOL)
    for item, score in items:
        if abs(score - blended[item]) > PPR_TOL:
            raise OracleError(f"{what}: {item!r} score {score!r} != oracle {blended[item]!r}")


def relevance(ids: Sequence[str], by_unit: dict[str, np.ndarray], query_unit: np.ndarray) -> float:
    """Mean cosine of the items to the query."""
    return float(np.mean([by_unit[item] @ query_unit for item in ids]))


def diversity(ids: Sequence[str], by_unit: dict[str, np.ndarray]) -> float:
    """One minus the mean cosine over unordered distinct pairs."""
    rows = np.stack([by_unit[item] for item in ids])
    gram = rows @ rows.T
    m = len(ids)
    return float(1.0 - (gram.sum() - np.trace(gram)) / (m * (m - 1)))
