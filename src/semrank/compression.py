"""Subset selection that trades query coverage against pairwise diversity.

Given a candidate pool, the selection objective for a subset ``S`` is

    f(S) = sum_v max_{s in S} sim(v, s)            (coverage)
         + lam * sum_{u != v in S} (1 - sim(u, v))  (diversity)

where ``v`` ranges over the whole pool and the diversity sum runs over
*ordered* pairs, so every unordered pair contributes twice.  The coverage
part is a facility-location function: monotone submodular, which is what
makes greedy maximisation a sensible strategy.  Adding the diversity term
breaks monotonicity, so the classic (1 - 1/e) guarantee only applies to the
coverage-only restriction; :func:`facility_location_greedy` exposes exactly
that restriction.

With ``lam == 0`` the objective orders items purely by query-independent
coverage *of the pool by itself* -- but the intended semantics of a zero
diversity weight is plain top-k by query similarity, so
:func:`greedy_select` dispatches to :func:`select_topk` in that case and the
reduction holds exactly, not just approximately.

The greedy loop keeps its per-step n x n arithmetic in one work buffer
allocated per call.  Fresh n x n float64 temporaries at every step are at
or above glibc's 128 KiB mmap threshold from n = 128 on, so each step mapped
and page-faulted new memory: about 23,000 minor faults and 60 ms per call
at n = 400, k = 40, against none and about 15 ms with the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import math

import numpy as np

from .candidates import CandidatePool


@dataclass(frozen=True)
class CompressionConfig:
    """How many items to keep and how hard to push them apart."""

    k: int
    lam: float

    def __post_init__(self) -> None:
        if self.k < 1:
            msg = f"selection size k must be >= 1, got {self.k}"
            raise ValueError(msg)
        if not math.isfinite(self.lam) or self.lam < 0.0:
            msg = f"diversity weight must be finite and >= 0, got {self.lam}"
            raise ValueError(msg)


@dataclass(frozen=True)
class SelectionTrace:
    """Greedy output: chosen ids in pick order, per-step gains, final value.

    ``objective_value`` always equals the sum of ``marginal_gains`` and, up
    to accumulated rounding, the objective re-evaluated from scratch on the
    final set.
    """

    chosen: tuple[str, ...]
    marginal_gains: tuple[float, ...]
    objective_value: float

    def __post_init__(self) -> None:
        if len(self.chosen) != len(set(self.chosen)):
            msg = "selection trace contains duplicate ids"
            raise ValueError(msg)
        if len(self.chosen) != len(self.marginal_gains):
            msg = "selection trace gains do not match chosen items"
            raise ValueError(msg)


def _selected_indices(pool: CandidatePool, selected: Iterable[str]) -> list[int]:
    positions = pool.pairwise.positions
    indices = []
    for item_id in selected:
        if item_id not in positions:
            msg = f"selected id {item_id!r} is not in the pool"
            raise ValueError(msg)
        indices.append(positions[item_id])
    if len(set(indices)) != len(indices):
        msg = "selected ids contain duplicates"
        raise ValueError(msg)
    return indices


def coverage_term(pool: CandidatePool, selected: Iterable[str]) -> float:
    """Facility-location coverage: each pool item's best similarity into ``selected``."""
    indices = _selected_indices(pool, selected)
    if not indices:
        msg = "coverage is undefined for an empty selection"
        raise ValueError(msg)
    return float(pool.pairwise.entries[:, indices].max(axis=1).sum())


def diversity_term(pool: CandidatePool, selected: Iterable[str]) -> float:
    """Ordered-pair dissimilarity sum over ``selected``; 0 for singletons."""
    indices = _selected_indices(pool, selected)
    m = len(indices)
    if m <= 1:
        return 0.0
    sub = pool.pairwise.entries[np.ix_(indices, indices)]
    off_diagonal = float(sub.sum()) - float(np.trace(sub))
    return float(m * (m - 1) - off_diagonal)


def objective(pool: CandidatePool, selected: Iterable[str], config: CompressionConfig) -> float:
    """Coverage plus ``lam`` times diversity for a non-empty selection."""
    ids = list(selected)
    return coverage_term(pool, ids) + config.lam * diversity_term(pool, ids)


def select_topk(pool: CandidatePool, k: int) -> list[str]:
    """The ``k`` most query-similar pool items (the pool is already sorted)."""
    if k < 1:
        msg = f"selection size k must be >= 1, got {k}"
        raise ValueError(msg)
    if k > len(pool):
        msg = f"selection size {k} exceeds pool size {len(pool)}"
        raise ValueError(msg)
    return list(pool.ids[:k])


def _argmax_ascending_id(gains: np.ndarray, ids: tuple[str, ...]) -> int:
    # Exact ties resolve to the smallest id for run-to-run determinism.
    best = gains.max()
    tied = np.flatnonzero(gains == best)
    return int(min(tied, key=lambda i: ids[i]))


def _greedy(pool: CandidatePool, k: int, lam: float) -> SelectionTrace:
    sims = pool.pairwise.entries
    ids = pool.ids
    n = len(pool)
    selected = np.zeros(n, dtype=bool)
    # Incremental state: best similarity of every pool item into the chosen
    # set, and each candidate's similarity mass towards the chosen set.
    cover = np.zeros(n, dtype=np.float64)
    sim_to_chosen = np.zeros(n, dtype=np.float64)
    # One n x n work buffer reused by every step (see the module docstring).
    work = np.empty((n, n), dtype=np.float64)
    chosen: list[str] = []
    gains: list[float] = []
    for step in range(k):
        if step == 0:
            # First step is the raw singleton objective (coverage only; a
            # singleton has no pairs).
            step_gain = sims.sum(axis=0)
        else:
            np.subtract(sims, cover[:, None], out=work)
            np.maximum(work, 0.0, out=work)
            step_gain = work.sum(axis=0)
            step_gain += 2.0 * lam * (step - sim_to_chosen)
        step_gain[selected] = -np.inf
        best = _argmax_ascending_id(step_gain, ids)
        selected[best] = True
        chosen.append(ids[best])
        gains.append(float(step_gain[best]))
        if step == 0:
            cover[:] = sims[:, best]
        else:
            np.maximum(cover, sims[:, best], out=cover)
        sim_to_chosen += sims[best, :]
    return SelectionTrace(
        chosen=tuple(chosen),
        marginal_gains=tuple(gains),
        objective_value=float(sum(gains)),
    )


def _topk_trace(pool: CandidatePool, config: CompressionConfig) -> SelectionTrace:
    chosen = select_topk(pool, config.k)
    gains: list[float] = []
    previous = 0.0
    for end in range(1, len(chosen) + 1):
        value = objective(pool, chosen[:end], config)
        gains.append(value - previous)
        previous = value
    return SelectionTrace(chosen=tuple(chosen), marginal_gains=tuple(gains), objective_value=previous)


def greedy_select(pool: CandidatePool, config: CompressionConfig) -> SelectionTrace:
    """Greedy maximisation of coverage + ``lam`` * diversity over the pool.

    Each step adds the candidate with the largest marginal gain (ties to the
    smallest id).  A zero diversity weight dispatches to :func:`select_topk`
    so the zero case reduces to plain top-k by query similarity; the trace
    then carries the objective deltas along that forced order.
    """
    if config.k > len(pool):
        msg = f"selection size {config.k} exceeds pool size {len(pool)}"
        raise ValueError(msg)
    if config.lam == 0.0:
        return _topk_trace(pool, config)
    return _greedy(pool, config.k, config.lam)


def facility_location_greedy(pool: CandidatePool, k: int) -> SelectionTrace:
    """Greedy on the coverage term alone (no top-k dispatch).

    This is the monotone submodular restriction of the objective, the one
    with the (1 - 1/e) greedy guarantee; tests compare it against brute
    force.  Equivalent to :func:`greedy_select` with ``lam == 0`` except the
    selection is genuinely greedy rather than a top-k shortcut.
    """
    if k < 1:
        msg = f"selection size k must be >= 1, got {k}"
        raise ValueError(msg)
    if k > len(pool):
        msg = f"selection size {k} exceeds pool size {len(pool)}"
        raise ValueError(msg)
    return _greedy(pool, k, 0.0)
