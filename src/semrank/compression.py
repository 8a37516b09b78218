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
reduction holds exactly, not just approximately.  That top-k trace keeps
a running cover of the pool along the forced order, so its k objective
values cost O(n * k) and equal :func:`objective` on each prefix bit for bit.

The greedy loop is the accelerated ("lazy") greedy of Minoux (1978) and
CELF (Leskovec et al., 2007), and picks and gains stay bit for bit those of
scoring every candidate at every step:

* Coverage is submodular, so a candidate's coverage gain from the last time
  it was scored exactly bounds its gain now.  The bound holds in floating
  point too: ``cover`` only grows, and rounded subtraction, ``max`` and
  row-by-row addition are all monotone.  Step 0's gains are raw column
  sums with negative similarities in them, which bound nothing, so step 1
  scores every column.
* The diversity gain ``2 * lam * (step - sim_to_chosen)`` is exact and
  cheap, so from step 2 on only candidates whose bound plus diversity gain
  is ``>=`` the best exact gain so far are scored, in batches by descending
  bound.  Exact ties are therefore all scored, and the smallest-id
  tie-break sees every one of them.
* Every reduction must sum row by row, as the full n x n pass does.  A batch
  is gathered with ``np.take`` into a C-contiguous view of the work buffer
  (``sims[:, cols]`` comes out in a layout whose column sums numpy takes
  pairwise), and a one-column batch is padded to two columns (numpy sums a
  single column pairwise too).

All per-step arithmetic runs in one work buffer allocated per call.  Fresh
n x n float64 temporaries at every step are at or above glibc's 128 KiB
mmap threshold from n = 128 on, so each step mapped and page-faulted new
memory.

Step 0 (the column sums and their pick) and step 1's full coverage pass do
not depend on the diversity weight.  The first greedy call on a pool works
them out in its own buffer and keeps them for that pool, and every later
call on it, at any weight, starts from a copy; a sweep over weights pays
for one opening, not one per weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import math

import numpy as np

from .candidates import CandidatePool

# Candidates scored exactly per batch by the lazy greedy steps.
_BATCH = 16


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


@dataclass(frozen=True)
class _Opening:
    """The part of a greedy run that no diversity weight changes: step 0's
    pick and gain, and step 1's coverage gains after that pick."""

    first: int
    first_gain: float
    bound: np.ndarray


def _opening(pool: CandidatePool, buffer: np.ndarray) -> _Opening:
    """The pool's :class:`_Opening`, computed in ``buffer`` by the first
    greedy call on the pool and kept on it, as a cached property would be;
    pools are immutable."""
    opening = vars(pool).get("_greedy_opening")
    if opening is None:
        sims = pool.pairwise.entries
        # Step 0 is the raw singleton objective (coverage only; a singleton
        # has no pairs).  Its column sums keep negative similarities, so
        # they bound nothing and step 1 scores every column.
        column_sums = sims.sum(axis=0)
        first = _argmax_ascending_id(column_sums, pool.ids)
        bound = _coverage_gains(sims, sims[:, first], None, buffer)
        bound.setflags(write=False)
        opening = vars(pool)["_greedy_opening"] = _Opening(first, float(column_sums[first]), bound)
    return opening


def _greedy(pool: CandidatePool, k: int, lam: float) -> SelectionTrace:
    sims = pool.pairwise.entries
    ids = pool.ids
    n = len(pool)
    selected = np.zeros(n, dtype=bool)
    # Incremental state: best similarity of every pool item into the chosen
    # set, and each candidate's similarity mass towards the chosen set.
    cover = np.zeros(n, dtype=np.float64)
    sim_to_chosen = np.zeros(n, dtype=np.float64)
    # One work buffer reused by every step, flat so that each (n, m) view of
    # its head is C-contiguous (see the module docstring).
    buffer = np.empty(n * n, dtype=np.float64)
    opening = _opening(pool, buffer)
    chosen: list[str] = []
    gains: list[float] = []
    for step in range(k):
        if step == 0:
            best, gain = opening.first, opening.first_gain
        else:
            diversity = 2.0 * lam * (step - sim_to_chosen)
            if step == 1:
                # Coverage gain of each candidate when it was last scored
                # exactly; tightened by every later step that scores it.
                bound = opening.bound.copy()
                step_gain = bound + diversity
                step_gain[selected] = -np.inf
            else:
                step_gain = _lazy_gains(sims, cover, diversity, bound, selected, n - step, buffer)
            best = _argmax_ascending_id(step_gain, ids)
            gain = float(step_gain[best])
        selected[best] = True
        chosen.append(ids[best])
        gains.append(gain)
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


def _coverage_gains(
    sims: np.ndarray, cover: np.ndarray, columns: np.ndarray | None, buffer: np.ndarray
) -> np.ndarray:
    """``sum_v max(sims[v, c] - cover[v], 0)`` for each column ``c`` (all
    columns when ``columns`` is None), summed row by row in ``buffer``."""
    n = len(cover)
    width = n if columns is None else len(columns)
    work = buffer[: n * width].reshape(n, width)
    if columns is None:
        np.subtract(sims, cover[:, None], out=work)
    else:
        # With mode "raise", numpy writes ``out`` through a temporary.
        np.take(sims, columns, axis=1, out=work, mode="clip")
        np.subtract(work, cover[:, None], out=work)
    np.maximum(work, 0.0, out=work)
    return work.sum(axis=0)


def _lazy_gains(
    sims: np.ndarray,
    cover: np.ndarray,
    diversity: np.ndarray,
    bound: np.ndarray,
    selected: np.ndarray,
    live: int,
    buffer: np.ndarray,
) -> np.ndarray:
    """Step gains of the ``live`` unselected candidates, exact wherever they
    can reach the maximum and ``-inf`` elsewhere; ``bound`` is tightened for
    every column scored.

    Columns are scored in batches by descending ``bound + diversity`` until
    that upper bound falls below the best exact gain, so every candidate
    tied with the maximum is scored and the smallest-id tie-break sees them
    all.
    """
    upper = bound + diversity
    upper[selected] = -np.inf
    order = np.argsort(-upper, kind="stable")[:live]
    step_gain = np.full(len(cover), -np.inf)
    best = -np.inf
    for start in range(0, live, _BATCH):
        if upper[order[start]] < best:
            break
        columns = order[start : start + _BATCH]
        scored = len(columns)
        if scored == 1:
            # A one-column reduction sums pairwise; a second copy of the
            # column keeps it row by row.
            coverage = _coverage_gains(sims, cover, np.repeat(columns, 2), buffer)[:1]
        else:
            coverage = _coverage_gains(sims, cover, columns, buffer)
        bound[columns] = coverage
        gain = coverage + diversity[columns]
        step_gain[columns] = gain
        best = max(best, np.maximum.reduce(gain))
    return step_gain


def _topk_trace(pool: CandidatePool, config: CompressionConfig) -> SelectionTrace:
    """Objective deltas along the top-k order, with ``lam == 0``.

    Each prefix's value is :func:`objective` bit for bit: ``cover`` is the
    contiguous vector of row maxima that :func:`coverage_term` sums, and the
    diversity term it would add is ``0 * diversity``, a signed zero.
    """
    chosen = select_topk(pool, config.k)
    sims = pool.pairwise.entries
    cover = sims[:, 0].copy()
    gains: list[float] = []
    previous = 0.0
    for column in range(len(chosen)):
        np.maximum(cover, sims[:, column], out=cover)
        value = float(cover.sum())
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
