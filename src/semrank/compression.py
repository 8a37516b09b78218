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
  sums with negative similarities in them, which bound nothing, so the
  opening scores every column once after step 0's pick: step 1 starts
  from exact bounds and is a lazy step like every later one.
* The diversity gain ``2 * lam * (step - sim_to_chosen)`` is exact and
  cheap, so each step after the first scores only the candidates whose
  bound plus diversity gain is ``>=`` the best exact gain so far, in
  batches by descending bound, and takes the pick from the columns scored.
  Exact ties are therefore all scored, and the smallest-id tie-break sees
  every one of them.
* A coverage gain is a column sum, ``sum_v max(sims[v, c] - cover[v], 0)``,
  taken row by row from ``v = 0``, as the dense loop's n x n pass takes it.
  A batch of m candidates is gathered as m pool rows into a C-contiguous
  (m, n) view of the work buffer: the pool's matrix comes from the
  pairwise kernel, whose cell ``(c, v)`` is the very product cell
  ``(v, c)`` is, so row ``c`` is column ``c`` bit for bit.
  ``cover`` is subtracted along the rows, and only the positive residuals
  are summed: ``np.bincount`` adds each candidate's terms in ascending
  ``v``, starting from ``0.0``, which is the row-by-row sum bit for bit.
  The terms it skips are +-0, and adding a zero to a positive sum changes
  nothing.  A skipped ``-0.0`` never decides the sign of a zero sum either,
  because each candidate's own diagonal row gives ``+0.0`` or a positive
  term (``x - x`` is ``+0.0``, and a negative residual clips to ``+0.0``).

All per-step arithmetic runs in one work buffer of ``_WIDTH`` pool rows,
allocated per call.  The opening's pass over every column scores
``_WIDTH`` candidates at a time and the lazy steps ``_BATCH`` at a time,
so a call holds no n x n array but the pool's own; a batch's positive
residuals and their positions add at most 17 bytes per buffer cell.  A
candidate's sum does not depend on the batch it is scored in, so picks and
gains keep their bits at any width.  The width trades time against memory:
a small pool's first greedy call is mostly the fixed cost of each batch's
numpy calls, so wider batches make it faster (64 rows beat 32 by about 8%
at 100 items), while each row adds up to 25 bytes per pool item to a
call's peak memory.

The opening, step 0 (the column sums and their pick) and the full
coverage pass after it, does not depend on the diversity weight.  The
first greedy call on a pool works it out in its own buffer and keeps it
for that pool, and every later call on it, at any weight, starts from a
copy; a sweep over weights pays for one opening, not one per weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import math

import numpy as np

from .candidates import CandidatePool
from .geometry import ranked

# Candidates scored exactly per batch by the lazy greedy steps.
_BATCH = 16

# Candidates per batch of the opening's pass over every column, at least
# ``_BATCH``; the greedy work buffer holds this many pool rows.
_WIDTH = 32

# Largest accepted diversity weight.  Each step's diversity gain is
# ``2 * lam * (step - sim_to_chosen)``, up to ``4 * k * lam`` since
# similarities lie in [-1, 1], and the k gains and their sum must stay
# finite; at this bound they stay far below the float64 limit of about
# 1.8e308 for any pool that fits in memory.
_MAX_LAM = 1e100


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
        if self.lam > _MAX_LAM:
            msg = f"diversity weight must be <= {_MAX_LAM:g}, got {self.lam}"
            raise ValueError(msg)


@dataclass(frozen=True)
class SelectionTrace:
    """Greedy output: chosen ids in pick order, per-step gains, final value.

    ``objective_value`` is, up to accumulated rounding, the objective
    re-evaluated from scratch on the final set.  The greedy (``lam != 0``,
    or :func:`facility_location_greedy`) stores the float sum of
    ``marginal_gains``; :func:`greedy_select`'s ``lam == 0`` top-k trace
    stores its last prefix's objective, which the float sum of its gains
    (differences of prefix objectives) can miss in the last bits.
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
    positions = pool.candidates.positions
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
    return float(pool.pairwise[:, indices].max(axis=1).sum())


def diversity_term(pool: CandidatePool, selected: Iterable[str]) -> float:
    """Ordered-pair dissimilarity sum over ``selected``; 0 for singletons."""
    indices = _selected_indices(pool, selected)
    m = len(indices)
    if m <= 1:
        return 0.0
    sub = pool.pairwise[np.ix_(indices, indices)]
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


@dataclass(frozen=True)
class _Opening:
    """The part of a greedy run that no diversity weight changes: step 0's
    pick and gain, and every candidate's exact coverage gain after that
    pick."""

    first: int
    first_gain: float
    bound: np.ndarray


def _opening(pool: CandidatePool, buffer: np.ndarray) -> _Opening:
    """The pool's :class:`_Opening`, computed in ``buffer`` by the first
    greedy call on the pool and kept on it, as a cached property would be;
    pools are immutable."""
    opening = vars(pool).get("_greedy_opening")
    if opening is None:
        sims = pool.pairwise
        # Step 0 is the raw singleton objective (coverage only; a singleton
        # has no pairs).  Its column sums keep negative similarities, so
        # they bound nothing and every column is scored after its pick.
        column_sums = sims.sum(axis=0)
        first = int(ranked(column_sums, pool.candidates.id_ranks)[0])
        columns = np.arange(len(pool))
        bound = np.concatenate(
            [
                _coverage_gains(sims, sims[:, first], columns[start : start + _WIDTH], buffer)
                for start in range(0, len(columns), _WIDTH)
            ]
        )
        bound.setflags(write=False)
        opening = vars(pool)["_greedy_opening"] = _Opening(first, float(column_sums[first]), bound)
    return opening


def _greedy(pool: CandidatePool, k: int, lam: float) -> SelectionTrace:
    sims = pool.pairwise
    ids = pool.ids
    id_ranks = pool.candidates.id_ranks
    n = len(pool)
    selected = np.zeros(n, dtype=bool)
    # Incremental state: best similarity of every pool item into the chosen
    # set (-inf before the first pick), and each candidate's similarity
    # mass towards the chosen set.
    cover = np.full(n, -np.inf)
    sim_to_chosen = np.zeros(n, dtype=np.float64)
    # One work buffer reused by every step for a batch of up to ``_WIDTH``
    # pool rows, flat so that each (m, n) view of its head is C-contiguous.
    buffer = np.empty(n * min(n, _WIDTH), dtype=np.float64)
    opening = _opening(pool, buffer)
    # Each candidate's coverage gain when it was last scored exactly: by
    # the opening, then by every step that scores it.
    bound = opening.bound.copy()
    best, gain = opening.first, opening.first_gain
    chosen: list[str] = []
    gains: list[float] = []
    for step in range(1, k + 1):
        selected[best] = True
        chosen.append(ids[best])
        gains.append(gain)
        if step == k:
            break
        np.maximum(cover, sims[:, best], out=cover)
        sim_to_chosen += sims[best, :]
        diversity = 2.0 * lam * (step - sim_to_chosen)
        columns, step_gain = _lazy_gains(sims, cover, diversity, bound, selected, n - step, buffer)
        at = ranked(step_gain, id_ranks[columns])[0]
        best, gain = int(columns[at]), float(step_gain[at])
    return SelectionTrace(
        chosen=tuple(chosen),
        marginal_gains=tuple(gains),
        objective_value=float(sum(gains)),
    )


def _coverage_gains(rows: np.ndarray, cover: np.ndarray, columns: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """``sum_v max(sims[v, c] - cover[v], 0)`` for each of ``columns``,
    where ``rows[c]`` is column ``c`` of ``sims``, summed over ``v`` in
    ascending order in ``buffer`` (see the module docstring)."""
    m, n = len(columns), len(cover)
    flat = buffer[: m * n]
    work = flat.reshape(m, n)
    # With mode "raise", numpy writes ``out`` through a temporary.
    rows.take(columns, axis=0, out=work, mode="clip")
    work -= cover
    hit = (flat > 0.0).nonzero()[0]
    values = flat[hit]
    # Each flat position ``j * n + v`` becomes its batch row ``j``.
    hit //= n
    return np.bincount(hit, weights=values, minlength=m)


def _lazy_gains(
    rows: np.ndarray,
    cover: np.ndarray,
    diversity: np.ndarray,
    bound: np.ndarray,
    selected: np.ndarray,
    live: int,
    buffer: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The columns scored among the ``live`` unselected candidates, in the
    order scored, and their exact step gains; ``bound`` is tightened for
    every column scored.

    Columns are scored in batches by descending ``bound + diversity`` until
    that upper bound falls below the best exact gain, so every candidate
    that can reach the maximum, ties included, is among them and the
    smallest-id tie-break sees them all.
    """
    upper = bound + diversity
    upper[selected] = -np.inf
    # Equal bounds may come in any order: every one that reaches the best
    # exact gain is scored.
    order = np.argsort(-upper)[:live]
    gains: list[np.ndarray] = []
    best = -np.inf
    scored = 0
    for start in range(0, live, _BATCH):
        if upper[order[start]] < best:
            break
        columns = order[start : start + _BATCH]
        scored = start + len(columns)
        coverage = _coverage_gains(rows, cover, columns, buffer)
        bound[columns] = coverage
        gain = coverage + diversity[columns]
        gains.append(gain)
        best = max(best, np.maximum.reduce(gain))
    return order[:scored], np.concatenate(gains)


def _topk_trace(pool: CandidatePool, config: CompressionConfig) -> SelectionTrace:
    """Objective deltas along the top-k order, with ``lam == 0``.

    Each prefix's value is :func:`objective` bit for bit: ``cover`` is the
    contiguous vector of row maxima that :func:`coverage_term` sums, and the
    diversity term it would add is ``0 * diversity``, a signed zero.
    """
    chosen = select_topk(pool, config.k)
    sims = pool.pairwise
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

    Each step adds the candidate that :func:`~semrank.geometry.ranked`
    puts first by marginal gain.  A zero diversity weight dispatches to
    :func:`select_topk` so the zero case reduces to plain top-k by query
    similarity; the trace then carries the objective deltas along that
    forced order.
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
