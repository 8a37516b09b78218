"""Coverage+diversity subset selection, checked against brute-force oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semrank.candidates import top_n_candidates
from semrank.compression import (
    CompressionConfig,
    SelectionTrace,
    coverage_term,
    diversity_term,
    facility_location_greedy,
    greedy_select,
    objective,
    select_topk,
    _BATCH,
    _lazy_gains,
)
from semrank.geometry import EmbeddingVector, cosine_similarity


def _random_pool(count=12, dim=4, seed=42, pool_size=None):
    rng = np.random.default_rng(seed)
    corpus = [EmbeddingVector(f"v{i:02d}", rng.normal(size=dim)) for i in range(count)]
    query = EmbeddingVector("q", rng.normal(size=dim))
    return top_n_candidates(query, corpus, pool_size or count)


def _objective_reference(pool, subset, lam):
    """From-scratch objective: nested loops over raw cosine calls only."""
    coverage = 0.0
    for item_id in pool.ids:
        coverage += max(
            cosine_similarity(pool.vector(item_id), pool.vector(sel)) for sel in subset
        )
    diversity = 0.0
    for a in subset:
        for b in subset:
            if a != b:
                diversity += 1.0 - cosine_similarity(pool.vector(a), pool.vector(b))
    return coverage + lam * diversity


def _greedy_reference(pool, k, lam):
    """Reference greedy: re-evaluate the full objective for every candidate
    at every step (quadratic and slow, but independent of the incremental
    bookkeeping in the library)."""
    chosen = []
    gains = []
    for _ in range(k):
        best_id, best_gain = None, -math.inf
        current = _objective_reference(pool, chosen, lam) if chosen else 0.0
        for item_id in pool.ids:
            if item_id in chosen:
                continue
            gain = _objective_reference(pool, chosen + [item_id], lam) - current
            if gain > best_gain or (gain == best_gain and item_id < best_id):
                best_id, best_gain = item_id, gain
        chosen.append(best_id)
        gains.append(best_gain)
    return chosen, gains


def _allocating_greedy(pool, k, lam):
    """The greedy loop as first written, with fresh n x n temporaries at
    every step; the library's buffered loop must match it bit for bit."""
    sims = pool.pairwise.entries
    ids = pool.ids
    n = len(pool)
    selected = np.zeros(n, dtype=bool)
    cover = np.zeros(n, dtype=np.float64)
    sim_to_chosen = np.zeros(n, dtype=np.float64)
    chosen = []
    gains = []
    for step in range(k):
        if step == 0:
            step_gain = sims.sum(axis=0)
        else:
            coverage_gain = np.maximum(sims - cover[:, None], 0.0).sum(axis=0)
            diversity_gain = 2.0 * lam * (step - sim_to_chosen)
            step_gain = coverage_gain + diversity_gain
        masked = step_gain.copy()
        masked[selected] = -np.inf
        tied = np.flatnonzero(masked == masked.max())
        best = int(min(tied, key=lambda i: ids[i]))
        selected[best] = True
        chosen.append(ids[best])
        gains.append(float(masked[best]))
        cover = sims[:, best].copy() if step == 0 else np.maximum(cover, sims[:, best])
        sim_to_chosen = sim_to_chosen + sims[best, :]
    return tuple(chosen), tuple(gains)


@st.composite
def _tied_pools(draw):
    """Pools on both sides of the size where an n x n float64 temporary
    crosses glibc's 128 KiB mmap threshold (n >= 128), with exact ties:
    integer coordinates and duplicate vectors under distinct ids, whose id
    order differs from pool order."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(130, 220)))
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
    values[~values.any(axis=1), 0] = 1.0
    duplicates = draw(st.integers(0, n // 2))
    values[n - duplicates :] = values[rng.integers(0, n - duplicates, size=duplicates)]
    names = rng.permutation(n)
    corpus = [EmbeddingVector(f"v{name:03d}", row) for name, row in zip(names, values)]
    query = EmbeddingVector("q", rng.normal(size=dim))
    return top_n_candidates(query, corpus, n)


class TestBufferedGreedyMatchesAllocatingGreedy:
    @settings(max_examples=60, deadline=None)
    @given(pool=_tied_pools(), data=st.data())
    def test_greedy_select_is_bitwise_identical(self, pool, data):
        k = data.draw(st.integers(1, min(len(pool), 40)))
        lam = data.draw(st.sampled_from([0.01, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0]))
        trace = greedy_select(pool, CompressionConfig(k=k, lam=lam))
        assert (trace.chosen, trace.marginal_gains) == _allocating_greedy(pool, k, lam)

    @settings(max_examples=40, deadline=None)
    @given(pool=_tied_pools(), data=st.data())
    def test_facility_location_greedy_is_bitwise_identical(self, pool, data):
        k = data.draw(st.integers(1, min(len(pool), 40)))
        trace = facility_location_greedy(pool, k)
        assert (trace.chosen, trace.marginal_gains) == _allocating_greedy(pool, k, 0.0)

    def test_one_call_holds_a_single_work_buffer(self):
        pool = _random_pool(count=1000, dim=2, seed=5, pool_size=400)
        n = len(pool)
        tracemalloc.start()
        try:
            greedy_select(pool, CompressionConfig(k=40, lam=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One n x n buffer is n*n*8 bytes; fresh per-step temporaries peak
        # near twice that.
        assert peak < 1.5 * n * n * 8


def _shuffled_ids(count, seed):
    """Distinct ids whose sorted order differs from the order they are given in."""
    return [f"v{name:03d}" for name in np.random.default_rng(seed).permutation(count)]


def _orthogonal_basis_pool(count=40):
    """Unit basis vectors: every candidate keeps a coverage gain of exactly
    1 and the same diversity gain, so no bound ever tightens and every step
    is one exact tie over all live columns."""
    ids = _shuffled_ids(count, seed=1)
    corpus = [EmbeddingVector(item_id, row) for item_id, row in zip(ids, np.eye(count))]
    query = EmbeddingVector("q", 1.0 + np.arange(count) / count)
    return top_n_candidates(query, corpus, count)


def _duplicated_directions_pool(copies=2 * _BATCH + 3, directions=3, noise=10):
    """More copies of each of a few orthogonal directions than a batch
    holds, plus small noise vectors: when a direction is first reached, its
    copies tie exactly at the top and straddle batch boundaries."""
    rng = np.random.default_rng(7)
    rows = [row for row in np.eye(directions) for _ in range(copies)]
    rows += list(rng.normal(scale=0.2, size=(noise, directions)) + 0.1)
    ids = _shuffled_ids(len(rows), seed=2)
    corpus = [EmbeddingVector(item_id, row) for item_id, row in zip(ids, rows)]
    query = EmbeddingVector("q", np.ones(directions))
    return top_n_candidates(query, corpus, len(corpus))


def _bits(trace):
    """A trace's picks and the exact bits of every float in it."""
    return trace.chosen, tuple(g.hex() for g in trace.marginal_gains), trace.objective_value.hex()


def _reevaluating_topk_trace(pool, config):
    """The top-k trace as first written: the whole objective re-evaluated
    on every prefix of the forced order."""
    chosen = select_topk(pool, config.k)
    gains = []
    previous = 0.0
    for end in range(1, len(chosen) + 1):
        value = objective(pool, chosen[:end], config)
        gains.append(value - previous)
        previous = value
    return tuple(chosen), tuple(g.hex() for g in gains), previous.hex()


class TestIncrementalTopkTrace:
    @settings(max_examples=60, deadline=None)
    @given(pool=_tied_pools(), data=st.data())
    def test_matches_the_reevaluating_loop_bit_for_bit(self, pool, data):
        k = data.draw(st.sampled_from([1, len(pool)]))
        config = CompressionConfig(k=k, lam=data.draw(st.sampled_from([0.0, -0.0])))
        assert _bits(greedy_select(pool, config)) == _reevaluating_topk_trace(pool, config)


class TestSharedOpening:
    """The first greedy call on a pool keeps the weight-independent opening
    for later calls; every call must still equal one on a fresh pool."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_calls_in_any_order_match_fresh_pools(self, data):
        seed = data.draw(st.integers(0, 2**16))
        count = data.draw(st.sampled_from([3, 40, 150]))
        shared = _random_pool(count=count, dim=3, seed=seed)
        k = data.draw(st.integers(1, min(count, 12)))
        calls = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0, "facility", "facility"]
        for call in data.draw(st.permutations(calls)):
            fresh = _random_pool(count=count, dim=3, seed=seed)
            if call == "facility":
                got, want = facility_location_greedy(shared, k), facility_location_greedy(fresh, k)
            else:
                config = CompressionConfig(k=k, lam=call)
                got, want = greedy_select(shared, config), greedy_select(fresh, config)
            assert _bits(got) == _bits(want)


def _adversarial_cases():
    pools = {
        "orthogonal_basis": (_orthogonal_basis_pool(), 40),
        "duplicated_directions": (_duplicated_directions_pool(), 40),
        "k_equals_pool": (_random_pool(count=30, dim=3, seed=9), 30),
        "k_equals_pool_of_three": (_random_pool(count=3, dim=2, seed=10), 3),
    }
    return [
        pytest.param(pool, k, lam, id=f"{name}-lam{lam}")
        for name, (pool, k) in pools.items()
        for lam in (0.0, 0.01, 16.0)
    ]


class TestLazyGreedyOnAdversarialPools:
    """Pools built to defeat the lazy bound, compared bit for bit with the
    dense loop (``lam == 0`` runs ``facility_location_greedy``)."""

    @pytest.mark.parametrize("pool, k, lam", _adversarial_cases())
    def test_matches_the_dense_loop(self, pool, k, lam):
        if lam == 0.0:
            trace = facility_location_greedy(pool, k)
        else:
            trace = greedy_select(pool, CompressionConfig(k=k, lam=lam))
        assert (trace.chosen, trace.marginal_gains) == _allocating_greedy(pool, k, lam)

    @pytest.mark.parametrize("seed", range(5))
    def test_a_one_column_batch_sums_row_by_row(self, seed):
        """With bounds that prune nothing, every live column is scored and
        the last batch holds one column, whose reduction numpy would sum
        pairwise; its gain must still equal the row-by-row dense sum."""
        pool = _random_pool(count=3 * _BATCH + 1, dim=3, seed=seed)
        sims = pool.pairwise.entries
        n = len(pool)
        cover = sims[:, 0].copy()
        diversity = np.random.default_rng(seed).normal(size=n)
        bound = np.full(n, np.inf)
        gains = _lazy_gains(sims, cover, diversity, bound, np.zeros(n, dtype=bool), n, np.empty(n * n))
        coverage = np.maximum(sims - cover[:, None], 0.0).sum(axis=0)
        assert gains.tobytes() == (coverage + diversity).tobytes()
        assert bound.tobytes() == coverage.tobytes()

    @pytest.mark.parametrize("lam", [0.01, 16.0])
    def test_orthogonal_basis_ties_resolve_in_id_order(self, lam):
        pool = _orthogonal_basis_pool()
        trace = greedy_select(pool, CompressionConfig(k=len(pool), lam=lam))
        assert list(trace.chosen) == sorted(pool.ids)


class TestCompressionConfig:
    def test_bounds(self):
        CompressionConfig(k=1, lam=0.0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            CompressionConfig(k=0, lam=0.5)
        with pytest.raises(ValueError, match="finite and >= 0"):
            CompressionConfig(k=2, lam=-0.1)
        with pytest.raises(ValueError, match="finite and >= 0"):
            CompressionConfig(k=2, lam=float("nan"))


class TestObjectiveTerms:
    def test_coverage_matches_reference(self):
        pool = _random_pool(count=10, seed=1)
        for subset in (["v00"], ["v03", "v07"], list(pool.ids[:5])):
            expected = sum(
                max(cosine_similarity(pool.vector(v), pool.vector(s)) for s in subset)
                for v in pool.ids
            )
            np.testing.assert_allclose(coverage_term(pool, subset), expected, rtol=0, atol=1e-9)

    def test_diversity_matches_reference_and_counts_ordered_pairs(self):
        pool = _random_pool(count=8, seed=2)
        subset = list(pool.ids[:4])
        expected = 0.0
        for a in subset:
            for b in subset:
                if a != b:
                    expected += 1.0 - cosine_similarity(pool.vector(a), pool.vector(b))
        np.testing.assert_allclose(diversity_term(pool, subset), expected, rtol=0, atol=1e-9)
        # Each unordered pair contributes twice.
        pair = subset[:2]
        unordered = 1.0 - cosine_similarity(pool.vector(pair[0]), pool.vector(pair[1]))
        np.testing.assert_allclose(diversity_term(pool, pair), 2.0 * unordered, rtol=0, atol=1e-12)

    def test_diversity_of_singleton_is_zero(self):
        pool = _random_pool(count=5, seed=3)
        assert diversity_term(pool, [pool.ids[0]]) == 0.0

    def test_orthogonal_pair_diversity(self):
        query = EmbeddingVector("q", [1.0, 1.0])
        corpus = [EmbeddingVector("a", [1.0, 0.0]), EmbeddingVector("b", [0.0, 1.0])]
        pool = top_n_candidates(query, corpus, 2)
        np.testing.assert_allclose(diversity_term(pool, ["a", "b"]), 2.0, rtol=0, atol=1e-12)

    def test_objective_combines_terms(self):
        pool = _random_pool(count=9, seed=4)
        config = CompressionConfig(k=3, lam=0.7)
        subset = list(pool.ids[:3])
        np.testing.assert_allclose(
            objective(pool, subset, config),
            _objective_reference(pool, subset, 0.7),
            rtol=0,
            atol=1e-9,
        )

    def test_coverage_of_empty_selection_rejected(self):
        pool = _random_pool(count=4, seed=5)
        with pytest.raises(ValueError, match="empty selection"):
            coverage_term(pool, [])

    def test_unknown_and_duplicate_ids_rejected(self):
        pool = _random_pool(count=4, seed=6)
        with pytest.raises(ValueError, match="not in the pool"):
            coverage_term(pool, ["nope"])
        with pytest.raises(ValueError, match="duplicates"):
            diversity_term(pool, [pool.ids[0], pool.ids[0]])


class TestSelectTopk:
    def test_prefix_of_sorted_pool(self):
        pool = _random_pool(count=10, seed=7)
        assert select_topk(pool, 4) == list(pool.ids[:4])

    def test_bounds(self):
        pool = _random_pool(count=3, seed=8)
        with pytest.raises(ValueError, match="k must be >= 1"):
            select_topk(pool, 0)
        with pytest.raises(ValueError, match="exceeds pool size"):
            select_topk(pool, 4)


class TestGreedySelect:
    def test_matches_reference_greedy(self):
        """The incremental greedy agrees with a full-re-evaluation greedy."""
        for seed, lam in ((11, 0.3), (12, 1.7), (13, 0.05)):
            pool = _random_pool(count=12, seed=seed)
            trace = greedy_select(pool, CompressionConfig(k=4, lam=lam))
            chosen, gains = _greedy_reference(pool, 4, lam)
            assert list(trace.chosen) == chosen
            np.testing.assert_allclose(trace.marginal_gains, gains, rtol=0, atol=1e-9)

    def test_first_pick_maximizes_similarity_mass(self):
        """Step one has no pairs, so it maximizes total similarity to the pool."""
        pool = _random_pool(count=15, seed=14)
        trace = greedy_select(pool, CompressionConfig(k=1, lam=0.9))
        mass = pool.pairwise.entries.sum(axis=0)
        picked = pool.pairwise.positions[trace.chosen[0]]
        np.testing.assert_allclose(mass[picked], mass.max(), rtol=0, atol=0)

    def test_objective_value_equals_gain_sum_and_reevaluation(self):
        pool = _random_pool(count=10, seed=15)
        config = CompressionConfig(k=5, lam=0.6)
        trace = greedy_select(pool, config)
        np.testing.assert_allclose(trace.objective_value, sum(trace.marginal_gains), rtol=0, atol=0)
        np.testing.assert_allclose(
            trace.objective_value, objective(pool, trace.chosen, config), rtol=0, atol=1e-9
        )

    def test_zero_diversity_weight_dispatches_to_topk(self):
        for seed in range(5):
            pool = _random_pool(count=20, seed=seed, pool_size=15)
            trace = greedy_select(pool, CompressionConfig(k=6, lam=0.0))
            assert list(trace.chosen) == select_topk(pool, 6)

    def test_zero_weight_trace_still_sums_to_objective(self):
        pool = _random_pool(count=9, seed=16)
        config = CompressionConfig(k=4, lam=0.0)
        trace = greedy_select(pool, config)
        np.testing.assert_allclose(
            trace.objective_value, objective(pool, trace.chosen, config), rtol=0, atol=1e-9
        )
        assert len(trace.marginal_gains) == 4

    def test_ties_resolve_to_smallest_id(self):
        """Identical vectors give identical gains; the earlier id must win."""
        query = EmbeddingVector("q", [1.0, 0.0])
        same = [1.0, 0.2]
        corpus = [
            EmbeddingVector("b", same),
            EmbeddingVector("a", same),
            EmbeddingVector("c", [0.4, 1.0]),
        ]
        pool = top_n_candidates(query, corpus, 3)
        trace = greedy_select(pool, CompressionConfig(k=1, lam=0.5))
        assert trace.chosen == ("a",)

    def test_selection_size_exceeding_pool_rejected(self):
        pool = _random_pool(count=4, seed=17)
        with pytest.raises(ValueError, match="exceeds pool size"):
            greedy_select(pool, CompressionConfig(k=5, lam=0.5))

    def test_chosen_ids_are_distinct_pool_members(self):
        pool = _random_pool(count=11, seed=18)
        trace = greedy_select(pool, CompressionConfig(k=7, lam=2.0))
        assert len(set(trace.chosen)) == 7
        assert set(trace.chosen) <= set(pool.ids)


class TestFacilityLocationGreedy:
    def test_matches_coverage_only_reference(self):
        pool = _random_pool(count=12, seed=21)
        trace = facility_location_greedy(pool, 4)
        chosen, gains = _greedy_reference(pool, 4, 0.0)
        assert list(trace.chosen) == chosen
        np.testing.assert_allclose(trace.marginal_gains, gains, rtol=0, atol=1e-9)

    def test_no_topk_shortcut(self):
        """Unlike greedy_select at zero weight, this stays a true greedy:
        the first pick maximizes pool-wide similarity mass, which is not the
        most query-similar item in general."""
        found_difference = False
        for seed in range(20):
            pool = _random_pool(count=12, seed=seed)
            trace = facility_location_greedy(pool, 3)
            if list(trace.chosen) != select_topk(pool, 3):
                found_difference = True
                break
        assert found_difference

    def test_approximation_guarantee_on_small_instances(self):
        """Greedy coverage stays within (1 - 1/e) of the exhaustive optimum."""
        bound = 1.0 - 1.0 / math.e
        for seed in range(10):
            pool = _random_pool(count=9, seed=100 + seed)
            k = 2 + seed % 2
            greedy_value = coverage_term(pool, facility_location_greedy(pool, k).chosen)
            best = max(
                coverage_term(pool, subset)
                for subset in itertools.combinations(pool.ids, k)
            )
            assert greedy_value >= bound * best - 1e-9

    def test_bounds(self):
        pool = _random_pool(count=4, seed=22)
        with pytest.raises(ValueError, match="k must be >= 1"):
            facility_location_greedy(pool, 0)
        with pytest.raises(ValueError, match="exceeds pool size"):
            facility_location_greedy(pool, 5)


class TestSelectionTrace:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate ids"):
            SelectionTrace(chosen=("a", "a"), marginal_gains=(1.0, 1.0), objective_value=2.0)

    def test_gain_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="gains do not match"):
            SelectionTrace(chosen=("a", "b"), marginal_gains=(1.0,), objective_value=1.0)
