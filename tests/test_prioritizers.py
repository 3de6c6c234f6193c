"""Histogram, buffer, pool draw, and the four selection strategies."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    CandidateBuffer,
    EmptyHistogramError,
    ReferenceHistogram,
    histogram_window,
    pool_entries,
    selection_probability,
    successive_sampling_probability,
)
from scipy import stats

from lossprio.errors import ConfigurationError
from lossprio.prioritizers import (
    PRIORITIZER_KINDS,
    PrioritizerConfig,
    ScoreHistogram,
    draw_from_pool,
    expected_selection_fraction,
    gate_statistic,
    make_prioritizer,
)


def selector(batch_size, **fields):
    """A selector built as the package builds every one: from its config."""
    return make_prioritizer(PrioritizerConfig(**fields), batch_size)


def brute_force_cdf(window, score):
    """Rank-count oracle: inclusive fraction at or below the score."""
    return sum(1 for w in window if w <= score) / len(window)


class TestScoreHistogram:
    def test_matches_brute_force_on_random_streams(self):
        # each score ranks against the window right after its own insertion
        rng = np.random.default_rng(0)
        hist = ScoreHistogram(capacity=16)
        window = []
        for step in range(200):
            chunk = rng.random(int(rng.integers(1, 40)))
            for score, cdf in zip(chunk.tolist(), hist.insert_many(chunk).tolist()):
                window = (window + [score])[-16:]
                assert cdf == brute_force_cdf(window, score)
        assert histogram_window(hist) == window

    def test_fifo_eviction(self):
        hist = ScoreHistogram(capacity=3)
        hist.insert_many(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert histogram_window(hist) == [3.0, 4.0, 5.0]
        # the evicted 1.0 and 2.0 would raise the rank of 2.5 if they counted
        assert hist.insert_many(np.array([2.5])).tolist() == [1 / 3]
        assert histogram_window(hist) == [4.0, 5.0, 2.5]

    def test_ties_are_inclusive(self):
        hist = ScoreHistogram(capacity=8)
        assert hist.insert_many(np.array([2.0, 2.0, 5.0, 2.0])).tolist()[-1] == 0.75

    def test_empty_histogram_raises(self):
        with pytest.raises(EmptyHistogramError):
            ReferenceHistogram(4).cdf(1.0)

    def test_bad_capacity_rejected(self):
        # the window's owner is the config; ScoreHistogram trusts it
        with pytest.raises(ConfigurationError, match="histogram_capacity must be positive"):
            PrioritizerConfig(histogram_capacity=0)


class TestSelectionProbability:
    def test_beta_zero_always_one(self):
        hist = ReferenceHistogram(4)
        hist.insert(10.0)
        assert selection_probability(-5.0, hist, 0.0) == 1.0
        assert selection_probability(99.0, hist, 0.0) == 1.0

    def test_max_score_always_one(self):
        hist = ReferenceHistogram(8)
        for s in (0.5, 1.5, 2.5):
            hist.insert(s)
        assert selection_probability(2.5, hist, 1.0) == 1.0
        assert selection_probability(3.0, hist, 7.0) == 1.0

    def test_powers_of_rank(self):
        hist = ReferenceHistogram(8)
        for s in (1.0, 2.0, 3.0, 4.0):
            hist.insert(s)
        assert selection_probability(2.0, hist, 1.0) == brute_force_cdf([1, 2, 3, 4], 2)
        assert selection_probability(2.0, hist, 2.0) == 0.25

    def test_monotone_in_score(self):
        rng = np.random.default_rng(5)
        hist = ReferenceHistogram(64)
        for s in rng.random(64):
            hist.insert(float(s))
        probes = np.sort(rng.random(20))
        probs = [selection_probability(float(p), hist, 2.0) for p in probes]
        assert probs == sorted(probs)

    def test_negative_beta_rejected(self):
        hist = ReferenceHistogram(4)
        hist.insert(1.0)
        with pytest.raises(ConfigurationError):
            selection_probability(1.0, hist, -1.0)


class TestExpectedSelectionFraction:
    @pytest.mark.parametrize("beta, expected", [(0.0, 1.0), (1.0, 0.5), (2.0, 1 / 3)])
    def test_closed_form(self, beta, expected):
        assert expected_selection_fraction(beta) == pytest.approx(expected, rel=1e-12)


class TestCandidateBuffer:
    def test_emits_exact_batches_in_order(self):
        buf = CandidateBuffer(batch_size=3)
        for i in range(7):
            buf.push(i)
        assert buf.drain() == [[0, 1, 2], [3, 4, 5]]
        assert buf.snapshot() == [6]
        assert buf.drain() == []

    def test_multiple_batches_in_one_drain(self):
        buf = CandidateBuffer(batch_size=2)
        for i in range(6):
            buf.push(i)
        assert buf.drain() == [[0, 1], [2, 3], [4, 5]]


class TestPoolDraw:
    def test_gate_statistic_hand_computed(self):
        # q = (0.75, 0.25); scaled squared distance to uniform is
        # 2 * ((0.25)^2 + (0.25)^2) = 0.25
        assert gate_statistic(np.array([3.0, 1.0])) == pytest.approx(0.25, rel=1e-12)

    def test_uniform_losses_have_zero_statistic(self):
        assert gate_statistic(np.full(4, 2.5)) == 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_gate_statistic_rescales_a_loss_sum_that_overflows(self):
        # over the losses times 2 ** -len.bit_length(): a flat pool reads 0.0
        # at any scale, and one overflowing pair reads 5 * (2 * 0.3**2 + 3 * 0.2**2)
        assert gate_statistic(np.array([1e308, 1e308])) == 0.0
        spread = gate_statistic(np.array([1e308, 3.0, 1e308, 0.0, 2.0]))
        assert spread == pytest.approx(1.5, rel=1e-12)

    def test_constant_losses_draw_uniformly(self):
        rng = np.random.default_rng(3)
        counts = np.zeros(4)
        for _ in range(20_000):
            ids, gate_on = draw_from_pool(np.arange(4), np.ones(4), 1, 0.0, rng)
            assert not gate_on
            counts[ids[0]] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    def test_planted_three_to_one_frequency(self):
        rng = np.random.default_rng(4)
        hits = 0
        trials = 40_000
        for _ in range(trials):
            ids, gate_on = draw_from_pool(np.array([7, 8]), np.array([3.0, 1.0]), 1, 0.0, rng)
            assert gate_on
            hits += ids[0] == 7
        assert abs(hits / trials - 0.75) < 0.01

    def test_ordered_picks_follow_successive_sampling(self):
        # every ordered triple of the five positive losses; the zero loss is
        # never picked
        losses = np.array([4.0, 1.0, 2.0, 0.0, 0.5, 3.0])
        triples = itertools.permutations(np.flatnonzero(losses).tolist(), 3)
        assert_successive_sampling(losses, 3, triples, 200_000, seed=8)

    @pytest.mark.parametrize("losses, batch_size", [
        ([1.0, 1.0, 3.0, 3.0], 2),  # exact ties
        ([1.0, 2.0, 3.0], 3),  # every permutation of the pool
        ([0.25, 0.5, 1.0, 2.0, 4.0], 2),  # powers of two
        ([10.0, 1.0, 1.0, 0.0], 3),  # one dominant loss; the zero never drawn
        ([0.0, 5.0, 0.0, 1.0], 4),  # the batch runs past the positive losses
    ], ids=["ties", "permutations", "decades", "dominant", "past_positives"])
    def test_ordered_batches_follow_successive_sampling(self, losses, batch_size):
        losses = np.array(losses)
        batches = [b for b in itertools.permutations(range(len(losses)), batch_size)
                   if successive_sampling_probability(losses, b) > 0]
        assert_successive_sampling(losses, batch_size, batches, 20_000, seed=12)

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 1e9])
    @pytest.mark.parametrize("size, batch_size", [(1, 1), (6, 6), (50, 10), (400, 128),
                                                  (400, 350)])
    def test_draw_is_a_batch_of_distinct_fed_ids(self, size, batch_size, threshold):
        # pools with zeros, exact ties and 24 decades of spread; the gate
        # decision is the statistic's, and an open gate draws every positive
        # loss it can before any zero
        data = np.random.default_rng(size * 1000 + batch_size)
        for _ in range(40):
            decades = 10.0 ** data.uniform(-12, 12, size)
            spread = np.choose(data.integers(3, size=size),
                               [np.ones(size), np.full(size, 2.5), decades])
            losses = np.where(data.random(size) < 0.3, 0.0, spread)
            ids = data.permutation(10 * size)[:size]
            picked, gate_on = draw_from_pool(ids, losses, batch_size, threshold,
                                             np.random.default_rng(data.integers(1 << 30)))
            assert gate_on == (gate_statistic(losses) > threshold)
            assert len(picked) == batch_size == len(set(picked.tolist()))
            assert set(picked.tolist()) <= set(ids.tolist())
            if gate_on:
                loss_of = dict(zip(ids.tolist(), losses.tolist()))
                picked_losses = np.array([loss_of[i] for i in picked.tolist()])
                n = min(batch_size, np.count_nonzero(losses))
                assert (picked_losses[:n] > 0).all() and (picked_losses[n:] == 0).all()

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 1e9])
    def test_same_seed_draws_the_same_batch(self, threshold):
        # the draw depends on its losses and its generator alone, and leaves
        # equal generators in equal states
        data = np.random.default_rng(13)
        losses = data.exponential(size=300) * (data.random(300) > 0.3)
        rngs = np.random.default_rng(14), np.random.default_rng(14)
        first, second = (draw_from_pool(np.arange(300), losses.copy(), 64, threshold, rng)
                         for rng in rngs)
        assert first[0].tolist() == second[0].tolist() and first[1] == second[1]
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_shut_gate_draws_ordered_pairs_uniformly(self):
        # the losses of the successive-sampling test, under a threshold they
        # never clear
        losses = np.array([4.0, 1.0, 2.0, 0.0, 0.5, 3.0])
        rng, counts = np.random.default_rng(9), Counter()
        for _ in range(60_000):
            ids, gate_on = draw_from_pool(np.arange(6), losses, 2, 1e9, rng)
            assert not gate_on
            counts[tuple(ids.tolist())] += 1
        pairs = list(itertools.permutations(range(6), 2))
        assert set(counts) == set(pairs)
        assert stats.chisquare([counts[p] for p in pairs]).pvalue > 0.001

    def test_zero_losses_come_after_every_positive_loss(self):
        # a batch past the positive losses fills up uniformly from the zeros
        batches = [head + tail for head in itertools.permutations((1, 3))
                   for tail in itertools.permutations((0, 2, 4, 5), 2)]
        assert_successive_sampling(np.array([0.0, 2.0, 0.0, 1.0, 0.0, 0.0]), 4, batches,
                                   12_000, seed=0)

    @pytest.mark.parametrize("scale", [1e-310, 1e300])
    def test_extreme_scales_draw_distinct_ids(self, scale):
        # a subnormal loss keys a finite log, not an overflowed quotient that
        # would tie with the zero loss; nothing on the way over- or underflows
        losses = scale * np.array([1.0, 3.0, 0.0, 2.0])
        rng = np.random.default_rng(10)
        with np.errstate(all="raise"):
            for _ in range(200):
                ids, gate_on = draw_from_pool(np.arange(4), losses, 4, 0.0, rng)
                assert gate_on and sorted(ids.tolist()) == [0, 1, 2, 3] and ids[-1] == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_loss_sum_that_overflows_draws_by_loss(self):
        # the two huge losses win the race over the finite ones, and the zero
        # comes last
        losses, rng = np.array([1e308, 3.0, 1e308, 0.0, 2.0]), np.random.default_rng(11)
        for _ in range(200):
            ids, gate_on = draw_from_pool(np.arange(20, 25), losses, 5, 0.0, rng)
            assert gate_on and set(ids[:2].tolist()) == {20, 22}
            assert set(ids[2:4].tolist()) == {21, 24} and ids[4] == 23

    def test_all_zero_losses_fall_back_to_uniform(self):
        rng = np.random.default_rng(5)
        ids, gate_on = draw_from_pool(np.arange(3), np.zeros(3), 2, 0.0, rng)
        assert not gate_on
        assert len(set(ids.tolist())) == 2

    def test_high_threshold_closes_gate(self):
        rng = np.random.default_rng(7)
        _, gate_on = draw_from_pool(np.array([0, 1]), np.array([100.0, 1.0]), 1, 10.0, rng)
        assert not gate_on

    def test_negative_loss_rejected(self):
        # feed checks every loss before the pool sees it
        prio = selector(2, kind="vr", seed=0)
        with pytest.raises(ConfigurationError, match="finite and nonnegative"):
            prio.feed(np.arange(2), np.array([1.0, -1.0]))
        assert pool_entries(prio) == []


def assert_successive_sampling(losses, batch_size, batches, draws, seed):
    """draw_from_pool's ordered batches from an open gate, each one of the
    possible batches, chi-squared against successive_sampling_probability."""
    rng, counts = np.random.default_rng(seed), Counter()
    for _ in range(draws):
        ids, gate_on = draw_from_pool(np.arange(len(losses)), losses, batch_size, 0.0, rng)
        assert gate_on
        counts[tuple(ids.tolist())] += 1
    batches = list(batches)
    assert set(counts) <= set(batches)
    observed = np.array([counts[b] for b in batches])
    expected = draws * np.array([successive_sampling_probability(losses, b) for b in batches])
    chi2 = ((observed - expected) ** 2 / expected).sum()
    assert chi2 < stats.chi2.ppf(0.999, len(batches) - 1)


def feed_stream(prio, scores, batch=None, start_id=0):
    """Push scores through in chunks, returning all emitted batches as lists."""
    batch = batch or prio.batch_size
    emitted = []
    for lo in range(0, len(scores), batch):
        chunk = scores[lo : lo + batch]
        rows = np.arange(start_id + lo, start_id + lo + len(chunk))
        emitted.extend(chosen.tolist() for chosen, _ in prio.feed(rows, chunk))
    return emitted


class TestSelectiveBackprop:
    def test_beta_zero_matches_uniform_passthrough(self):
        rng = np.random.default_rng(8)
        scores = rng.random(512)
        uni = selector(128, kind="uniform", seed=1)
        sb = selector(128, kind="sb_loss", seed=999, beta=0.0)
        uni_batches = feed_stream(uni, scores)
        sb_batches = feed_stream(sb, scores)
        assert uni_batches == sb_batches
        assert sb.selected == sb.ingested == 512

    def test_constant_scores_all_admitted(self):
        # inclusive ties make every cdf query 1.0 for any beta
        sb = selector(32, kind="sb_loss", seed=2, beta=5.0)
        feed_stream(sb, np.full(320, 1.25))
        assert sb.selected == 320

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_monte_carlo_selectivity(self, beta):
        rng = np.random.default_rng(int(beta) + 40)
        sb = selector(128, kind="sb_loss", seed=3, beta=beta)
        feed_stream(sb, rng.random(40_000))
        rate = sb.selected / sb.ingested
        assert abs(rate - expected_selection_fraction(beta)) < 0.015

    def test_warm_up_admits_everything(self):
        rng = np.random.default_rng(9)
        sb = selector(64, kind="sb_loss", seed=4, beta=8.0)
        sb.feed(np.arange(63), rng.random(63))
        assert sb.selected == 63  # window below one batch: no filtering yet

    def test_oversamples_planted_high_scores(self):
        # 20% of the stream scores an order of magnitude higher; with beta=1
        # those examples must be admitted far above their base rate
        rng = np.random.default_rng(10)
        n = 20_000
        planted = rng.random(n) < 0.2
        scores = np.where(planted, 2.0 + rng.random(n), rng.random(n))
        sb = selector(128, kind="sb_loss", seed=5, beta=1.0)
        picked = np.concatenate(feed_stream(sb, scores)).astype(int)
        picked_planted = int(planted[picked].sum())
        total_picked = len(picked)
        test = stats.binomtest(picked_planted, total_picked, 0.2, alternative="greater")
        assert picked_planted / total_picked > 0.3
        assert test.pvalue < 0.001

    def test_scores_must_be_finite_and_nonnegative(self):
        sb = selector(4, kind="sb_loss", seed=6, beta=1.0)
        with pytest.raises(ConfigurationError):
            sb.feed(np.array([0]), np.array([-1.0]))
        with pytest.raises(ConfigurationError):
            sb.feed(np.array([0]), np.array([np.nan]))

    def test_entropy_variant_ranks_by_entropy(self):
        # the window must hold entropies of the distributions, not losses
        sb = selector(2, kind="sb_entropy", seed=7, beta=1.0)
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        sb.feed(np.array([0, 1]), losses=np.array([9.0, 9.0]), probabilities=probs)
        window = histogram_window(sb.histogram)
        np.testing.assert_allclose(window, [0.0, np.log(2)], atol=1e-12)

    def test_entropy_variant_requires_distributions(self):
        sb = selector(2, kind="sb_entropy", seed=8, beta=1.0)
        with pytest.raises(ConfigurationError):
            sb.feed(np.array([0, 1]), losses=np.array([1.0, 2.0]))


class TestPoolImportancePrioritizer:
    def test_selectivity_is_batch_over_capacity(self):
        rng = np.random.default_rng(11)
        prio = selector(32, kind="vr", seed=9, pool_capacity=96)
        batches = feed_stream(prio, rng.random(9600) + 0.1, batch=32)
        assert len(batches) == 100  # one draw per 3 candidate batches
        assert prio.selected / prio.ingested == pytest.approx(1 / 3)

    def test_batches_are_distinct_fed_ids(self):
        rng = np.random.default_rng(12)
        prio = selector(16, kind="vr", seed=10, pool_capacity=48)
        scores = rng.random(480) + 0.5
        batches = feed_stream(prio, scores)
        for batch in batches:
            assert len(batch) == 16
            assert len(set(batch)) == 16
            assert all(0 <= i < 480 for i in batch)

    def test_gate_flags_align_with_batches(self):
        prio = selector(2, kind="vr", seed=11, pool_capacity=4)
        flat = prio.feed(np.arange(4), np.ones(4))
        flags_flat = [gate_on for _, gate_on in flat]
        spread = prio.feed(np.arange(4, 8), np.array([5.0, 0.1, 0.1, 0.1]))
        flags_spread = [gate_on for _, gate_on in spread]
        assert len(flat) == 1 and flags_flat == [False]
        assert len(spread) == 1 and flags_spread == [True]
        assert prio.feed(np.arange(8, 10), np.ones(2)) == []

    def test_capacity_below_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            selector(32, kind="vr", seed=0, pool_capacity=16)


class TestMakePrioritizer:
    def test_uniform_passthrough(self):
        prio = make_prioritizer(PrioritizerConfig(kind="uniform", seed=1), batch_size=4)
        assert [(rows.tolist(), gate_on) for rows, gate_on
                in prio.feed(np.array([3, 1, 4, 1]), np.zeros(4))] == [([3, 1, 4, 1], None)]

    def test_all_kinds_constructible(self):
        for kind in ("uniform", "sb_loss", "sb_entropy", "vr"):
            prio = make_prioritizer(PrioritizerConfig(kind=kind, seed=2), batch_size=8)
            assert prio.kind == kind

    def test_every_setting_comes_from_the_config(self):
        cfg = PrioritizerConfig(kind="sb_entropy", beta=2.5, histogram_capacity=40, seed=17)
        sb = make_prioritizer(cfg, batch_size=8)
        assert (sb.kind, sb.beta, sb.histogram.capacity, sb.batch_size) == ("sb_entropy", 2.5,
                                                                            40, 8)
        cfg = PrioritizerConfig(kind="vr", pool_capacity=12, gate_threshold=0.3, seed=17)
        vr = make_prioritizer(cfg, batch_size=8)
        assert (vr.kind, vr.capacity, vr.gate_threshold) == ("vr", 12, 0.3)
        seeded = np.random.default_rng(17).bit_generator.state
        assert sb.rng.bit_generator.state == vr.rng.bit_generator.state == seeded

    def test_default_pool_capacity_is_three_batches(self):
        prio = make_prioritizer(PrioritizerConfig(kind="vr", seed=3), batch_size=32)
        assert prio.capacity == 96

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            PrioritizerConfig(kind="magic")

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(PRIORITIZER_KINDS), batch_size=st.integers(1, 16),
           spare=st.integers(0, 40), chunks=st.lists(st.integers(1, 50), max_size=12),
           seed=st.integers(0, 2**16))
    def test_never_emits_unfed_ids_or_partial_batches(self, kind, batch_size, spare,
                                                      chunks, seed):
        # the harness feeds uniform whole candidate batches, which it passes on
        # as they are; the other kinds take any chunking of the stream
        if kind == "uniform":
            chunks = [batch_size] * len(chunks)
        capacity = batch_size + spare
        prio = make_prioritizer(
            PrioritizerConfig(kind=kind, beta=1.0, histogram_capacity=capacity,
                              pool_capacity=capacity, seed=seed),
            batch_size,
        )
        data = np.random.default_rng(seed)
        stream = data.permutation(10 * sum(chunks) + 1)[: sum(chunks)]
        fed, emitted, lo = set(), [], 0
        for size in chunks:
            rows = stream[lo : lo + size]
            lo += size
            fed.update(rows.tolist())
            probs = data.dirichlet(np.ones(5), size=size)
            for batch, gate_on in prio.feed(rows, data.random(size) + 0.01, probs):
                assert isinstance(batch, np.ndarray) and batch.dtype == np.int64
                assert batch.shape == (batch_size,)
                assert len(set(batch.tolist())) == batch_size
                assert set(batch.tolist()) <= fed
                assert isinstance(gate_on, bool) if kind == "vr" else gate_on is None
                emitted.extend(batch.tolist())
        # ids are fed once each, so none is emitted twice across batches either
        assert len(set(emitted)) == len(emitted) == prio.selected - prio.selected % batch_size
        assert prio.ingested == sum(chunks)
        if kind == "vr":
            assert prio.selected == prio.ingested // capacity * batch_size


class TestSelectorState:
    def test_window_and_counters_after_a_feed(self):
        sb = selector(4, kind="sb_loss", seed=14, beta=1.0, histogram_capacity=8)
        feed_stream(sb, np.array([3.0, 1.0, 2.0, 5.0, 4.0]), batch=5)
        assert sb.kind == "sb_loss"
        assert histogram_window(sb.histogram) == [3.0, 1.0, 2.0, 5.0, 4.0]
        assert sb.ingested == 5

    def test_identical_streams_identical_state(self):
        runs = []
        for _ in range(2):
            prio = selector(2, kind="vr", seed=15, pool_capacity=6)
            prio.feed(np.arange(4), np.array([1.0, 2.0, 3.0, 4.0]))
            runs.append((pool_entries(prio), prio.ingested, prio.selected,
                         prio.rng.bit_generator.state))
        assert runs[0] == runs[1]

    def test_golden_pool_state(self):
        prio = selector(4, kind="vr", seed=0, pool_capacity=8)
        prio.feed(np.array([10, 11]), np.array([1.5, 2.5]))
        assert (prio.kind, prio.batch_size, prio.ingested, prio.selected) == ("vr", 4, 2, 0)
        assert pool_entries(prio) == [(10, 1.5), (11, 2.5)]
        assert (prio.capacity, prio.gate_threshold) == (8, 0.0)


def per_example_selective_backprop(batch_size, seed, beta, capacity, feeds):
    """The per-example reference: insert, rank against the window, admit."""
    hist, rng = ReferenceHistogram(capacity), np.random.default_rng(seed)
    queue, batches = CandidateBuffer(batch_size), []
    for ids, scores in feeds:
        for example_id, score in zip(ids, scores):
            hist.insert(float(score))
            if len(hist) < batch_size:
                admitted = True
            else:
                p = selection_probability(float(score), hist, beta)
                admitted = p >= 1.0 or rng.random() < p
            if admitted:
                queue.push(example_id)
        batches.extend(queue.drain())
    return batches, histogram_window(hist), rng


class TestBatchedSelectionMatchesPerExample:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("capacity, feed_len", [(64, 10), (64, 64), (64, 150), (16, 40)])
    def test_selective_backprop_feed(self, beta, tied, capacity, feed_len):
        rng = np.random.default_rng(int(beta * 10) + capacity + feed_len)
        scores = rng.exponential(size=12 * feed_len)
        if tied:
            scores = np.round(scores, 2)
        feeds = [(list(range(lo, lo + feed_len)), scores[lo : lo + feed_len])
                 for lo in range(0, len(scores), feed_len)]
        expected, window, ref_rng = per_example_selective_backprop(16, 7, beta, capacity, feeds)

        prio = selector(16, kind="sb_loss", seed=7, beta=beta,
                        histogram_capacity=capacity)
        got = [rows.tolist() for ids, chunk in feeds
               for rows, _ in prio.feed(np.array(ids), chunk)]
        assert got == expected
        assert histogram_window(prio.histogram) == window
        assert prio.rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(batch_size=st.integers(1, 8), spare=st.integers(0, 16),
       losses=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0), max_size=120),
       cuts=st.lists(st.integers(0, 120)), threshold=st.sampled_from([0.0, 0.3]),
       seed=st.integers(0, 2**16))
def test_vr_batches_do_not_depend_on_chunking(batch_size, spare, losses, cuts, threshold,
                                              seed):
    # pools are cut from the stream, so any chunking of one stream draws the
    # same batches from the same generator and leaves the same candidates over
    rows = np.random.default_rng(seed).permutation(10 * len(losses) + 1)[: len(losses)]
    losses = np.array(losses)

    def run(bounds):
        prio = selector(batch_size, kind="vr", seed=seed, pool_capacity=batch_size + spare,
                        gate_threshold=threshold)
        batches = [(batch.tolist(), gate_on) for lo, hi in zip(bounds, bounds[1:])
                   for batch, gate_on in prio.feed(rows[lo:hi], losses[lo:hi])]
        return (batches, pool_entries(prio), prio.ingested, prio.selected,
                prio.rng.bit_generator.state)

    chunked = run(sorted({0, len(losses), *(c for c in cuts if c < len(losses))}))
    assert chunked == run([0, len(losses)])


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 40),
       scores=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]) | st.floats(0.0, 10.0),
                       max_size=150),
       cuts=st.lists(st.integers(0, 150)))
def test_insert_many_matches_the_reference(capacity, scores, cuts):
    # any chunking of one feed, ties included, ranks each score exactly as
    # inserting and ranking them one at a time does
    ref = ReferenceHistogram(capacity)
    expected = []
    for score in scores:
        ref.insert(score)
        expected.append(ref.cdf(score))
    bounds = sorted({0, len(scores), *(c for c in cuts if c < len(scores))})
    hist = ScoreHistogram(capacity)
    got = [cdf for lo, hi in zip(bounds, bounds[1:])
           for cdf in hist.insert_many(np.array(scores[lo:hi])).tolist()]
    assert got == expected
    assert histogram_window(hist) == histogram_window(ref)


@pytest.mark.parametrize("capacity, before, n", [(1024, 0, 1024), (1024, 900, 700),
                                                  (300, 300, 300)])
def test_one_large_chunk_matches_the_reference(capacity, before, n):
    # one chunk of 300 to 1024 scores, most of them tied: its rank counts,
    # and those of the entries it evicts, run past what a byte holds
    rng = np.random.default_rng(capacity + before + n)
    scores = np.where(rng.random(before + n) < 0.8, rng.integers(4, size=before + n) / 2,
                      rng.random(before + n) * 2)
    ref, expected = ReferenceHistogram(capacity), []
    for score in scores.tolist():
        ref.insert(score)
        expected.append(ref.cdf(score))
    hist = ScoreHistogram(capacity)
    hist.insert_many(scores[:before])
    assert hist.insert_many(scores[before:]).tolist() == expected[before:]
    assert histogram_window(hist) == histogram_window(ref)


def test_python_power_is_the_identity_at_beta_one():
    # the premise of the sb_* shortcut that admits with p = cdf at beta 1:
    # every cdf a window of up to 1024 scores gives is k / n, and Python's
    # power leaves each one as it is
    assert all((k / n) ** 1.0 == k / n for n in range(1, 1025) for k in range(n + 1))


def test_histogram_smaller_than_batch_rejected():
    # the window could never hold a batch: warm-up would admit every example
    with pytest.raises(ConfigurationError, match="histogram_capacity 64 smaller than batch_size 128"):
        selector(128, kind="sb_loss", seed=0, beta=1.0, histogram_capacity=64)
    with pytest.raises(ConfigurationError, match="capacity 64"):
        make_prioritizer(PrioritizerConfig(kind="sb_entropy", histogram_capacity=64), 128)
