"""Decoding strategies checked against brute-force set construction."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import PROPERTY, dists, rand_dist
from ctxlens import decoding
from ctxlens.decoding import (
    DecodingStrategy,
    _nucleus_size,
    apply_strategy,
    confidence,
    derive_seed,
    sample,
    top1,
)
from ctxlens.dist import TokenDistribution
from ctxlens.errors import StrategyError, VocabMismatch


def brute_force_keep(probs, strategy):
    """Reference set construction by explicit enumeration.

    Ordering is by descending probability with ties broken toward the lower
    token id. Nucleus keeps the smallest prefix whose mass reaches p; top-k
    keeps the first k entries. Zero-probability members are dropped since
    they renormalise to zero and never appear in the output support.
    """
    order = sorted(range(len(probs)), key=lambda t: (-probs[t], t))
    if strategy.kind == "greedy":
        kept = {order[0]}
    elif strategy.kind == "top_k":
        kept = set(order[: strategy.k])
    elif strategy.kind == "nucleus":
        kept, mass = set(), 0.0
        for t in order:
            kept.add(t)
            mass += probs[t]
            if mass >= strategy.p:
                break
    else:
        raise AssertionError(strategy.kind)
    return {t for t in kept if probs[t] > 0.0}


def argsort_apply_strategy(dist, strategy):
    """The full-vocab argsort implementation, kept as the bitwise reference."""
    probs = dist.probs
    order = np.argsort(-probs, kind="stable")
    if strategy.kind == "greedy":
        kept = order[:1]
    elif strategy.kind == "top_k":
        kept = order[: min(strategy.k, dist.vocab_size)]
    elif strategy.kind == "nucleus":
        cum = np.cumsum(probs[order])
        kept = order[: int(np.searchsorted(cum, strategy.p, side="left")) + 1]
    else:
        kept = order[: max(int((probs >= strategy.eps).sum()), 1)]
    out = np.zeros_like(probs)
    out[kept] = probs[kept] / probs[kept].sum()
    return TokenDistribution(out)


def bf16(values):
    """``values`` rounded to bfloat16 (8 significant bits), to nearest with ties to even."""
    bits = values.astype(np.float32).view(np.uint32)
    bits = (bits + 0x7FFF + ((bits >> 16) & 1)) & 0xFFFF0000
    return bits.view(np.float32).astype(np.float64)


@st.composite
def nucleus_case(draw):
    """A descending probability vector and a nucleus p.

    Vocabularies run from 1 to 131,072 ids, with free, tied or bf16-rounded
    weights. p is a fixed or free value, or a running sum of the vector moved
    by up to three ulps, where only the sequential sum can place the cut.
    """
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vocab = draw(st.one_of(st.integers(1, 600), st.integers(1, 131072)))
    weights = gen.random(vocab) ** draw(st.sampled_from([1.0, 4.0, 16.0]))
    shape = draw(st.sampled_from(["free", "tied", "bf16"]))
    if shape == "tied":
        weights = np.floor(weights * draw(st.sampled_from([3, 50])))
    elif shape == "bf16":
        weights = bf16(weights)
    if weights.sum() == 0.0:
        weights[0] = 1.0
    desc = np.sort(TokenDistribution.from_weights(weights).probs)[::-1]
    kind = draw(st.sampled_from(["fixed", "free", "running sum"]))
    if kind == "fixed":
        return desc, draw(st.sampled_from([0.5, 0.9, 0.999, 1.0]))
    if kind == "free":
        return desc, draw(st.floats(1e-9, 1.0))
    p = float(np.cumsum(desc)[draw(st.integers(0, vocab - 1))])
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        p = float(np.nextafter(p, np.inf if steps > 0 else 0.0))
    return desc, min(max(p, np.nextafter(0.0, 1.0)), 1.0)


def flat_case(vocab, p):
    """The descending vector of ``vocab`` equal weights of 0.1, and p."""
    return np.sort(TokenDistribution.from_weights(np.full(vocab, 0.1)).probs)[::-1], p


class _CountingNumpy:
    """numpy, recording the length of every array given to ``cumsum``."""

    def __init__(self, sizes):
        self._sizes = sizes

    def __getattr__(self, name):
        return getattr(np, name)

    def cumsum(self, a, *args, **kwargs):
        self._sizes.append(len(a))
        return np.cumsum(a, *args, **kwargs)


@pytest.fixture
def counted_cumsum(monkeypatch):
    """The lengths of the arrays ``ctxlens.decoding`` hands to ``np.cumsum``, in call order."""
    sizes = []
    monkeypatch.setattr(decoding, "np", _CountingNumpy(sizes))
    return sizes


@st.composite
def dist_and_strategy(draw):
    d = draw(dists())
    kind = draw(st.sampled_from(["greedy", "top_k", "nucleus", "adaptive"]))
    if kind == "greedy":
        return d, DecodingStrategy.greedy()
    if kind == "top_k":
        return d, DecodingStrategy.top_k(draw(st.integers(1, d.vocab_size + 2)))
    # Thresholds that equal an entry exercise the inclusive boundaries.
    entries = [float(v) for v in np.unique(d.probs) if 0.0 < v < 1.0]
    if kind == "nucleus":
        p = st.one_of(st.sampled_from([0.3, 0.5, 0.9, 0.99, 1.0]), st.floats(1e-6, 1.0))
        return d, DecodingStrategy.nucleus(draw(p))
    eps = st.floats(1e-6, 1.0, exclude_max=True)
    if entries:
        eps = st.one_of(eps, st.sampled_from(entries))
    return d, DecodingStrategy.adaptive(draw(eps))


class TestStrategyParsing:
    def test_round_trips(self):
        for token in ("greedy", "topk:5", "nucleus:0.9", "adaptive:0.001"):
            s = DecodingStrategy.parse(token)
            assert DecodingStrategy.parse(s.token()) == s

    def test_constructors_match_parse(self):
        assert DecodingStrategy.parse("greedy") == DecodingStrategy.greedy()
        assert DecodingStrategy.parse("topk:3") == DecodingStrategy.top_k(3)
        assert DecodingStrategy.parse("nucleus:0.5") == DecodingStrategy.nucleus(0.5)
        assert DecodingStrategy.parse("adaptive:0.01") == DecodingStrategy.adaptive(0.01)

    @pytest.mark.parametrize(
        "bad",
        ["", "topk", "topk:0", "topk:-1", "topk:2.5", "nucleus:0", "nucleus:1.5", "adaptive:0", "adaptive:1", "beam:3"],
    )
    def test_invalid_tokens_rejected(self, bad):
        with pytest.raises(StrategyError):
            DecodingStrategy.parse(bad)

    def test_default_nucleus_p(self):
        assert DecodingStrategy.nucleus().p == 0.9


class TestApplyStrategy:
    def test_greedy_is_point_mass(self):
        d = TokenDistribution.from_probs([0.1, 0.6, 0.3])
        out = apply_strategy(d, DecodingStrategy.greedy())
        assert out.probs.tolist() == [0.0, 1.0, 0.0]

    def test_greedy_tie_prefers_lower_id(self):
        d = TokenDistribution.from_probs([0.3, 0.4, 0.3])
        out = apply_strategy(TokenDistribution.from_probs([0.4, 0.4, 0.2]), DecodingStrategy.greedy())
        assert out.support() == {0}
        assert apply_strategy(d, DecodingStrategy.greedy()).support() == {1}

    def test_nucleus_keeps_smallest_covering_prefix(self):
        d = TokenDistribution.from_probs([0.5, 0.3, 0.15, 0.05])
        out = apply_strategy(d, DecodingStrategy.nucleus(0.9))
        assert out.support() == {0, 1, 2}
        assert out.probs[:3] == pytest.approx([0.5 / 0.95, 0.3 / 0.95, 0.15 / 0.95], abs=1e-12)

    def test_nucleus_boundary_inclusive(self):
        d = TokenDistribution.from_probs([0.5, 0.5])
        out = apply_strategy(d, DecodingStrategy.nucleus(0.5))
        assert out.support() == {0}

    def test_top_k_larger_than_vocab_keeps_all(self):
        d = TokenDistribution.from_probs([0.2, 0.8])
        out = apply_strategy(d, DecodingStrategy.top_k(10))
        assert out.same_values(d)

    def test_tie_break_prefers_lower_ids(self):
        d = TokenDistribution.from_probs([0.4, 0.3, 0.3])
        assert apply_strategy(d, DecodingStrategy.top_k(2)).support() == {0, 1}
        assert apply_strategy(d, DecodingStrategy.nucleus(0.65)).support() == {0, 1}

    def test_adaptive_keeps_argmax_when_all_below_eps(self):
        d = TokenDistribution.uniform(100)
        out = apply_strategy(d, DecodingStrategy.adaptive(0.5))
        assert out.support() == {0}

    def test_adaptive_drops_small_entries(self):
        d = TokenDistribution.from_probs([0.898, 0.1, 0.002])
        out = apply_strategy(d, DecodingStrategy.adaptive(0.01))
        assert out.support() == {0, 1}

    def test_matches_brute_force(self, rng):
        for _ in range(500):
            vocab = int(rng.integers(2, 13))
            d = rand_dist(rng, vocab, zeros=bool(rng.integers(0, 2)))
            # Inject exact ties half the time to exercise ordering.
            if vocab >= 4 and rng.integers(0, 2):
                probs = d.probs.copy()
                probs[1] = probs[0]
                d = TokenDistribution.from_weights(probs)
            if rng.integers(0, 2):
                strategy = DecodingStrategy.top_k(int(rng.integers(1, vocab + 1)))
            else:
                strategy = DecodingStrategy.nucleus(float(rng.choice([0.3, 0.5, 0.9, 1.0])))
            out = apply_strategy(d, strategy)
            kept = brute_force_keep(d.probs.tolist(), strategy)
            assert out.support() == kept
            mass = sum(d.probs[t] for t in kept)
            for t in kept:
                assert out.entry(t) == pytest.approx(d.entry(t) / mass, abs=1e-12)

    @PROPERTY
    @given(dist_and_strategy())
    # All-tied vocabs: the cut keeps only the lowest of 32,768 tied ids.
    @example((TokenDistribution.uniform(32768), DecodingStrategy.top_k(50)))
    @example((TokenDistribution.uniform(32768), DecodingStrategy.nucleus(0.9)))
    @example((TokenDistribution.uniform(1000), DecodingStrategy.top_k(999)))
    def test_bitwise_equal_to_argsort_reference(self, case):
        d, strategy = case
        out = apply_strategy(d, strategy)
        assert out.same_values(argsort_apply_strategy(d, strategy))
        assert not out.probs.flags.writeable

    def test_nucleus_one_keeps_everything_when_the_cumsum_falls_short(self):
        # These weights normalise to entries whose running sum ends below 1.0.
        d = TokenDistribution.from_weights([0.1] * 10)
        assert np.cumsum(np.sort(d.probs))[-1] < 1.0
        out = apply_strategy(d, DecodingStrategy.nucleus(1.0))
        assert out.support() == set(range(10))
        assert out.same_values(argsort_apply_strategy(d, DecodingStrategy.nucleus(1.0)))

    @PROPERTY
    @given(nucleus_case())
    @example(flat_case(32768, 0.9))
    # These two running sums end below 1.0, by about 2e-12 and 1e-16.
    @example(flat_case(100000, 1.0))
    @example(flat_case(131072, 1.0))
    def test_bounded_nucleus_sum_matches_full_cumsum(self, case):
        desc, p = case
        full = min(int(np.searchsorted(np.cumsum(desc), p, side="left")) + 1, len(desc))
        assert _nucleus_size(desc, p) == full

    @pytest.mark.parametrize("vocab, at", [(32768, 20000), (131072, 70000)])
    def test_p_at_a_running_sum_takes_the_whole_cumsum(self, counted_cumsum, vocab, at):
        # Block sums land within rounding of p, so only the sequential sum can place the cut.
        desc = np.sort(rand_dist(np.random.default_rng(vocab), vocab).probs)[::-1]
        p = float(np.cumsum(desc)[at])
        assert _nucleus_size(desc, p) == at + 1
        assert counted_cumsum[-1] == vocab

    def test_flat_nucleus_cut_sums_at_most_512_entries_in_sequence(self, counted_cumsum):
        # The first chunk (256), the block sums of the range holding the cut (128) and the block
        # holding it (128), and no sum over the whole vector. A running sum over the whole
        # nucleus would take 29,492 entries or more.
        out = apply_strategy(TokenDistribution.uniform(32768), DecodingStrategy.nucleus(0.9))
        assert len(out.positive_ids()) == 29492
        assert counted_cumsum == [256, 128, 128]

    def test_bounded_nucleus_sum_keeps_everything_when_the_cumsum_falls_short(self):
        # A running sum past several chunks that ends below 1.0 through rounding.
        d = TokenDistribution.from_weights([0.1] * 3000)
        desc = np.sort(d.probs)[::-1]
        assert np.cumsum(desc)[-1] < 1.0
        assert _nucleus_size(desc, 1.0) == 3000
        out = apply_strategy(d, DecodingStrategy.nucleus(1.0))
        assert out.same_values(argsort_apply_strategy(d, DecodingStrategy.nucleus(1.0)))

    def test_greedy_equals_top_one(self, rng):
        for _ in range(200):
            d = rand_dist(rng, int(rng.integers(2, 20)))
            a = apply_strategy(d, DecodingStrategy.greedy())
            b = apply_strategy(d, DecodingStrategy.top_k(1))
            assert a.same_values(b)

    def test_idempotent_for_prefix_free_strategies(self, rng):
        strategies = [
            DecodingStrategy.greedy(),
            DecodingStrategy.top_k(3),
            DecodingStrategy.adaptive(0.05),
        ]
        for _ in range(300):
            d = rand_dist(rng, int(rng.integers(2, 16)), zeros=True)
            for strategy in strategies:
                once = apply_strategy(d, strategy)
                twice = apply_strategy(once, strategy)
                assert np.allclose(once.probs, twice.probs, atol=1e-12)

    def test_nucleus_is_not_idempotent(self):
        # Renormalising the kept prefix concentrates mass, so a second pass
        # can shrink the set further: {0,1} renormalises to [4/7, 3/7] and
        # 4/7 alone already covers p.
        d = TokenDistribution.from_probs([0.4, 0.3, 0.3])
        strategy = DecodingStrategy.nucleus(0.5)
        once = apply_strategy(d, strategy)
        twice = apply_strategy(once, strategy)
        assert once.support() == {0, 1}
        assert twice.support() == {0}


def partition_confidence(dist):
    """The full-vocab partition implementation, kept as the bitwise reference."""
    two = np.partition(dist.probs, -2)[-2:]
    return float(two[1] - two[0])


class TestTop1Confidence:
    @PROPERTY
    @given(dists())
    def test_bitwise_equal_to_partition_reference(self, d):
        if d.vocab_size >= 2:
            assert confidence(d) == partition_confidence(d)

    def test_top1_tie_prefers_lower_id(self):
        d = TokenDistribution.from_probs([0.4, 0.4, 0.2])
        assert top1(d) == 0

    def test_confidence_margin(self):
        d = TokenDistribution.from_probs([0.7, 0.2, 0.1])
        assert confidence(d) == pytest.approx(0.5, abs=1e-12)

    def test_confidence_of_near_point_mass(self):
        d = TokenDistribution.from_probs([1.0, 0.0])
        assert confidence(d) == 1.0

    def test_confidence_needs_two_tokens(self):
        with pytest.raises(VocabMismatch):
            confidence(TokenDistribution.from_probs([1.0]))

    def test_tied_top_two_has_zero_confidence(self):
        d = TokenDistribution.from_probs([0.5, 0.5])
        assert confidence(d) == 0.0


class TestSampling:
    def test_point_mass_always_sampled(self):
        d = TokenDistribution.point_mass(3, vocab_size=5)
        for seed in range(20):
            assert sample(d, seed) == 3

    def test_deterministic_for_seed(self):
        d = TokenDistribution.from_probs([0.25, 0.75])
        draws_a = [sample(d, s) for s in range(50)]
        draws_b = [sample(d, s) for s in range(50)]
        assert draws_a == draws_b
        assert len(set(draws_a)) == 2

    def test_zero_probability_never_drawn(self):
        d = TokenDistribution.from_probs([0.5, 0.0, 0.5])
        assert all(sample(d, s) != 1 for s in range(2000))

    def test_monte_carlo_frequencies(self):
        d = TokenDistribution.from_probs([0.25, 0.75])
        n = 100_000
        ones = sum(sample(d, s) for s in range(n))
        assert ones / n == pytest.approx(0.75, abs=0.01)

    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seen = {derive_seed(7, i) for i in range(100)}
        assert len(seen) == 100
