"""Decoded distributions that record their positive ids agree bit for bit with the dense formulas.

Each reference below is the full-vocabulary formula the kernels used before
they read recorded ids; the properties compare every consumer of the ids
against it, on supports on both sides of the decoder's density rule.
"""

import json
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY, dists
from ctxlens.backends import SwitchBackend
from ctxlens.boosting import BoostConfig, BoostReport, taboo_step
from ctxlens.decoding import DecodingStrategy, apply_strategy, sample
from ctxlens.dist import TokenDistribution, jsd


def dense_sample(dist, rng_seed):
    gen = np.random.Generator(np.random.Philox(key=rng_seed))
    u = gen.random()
    cdf = np.cumsum(dist.probs)
    idx = int(np.searchsorted(cdf, u, side="right"))
    if idx >= dist.vocab_size or dist.probs[idx] == 0.0:
        idx = int(np.nonzero(dist.probs)[0][-1])
    return idx


def dense_jsd(p1, p2):
    def to_midpoint(a, b):
        pos = a > 0.0
        a = a[pos]
        return float((a * np.log(a / ((a + b[pos]) / 2.0))).sum())

    sq = 0.5 * to_midpoint(p1.probs, p2.probs) + 0.5 * to_midpoint(p2.probs, p1.probs)
    return math.sqrt(max(sq, 0.0))


def dense_support(dist):
    return frozenset(np.flatnonzero(dist.probs).tolist())


def dense_record(report):
    def sparse(dist):
        ids = np.flatnonzero(dist.probs)
        return dict(zip(map(str, ids.tolist()), dist.probs[ids].tolist()))

    return {
        "lsds": report.lsds,
        "boosted": sorted(report.boosted_set),
        "short_fallback": report.short_fallback,
        "pre": sparse(report.pre),
        "post": sparse(report.post),
    }


def dense_boost_set(pre, short, epsilon):
    return frozenset(np.flatnonzero(pre.probs - short.probs > epsilon).tolist())


def bits(x):
    return np.float64(x).tobytes()


def dense_copy(dist):
    """The same probabilities with no recorded ids, so every kernel takes its mask path."""
    return TokenDistribution(dist.probs)


@st.composite
def strategies_for(draw, dist):
    kind = draw(st.sampled_from(["greedy", "top_k", "nucleus", "adaptive"]))
    if kind == "greedy":
        return DecodingStrategy.greedy()
    if kind == "top_k":
        # Up to past the vocab, so k often exceeds the support and the cut falls at zero.
        return DecodingStrategy.top_k(draw(st.integers(1, dist.vocab_size + 2)))
    if kind == "nucleus":
        return DecodingStrategy.nucleus(draw(st.one_of(st.sampled_from([0.5, 0.9, 1.0]), st.floats(1e-6, 1.0))))
    top = float(dist.probs.max())
    eps = st.floats(1e-6, 1.0, exclude_max=True)
    if top < 1.0:
        # Every entry below eps: adaptive keeps the argmax alone.
        eps = st.one_of(eps, st.floats(top, 1.0, exclude_min=True, exclude_max=True))
    return DecodingStrategy.adaptive(draw(eps))


@st.composite
def decoded_pairs(draw):
    """Two raw distributions over one vocab, with zeros and exact ties, and a strategy for both."""
    p = draw(dists())
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.floor(gen.random(p.vocab_size) * draw(st.sampled_from([2, 5, 1000])))
    if draw(st.booleans()):
        weights = weights * (p.probs > 0.0)
    if weights.sum() == 0.0:
        weights[int(gen.integers(p.vocab_size))] = 1.0
    q = TokenDistribution.from_weights(weights)
    return p, q, draw(strategies_for(p))


class TestRecordedIds:
    @PROPERTY
    @given(decoded_pairs())
    def test_ids_are_the_positive_entries(self, case):
        raw, _, strategy = case
        out = apply_strategy(raw, strategy)
        if out.ids is not None:
            assert np.array_equal(out.ids, np.flatnonzero(out.probs))
            assert not out.ids.flags.writeable
            assert strategy.kind == "greedy" or 4 * len(out.ids) <= out.vocab_size

    def test_density_rule_sides(self):
        raw = TokenDistribution.from_weights(np.arange(1.0, 17.0))
        assert apply_strategy(raw, DecodingStrategy.top_k(4)).ids.tolist() == [12, 13, 14, 15]
        assert apply_strategy(raw, DecodingStrategy.top_k(5)).ids is None
        assert apply_strategy(raw, DecodingStrategy.greedy()).ids.tolist() == [15]


class TestKernelsMatchDenseReference:
    @PROPERTY
    @given(decoded_pairs(), st.integers(0, 2**63 - 1))
    def test_sample_and_support(self, case, seed):
        raw, _, strategy = case
        out = apply_strategy(raw, strategy)
        assert sample(out, seed) == sample(dense_copy(out), seed) == dense_sample(out, seed)
        assert out.support() == dense_copy(out).support() == dense_support(out)

    @PROPERTY
    @given(decoded_pairs())
    def test_jsd(self, case):
        raw_p, raw_q, strategy = case
        p, q = apply_strategy(raw_p, strategy), apply_strategy(raw_q, strategy)
        # Mixed pairs too: a decoded distribution against a raw one, which records no ids.
        for a, b in ((p, q), (q, p), (p, raw_q), (raw_p, q)):
            assert bits(jsd(a, b)) == bits(dense_jsd(a, b))
            assert bits(jsd(a, b)) == bits(jsd(dense_copy(a), dense_copy(b)))

    @PROPERTY
    @given(decoded_pairs())
    def test_step_record(self, case):
        raw_p, raw_q, strategy = case
        pre, post = apply_strategy(raw_p, strategy), apply_strategy(raw_q, strategy)
        for report in (BoostReport(pre, post, lsds=0.25, boosted_set=frozenset({0})), BoostReport(pre, pre)):
            assert json.dumps(report.to_record(), sort_keys=True) == json.dumps(dense_record(report), sort_keys=True)

    @PROPERTY
    @given(decoded_pairs(), st.one_of(st.sampled_from([1e-9, 0.01, 0.05, 0.2]), st.floats(1e-6, 1.0)))
    def test_taboo_boost_set(self, case, epsilon):
        raw_full, raw_short, strategy = case
        backend = SwitchBackend(cutoff=3, below=raw_short, at_or_above=raw_full)
        cfg = BoostConfig(lam=3.0, gamma=0.0, epsilon=epsilon, strategy=strategy, short_len=2)
        post, report = taboo_step((1,) * 5, cfg, backend)
        pre = apply_strategy(raw_full, strategy)
        short = apply_strategy(raw_short, strategy)
        want = dense_boost_set(pre, short, epsilon) if dense_jsd(short, pre) > 0.0 else frozenset()
        assert report.boosted_set == want
        if want:
            weights = raw_full.probs.copy()
            weights[sorted(want)] *= cfg.lam
            pre = apply_strategy(TokenDistribution.from_weights(weights), strategy)
        assert post.probs.tobytes() == pre.probs.tobytes()
