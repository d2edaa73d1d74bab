"""Distribution container, divergence metrics, and power-law fitting.

The expected JSD values below were frozen from plain-Python scalar
arithmetic (no numpy) so the vectorised implementation has an
independent reference to agree with.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY, dists, rand_dist
from ctxlens.dist import (
    JSD_MAX,
    InsufficientData,
    TokenDistribution,
    fit_power_law,
    jsd,
    set_metrics,
    tvd,
)
from ctxlens.errors import InvalidDistribution

# jsd([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]) computed term by term with
# math.log; see _scalar_jsd below which re-derives it.
JSD_HALF_VS_QUARTER = 0.46450140402245893


def _scalar_jsd(p, q):
    mid = [(pi + qi) / 2.0 for pi, qi in zip(p, q)]

    def kl_to_mid(x):
        # The midpoint is positive wherever x is, so every term is finite.
        return sum(xi * math.log(xi / mi) for xi, mi in zip(x, mid) if xi > 0.0)

    inner = 0.5 * kl_to_mid(p) + 0.5 * kl_to_mid(q)
    return math.sqrt(max(inner, 0.0))


def full_vocab_jsd(p1, p2):
    """The full-vocab implementation, kept as the bitwise reference."""
    a = p1.probs
    b = p2.probs
    q = (a + b) / 2.0
    pos_a = a > 0.0
    pos_b = b > 0.0
    kl_a = float((a[pos_a] * np.log(a[pos_a] / q[pos_a])).sum())
    kl_b = float((b[pos_b] * np.log(b[pos_b] / q[pos_b])).sum())
    sq = 0.5 * kl_a + 0.5 * kl_b
    return math.sqrt(max(sq, 0.0))


@st.composite
def dist_pairs(draw):
    """Two distributions over one vocab: independent, overlapping, or truncated copies."""
    p = draw(dists())
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = gen.random(p.vocab_size)
    weights[gen.random(p.vocab_size) < draw(st.sampled_from([0.0, 0.5, 0.99]))] = 0.0
    if draw(st.booleans()):
        weights = weights * (p.probs > 0.0)  # support inside p's
    if weights.sum() == 0.0:
        weights[int(gen.integers(p.vocab_size))] = 1.0
    return p, TokenDistribution.from_weights(weights)


class TestTokenDistribution:
    def test_from_probs_validates_sum(self):
        with pytest.raises(InvalidDistribution):
            TokenDistribution.from_probs([0.5, 0.4])

    def test_from_probs_rejects_negative(self):
        with pytest.raises(InvalidDistribution):
            TokenDistribution.from_probs([1.1, -0.1])

    def test_from_probs_rejects_empty_and_nan(self):
        with pytest.raises(InvalidDistribution):
            TokenDistribution.from_probs([])
        with pytest.raises(InvalidDistribution):
            TokenDistribution.from_probs([math.nan, 1.0])

    def test_from_weights_normalizes(self):
        d = TokenDistribution.from_weights([2.0, 6.0])
        assert d.probs.tolist() == [0.25, 0.75]

    def test_from_weights_rejects_zero_total(self):
        with pytest.raises(InvalidDistribution):
            TokenDistribution.from_weights([0.0, 0.0])

    def test_point_mass_and_uniform(self):
        p = TokenDistribution.point_mass(2, vocab_size=4)
        assert p.probs.tolist() == [0.0, 0.0, 1.0, 0.0]
        u = TokenDistribution.uniform(4)
        assert u.probs.tolist() == [0.25] * 4

    def test_probs_are_read_only(self):
        d = TokenDistribution.uniform(3)
        with pytest.raises(ValueError):
            d.probs[0] = 1.0

    def test_support_and_entry(self):
        d = TokenDistribution.from_probs([0.5, 0.0, 0.5])
        assert d.support() == frozenset({0, 2})
        assert d.entry(1) == 0.0
        assert d.entry(2) == 0.5

    def test_same_values_is_bitwise(self):
        a = TokenDistribution.from_probs([0.5, 0.5])
        b = TokenDistribution.from_probs([0.5, 0.5])
        c = TokenDistribution.from_weights([1.0, 3.0])
        assert a.same_values(b)
        assert not a.same_values(c)


class TestJsd:
    def test_frozen_reference_value(self):
        p = TokenDistribution.from_probs([0.5, 0.5, 0.0])
        q = TokenDistribution.from_probs([0.25, 0.25, 0.5])
        assert jsd(p, q) == JSD_HALF_VS_QUARTER
        # The frozen constant itself re-derives from scalar arithmetic.
        assert _scalar_jsd([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]) == pytest.approx(
            JSD_HALF_VS_QUARTER, abs=1e-15
        )

    def test_identical_is_exactly_zero(self):
        p = TokenDistribution.from_probs([0.2, 0.3, 0.5])
        assert jsd(p, p) == 0.0

    def test_disjoint_point_masses_hit_max(self):
        p = TokenDistribution.point_mass(0, vocab_size=2)
        q = TokenDistribution.point_mass(1, vocab_size=2)
        assert jsd(p, q) == math.sqrt(math.log(2.0))
        assert JSD_MAX == math.sqrt(math.log(2.0))

    def test_symmetry_is_exact(self, rng):
        for _ in range(1000):
            vocab = int(rng.integers(2, 48))
            p = rand_dist(rng, vocab, zeros=True)
            q = rand_dist(rng, vocab, zeros=True)
            assert jsd(p, q) == jsd(q, p)

    def test_bounds(self, rng):
        for _ in range(1000):
            vocab = int(rng.integers(2, 48))
            p = rand_dist(rng, vocab, zeros=True)
            q = rand_dist(rng, vocab, zeros=True)
            v = jsd(p, q)
            assert 0.0 <= v <= JSD_MAX + 1e-12

    def test_triangle_inequality(self, rng):
        for _ in range(1000):
            vocab = int(rng.integers(2, 32))
            p = rand_dist(rng, vocab)
            q = rand_dist(rng, vocab)
            r = rand_dist(rng, vocab)
            assert jsd(p, r) <= jsd(p, q) + jsd(q, r) + 1e-12

    @PROPERTY
    @given(dist_pairs())
    def test_bitwise_equal_to_full_vocab_reference(self, pair):
        p, q = pair
        assert jsd(p, q) == full_vocab_jsd(p, q)
        assert jsd(q, p) == full_vocab_jsd(q, p)


class TestTvd:
    def test_disjoint_is_one(self):
        p = TokenDistribution.from_probs([1.0, 0.0])
        q = TokenDistribution.from_probs([0.0, 1.0])
        assert tvd(p, q) == 1.0

    def test_identical_is_zero(self):
        p = TokenDistribution.from_probs([0.4, 0.6])
        assert tvd(p, p) == 0.0

    def test_half_l1(self):
        p = TokenDistribution.from_probs([0.7, 0.3])
        q = TokenDistribution.from_probs([0.5, 0.5])
        assert tvd(p, q) == pytest.approx(0.2, abs=1e-12)

    def test_symmetric_and_bounded(self, rng):
        for _ in range(300):
            vocab = int(rng.integers(2, 32))
            p = rand_dist(rng, vocab, zeros=True)
            q = rand_dist(rng, vocab, zeros=True)
            assert tvd(p, q) == tvd(q, p)
            assert 0.0 <= tvd(p, q) <= 1.0


class TestSetMetrics:
    def test_identical_sets(self):
        m = set_metrics(frozenset({1, 2}), frozenset({1, 2}))
        assert (m.recall, m.precision, m.f1) == (1.0, 1.0, 1.0)

    def test_empty_reference_leaves_recall_undefined(self):
        m = set_metrics(frozenset({1}), frozenset())
        assert m.recall is None
        assert m.precision == 0.0
        assert m.f1 == 0.0

    def test_empty_candidate_leaves_precision_undefined(self):
        m = set_metrics(frozenset(), frozenset({1}))
        assert m.recall == 0.0
        assert m.precision is None
        assert m.f1 == 0.0

    def test_both_empty(self):
        m = set_metrics(frozenset(), frozenset())
        assert m.recall is None and m.precision is None
        assert m.f1 == 0.0

    def test_partial_overlap(self):
        m = set_metrics(frozenset({1, 2}), frozenset({2, 3}))
        assert m.recall == 0.5
        assert m.precision == 0.5
        assert m.f1 == pytest.approx(0.5, abs=1e-12)

    def test_zero_overlap_f1_zero(self):
        m = set_metrics(frozenset({1}), frozenset({2}))
        assert m.f1 == 0.0


class TestPowerLawFit:
    def test_recovers_exact_exponents(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        for b in (0.5, 1.5, 2.5):
            y = 3.0 * x**-b
            fit = fit_power_law(list(zip(x.tolist(), y.tolist())))
            assert fit.b_hat == pytest.approx(b, abs=1e-9)
            assert fit.a == pytest.approx(3.0, abs=1e-9)
            assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_recovers_under_noise(self, rng):
        x = np.arange(1.0, 101.0)
        for b in (0.5, 1.5, 2.5):
            y = 2.0 * x**-b * np.exp(rng.normal(0.0, 0.05, size=x.size))
            fit = fit_power_law(list(zip(x.tolist(), y.tolist())))
            assert fit.b_hat == pytest.approx(b, abs=0.05)

    def test_slope_is_negated_exponent(self):
        fit = fit_power_law([(1.0, 8.0), (2.0, 2.0), (4.0, 0.5)])
        assert fit.b_hat > 0.0
        assert fit.slope == -fit.b_hat

    def test_zero_counts_dropped(self):
        fit = fit_power_law([(1.0, 4.0), (2.0, 1.0), (3.0, 0.0), (4.0, 0.25)])
        assert fit.b_hat == pytest.approx(2.0, abs=1e-9)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientData):
            fit_power_law([(1.0, 2.0)])
        with pytest.raises(InsufficientData):
            fit_power_law([(2.0, 1.0), (2.0, 3.0)])
        with pytest.raises(InsufficientData):
            fit_power_law([(1.0, 0.0), (2.0, 0.0)])

    def test_nonpositive_x_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(0.0, 1.0), (1.0, 1.0)])
