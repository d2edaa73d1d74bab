"""Divergence-score detection, labeling oracles, ROC-AUC, and Youden thresholds."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY

from ctxlens.backends import ConstantBackend, PlantedDependencyBackend, SwitchBackend
from ctxlens.decoding import DecodingStrategy
from ctxlens.detection import (
    LONG,
    SHORT,
    LsdsConfig,
    lsd_lcl_oracle_label,
    lsds,
    mcl_oracle_label,
    roc_auc,
    scenario,
    tau_sweep,
    youden_threshold,
)
from ctxlens.dist import JSD_MAX, TokenDistribution
from ctxlens.errors import InsufficientData, NotLabelable, SequenceTooShort, StrategyError
from ctxlens.probe import PrefixGrid


def disjoint_backend(vocab=8, a=0, b=1, cutoff=33):
    """Point mass on ``a`` for short suffixes, on ``b`` for longer contexts."""
    return SwitchBackend(
        cutoff=cutoff,
        below=TokenDistribution.point_mass(a, vocab_size=vocab),
        at_or_above=TokenDistribution.point_mass(b, vocab_size=vocab),
    )


def pair_backend(short_probs, full_probs, cutoff=33):
    return SwitchBackend(
        cutoff=cutoff,
        below=TokenDistribution.from_probs(short_probs),
        at_or_above=TokenDistribution.from_probs(full_probs),
    )


def brute_force_auc(scored):
    pos = [s for s, is_long in scored if is_long]
    neg = [s for s, is_long in scored if not is_long]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def brute_force_youden(scored):
    lo = min(s for s, _ in scored)
    hi = max(s for s, _ in scored)
    thetas = [lo - 1.0, hi + 1.0] + sorted({s for s, _ in scored})
    best = -2.0
    for theta in thetas:
        n_pos = sum(1 for _, is_long in scored if is_long)
        n_neg = len(scored) - n_pos
        tpr = sum(1 for s, is_long in scored if is_long and s >= theta) / n_pos
        fpr = sum(1 for s, is_long in scored if not is_long and s >= theta) / n_neg
        best = max(best, tpr - fpr)
    return best


def quadratic_youden(scored):
    """The candidate-by-candidate rescan, kept as the reference for ``youden_threshold``."""
    distinct = sorted({score for score, _ in scored})
    # youden_threshold leaves out +inf, which can only tie the lowest score at J = 0; keeping it
    # here checks that leaving it out changes nothing.
    candidates = distinct[:1]
    candidates.extend((a + b) / 2.0 for a, b in zip(distinct, distinct[1:]))
    candidates.append(math.inf)
    n_pos = sum(1 for _, is_long in scored if is_long)
    n_neg = len(scored) - n_pos
    best = None
    for theta in candidates:
        tpr = sum(1 for s, is_long in scored if is_long and s >= theta) / n_pos
        fpr = sum(1 for s, is_long in scored if not is_long and s >= theta) / n_neg
        if best is None or tpr - fpr > best["j"]:
            best = {"theta": theta, "j": tpr - fpr, "tpr": tpr, "fpr": fpr}
    return best


def midrank_auc(scored):
    """The pooled midrank formulation, kept as the reference for ``roc_auc``."""
    pooled = sorted((score, 1 if is_long else 0) for score, is_long in scored)
    n = len(pooled)
    rank_sum_pos = 0.0
    i = 0
    while i < n:
        j = i
        while j < n and pooled[j][0] == pooled[i][0]:
            j += 1
        midrank = (i + 1 + j) / 2.0  # average of ranks i+1..j
        rank_sum_pos += midrank * sum(flag for _, flag in pooled[i:j])
        i = j
    n_pos = sum(flag for _, flag in pooled)
    n_neg = n - n_pos
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def recount_tau_sweep(scored, taus):
    """The full recount at each tau, kept as the reference for ``tau_sweep``."""
    n_pos = sum(1 for _, is_long in scored if is_long)
    n_neg = len(scored) - n_pos
    rows = []
    for tau in taus:
        tp = sum(1 for s, is_long in scored if is_long and s >= tau)
        fp = sum(1 for s, is_long in scored if not is_long and s >= tau)
        tn = sum(1 for s, is_long in scored if not is_long and s < tau)
        fn = sum(1 for s, is_long in scored if is_long and s < tau)
        tpr, fpr = tp / n_pos, fp / n_neg
        correct = sum(1 for s, is_long in scored if (s >= tau) == is_long)
        rows.append({"tau": tau, "tp": tp, "fp": fp, "tn": tn, "fn": fn, "tpr": tpr, "fpr": fpr,
                     "j": tpr - fpr, "accuracy": correct / len(scored)})
    return rows


# Few levels give ties; adjacent floats give midpoints that round onto a score.
_SCORES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 0.5000000000000001, 0.49999999999999994]),
    st.floats(allow_nan=False, allow_infinity=False),
)

#: Labelled scores holding both classes.
_SCORED = st.lists(st.tuples(_SCORES, st.booleans()), min_size=2, max_size=60).filter(
    lambda scored: len({is_long for _, is_long in scored}) == 2
)


class TestLsdsConfig:
    def test_defaults(self):
        cfg = LsdsConfig()
        assert cfg.short_len == 32
        assert cfg.tau == 0.6

    def test_fractional_short_len_resolution(self):
        cfg = LsdsConfig(short_len=0.1)
        assert cfg.resolved_short_len(200) == 20
        assert cfg.resolved_short_len(5) == 1

    def test_invalid_values(self):
        with pytest.raises(StrategyError):
            LsdsConfig(short_len=0)
        with pytest.raises(StrategyError):
            LsdsConfig(short_len=1.5)
        with pytest.raises(StrategyError):
            LsdsConfig(tau=JSD_MAX + 0.01)


class TestLsds:
    def test_context_insensitive_model_scores_zero(self):
        b = ConstantBackend(TokenDistribution.from_probs([0.25, 0.25, 0.25, 0.25]))
        assert lsds([1] * 100, LsdsConfig(), b) == 0.0

    def test_fully_context_bound_model_hits_max(self):
        score = lsds([1] * 100, LsdsConfig(), disjoint_backend())
        assert score == math.sqrt(math.log(2.0))

    def test_fraction_and_integer_short_len_agree(self):
        b = pair_backend([0.7, 0.2, 0.1], [0.3, 0.4, 0.3], cutoff=21)
        s = [1] * 200
        frac = lsds(s, LsdsConfig(short_len=0.1, strategy=DecodingStrategy.nucleus(1.0)), b)
        fixed = lsds(s, LsdsConfig(short_len=20, strategy=DecodingStrategy.nucleus(1.0)), b)
        assert frac == fixed

    def test_sequence_must_exceed_short_len(self):
        b = ConstantBackend(TokenDistribution.uniform(4))
        with pytest.raises(SequenceTooShort):
            lsds([1] * 32, LsdsConfig(short_len=32), b)


class TestMclOracle:
    def test_deep_dependency_is_long(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=40, answer_token=5)
        assert mcl_oracle_label([1] * 100, 5, 0.2, PrefixGrid(), b) == LONG

    def test_dependency_within_grid_start_is_short(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=10, answer_token=5)
        assert mcl_oracle_label([1] * 100, 5, 0.2, PrefixGrid(), b) == SHORT

    def test_unresolved_probe_is_not_labelable(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=40, answer_token=5)
        with pytest.raises(NotLabelable):
            mcl_oracle_label([1] * 100, 6, 0.2, PrefixGrid(), b)


class TestLsdLclOracle:
    def test_lifted_and_confident_is_long(self):
        b = pair_backend([0.001, 0.999], [0.5, 0.5])
        assert lsd_lcl_oracle_label([1] * 100, 0, b) == LONG

    def test_lift_without_confidence_is_short(self):
        # Log-probability rises by ln(200) but only reaches ln(0.2) < -1.
        b = pair_backend([0.001, 0.999], [0.2, 0.8])
        assert lsd_lcl_oracle_label([1] * 100, 0, b) == SHORT

    def test_confident_without_lift_is_short(self):
        b = ConstantBackend(TokenDistribution.from_probs([0.9, 0.1]))
        assert lsd_lcl_oracle_label([1] * 100, 0, b) == SHORT

    def test_zero_short_probability_is_floored(self):
        b = pair_backend([0.0, 1.0], [0.9, 0.1])
        assert lsd_lcl_oracle_label([1] * 100, 0, b) == LONG

    def test_short_sequence_rejected(self):
        b = ConstantBackend(TokenDistribution.uniform(4))
        with pytest.raises(SequenceTooShort):
            lsd_lcl_oracle_label([1] * 32, 0, b)


class TestScenario:
    FULL = TokenDistribution.from_probs([0.2, 0.5, 0.3])

    def test_empty_set_is_neutral(self):
        assert scenario(1, frozenset(), self.FULL) == "neutral"

    def test_most_probable_member_is_best(self):
        assert scenario(1, frozenset((1, 2)), self.FULL) == "best"

    def test_other_member_is_bad(self):
        assert scenario(2, frozenset((1, 2)), self.FULL) == "bad"

    def test_outside_nonempty_set_is_worst(self):
        assert scenario(0, frozenset((1, 2)), self.FULL) == "worst"

    def test_tied_members_both_count_as_best(self):
        full = TokenDistribution.from_probs([0.4, 0.3, 0.3])
        assert scenario(1, frozenset((1, 2)), full) == "best"
        assert scenario(2, frozenset((1, 2)), full) == "best"


class TestRocAuc:
    def test_perfect_separation(self):
        scored = [(0.9, True)] * 5 + [(0.1, False)] * 5
        assert roc_auc(scored) == 1.0

    def test_perfectly_inverted(self):
        scored = [(0.1, True)] * 5 + [(0.9, False)] * 5
        assert roc_auc(scored) == 0.0

    def test_all_tied_scores(self):
        scored = [(0.5, True)] * 4 + [(0.5, False)] * 6
        assert roc_auc(scored) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientData):
            roc_auc([(0.5, True), (0.6, True)])

    def test_matches_pair_counting(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 40))
            scored = [
                (float(rng.choice([0.1, 0.3, 0.5, 0.7])), bool(rng.integers(0, 2)))
                for _ in range(n)
            ]
            if not any(l for _, l in scored) or all(l for _, l in scored):
                continue
            assert roc_auc(scored) == pytest.approx(brute_force_auc(scored), abs=1e-12)

    @PROPERTY
    @given(_SCORED)
    def test_identical_to_midrank_reference(self, scored):
        assert roc_auc(scored) == midrank_auc(scored)

    def test_invariant_under_monotone_transform(self, rng):
        scored = [(float(rng.random()), bool(rng.integers(0, 2))) for _ in range(50)]
        scored[0] = (scored[0][0], True)
        scored[1] = (scored[1][0], False)
        transformed = [(math.exp(3.0 * s), l) for s, l in scored]
        assert roc_auc(scored) == pytest.approx(roc_auc(transformed), abs=1e-12)


class TestYouden:
    def test_reference_operating_point(self):
        scored = (
            [(0.6, True)] * 477
            + [(0.5, True)] * 23
            + [(0.6, False)] * 57
            + [(0.5, False)] * 443
        )
        point = youden_threshold(scored)
        assert point["theta"] == pytest.approx(0.55, abs=1e-9)
        assert point["tpr"] == pytest.approx(0.954, abs=1e-9)
        assert point["fpr"] == pytest.approx(0.114, abs=1e-9)
        assert point["j"] == pytest.approx(0.84, abs=1e-9)
        assert roc_auc(scored) == pytest.approx(0.92, abs=1e-12)

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            n = int(rng.integers(4, 50))
            scored = [
                (float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])), bool(rng.integers(0, 2)))
                for _ in range(n)
            ]
            if not any(l for _, l in scored) or all(l for _, l in scored):
                continue
            point = youden_threshold(scored)
            assert point["j"] == pytest.approx(brute_force_youden(scored), abs=1e-12)

    @PROPERTY
    @given(_SCORED)
    def test_identical_to_quadratic_reference(self, scored):
        assert youden_threshold(scored) == quadratic_youden(scored)

    def test_indistinguishable_scores_give_zero_j(self):
        scored = [(0.4, True)] * 3 + [(0.4, False)] * 3
        point = youden_threshold(scored)
        assert point["j"] == 0.0
        assert point["theta"] == 0.4

    def test_ties_resolve_to_smallest_threshold(self):
        # Both the lowest score 0.4 and the midpoint 0.5 achieve J = 0 here; the smaller wins.
        scored = [(0.4, True), (0.6, True), (0.4, False), (0.6, False)]
        point = youden_threshold(scored)
        assert point["j"] == 0.0
        assert point["theta"] == 0.4

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientData):
            youden_threshold([(0.5, False)])

    def test_perfect_separation(self):
        scored = [(0.9, True)] * 3 + [(0.2, False)] * 3
        point = youden_threshold(scored)
        assert point["j"] == 1.0
        assert point["theta"] == pytest.approx(0.55, abs=1e-12)


class TestTauSweep:
    def test_rates_per_tau(self):
        scored = [(0.9, True), (0.7, True), (0.4, False), (0.1, False)]
        rows = tau_sweep(scored, [0.5, 0.8])
        assert rows[0] == {
            "tau": 0.5, "tp": 2, "fp": 0, "tn": 2, "fn": 0, "tpr": 1.0, "fpr": 0.0, "j": 1.0, "accuracy": 1.0
        }
        assert (rows[1]["tp"], rows[1]["fn"]) == (1, 1)
        assert rows[1]["tpr"] == 0.5
        assert rows[1]["fpr"] == 0.0
        assert rows[1]["accuracy"] == 0.75

    @PROPERTY
    @given(_SCORED, st.lists(st.one_of(_SCORES, st.sampled_from([-math.inf, math.inf])), max_size=8))
    def test_identical_to_recount_reference(self, scored, taus):
        assert tau_sweep(scored, taus) == recount_tau_sweep(scored, taus)

    def test_confusion_counts_from_labels(self):
        # Scores 1/0 stand for predicted long/short, so tau 0.5 counts the (predicted, oracle) pairs.
        pairs = [(True, True), (True, False), (False, False), (False, True), (True, True)]
        (row,) = tau_sweep([(float(pred), truth) for pred, truth in pairs], [0.5])
        assert (row["tp"], row["fp"], row["tn"], row["fn"]) == (2, 1, 1, 1)
        assert row["accuracy"] == pytest.approx(0.6, abs=1e-12)
        assert row["tpr"] == pytest.approx(2 / 3, abs=1e-12)
        assert row["fpr"] == pytest.approx(0.5, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(InsufficientData):
            tau_sweep([(0.5, True), (0.6, True)], [0.5])
