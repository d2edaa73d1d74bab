"""Context probes: grids, mcl, damcl, the confidence gate, and histograms.

The planted-dependency mocks give the probes an analytic ground truth: a
backend that turns confident exactly at suffix length d must resolve at the
first grid point at or past d.
"""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY

from ctxlens.backends import (
    ConstantBackend,
    FlakyBackend,
    PlantedDependencyBackend,
    SwitchBackend,
    prefix_distribution,
)
from ctxlens.decoding import DecodingStrategy, apply_strategy
from ctxlens.dist import TokenDistribution
from ctxlens.errors import (
    BackendError,
    InsufficientData,
    SequenceTooShort,
    StrategyError,
    VocabMismatch,
)
from ctxlens.probe import (
    METRIC_NAMES,
    PrefixGrid,
    ProbeResult,
    accepts,
    damcl,
    divergence_metric,
    mcl,
    mcl_histogram,
)

JSD_HALF_VS_QUARTER = 0.46450140402245893

NUCLEUS = DecodingStrategy.nucleus(0.9)
KEEP_ALL = DecodingStrategy.nucleus(1.0)


class StagedBackend:
    """Distribution depends on which length band the presented context falls in."""

    def __init__(self, stages, eos_token_id=None):
        # stages: list of (min_len, dist), ascending by min_len; first stage
        # must start at 0 so every length is covered.
        self.stages = sorted(stages, key=lambda kv: kv[0])
        assert self.stages[0][0] == 0
        self.vocab_size = self.stages[0][1].vocab_size
        self.eos_token_id = eos_token_id

    def next_token_distribution(self, tokens: tuple[int, ...]) -> TokenDistribution:
        chosen = self.stages[0][1]
        for min_len, dist in self.stages:
            if len(tokens) >= min_len:
                chosen = dist
        return chosen


def answer_dist(vocab, token, conf):
    rest = (1.0 - conf) / (vocab - 1)
    probs = [rest] * vocab
    probs[token] = conf
    return TokenDistribution.from_weights(probs)


def damcl_reference(s, strategy, metric, epsilon, grid, backend):
    """The separate damcl walk the probe ran for each epsilon before walks were shared."""
    fn = divergence_metric(metric)
    points = grid.points(len(s))
    reference = apply_strategy(prefix_distribution(s, len(s), backend), strategy)
    trace = []
    resolved = None
    for ell in points:
        value = fn(apply_strategy(prefix_distribution(s, ell, backend), strategy), reference)
        trace.append((ell, float(value)))
        if value <= epsilon:
            resolved = ell
            break
    return ProbeResult(
        kind="damcl",
        resolved_length=resolved,
        trace=tuple(trace),
        grid_points=tuple(points),
        threshold=epsilon,
    )


@st.composite
def staged_backends(draw):
    """Up to four length bands over one small vocab; weights from a few levels, so ties and zeros occur."""
    vocab = draw(st.integers(2, 6))
    level = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1.0))
    stages = []
    for min_len in [0] + draw(st.lists(st.integers(1, 120), max_size=3, unique=True)):
        weights = draw(st.lists(level, min_size=vocab, max_size=vocab))
        if sum(weights) == 0.0:
            weights[0] = 1.0
        stages.append((min_len, TokenDistribution.from_weights(weights)))
    return StagedBackend(stages)


def first_grid_point_at_or_past(d_star, start=32, step=16):
    if d_star <= start:
        return start
    return start + step * math.ceil((d_star - start) / step)


class TestPrefixGrid:
    def test_fixed_step_points(self):
        assert PrefixGrid().points(100) == [32, 48, 64, 80, 96, 100]

    def test_final_point_is_sequence_length(self):
        assert PrefixGrid().points(48) == [32, 48]
        assert PrefixGrid().points(33) == [32, 33]

    def test_grid_point_on_boundary_not_duplicated(self):
        assert PrefixGrid().points(64) == [32, 48, 64]

    def test_percentile_points(self):
        grid = PrefixGrid(mode="percentile")
        assert grid.points(1000) == [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]

    def test_percentile_uses_ceil_and_dedupes(self):
        grid = PrefixGrid(mode="percentile")
        # ceil(0.1 * 95) = 10, ceil(0.2 * 95) = 19, ... ceil(1.0 * 95) = 95
        assert grid.points(95) == [10, 19, 29, 38, 48, 57, 67, 76, 86, 95]
        assert grid.points(5) == [1, 2, 3, 4, 5]

    def test_fixed_50_step(self):
        grid = PrefixGrid(step=50)
        assert grid.points(200) == [32, 82, 132, 182, 200]

    def test_invalid_configs(self):
        with pytest.raises(StrategyError):
            PrefixGrid(mode="wat")
        with pytest.raises(StrategyError):
            PrefixGrid(start=0)


class TestAccepts:
    def test_requires_both_conditions(self):
        d = answer_dist(8, 3, 0.6)
        assert accepts(d, 3, 0.5)
        assert not accepts(d, 3, 0.9)  # confident margin too small
        assert not accepts(d, 2, 0.0)  # wrong top token


class TestMcl:
    def test_resolves_at_first_grid_point_past_dependency(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=40, answer_token=5)
        res = mcl([1] * 200, t=5, delta=0.2, grid=PrefixGrid(), backend=b)
        assert res.resolved_length == 48
        assert res.resolved

    def test_shallow_dependency_resolves_at_start(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=10, answer_token=5)
        res = mcl([1] * 200, t=5, delta=0.2, grid=PrefixGrid(), backend=b)
        assert res.resolved_length == 32
        assert len(res.trace) == 1

    def test_matches_analytic_answer_across_depths(self, rng):
        for _ in range(50):
            d_star = int(rng.integers(1, 190))
            b = PlantedDependencyBackend(vocab_size=64, dependency_length=d_star, answer_token=9)
            res = mcl([2] * 200, t=9, delta=0.2, grid=PrefixGrid(), backend=b)
            assert res.resolved_length == first_grid_point_at_or_past(d_star)

    def test_unresolved_is_an_outcome_not_an_error(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=40, answer_token=5)
        res = mcl([1] * 100, t=6, delta=0.2, grid=PrefixGrid(), backend=b)
        assert res.resolved_length is None
        assert not res.resolved
        assert len(res.trace) == len(res.grid_points)

    def test_unresolved_when_confidence_never_clears_delta(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=1, answer_token=5, confident_prob=0.3)
        # Margin is 0.3 - 0.7/49, well under 0.5.
        res = mcl([1] * 100, t=5, delta=0.5, grid=PrefixGrid(), backend=b)
        assert res.resolved_length is None

    def test_delta_zero_still_needs_top1_match(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=64, answer_token=5)
        res = mcl([1] * 100, t=5, delta=0.0, grid=PrefixGrid(), backend=b)
        # Below the dependency the distribution is uniform, top1 is token 0.
        assert res.resolved_length == 64

    def test_resolved_length_monotone_in_delta(self):
        vocab = 32
        stages = [
            (0, answer_dist(vocab, 7, 0.12)),
            (40, answer_dist(vocab, 7, 0.22)),
            (60, answer_dist(vocab, 7, 0.95)),
        ]
        b = StagedBackend(stages)
        resolved = [
            mcl([1] * 100, t=7, delta=d, grid=PrefixGrid(), backend=b).resolved_length
            for d in (0.05, 0.1, 0.2)
        ]
        assert resolved == sorted(resolved)
        assert resolved[0] == 32 and resolved[-1] == 64

    def test_finer_grid_never_resolves_later(self, rng):
        for _ in range(20):
            d_star = int(rng.integers(1, 150))
            b = PlantedDependencyBackend(vocab_size=16, dependency_length=d_star, answer_token=3)
            coarse = mcl([1] * 160, t=3, delta=0.2, grid=PrefixGrid(step=16), backend=b)
            fine = mcl([1] * 160, t=3, delta=0.2, grid=PrefixGrid(step=8), backend=b)
            assert fine.resolved_length <= coarse.resolved_length

    def test_sequence_shorter_than_grid_start(self):
        b = ConstantBackend(TokenDistribution.uniform(4))
        with pytest.raises(SequenceTooShort):
            mcl([1] * 10, t=0, delta=0.1, grid=PrefixGrid(), backend=b)

    def test_target_token_must_be_in_vocab(self):
        b = ConstantBackend(TokenDistribution.uniform(4))
        with pytest.raises(VocabMismatch):
            mcl([1] * 40, t=9, delta=0.1, grid=PrefixGrid(), backend=b)

    def test_negative_delta_rejected(self):
        b = ConstantBackend(TokenDistribution.uniform(4))
        with pytest.raises(StrategyError):
            mcl([1] * 40, t=0, delta=-0.1, grid=PrefixGrid(), backend=b)

    def test_nan_delta_rejected(self):
        b = ConstantBackend(TokenDistribution.uniform(4))
        with pytest.raises(StrategyError):
            mcl([1] * 40, t=0, delta=math.nan, grid=PrefixGrid(), backend=b)

    def test_backend_failure_carries_partial_trace(self):
        inner = PlantedDependencyBackend(vocab_size=16, dependency_length=500, answer_token=3)
        b = FlakyBackend(inner, fail_after=2)
        with pytest.raises(BackendError) as err:
            mcl([1] * 100, t=3, delta=0.2, grid=PrefixGrid(), backend=b)
        assert len(err.value.partial_trace) == 2

    def test_trace_records_top1_and_confidence(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=40, answer_token=5)
        res = mcl([1] * 100, t=5, delta=0.2, grid=PrefixGrid(), backend=b)
        ell0, (tk0, cf0) = res.trace[0]
        assert ell0 == 32 and tk0 == 0
        assert cf0 == pytest.approx(0.0, abs=1e-12)
        ell1, (tk1, cf1) = res.trace[1]
        assert ell1 == 48 and tk1 == 5
        assert cf1 > 0.8

    def test_to_record_is_json_ready(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=40, answer_token=5)
        res = mcl([1] * 100, t=5, delta=0.2, grid=PrefixGrid(), backend=b)
        rec = json.loads(json.dumps(res.to_record("seq-1")))
        assert rec["seq_id"] == "seq-1"
        assert rec["kind"] == "mcl"
        assert rec["resolved"] is True
        assert rec["length"] == 48
        assert rec["grid"][0] == 32
        assert rec["trace"][1][0] == 48


class TestDamcl:
    def test_percentile_grid_resolution(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=40, answer_token=5)
        res = damcl([1] * 1000, NUCLEUS, "jsd", 0.1, PrefixGrid(mode="percentile"), b)
        assert res.resolved_length == 100

    def test_always_resolves_at_final_point(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=950, answer_token=5)
        res = damcl([1] * 1000, NUCLEUS, "jsd", 0.0, PrefixGrid(mode="percentile"), b)
        assert res.resolved_length == 1000
        assert res.trace[-1][1] == 0.0

    def test_epsilon_flip_around_known_divergence(self):
        p1 = TokenDistribution.from_probs([0.5, 0.5, 0.0])
        p2 = TokenDistribution.from_probs([0.25, 0.25, 0.5])
        b = SwitchBackend(cutoff=100, below=p1, at_or_above=p2)
        grid = PrefixGrid(start=50, step=50)
        tight = damcl([1] * 200, KEEP_ALL, "jsd", JSD_HALF_VS_QUARTER - 1e-9, grid, b)
        loose = damcl([1] * 200, KEEP_ALL, "jsd", JSD_HALF_VS_QUARTER + 1e-9, grid, b)
        assert tight.resolved_length == 100
        assert loose.resolved_length == 50
        assert tight.trace[0][1] == JSD_HALF_VS_QUARTER

    def test_tvd_metric(self):
        p1 = TokenDistribution.from_probs([0.5, 0.5])
        p2 = TokenDistribution.from_probs([0.9, 0.1])
        b = SwitchBackend(cutoff=100, below=p1, at_or_above=p2)
        grid = PrefixGrid(start=50, step=50)
        res = damcl([1] * 200, KEEP_ALL, "tvd", 0.4, grid, b)
        assert res.resolved_length == 50
        assert res.trace[0][1] == pytest.approx(0.4, abs=1e-12)

    def test_one_minus_f1_metric(self):
        p1 = TokenDistribution.from_probs([0.5, 0.5, 0.0])
        p2 = TokenDistribution.from_probs([0.4, 0.3, 0.3])
        b = SwitchBackend(cutoff=100, below=p1, at_or_above=p2)
        grid = PrefixGrid(start=50, step=50)
        res = damcl([1] * 200, KEEP_ALL, "one_minus_f1", 0.2, grid, b)
        # Supports {0,1} vs {0,1,2}: recall 1, precision 2/3, f1 0.8.
        assert res.trace[0][1] == pytest.approx(0.2, abs=1e-12)
        assert res.resolved_length == 50

    def test_trace_keeps_non_monotone_profile(self):
        vocab = 4
        full = TokenDistribution.from_probs([0.7, 0.1, 0.1, 0.1])
        near = TokenDistribution.from_probs([0.6, 0.2, 0.1, 0.1])
        far = TokenDistribution.point_mass(3, vocab_size=vocab)
        b = StagedBackend([(0, near), (100, far), (150, full)])
        res = damcl([1] * 200, KEEP_ALL, "jsd", 0.01, PrefixGrid(start=50, step=50), b)
        values = [v for _, v in res.trace]
        assert res.resolved_length == 150
        assert values[1] > values[0]  # dips back down only at the full regime

    @pytest.mark.parametrize("name", ["cosine", "kl"])
    def test_unknown_metric_rejected(self, name):
        with pytest.raises(StrategyError):
            divergence_metric(name)

    def test_nan_epsilon_rejected(self):
        # A NaN budget would accept no grid point, not even the full sequence.
        b = ConstantBackend(TokenDistribution.uniform(4))
        with pytest.raises(StrategyError):
            damcl([1] * 100, KEEP_ALL, "jsd", math.nan, PrefixGrid(), b)

    def test_short_sequences_use_percentile_grid(self):
        b = ConstantBackend(TokenDistribution.uniform(4))
        res = damcl([1] * 10, KEEP_ALL, "jsd", 0.0, PrefixGrid(mode="percentile"), b)
        assert res.resolved_length == 1

    def test_backend_failure_carries_partial_trace(self):
        p1 = TokenDistribution.from_probs([0.5, 0.5, 0.0])
        p2 = TokenDistribution.from_probs([0.25, 0.25, 0.5])
        # The reference call and grid point 50 succeed; grid point 100 fails.
        b = FlakyBackend(SwitchBackend(cutoff=100, below=p1, at_or_above=p2), fail_after=2)
        with pytest.raises(BackendError) as err:
            damcl([1] * 200, KEEP_ALL, "jsd", 0.1, PrefixGrid(start=50, step=50), b)
        assert err.value.partial_trace == [(50, JSD_HALF_VS_QUARTER)]


class TestAtEpsilon:
    @PROPERTY
    @given(
        backend=staged_backends(),
        seq_len=st.integers(1, 150),
        grid=st.one_of(
            st.just(PrefixGrid(mode="percentile")),
            st.builds(PrefixGrid, start=st.integers(1, 60), step=st.integers(1, 40)),
        ),
        strategy=st.sampled_from(
            [KEEP_ALL, NUCLEUS, DecodingStrategy.greedy(), DecodingStrategy.parse("topk:2")]
        ),
        metric=st.sampled_from(METRIC_NAMES),
        epsilons=st.lists(
            st.one_of(st.sampled_from([0.0, 0.1, 0.2, math.inf]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_one_walk_matches_a_walk_per_epsilon(self, backend, seq_len, grid, strategy, metric, epsilons):
        s = [1] * seq_len
        walk = damcl(s, strategy, metric, min(epsilons), grid, backend)
        # Every traced value is an epsilon where the cut lands exactly on a crossing.
        cuts = epsilons + [value for _, value in walk.trace if value >= walk.threshold]
        for eps in cuts:
            got = walk.at_epsilon(eps)
            want = damcl_reference(s, strategy, metric, eps, grid, backend)
            assert got.resolved_length == want.resolved_length
            assert got.trace == want.trace
            assert got.grid_points == want.grid_points
            assert got.threshold == want.threshold

    def test_below_the_walks_threshold_is_rejected(self):
        b = ConstantBackend(TokenDistribution.uniform(4))
        walk = damcl([1] * 100, KEEP_ALL, "jsd", 0.2, PrefixGrid(), b)
        assert walk.at_epsilon(0.2) == walk
        with pytest.raises(StrategyError):
            walk.at_epsilon(0.1)
        with pytest.raises(StrategyError):
            walk.at_epsilon(math.nan)

    def test_mcl_result_is_rejected(self):
        b = PlantedDependencyBackend(vocab_size=50, dependency_length=40, answer_token=5)
        res = mcl([1] * 100, t=5, delta=0.2, grid=PrefixGrid(), backend=b)
        with pytest.raises(StrategyError):
            res.at_epsilon(0.5)


class TestMclHistogram:
    def test_counts_by_length(self):
        bins, fit = mcl_histogram([32, 32, 32, 48, 48, 32])
        assert bins == [(32, 4), (48, 2)]
        assert fit is not None
        assert fit.b_hat > 0

    def test_single_bin_has_no_fit(self):
        bins, fit = mcl_histogram([32] * 5)
        assert bins == [(32, 5)]
        assert fit is None

    def test_overflowing_fit_is_dropped(self):
        # Two close, uneven bins: the slope is about -113, so a = exp(intercept) exceeds a float.
        bins, fit = mcl_histogram([1000] * 6 + [1016])
        assert bins == [(1000, 6), (1016, 1)]
        assert fit is None

    def test_unresolved_input_rejected(self):
        with pytest.raises(InsufficientData):
            mcl_histogram([32, None])

    def test_empty_input_rejected(self):
        with pytest.raises(InsufficientData):
            mcl_histogram([])
