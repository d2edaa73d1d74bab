"""Boosted decoding steps, the contrast baseline, and the generation loop."""

import gc
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given

from conftest import PROPERTY, dists, rand_dist
from ctxlens.backends import ConstantBackend, FlakyBackend, SwitchBackend
from ctxlens.decoding import DecodingStrategy, apply_strategy
from ctxlens.dist import JSD_MAX, TokenDistribution, jsd
from ctxlens.boosting import (
    BoostConfig,
    BoostReport,
    GenerationResult,
    cad_step,
    generate,
    taboo_step,
)
from ctxlens.errors import StrategyError

KEEP_ALL = DecodingStrategy.nucleus(1.0)


def pair_backend(short_probs, full_probs, cutoff=3):
    return SwitchBackend(
        cutoff=cutoff,
        below=TokenDistribution.from_probs(short_probs),
        at_or_above=TokenDistribution.from_probs(full_probs),
    )


def random_pair_backend(rng, vocab, cutoff=33):
    return SwitchBackend(
        cutoff=cutoff, below=rand_dist(rng, vocab), at_or_above=rand_dist(rng, vocab)
    )


def cfg_with(lam, **kwargs):
    defaults = dict(gamma=0.1225, epsilon=0.05, strategy=KEEP_ALL, short_len=2)
    defaults.update(kwargs)
    return BoostConfig(lam=lam, **defaults)


class TestBoostConfig:
    def test_lam_has_no_default(self):
        with pytest.raises(TypeError):
            BoostConfig()

    def test_lam_below_one_rejected(self):
        with pytest.raises(StrategyError):
            BoostConfig(lam=0.5)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(StrategyError):
            BoostConfig(lam=2.0, epsilon=0.0)

    @pytest.mark.parametrize("field", ["lam", "epsilon"])
    def test_nan_rejected(self, field):
        with pytest.raises(StrategyError):
            BoostConfig(**{"lam": 2.0, field: math.nan})

    def test_epsilon_at_or_above_one_is_legal(self):
        # Legal but vacuous: no probability can shift by more than one.
        assert BoostConfig(lam=2.0, epsilon=1.0).epsilon == 1.0


class TestTabooStep:
    def test_worked_example(self):
        # full [0.2, 0.5, 0.3] vs short [0.6, 0.3, 0.1]: tokens 1 and 2 gain
        # more than epsilon, doubling their raw weights gives [1/9, 5/9, 3/9].
        b = pair_backend([0.6, 0.3, 0.1], [0.2, 0.5, 0.3])
        post, report = taboo_step((7, 8, 9), cfg_with(2.0), b)
        assert post.probs == pytest.approx([1 / 9, 5 / 9, 3 / 9], abs=1e-12)
        assert report.boosted_set == {1, 2}
        assert report.lsds == pytest.approx(0.30186221778398753, abs=1e-12)
        assert report.pre.probs == pytest.approx([0.2, 0.5, 0.3], abs=1e-12)

    def test_lam_one_is_identity(self, rng):
        for _ in range(100):
            vocab = int(rng.integers(3, 16))
            b = random_pair_backend(rng, vocab, cutoff=3)
            vanilla = apply_strategy(b.at_or_above, KEEP_ALL)
            post, _ = taboo_step((1,) * 5, cfg_with(1.0), b)
            assert post.probs == pytest.approx(vanilla.probs, abs=1e-12)

    def test_gamma_at_max_always_passes_through(self, rng):
        for _ in range(50):
            vocab = int(rng.integers(3, 16))
            b = random_pair_backend(rng, vocab, cutoff=3)
            vanilla = apply_strategy(b.at_or_above, KEEP_ALL)
            post, report = taboo_step((1,) * 5, cfg_with(5.0, gamma=JSD_MAX), b)
            assert post.probs == pytest.approx(vanilla.probs, abs=1e-12)
            assert len(report.boosted_set) == 0

    def test_epsilon_at_one_is_identity(self, rng):
        for _ in range(50):
            vocab = int(rng.integers(3, 16))
            b = random_pair_backend(rng, vocab, cutoff=3)
            vanilla = apply_strategy(b.at_or_above, KEEP_ALL)
            post, report = taboo_step((1,) * 5, cfg_with(5.0, epsilon=1.0), b)
            assert post.probs == pytest.approx(vanilla.probs, abs=1e-12)
            assert len(report.boosted_set) == 0

    def test_gate_blocks_small_scores(self):
        b = pair_backend([0.6, 0.3, 0.1], [0.2, 0.5, 0.3])
        score = 0.30186221778398753
        post, report = taboo_step((7, 8, 9), cfg_with(2.0, gamma=score), b)
        # The boundary stays closed: score <= gamma passes through.
        assert post.same_values(report.pre)
        assert len(report.boosted_set) == 0
        just_below = cfg_with(2.0, gamma=score - 1e-9)
        post2, report2 = taboo_step((7, 8, 9), just_below, b)
        assert not post2.same_values(report2.pre)
        assert len(report2.boosted_set) == 2

    def test_identical_distributions_gate_closed_even_at_gamma_zero(self):
        b = ConstantBackend(TokenDistribution.from_probs([0.7, 0.2, 0.1]))
        post, report = taboo_step((1, 2, 3), cfg_with(3.0, gamma=0.0), b)
        assert report.lsds == 0.0
        assert post.same_values(report.pre)

    def test_short_sequence_falls_back_to_vanilla(self):
        b = ConstantBackend(TokenDistribution.from_probs([0.7, 0.2, 0.1]))
        post, report = taboo_step((1, 2), cfg_with(3.0), b)
        assert report.short_fallback
        assert report.lsds is None
        assert post.same_values(report.pre)

    def test_post_always_sums_to_one(self, rng):
        for _ in range(200):
            vocab = int(rng.integers(3, 16))
            b = random_pair_backend(rng, vocab, cutoff=3)
            cfg = cfg_with(float(rng.uniform(1.0, 20.0)), gamma=0.0, epsilon=0.01)
            post, _ = taboo_step((1,) * 5, cfg, b)
            assert float(post.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_boosted_tokens_and_output_stay_inside_pre_support(self, rng):
        nucleus = DecodingStrategy.nucleus(0.9)
        for _ in range(200):
            vocab = int(rng.integers(4, 16))
            b = random_pair_backend(rng, vocab, cutoff=3)
            cfg = cfg_with(float(rng.uniform(1.0, 20.0)), gamma=0.0, epsilon=0.01, strategy=nucleus)
            post, report = taboo_step((1,) * 5, cfg, b)
            pre_support = report.pre.support()
            assert report.boosted_set <= pre_support
            assert post.support() <= pre_support

    def test_raising_lam_never_demotes_a_boosted_token(self, rng):
        for _ in range(500):
            vocab = int(rng.integers(3, 16))
            b = random_pair_backend(rng, vocab, cutoff=3)
            lam_lo = float(rng.uniform(1.0, 10.0))
            lam_hi = lam_lo * float(rng.uniform(1.0, 5.0))
            post_lo, rep_lo = taboo_step((1,) * 5, cfg_with(lam_lo, gamma=0.0, epsilon=0.01), b)
            post_hi, rep_hi = taboo_step((1,) * 5, cfg_with(lam_hi, gamma=0.0, epsilon=0.01), b)
            assert rep_lo.boosted_set == rep_hi.boosted_set

            def rank(dist, token):
                order = sorted(range(dist.vocab_size), key=lambda u: (-dist.entry(u), u))
                return order.index(token)

            for t in rep_lo.boosted_set:
                assert rank(post_hi, t) <= rank(post_lo, t)

    def test_large_enough_lam_promotes_boosted_token_to_top(self):
        # Token 0 gains probability under the full context but is not the
        # full-context argmax; boosting must eventually make it win.
        b = pair_backend([0.05, 0.45, 0.5], [0.35, 0.45, 0.2])
        promoted_at = None
        for lam in [1.0 + 0.1 * k for k in range(40)]:
            post, report = taboo_step((7, 8, 9), cfg_with(lam, gamma=0.0, epsilon=0.05), b)
            assert report.boosted_set == {0}
            top = int(np.argmax(post.probs))
            if promoted_at is None and top == 0:
                promoted_at = lam
            if promoted_at is not None:
                assert top == 0
        assert promoted_at is not None
        assert promoted_at > 1.0


class TestBoostReport:
    @PROPERTY
    @given(dists(), dists())
    def test_sparse_maps_match_the_per_id_reference(self, pre, post):
        record = BoostReport(pre, post).to_record()
        for key, dist in (("pre", pre), ("post", post)):
            p = dist.probs
            want = {str(t): float(p[t]) for t in range(dist.vocab_size) if p[t] != 0}
            assert json.dumps(record[key], sort_keys=True) == json.dumps(want, sort_keys=True)
        assert (record["lsds"], record["boosted"], record["short_fallback"]) == (None, [], False)


class TestCadStep:
    def test_alpha_zero_is_identity(self, rng):
        for _ in range(100):
            vocab = int(rng.integers(3, 16))
            b = random_pair_backend(rng, vocab, cutoff=3)
            vanilla = apply_strategy(b.at_or_above, KEEP_ALL)
            out = cad_step((1,) * 5, 0.0, KEEP_ALL, b, short_len=2)
            assert out.probs == pytest.approx(vanilla.probs, abs=1e-12)

    def test_matches_log_space_formula(self, rng):
        for _ in range(200):
            vocab = int(rng.integers(3, 12))
            # Strictly positive pairs keep the reference finite.
            short = TokenDistribution.from_weights(rng.random(vocab) + 0.05)
            full = TokenDistribution.from_weights(rng.random(vocab) + 0.05)
            b = SwitchBackend(cutoff=3, below=short, at_or_above=full)
            alpha = float(rng.uniform(0.0, 2.0))
            out = cad_step((1,) * 5, alpha, KEEP_ALL, b, short_len=2)
            logits = (1.0 + alpha) * np.log(full.probs) - alpha * np.log(short.probs)
            expect = np.exp(logits - logits.max())
            expect /= expect.sum()
            assert out.probs == pytest.approx(expect, abs=1e-9)

    def test_hand_value(self):
        b = pair_backend([0.5, 0.5], [0.8, 0.2])
        out = cad_step((1, 2, 3), 1.0, KEEP_ALL, b, short_len=2)
        w = [0.8**2 / 0.5, 0.2**2 / 0.5]
        total = sum(w)
        assert out.probs == pytest.approx([w[0] / total, w[1] / total], abs=1e-12)

    def test_negative_alpha_rejected(self):
        b = ConstantBackend(TokenDistribution.uniform(3))
        with pytest.raises(StrategyError):
            cad_step((1, 2, 3), -0.5, KEEP_ALL, b, short_len=2)

    def test_nan_alpha_rejected(self):
        b = ConstantBackend(TokenDistribution.uniform(3))
        with pytest.raises(StrategyError):
            cad_step((1, 2, 3), math.nan, KEEP_ALL, b, short_len=2)

    def test_zero_short_probability_is_floored(self):
        b = pair_backend([1.0, 0.0], [0.5, 0.5])
        out = cad_step((1, 2, 3), 0.5, KEEP_ALL, b, short_len=2)
        assert math.isfinite(float(out.probs.sum()))
        assert out.entry(1) > out.entry(0)


class TestGenerate:
    def test_deterministic_for_seed(self):
        b = ConstantBackend(TokenDistribution.from_probs([0.5, 0.3, 0.2]))
        a = generate([1, 2, 3], 20, "vanilla", cfg_with(2.0), seed=11, backend=b)
        c = generate([1, 2, 3], 20, "vanilla", cfg_with(2.0), seed=11, backend=b)
        assert a.tokens == c.tokens
        assert len(a.tokens) == 20

    def test_different_seeds_diverge(self):
        b = ConstantBackend(TokenDistribution.from_probs([0.5, 0.3, 0.2]))
        a = generate([1, 2, 3], 30, "vanilla", cfg_with(2.0), seed=1, backend=b)
        c = generate([1, 2, 3], 30, "vanilla", cfg_with(2.0), seed=2, backend=b)
        assert a.tokens != c.tokens

    def test_stops_at_eos(self):
        b = ConstantBackend(TokenDistribution.point_mass(3, vocab_size=5), eos_token_id=3)
        out = generate([1, 2], 50, "vanilla", cfg_with(2.0), seed=0, backend=b)
        assert out.tokens == [3]
        assert out.error is None

    def test_mid_run_failure_keeps_partial_output(self):
        inner = ConstantBackend(TokenDistribution.point_mass(1, vocab_size=4))
        b = FlakyBackend(inner, fail_after=3)
        out = generate([0], 10, "vanilla", cfg_with(2.0), seed=0, backend=b)
        assert out.tokens == [1, 1, 1]
        assert out.error is not None

    def test_reports_carry_steps_and_choices(self):
        b = ConstantBackend(TokenDistribution.from_probs([0.5, 0.5]))
        out = generate([1], 4, "vanilla", cfg_with(2.0), seed=5, backend=b)
        assert [r["step"] for r in out.steps] == [0, 1, 2, 3]
        assert [r["chosen"] for r in out.steps] == out.tokens

    def test_taboo_method_scores_every_step(self):
        b = pair_backend([0.6, 0.3, 0.1], [0.2, 0.5, 0.3], cutoff=3)
        out = generate([1, 2, 3], 5, "taboo", cfg_with(2.0), seed=3, backend=b)
        assert all(r["lsds"] is not None for r in out.steps)
        assert any(len(r["boosted"]) > 0 for r in out.steps)

    def test_cad_method_runs_ungated(self):
        b = pair_backend([0.6, 0.3, 0.1], [0.2, 0.5, 0.3], cutoff=3)
        out = generate([1, 2, 3], 5, "cad", cfg_with(2.0), seed=3, backend=b, alpha=0.5)
        assert all(len(r["boosted"]) == 0 for r in out.steps)
        assert all(r["pre"] != r["post"] for r in out.steps)

    def test_cad_makes_two_calls_per_step_without_a_memo(self):
        b = pair_backend([0.6, 0.3, 0.1], [0.2, 0.5, 0.3], cutoff=3)
        out = generate([1, 2, 3], 5, "cad", cfg_with(2.0), seed=3, backend=b, alpha=0.5)
        assert len(out.steps) == 5
        assert b.calls == 2 * 5

    @pytest.mark.parametrize("method", ["vanilla", "cad", "taboo"])
    def test_result_holds_no_distribution(self, method):
        # Step records are built when each step is taken; no vocab-sized vector outlives it.
        b = pair_backend([0.6, 0.3, 0.1], [0.2, 0.5, 0.3], cutoff=3)
        out = generate([1, 2, 3], 5, method, cfg_with(2.0), seed=3, backend=b)
        assert len(out.steps) == 5
        seen, stack = set(), [out]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (TokenDistribution, np.ndarray)), f"{method} keeps {obj!r}"
            stack.extend(gc.get_referents(obj))

    def test_unknown_method_rejected(self):
        b = ConstantBackend(TokenDistribution.uniform(3))
        with pytest.raises(StrategyError):
            generate([1], 3, "banana", cfg_with(2.0), seed=0, backend=b)

    def test_result_record_is_json_shaped(self):
        import json

        b = ConstantBackend(TokenDistribution.from_probs([0.5, 0.5]))
        out = generate([1], 2, "vanilla", cfg_with(2.0), seed=5, backend=b)
        rec = json.loads(json.dumps(out.to_record()))
        assert rec["tokens"] == out.tokens
        assert len(rec["steps"]) == 2
        assert rec["error"] is None

    def test_empty_result_shape(self):
        res = GenerationResult()
        assert res.to_record() == {"tokens": [], "steps": [], "error": None}
