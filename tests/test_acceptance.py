"""Release gate: one test per shipping criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts. Criterion 11 is a manual live smoke
check and stays skipped unless CTXLENS_LIVE_URL (and CTXLENS_LIVE_CORPUS)
point at a running logprob server and a document corpus.
"""

import itertools
import json
import math
import os
import time
from functools import lru_cache

import numpy as np
import pytest

import ctxlens.cli as cli
from ctxlens.backends import ConstantBackend, PlantedDependencyBackend, SwitchBackend
from ctxlens.boosting import BoostConfig, cad_step, taboo_step
from ctxlens.decoding import DecodingStrategy, apply_strategy
from ctxlens.detection import (
    LsdsConfig,
    lsds,
    roc_auc,
    scenario,
    youden_threshold,
)
from ctxlens.dist import (
    JSD_MAX,
    TokenDistribution,
    fit_power_law,
    jsd,
    tvd,
)
from ctxlens.probe import PrefixGrid, damcl, mcl
from ctxlens.reporting import read_report
from ctxlens.textmetrics import bleu, rouge_l, token_f1

KEEP_ALL = DecodingStrategy.nucleus(1.0)


def ok(num, message):
    print(f"criterion {num:02d} PASS: {message}")


def random_dist(rng, vocab):
    return TokenDistribution.from_weights(rng.random(vocab) + 1e-9)


def test_criterion_01_metric_suite():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(1000):
        vocab = int(rng.integers(2, 65))
        p, q, r = (random_dist(rng, vocab) for _ in range(3))
        assert abs(jsd(p, q) - jsd(q, p)) <= 1e-12
        value = jsd(p, q)
        assert -1e-12 <= value <= JSD_MAX + 1e-12
        assert jsd(p, r) <= jsd(p, q) + jsd(q, r) + 1e-12

    half = TokenDistribution.from_weights([0.5, 0.5])
    skew = TokenDistribution.from_weights([0.25, 0.75])
    assert tvd(half, skew) == 0.25
    assert tvd(TokenDistribution.point_mass(0, vocab_size=2),
               TokenDistribution.point_mass(1, vocab_size=2)) == 1.0
    disjoint = jsd(TokenDistribution.point_mass(0, vocab_size=2),
                   TokenDistribution.point_mass(1, vocab_size=2))
    assert abs(disjoint - math.sqrt(math.log(2.0))) <= 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(1, f"jsd symmetry/bounds/triangle on 1000 triples, closed forms exact ({elapsed:.2f}s)")


def brute_force_keep(probs, strategy):
    """Reference truncation built by direct definition, ties to lowest id."""
    order = sorted(range(len(probs)), key=lambda t: (-probs[t], t))
    if strategy.kind == "greedy":
        kept = order[:1]
    elif strategy.kind == "top_k":
        kept = order[: strategy.k]
    else:  # nucleus
        kept, total = [], 0.0
        for t in order:
            kept.append(t)
            total += probs[t]
            if total >= strategy.p - 1e-15:
                break
    return {t for t in kept if probs[t] > 0.0}


def test_criterion_02_decoding_equivalence():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    for case in range(500):
        vocab = int(rng.integers(2, 13))
        weights = rng.random(vocab)
        if case % 3 == 0:
            weights = np.round(weights, 1) + 1e-3  # manufacture ties
        dist = TokenDistribution.from_weights(weights)
        strategies = [DecodingStrategy.top_k(int(rng.integers(1, vocab + 1)))]
        strategies.append(DecodingStrategy.nucleus(float(rng.choice([0.3, 0.5, 0.9, 1.0]))))
        for strategy in strategies:
            got = apply_strategy(dist, strategy)
            want = brute_force_keep(dist.probs, strategy)
            assert set(got.support()) == want
            mass = sum(dist.probs[t] for t in want)
            for t in want:
                assert abs(got.entry(t) - dist.probs[t] / mass) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(2, f"nucleus/top-k match brute force on 500 random cases ({elapsed:.2f}s)")


def first_grid_point_at_or_past(d_star, start=32, step=16):
    if d_star <= start:
        return start
    return start + step * math.ceil((d_star - start) / step)


class GapRampBackend:
    """Top-1 gap over runner-up grows linearly with the presented length."""

    vocab_size = 4
    eos_token_id = None

    def __init__(self, target):
        self.target = target

    def next_token_distribution(self, tokens):
        gap = min(0.99, len(tokens) / 1000.0)
        top = (3.0 * gap + 1.0) / 4.0
        probs = [(1.0 - top) / 3.0] * 4
        probs[self.target] = top
        return TokenDistribution.from_weights(probs)


def test_criterion_03_mcl_oracle_equivalence():
    rng = np.random.default_rng(303)
    grid = PrefixGrid()
    started = time.perf_counter()
    hits = 0
    for _ in range(200):
        d_star = int(rng.integers(1, 901))
        answer = int(rng.integers(1, 64))
        backend = PlantedDependencyBackend(
            vocab_size=64, dependency_length=d_star, answer_token=answer
        )
        result = mcl([0] * 1000, answer, 0.2, grid, backend)
        assert result.resolved_length == first_grid_point_at_or_past(d_star)
        hits += 1
    assert hits == 200

    ramp = GapRampBackend(target=2)
    resolved = [
        mcl([0] * 1000, 2, delta, grid, ramp).resolved_length
        for delta in (0.05, 0.1, 0.2)
    ]
    assert resolved == [64, 112, 208]
    assert resolved == sorted(resolved)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(3, f"200/200 planted minimal lengths exact, delta-monotone ({elapsed:.2f}s)")


def test_criterion_04_damcl_first_crossing():
    rng = np.random.default_rng(404)
    grid = PrefixGrid(mode="percentile")
    started = time.perf_counter()
    for _ in range(200):
        d_star = int(rng.integers(1, 901))
        backend = PlantedDependencyBackend(
            vocab_size=64, dependency_length=d_star, answer_token=5
        )
        tight = damcl([0] * 1000, KEEP_ALL, "jsd", 0.1, grid, backend)
        expected = 100 * math.ceil(d_star / 100)
        assert tight.resolved_length == expected
        assert len(tight.trace) == expected // 100
        assert all(value > 0.1 for _, value in tight.trace[:-1])
        assert tight.trace[-1][1] <= 0.1

        loose = damcl([0] * 1000, KEEP_ALL, "jsd", JSD_MAX, grid, backend)
        assert loose.resolved_length == 100
        assert len(loose.trace) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(4, f"percentile first-crossing exact for 200 mocks, traces kept ({elapsed:.2f}s)")


def brute_force_youden(scored):
    values = sorted({score for score, _ in scored})
    # The +inf candidate never wins (J = 0 ties the lowest score, which comes first);
    # keeping it cross-checks that youden_threshold may leave it out.
    candidates = (
        values[:1]
        + [(a + b) / 2.0 for a, b in zip(values, values[1:])]
        + [math.inf]
    )
    best = None
    for threshold in candidates:
        tp = sum(1 for s, is_long in scored if is_long and s >= threshold)
        fn = sum(1 for s, is_long in scored if is_long and s < threshold)
        fp = sum(1 for s, is_long in scored if not is_long and s >= threshold)
        tn = sum(1 for s, is_long in scored if not is_long and s < threshold)
        tpr = tp / (tp + fn)
        fpr = fp / (fp + tn)
        if best is None or tpr - fpr > best[0]:
            best = (tpr - fpr, threshold)
    return best


def test_criterion_05_detection():
    rng = np.random.default_rng(505)
    cfg = LsdsConfig()
    started = time.perf_counter()

    scored = []
    for _ in range(100):
        backend = ConstantBackend(random_dist(rng, 16))
        score = lsds([1] * 40, cfg, backend)
        assert score == 0.0
        assert score < cfg.tau
        scored.append((score, False))
    sqrt_ln2 = math.sqrt(math.log(2.0))
    for _ in range(100):
        a, b = rng.choice(16, size=2, replace=False)
        backend = SwitchBackend(
            cutoff=33,
            below=TokenDistribution.point_mass(int(a), vocab_size=16),
            at_or_above=TokenDistribution.point_mass(int(b), vocab_size=16),
        )
        score = lsds([1] * 40, cfg, backend)
        assert score == sqrt_ln2
        assert score >= cfg.tau
        scored.append((score, True))

    assert roc_auc(scored) == 1.0
    assert youden_threshold(scored)["j"] == 1.0

    for n in range(2, 51):
        values = np.round(rng.random(n), 1)
        labels = [True, False] + [bool(rng.integers(0, 2)) for _ in range(n - 2)]
        case = list(zip(values.tolist(), labels))
        got = youden_threshold(case)
        best_j, best_threshold = brute_force_youden(case)
        assert abs(got["j"] - best_j) <= 1e-12
        assert got["theta"] == best_threshold

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(5, f"planted scores {{0, sqrt(ln 2)}} exact, auc=J=1, youden matches brute force ({elapsed:.2f}s)")


def rank_map(dist):
    order = sorted(range(dist.vocab_size), key=lambda t: (-dist.probs[t], t))
    return {t: r for r, t in enumerate(order)}


def pair_backend(short_dist, full_dist):
    return SwitchBackend(cutoff=33, below=short_dist, at_or_above=full_dist)


def test_criterion_06_boosting_algebra():
    rng = np.random.default_rng(606)
    started = time.perf_counter()

    backend = pair_backend(
        TokenDistribution.from_weights([0.6, 0.3, 0.1]),
        TokenDistribution.from_weights([0.2, 0.5, 0.3]),
    )
    cfg = BoostConfig(lam=2.0, gamma=0.0, epsilon=0.05, strategy=KEEP_ALL)
    post, report = taboo_step([0] * 40, cfg, backend)
    for got, want in zip(post.probs, (1 / 9, 5 / 9, 3 / 9)):
        assert abs(got - want) <= 1e-12
    assert set(report.boosted_set) == {1, 2}

    for _ in range(100):
        backend = pair_backend(random_dist(rng, 8), random_dist(rng, 8))
        identity_cfg = BoostConfig(lam=1.0, gamma=0.0, epsilon=0.05, strategy=KEEP_ALL)
        post, report = taboo_step([0] * 40, identity_cfg, backend)
        pre = report.pre
        assert np.allclose(post.probs, pre.probs, atol=1e-12)
        # gamma at the metric's own maximum can never be exceeded, which is
        # what an infinite gate would do.
        closed_cfg = BoostConfig(lam=5.0, gamma=JSD_MAX, epsilon=0.05, strategy=KEEP_ALL)
        post, report = taboo_step([0] * 40, closed_cfg, backend)
        assert post.same_values(report.pre)
        assert len(report.boosted_set) == 0

    for _ in range(500):
        backend = pair_backend(random_dist(rng, 10), random_dist(rng, 10))
        lam_low, lam_high = sorted(rng.uniform(1.0, 8.0, size=2))
        runs = {}
        for lam in (lam_low, lam_high):
            run_cfg = BoostConfig(lam=float(lam), gamma=0.0, epsilon=0.02, strategy=KEEP_ALL)
            runs[lam] = taboo_step([0] * 40, run_cfg, backend)
        ranks_low = rank_map(runs[lam_low][0])
        ranks_high = rank_map(runs[lam_high][0])
        boosted = set(runs[lam_low][1].boosted_set)
        assert boosted == set(runs[lam_high][1].boosted_set)
        for t in range(10):
            if t in boosted:
                assert ranks_high[t] <= ranks_low[t]
            else:
                assert ranks_high[t] >= ranks_low[t]

    for _ in range(100):
        backend = pair_backend(random_dist(rng, 8), random_dist(rng, 8))
        plain = apply_strategy(backend.at_or_above, KEEP_ALL)
        assert np.allclose(
            cad_step([0] * 40, 0.0, KEEP_ALL, backend).probs, plain.probs, atol=1e-12
        )
    for _ in range(200):
        backend = pair_backend(random_dist(rng, 8), random_dist(rng, 8))
        alpha = float(rng.uniform(0.1, 2.0))
        got = cad_step([0] * 40, alpha, KEEP_ALL, backend)
        logits = (1.0 + alpha) * np.log(backend.at_or_above.probs) - alpha * np.log(
            np.maximum(backend.below.probs, 1e-6)
        )
        want = np.exp(logits - logits.max())
        want /= want.sum()
        assert np.allclose(got.probs, want, atol=1e-9)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(6, f"hand example exact, identity gates, rank-monotone in lam, contrast algebra ({elapsed:.2f}s)")


def test_criterion_07_scenario_enumeration():
    rng = np.random.default_rng(707)
    dists = [TokenDistribution.uniform(4)] + [random_dist(rng, 4) for _ in range(3)]
    seen = set()
    for dist in dists:
        for members in itertools.chain.from_iterable(
            itertools.combinations(range(4), k) for k in range(5)
        ):
            boosted = frozenset(members)
            for t_hat in range(4):
                got = scenario(t_hat, boosted, dist)
                if not members:
                    want = "neutral"
                elif t_hat not in boosted:
                    want = "worst"
                elif dist.entry(t_hat) >= max(dist.entry(u) for u in members):
                    want = "best"
                else:
                    want = "bad"
                assert got == want
                seen.add(got)
    assert seen == {"neutral", "best", "bad", "worst"}
    ok(7, "outcome classes match the case analysis over every configuration")


@lru_cache(maxsize=None)
def lcs_len(a, b):
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + lcs_len(a[:-1], b[:-1])
    return max(lcs_len(a[:-1], b), lcs_len(a, b[:-1]))


def test_criterion_08_text_metrics():
    assert token_f1("the cat sat", "cat sat") == 1.0
    assert token_f1("x x", "x") == pytest.approx(2 / 3, abs=1e-12)
    assert token_f1("alpha beta", "gamma delta") == 0.0

    assert bleu("w x y z", "w x y z") == pytest.approx(1.0, abs=1e-12)
    assert bleu("a b c d", "a b c d e") == pytest.approx(math.exp(1.0 - 5.0 / 4.0), abs=1e-12)
    assert bleu("p q r s", "w x y z") == 0.0

    assert rouge_l("w x y z", "w x y z") == 1.0
    assert rouge_l("a b c d", "a c b d") == pytest.approx(0.75, abs=1e-12)
    assert rouge_l("p q", "x y") == 0.0

    rng = np.random.default_rng(808)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(200):
        pred = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 9))]
        gold = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(1, 9))]
        want_lcs = lcs_len(tuple(pred), tuple(gold))
        got = rouge_l(" ".join(pred), " ".join(gold))
        if want_lcs == 0:
            assert got == 0.0
        else:
            p = want_lcs / len(pred)
            r = want_lcs / len(gold)
            assert got == pytest.approx(2 * p * r / (p + r), abs=1e-12)
    ok(8, "hand cases exact, longest-common-subsequence matches brute force x200")


def test_criterion_09_power_law_recovery():
    xs = [32.0, 48.0, 64.0, 96.0, 128.0, 192.0, 256.0]
    for b_true in (0.5, 1.5, 2.63):
        points = [(x, 1000.0 * x**-b_true) for x in xs]
        fit = fit_power_law(points)
        assert abs(fit.b_hat - b_true) <= 1e-9
        assert fit.slope == -fit.b_hat
        assert fit.slope < 0  # decreasing histogram reports a negative exponent

    rng = np.random.default_rng(909)
    noisy = [(x, 1000.0 * x**-2.63 * math.exp(rng.normal(0.0, 0.01))) for x in xs]
    noisy_fit = fit_power_law(noisy)
    assert abs(noisy_fit.b_hat - 2.63) <= 0.05
    ok(9, "planted exponents recovered (1e-9 clean, 0.05 noisy), sign convention negative")


def make_share_corpus(path):
    """10 sequences, 8 resolvable from the 32-token grid start and 2 not."""
    rng = np.random.default_rng(99)
    records = []
    for i in range(10):
        depth = 20 if i < 8 else 208
        tokens = [int(t) for t in rng.integers(0, 256, size=300)]
        tokens[-1] = depth
        records.append(
            {
                "seq_id": f"s{i:02d}",
                "tokens": tokens,
                "next_token": 5,
                "label": "short" if depth <= 32 else "long",
            }
        )
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


def output_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_criterion_10_end_to_end_determinism(tmp_path):
    corpus = make_share_corpus(tmp_path / "corpus.jsonl")
    backend = "mock:planted_last:answer=5,vocab=256"
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text(json.dumps({"id": "p0", "tokens": [3, 4, 5]}) + "\n")

    commands = {
        "mcl": ["mcl", "--backend", backend, "--corpus", str(corpus), "--seed", "11"],
        "detect": ["detect", "--backend", backend, "--corpus", str(corpus), "--seed", "11"],
        "generate": [
            "generate",
            "--backend",
            backend,
            "--prompts",
            str(prompts),
            "--max-new",
            "6",
            "--n-samples",
            "2",
            "--seed",
            "11",
        ],
    }
    for name, argv in commands.items():
        first, second = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        assert output_bytes(first) == output_bytes(second)

    summary = read_report(tmp_path / "mcl1" / "mcl_summary.json")
    assert summary["share_le"]["32"] == 0.8
    ok(10, "mcl/detect/generate byte-identical across reruns, 80/20 share exact")


LIVE_URL = os.environ.get("CTXLENS_LIVE_URL", "")
LIVE_CORPUS = os.environ.get("CTXLENS_LIVE_CORPUS", "")


@pytest.mark.skipif(
    not (LIVE_URL and LIVE_CORPUS),
    reason="manual live smoke: set CTXLENS_LIVE_URL and CTXLENS_LIVE_CORPUS",
)
def test_criterion_11_live_smoke(tmp_path):
    out = tmp_path / "live"
    code = cli.main(
        [
            "mcl",
            "--backend",
            LIVE_URL,
            "--corpus",
            LIVE_CORPUS,
            "--sample",
            "80",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = read_report(out / "mcl_summary.json")
    assert summary["n_kept"] >= 200
    rows = (out / "mcl_hist.csv").read_text().splitlines()[1:]
    counts = [int(row.split(",")[1]) for row in rows]
    assert counts[0] == max(counts)
    assert summary["fit"]["b_hat"] > 0
    assert summary["share_le"]["96"] >= 0.6
    ok(11, "live histogram mode at the first bin, short-context share >= 0.6")
