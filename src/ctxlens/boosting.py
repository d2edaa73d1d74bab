"""Targeted boosting of long-context tokens during decoding.

When the short-suffix and full-context decoded distributions diverge enough
(score above ``gamma``), every kept token whose probability rose by more
than ``epsilon`` under the full context gets multiplied by ``lam`` in the
raw distribution, which is then renormalized and decoded again. A
contrast-based baseline (``cad_step``) and the sampling loop live here too.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .backends import Backend, prefix_distribution
from .decoding import DecodingStrategy, apply_strategy, derive_seed, sample
from .detection import PROB_FLOOR
from .dist import JSD_MAX, TokenDistribution, jsd
from .errors import BackendError, StrategyError

GENERATION_METHODS = ("vanilla", "cad", "taboo")


@dataclass(frozen=True)
class BoostConfig:
    """Boost step settings. ``lam`` has no published default and must be chosen."""

    lam: float
    gamma: float = 0.1225
    epsilon: float = 0.05
    strategy: DecodingStrategy = DecodingStrategy.nucleus(0.9)
    short_len: int = 32

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not self.lam >= 1.0:
            raise StrategyError("lam must be >= 1")
        if not 0.0 <= self.gamma <= JSD_MAX:
            raise StrategyError(f"gamma must lie in [0, {JSD_MAX}]")
        if not self.epsilon > 0.0:
            raise StrategyError("epsilon must be > 0")
        if not self.short_len >= 1:
            raise StrategyError("short_len must be >= 1")


@dataclass(frozen=True)
class BoostReport:
    """What one decoding step decided; the generation loop adds the step number and the chosen token."""

    pre: TokenDistribution
    post: TokenDistribution
    lsds: float | None = None  # None when the method never scored the context
    boosted_set: frozenset[int] = frozenset()
    short_fallback: bool = False

    def to_record(self) -> dict:
        def sparse(dist: TokenDistribution) -> dict:
            ids = dist.positive_ids()
            return dict(zip(map(str, ids.tolist()), dist.probs[ids].tolist()))

        pre = sparse(self.pre)
        return {
            "lsds": self.lsds,
            "boosted": sorted(self.boosted_set),
            "short_fallback": self.short_fallback,
            "pre": pre,
            "post": pre if self.post is self.pre else sparse(self.post),
        }


def taboo_step(
    s: Sequence[int], cfg: BoostConfig, backend: Backend
) -> tuple[TokenDistribution, BoostReport]:
    """One boosted decoding step.

    Sequences no longer than the short prefix cannot be scored; they fall
    back to plain decoding with ``short_fallback`` flagged. When the score
    is at most ``gamma`` the decoded distribution passes through unchanged
    and the boosted set is empty.
    """
    raw_full = prefix_distribution(s, len(s), backend)
    pre = apply_strategy(raw_full, cfg.strategy)
    if len(s) <= cfg.short_len:
        return pre, BoostReport(pre, pre, short_fallback=True)
    short = apply_strategy(prefix_distribution(s, cfg.short_len, backend), cfg.strategy)
    score = jsd(short, pre)
    boosted_ids = np.empty(0, int)
    if score > cfg.gamma:
        # epsilon > 0, so every boosted id is positive in pre
        ids = pre.positive_ids()
        boosted_ids = ids[pre.probs[ids] - short.probs[ids] > cfg.epsilon]
    post = pre
    if boosted_ids.size:
        weights = raw_full.probs.copy()
        weights[boosted_ids] *= cfg.lam
        post = apply_strategy(TokenDistribution.from_weights(weights), cfg.strategy)
    return post, BoostReport(pre, post, lsds=score, boosted_set=frozenset(boosted_ids.tolist()))


def cad_step(
    s: Sequence[int],
    alpha: float,
    strategy: DecodingStrategy,
    backend: Backend,
    short_len: int = 32,
    raw_full: TokenDistribution | None = None,
) -> TokenDistribution:
    """Contrast the full context against the short suffix, then decode.

    Weights are p_full^(1+alpha) * p_short^(-alpha); the short operand is
    floored before the negative power. alpha=0 reduces to plain decoding.
    Applied at every step, with no gate and no token selection. A caller
    that already holds the full-context distribution passes it as
    ``raw_full`` to save the call.
    """
    if not alpha >= 0:
        raise StrategyError("alpha must be >= 0")
    if raw_full is None:
        raw_full = prefix_distribution(s, len(s), backend)
    raw_short = prefix_distribution(s, min(short_len, len(s)), backend)
    weights = raw_full.probs ** (1.0 + alpha) * np.maximum(raw_short.probs, PROB_FLOOR) ** (-alpha)
    return apply_strategy(TokenDistribution.from_weights(weights), strategy)


@dataclass
class GenerationResult:
    """Sampled tokens plus one step record each; ``error`` is set on mid-run backend failure.

    ``steps`` holds each step's number, chosen token, ``scenario`` (null in
    this version) and ``BoostReport.to_record()`` fields, built as the step is
    taken, so no vocab-sized distribution outlives its step.
    """

    tokens: list[int] = field(default_factory=list)
    steps: list[dict] = field(default_factory=list)
    error: str | None = None

    def to_record(self) -> dict:
        return {
            "tokens": list(self.tokens),
            "steps": self.steps,
            "error": self.error,
        }


def generate(
    prompt: Sequence[int],
    max_new: int,
    method: str,
    cfg: BoostConfig,
    seed: int,
    backend: Backend,
    alpha: float = 0.5,
) -> GenerationResult:
    """Sample up to ``max_new`` tokens, one backend-scored step at a time.

    The context score and boost decision are recomputed every step on the
    grown context. Stops early on the backend's end-of-sequence token. A
    backend failure mid-run returns the tokens sampled so far with the
    error recorded instead of raising.
    """
    if method not in GENERATION_METHODS:
        raise StrategyError(f"unknown generation method {method!r}")
    result = GenerationResult()
    ctx = array("i", prompt)
    for step in range(max_new):
        try:
            if method == "taboo":
                post, report = taboo_step(ctx, cfg, backend)
            else:
                raw_full = prefix_distribution(ctx, len(ctx), backend)
                pre = post = apply_strategy(raw_full, cfg.strategy)
                if method == "cad":
                    post = cad_step(ctx, alpha, cfg.strategy, backend, cfg.short_len, raw_full)
                report = BoostReport(pre, post)
        except BackendError as err:
            result.error = str(err)
            break
        token = sample(post, derive_seed(seed, step))
        result.steps.append({"step": step, "chosen": token, "scenario": None, **report.to_record()})
        result.tokens.append(token)
        ctx.append(token)
        if backend.eos_token_id is not None and token == backend.eos_token_id:
            break
    return result
