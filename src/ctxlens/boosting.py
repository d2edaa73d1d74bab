"""Targeted boosting of long-context tokens during decoding.

When the short-suffix and full-context decoded distributions diverge enough
(score above ``gamma``), every kept token whose probability rose by more
than ``epsilon`` under the full context gets multiplied by ``lam`` in the
raw distribution, which is then renormalized and decoded again. A
contrast-based baseline (``cad_step``) and the sampling loop live here too.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .backends import Backend, prefix_distribution
from .decoding import DecodingStrategy, apply_strategy, derive_seed, sample
from .detection import PROB_FLOOR
from .dist import JSD_MAX, SupportSet, TokenDistribution, jsd
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
        if self.lam < 1.0:
            raise StrategyError("lam must be >= 1")
        if not 0.0 <= self.gamma <= JSD_MAX:
            raise StrategyError(f"gamma must lie in [0, {JSD_MAX}]")
        if self.epsilon <= 0.0:
            raise StrategyError("epsilon must be > 0")
        if self.short_len < 1:
            raise StrategyError("short_len must be >= 1")


@dataclass(frozen=True)
class BoostReport:
    """Observability record for one decoding step."""

    step: int
    lsds: float | None  # None when the method never scored the context
    boosted_set: SupportSet
    pre: TokenDistribution
    post: TokenDistribution
    chosen: int | None = None
    scenario: str | None = None
    short_fallback: bool = False

    def to_record(self) -> dict:
        def sparse(dist: TokenDistribution) -> dict:
            return {str(t): dist.entry(t) for t in dist.support()}

        return {
            "step": self.step,
            "lsds": self.lsds,
            "boosted": sorted(self.boosted_set),
            "chosen": self.chosen,
            "scenario": self.scenario,
            "short_fallback": self.short_fallback,
            "pre": sparse(self.pre),
            "post": sparse(self.post),
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
        report = BoostReport(
            step=0, lsds=None, boosted_set=SupportSet.of(()), pre=pre, post=pre, short_fallback=True
        )
        return pre, report
    short = apply_strategy(prefix_distribution(s, cfg.short_len, backend), cfg.strategy)
    score = jsd(short, pre)
    if score <= cfg.gamma:
        report = BoostReport(step=0, lsds=score, boosted_set=SupportSet.of(()), pre=pre, post=pre)
        return pre, report
    shifts = pre.probs - short.probs
    boosted_ids = np.nonzero(shifts > cfg.epsilon)[0]
    if boosted_ids.size == 0:
        report = BoostReport(step=0, lsds=score, boosted_set=SupportSet.of(()), pre=pre, post=pre)
        return pre, report
    weights = raw_full.probs.copy()
    weights[boosted_ids] *= cfg.lam
    post = apply_strategy(TokenDistribution.from_weights(weights), cfg.strategy)
    report = BoostReport(
        step=0,
        lsds=score,
        boosted_set=SupportSet.of(int(t) for t in boosted_ids),
        pre=pre,
        post=post,
    )
    return post, report


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
    if alpha < 0:
        raise StrategyError("alpha must be >= 0")
    if raw_full is None:
        raw_full = prefix_distribution(s, len(s), backend)
    raw_short = prefix_distribution(s, min(short_len, len(s)), backend)
    weights = raw_full.probs ** (1.0 + alpha) * np.maximum(raw_short.probs, PROB_FLOOR) ** (-alpha)
    return apply_strategy(TokenDistribution.from_weights(weights), strategy)


@dataclass
class GenerationResult:
    """Sampled tokens plus one step record each; ``error`` is set on mid-run backend failure.

    ``steps`` holds ``BoostReport.to_record()`` dicts, built as each step is
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
            elif method == "cad":
                raw_full = prefix_distribution(ctx, len(ctx), backend)
                pre = apply_strategy(raw_full, cfg.strategy)
                post = cad_step(
                    ctx, alpha, cfg.strategy, backend, short_len=cfg.short_len, raw_full=raw_full
                )
                report = BoostReport(step=0, lsds=None, boosted_set=SupportSet.of(()), pre=pre, post=post)
            else:
                raw_full = prefix_distribution(ctx, len(ctx), backend)
                post = apply_strategy(raw_full, cfg.strategy)
                report = BoostReport(step=0, lsds=None, boosted_set=SupportSet.of(()), pre=post, post=post)
        except BackendError as err:
            result.error = str(err)
            break
        token = sample(post, derive_seed(seed, step))
        result.steps.append(replace(report, step=step, chosen=token).to_record())
        result.tokens.append(token)
        ctx.append(token)
        if backend.eos_token_id is not None and token == backend.eos_token_id:
            break
    return result
