"""Long- vs short-context detection from a single pair of model calls.

The score compares the decoded next-token distribution of a short suffix
against the full context; a large divergence means the model's prediction
still depends on far-away tokens. Labeling oracles and threshold
selection (ROC, Youden) live here too.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import AbstractSet, Sequence

from .backends import Backend, prefix_distribution, prefix_distributions
from .decoding import DecodingStrategy, apply_strategy
from .dist import JSD_MAX, TokenDistribution, jsd
from .errors import InsufficientData, NotLabelable, SequenceTooShort, StrategyError
from .probe import PrefixGrid, mcl

#: Floor applied to probabilities inside log ratios so they stay finite.
PROB_FLOOR = 1e-6

SHORT = "short"
LONG = "long"

#: Suffix length the lsd_lcl oracle compares the full context against.
LSD_LCL_SHORT_LEN = 32
#: Nats by which the full context must lift the true token's log-probability for lsd_lcl to say long.
LSD_LCL_LIFT = 2.0
#: Least full-context log-probability of the true token for lsd_lcl to say long.
LSD_LCL_FLOOR = -1.0


@dataclass(frozen=True)
class LsdsConfig:
    """Settings for the divergence score.

    ``short_len`` is a token count when int, or a fraction of the sequence
    length when a float in (0, 1). ``tau`` is the long/short decision
    threshold.
    """

    short_len: int | float = 32
    strategy: DecodingStrategy = DecodingStrategy.nucleus(0.9)
    tau: float = 0.6

    def __post_init__(self):
        if isinstance(self.short_len, bool) or (
            isinstance(self.short_len, int) and self.short_len < 1
        ):
            raise StrategyError("short_len must be a positive int or a fraction in (0, 1)")
        if isinstance(self.short_len, float) and not 0.0 < self.short_len < 1.0:
            raise StrategyError("fractional short_len must lie in (0, 1)")
        if not 0.0 <= self.tau <= JSD_MAX:
            raise StrategyError(f"tau must lie in [0, {JSD_MAX}]")

    def resolved_short_len(self, seq_len: int) -> int:
        if isinstance(self.short_len, float):
            return max(1, int(self.short_len * seq_len))
        return int(self.short_len)


def lsds(s: Sequence[int], cfg: LsdsConfig, backend: Backend) -> float:
    """Divergence between the decoded short-suffix and full-context distributions."""
    ell = cfg.resolved_short_len(len(s))
    if len(s) <= ell:
        raise SequenceTooShort(f"sequence length {len(s)} must exceed short prefix {ell}")
    raw_short, raw_full = prefix_distributions(s, (ell, len(s)), backend)
    return jsd(apply_strategy(raw_short, cfg.strategy), apply_strategy(raw_full, cfg.strategy))


def mcl_oracle_label(
    s: Sequence[int],
    t: int,
    delta: float,
    grid: PrefixGrid,
    backend: Backend,
) -> str:
    """``"long"`` iff the minimal context length exceeds the grid start, else ``"short"``.

    An unresolved probe cannot be labeled and raises.
    """
    result = mcl(s, t, delta, grid, backend)
    if not result.resolved:
        raise NotLabelable("probe never resolved, sequence is not labelable")
    return LONG if result.resolved_length > grid.start else SHORT


def lsd_lcl_oracle_label(s: Sequence[int], t: int, backend: Backend) -> str:
    """``"short"`` or ``"long"`` from raw (pre-decoding) log-probabilities of the true token.

    Long iff the full context lifts the token's log-probability by more than
    ``LSD_LCL_LIFT`` nats over the last ``LSD_LCL_SHORT_LEN`` tokens AND the
    full-context log-probability itself is at least ``LSD_LCL_FLOOR``.
    """
    if len(s) <= LSD_LCL_SHORT_LEN:
        raise SequenceTooShort(f"sequence length {len(s)} must exceed short prefix {LSD_LCL_SHORT_LEN}")
    # entry() checks t against the fetched distribution's vocab. The short suffix is fetched
    # only after that check, so the two calls are not sent together: a target outside the
    # vocab would otherwise cost a request whose reply is never read.
    p_full = prefix_distribution(s, len(s), backend).entry(t)
    p_short = prefix_distribution(s, LSD_LCL_SHORT_LEN, backend).entry(t)
    lsd = math.log(max(p_full, PROB_FLOOR)) - math.log(max(p_short, PROB_FLOOR))
    lcl = math.log(max(p_full, PROB_FLOOR))
    return LONG if (lsd > LSD_LCL_LIFT and lcl >= LSD_LCL_FLOOR) else SHORT


def scenario(t_hat: int, boosted: AbstractSet[int], full_dist: TokenDistribution) -> str:
    """Classify where the realized next token fell relative to the boosted set.

    ``best``: in the set and the most probable member under the full-context
    distribution; ``bad``: in the set but not its most probable member;
    ``worst``: outside a nonempty set; ``neutral``: the set is empty.
    """
    if len(boosted) == 0:
        return "neutral"
    if t_hat in boosted:
        best = max(full_dist.entry(u) for u in boosted)
        return "best" if full_dist.entry(t_hat) >= best else "bad"
    return "worst"


def _by_class(scored: Sequence[tuple[float, bool]], what: str) -> tuple[list[float], list[float]]:
    """Sorted scores of the long and of the short examples; counts at a threshold are bisections."""
    pos = sorted(score for score, is_long in scored if is_long)
    neg = sorted(score for score, is_long in scored if not is_long)
    if not pos or not neg:
        raise InsufficientData(f"{what} needs both long and short examples")
    return pos, neg


def roc_auc(scored: Sequence[tuple[float, bool]]) -> float:
    """Probability a random long sequence outscores a random short one; ties count half."""
    pos, neg = _by_class(scored, "roc_auc")
    # Twice the wins of each positive: shorts strictly below it, twice, plus shorts tied with it.
    twice_wins = sum(bisect_left(neg, score) + bisect_right(neg, score) for score in pos)
    return (twice_wins / 2.0) / (len(pos) * len(neg))


def youden_threshold(scored: Sequence[tuple[float, bool]]) -> dict:
    """The threshold maximizing TPR - FPR, as ``{"theta", "j", "tpr", "fpr"}``.

    Candidates are the lowest score (all long, J = 0) and the midpoints of
    adjacent distinct scores; ties on J resolve to the smallest threshold.
    Each class is sorted once, and the count at or above each candidate is
    found by bisection, so the sweep is O(n log n).
    """
    pos, neg = _by_class(scored, "youden threshold")
    distinct = sorted({score for score, _ in scored})
    candidates = distinct[:1]
    candidates.extend((a + b) / 2.0 for a, b in zip(distinct, distinct[1:]))
    best: dict | None = None
    for theta in candidates:
        tpr = (len(pos) - bisect_left(pos, theta)) / len(pos)
        fpr = (len(neg) - bisect_left(neg, theta)) / len(neg)
        j = tpr - fpr
        if best is None or j > best["j"]:
            best = {"theta": theta, "j": j, "tpr": tpr, "fpr": fpr}
    return best


def tau_sweep(scored: Sequence[tuple[float, bool]], taus: Sequence[float]) -> list[dict]:
    """Confusion counts, TPR/FPR/J and accuracy of the ``score >= tau`` rule at each tau.

    Long is the positive class: ``tp``/``fn`` count the long examples at or
    above / below ``tau``, ``fp``/``tn`` the short ones.
    """
    pos, neg = _by_class(scored, "tau sweep")
    rows = []
    for tau in taus:
        tp = len(pos) - bisect_left(pos, tau)
        fp = len(neg) - bisect_left(neg, tau)
        tn, fn = len(neg) - fp, len(pos) - tp
        tpr, fpr = tp / len(pos), fp / len(neg)
        rows.append({"tau": tau, "tp": tp, "fp": fp, "tn": tn, "fn": fn, "tpr": tpr, "fpr": fpr,
                     "j": tpr - fpr, "accuracy": (tp + tn) / len(scored)})
    return rows
