"""Minimal context probes.

``mcl`` finds the shortest suffix from which the model already predicts the
known next token confidently. ``damcl`` drops the ground-truth requirement
and instead finds the shortest suffix whose decoded distribution is within a
divergence budget of the full-context one; its final grid point is the full
sequence, so it always resolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .decoding import DecodingStrategy, apply_strategy, confidence, top1
from .dist import TokenDistribution, jsd, kl, set_metrics, tvd, fit_power_law, PowerLawFit
from .errors import (
    BackendError,
    InsufficientData,
    SequenceTooShort,
    StrategyError,
    VocabMismatch,
)
from .backends import Backend, prefix_distribution

GRID_MODES = ("fixed_step", "percentile", "fixed_50")

_DEFAULT_PERCENTILES = tuple((i + 1) / 10 for i in range(10))


@dataclass(frozen=True)
class PrefixGrid:
    """Suffix lengths to probe, always ending at the full sequence length.

    ``fixed_step`` walks start, start+step, ...; ``fixed_50`` is the same
    with a 50-token step; ``percentile`` takes fractions of the sequence
    length (ceil), deduplicated.
    """

    start: int = 32
    step: int = 16
    mode: str = "fixed_step"
    percentiles: tuple[float, ...] = _DEFAULT_PERCENTILES

    def __post_init__(self):
        if self.mode not in GRID_MODES:
            raise StrategyError(f"unknown grid mode {self.mode!r}")
        if self.start < 1 or self.step < 1:
            raise StrategyError("grid start and step must be >= 1")
        if self.mode == "percentile":
            if not self.percentiles or any(not 0.0 < p <= 1.0 for p in self.percentiles):
                raise StrategyError("percentiles must lie in (0, 1]")
            if list(self.percentiles) != sorted(self.percentiles):
                raise StrategyError("percentiles must be ascending")

    def points(self, seq_len: int) -> list[int]:
        if seq_len < 1:
            raise SequenceTooShort("sequence must have at least one token")
        if self.mode == "percentile":
            ells = sorted({max(1, math.ceil(p * seq_len)) for p in self.percentiles})
        else:
            step = 50 if self.mode == "fixed_50" else self.step
            ells = list(range(self.start, seq_len + 1, step)) if seq_len >= self.start else []
        if not ells or ells[-1] != seq_len:
            ells.append(seq_len)
        return ells


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one probe: the resolving length, or None, plus the full trace."""

    kind: str  # "mcl" | "damcl"
    resolved_length: int | None
    trace: tuple[tuple, ...]  # (ell, (top1, confidence)) for mcl, (ell, metric) for damcl
    grid_points: tuple[int, ...]
    threshold: float  # delta for mcl, epsilon for damcl

    @property
    def resolved(self) -> bool:
        return self.resolved_length is not None

    def to_record(self, seq_id: str) -> dict:
        trace = []
        for ell, value in self.trace:
            if isinstance(value, tuple):
                trace.append([ell, [value[0], value[1]]])
            else:
                trace.append([ell, value])
        return {
            "seq_id": seq_id,
            "kind": self.kind,
            "resolved": self.resolved,
            "length": self.resolved_length,
            "grid": list(self.grid_points),
            "threshold": self.threshold,
            "trace": trace,
        }


def accepts(dist: TokenDistribution, t: int, delta: float) -> bool:
    """True when the distribution already commits to ``t`` with margin ``delta``."""
    return top1(dist) == t and confidence(dist) >= delta


def mcl(
    s: Sequence[int],
    t: int,
    delta: float,
    grid: PrefixGrid,
    backend: Backend,
) -> ProbeResult:
    """Smallest grid suffix length whose top prediction is ``t`` with confidence >= ``delta``.

    Unresolved (no grid point accepts) is a legitimate outcome, returned as
    ``resolved_length=None``, never an exception. ``t`` is checked against
    the vocab of the fetched distributions, so a backend that learns its
    vocab size from its first response needs no call beforehand.
    """
    if delta < 0:
        raise StrategyError("delta must be >= 0")
    if grid.mode != "percentile" and len(s) < grid.start:
        raise SequenceTooShort(f"sequence length {len(s)} below grid start {grid.start}")
    points = grid.points(len(s))
    trace: list[tuple] = []
    resolved = None
    for ell in points:
        try:
            dist = prefix_distribution(s, ell, backend)
        except BackendError as err:
            err.partial_trace = trace
            raise
        if not 0 <= t < dist.vocab_size:
            raise VocabMismatch(f"target token {t} outside vocab {dist.vocab_size}")
        tk = top1(dist)
        cf = confidence(dist)
        trace.append((ell, (tk, cf)))
        if tk == t and cf >= delta:
            resolved = ell
            break
    return ProbeResult(
        kind="mcl",
        resolved_length=resolved,
        trace=tuple(trace),
        grid_points=tuple(points),
        threshold=delta,
    )


_METRICS: dict[str, Callable[[TokenDistribution, TokenDistribution], float]] = {
    "jsd": jsd,
    "tvd": tvd,
    "kl": kl,
    "one_minus_f1": lambda a, b: 1.0 - set_metrics(a.support(), b.support()).f1,
}

METRIC_NAMES = tuple(_METRICS)


def divergence_metric(name: str) -> Callable[[TokenDistribution, TokenDistribution], float]:
    try:
        return _METRICS[name]
    except KeyError:
        raise StrategyError(f"unknown metric {name!r}, expected one of {METRIC_NAMES}") from None


def damcl(
    s: Sequence[int],
    strategy: DecodingStrategy,
    metric: str,
    epsilon: float,
    grid: PrefixGrid,
    backend: Backend,
) -> ProbeResult:
    """Smallest grid suffix length whose decoded distribution is within ``epsilon``.

    The divergence is measured against the decoded full-context distribution
    (computed once). The final grid point is the full sequence, where every
    metric is zero, so the probe always resolves; the whole trace is kept so
    non-monotone divergence profiles stay observable.
    """
    if epsilon < 0:
        raise StrategyError("epsilon must be >= 0")
    fn = divergence_metric(metric)
    points = grid.points(len(s))
    reference = apply_strategy(prefix_distribution(s, len(s), backend), strategy)
    trace: list[tuple] = []
    resolved = None
    for ell in points:
        try:
            decoded = apply_strategy(prefix_distribution(s, ell, backend), strategy)
        except BackendError as err:
            err.partial_trace = trace
            raise
        value = fn(decoded, reference)
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


def mcl_histogram(results: Sequence[ProbeResult]) -> tuple[list[tuple[int, int]], PowerLawFit | None]:
    """Counts of resolved lengths, plus a power-law fit when enough bins exist.

    The fit's reported exponent follows the negative sign convention (see
    ``PowerLawFit.slope``); bins with zero count carry no information and
    are never created here.
    """
    if not results:
        raise InsufficientData("no probe results to aggregate")
    counts: dict[int, int] = {}
    for res in results:
        if not res.resolved:
            raise InsufficientData("histogram input must be resolved probe results")
        counts[res.resolved_length] = counts.get(res.resolved_length, 0) + 1
    bins = sorted(counts.items())
    try:
        fit = fit_power_law([(float(ell), float(c)) for ell, c in bins])
    except InsufficientData:
        fit = None
    return bins, fit
