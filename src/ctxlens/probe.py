"""Minimal context probes.

``mcl`` finds the shortest suffix from which the model already predicts the
known next token confidently. ``damcl`` drops the ground-truth requirement
and instead finds the shortest suffix whose decoded distribution is within a
divergence budget of the full-context one; its final grid point is the full
sequence, so it always resolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .decoding import DecodingStrategy, apply_strategy, confidence, top1
from .dist import TokenDistribution, jsd, set_metrics, tvd, fit_power_law, PowerLawFit
from .errors import (
    BackendError,
    InsufficientData,
    SequenceTooShort,
    StrategyError,
    VocabMismatch,
)
from .backends import Backend, prefix_distribution, prefix_distributions

GRID_MODES = ("fixed_step", "percentile")

#: Fractions of the sequence length that the percentile grid probes.
PERCENTILES = tuple((i + 1) / 10 for i in range(10))


@dataclass(frozen=True)
class PrefixGrid:
    """Suffix lengths to probe, always ending at the full sequence length.

    ``fixed_step`` walks start, start+step, ...; ``percentile`` takes the
    ``PERCENTILES`` of the sequence length (ceil), deduplicated.
    """

    start: int = 32
    step: int = 16
    mode: str = "fixed_step"

    def __post_init__(self):
        if self.mode not in GRID_MODES:
            raise StrategyError(f"unknown grid mode {self.mode!r}")
        if self.start < 1 or self.step < 1:
            raise StrategyError("grid start and step must be >= 1")

    def points(self, seq_len: int) -> list[int]:
        if seq_len < 1:
            raise SequenceTooShort("sequence must have at least one token")
        if self.mode == "percentile":
            ells = sorted({math.ceil(p * seq_len) for p in PERCENTILES})
        else:
            ells = list(range(self.start, seq_len + 1, self.step))
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

    def at_epsilon(self, eps: float) -> ProbeResult:
        """This damcl probe at a looser ``eps``, cut at the trace's first value <= ``eps``.

        A walk stops at the first crossing of its own threshold, so its trace
        holds the first crossing of every larger epsilon as well.
        """
        if self.kind != "damcl":
            raise StrategyError("only a damcl probe can be resolved at another epsilon")
        if not eps >= self.threshold:
            raise StrategyError(f"epsilon {eps} is below the walk's threshold {self.threshold}")
        for i, (ell, value) in enumerate(self.trace):
            if value <= eps:
                return replace(self, resolved_length=ell, trace=self.trace[: i + 1], threshold=eps)
        return replace(self, threshold=eps)

    def to_record(self, seq_id: str) -> dict:
        return {
            "seq_id": seq_id,
            "kind": self.kind,
            "resolved": self.resolved,
            "length": self.resolved_length,
            "grid": list(self.grid_points),
            "threshold": self.threshold,
            "trace": list(self.trace),
        }


def _walk(
    kind: str, s: Sequence[int], points: list[int], backend: Backend,
    measure: Callable, stop: Callable, threshold: float, first: TokenDistribution | None = None,
) -> ProbeResult:
    """Fetch the grid points in order, tracing ``(ell, measure(dist))``, up to the first ``stop``.

    ``first`` is the first point's distribution when the caller already holds it. A backend
    failure carries the trace so far as ``partial_trace``.
    """
    trace: list[tuple] = []
    for ell in points:
        dist, first = first, None
        if dist is None:
            try:
                dist = prefix_distribution(s, ell, backend)
            except BackendError as err:
                err.partial_trace = trace
                raise
        trace.append((ell, measure(dist)))
        if stop(trace[-1][1]):
            return ProbeResult(kind, ell, tuple(trace), tuple(points), threshold)
    return ProbeResult(kind, None, tuple(trace), tuple(points), threshold)


def accepts(dist: TokenDistribution, t: int, delta: float) -> bool:
    """True when the distribution already commits to ``t`` with margin ``delta``."""
    return top1(dist) == t and confidence(dist) >= delta


def mcl(s: Sequence[int], t: int, delta: float, grid: PrefixGrid, backend: Backend) -> ProbeResult:
    """Smallest grid suffix length whose top prediction is ``t`` with confidence >= ``delta``.

    Unresolved (no grid point accepts) is a legitimate outcome, returned as
    ``resolved_length=None``, never an exception. ``t`` is checked against
    the vocab of the fetched distributions, so a backend that learns its
    vocab size from its first response needs no call beforehand.
    """
    if not delta >= 0:
        raise StrategyError("delta must be >= 0")
    if grid.mode != "percentile" and len(s) < grid.start:
        raise SequenceTooShort(f"sequence length {len(s)} below grid start {grid.start}")

    def measure(dist: TokenDistribution) -> tuple[int, float]:
        if not 0 <= t < dist.vocab_size:
            raise VocabMismatch(f"target token {t} outside vocab {dist.vocab_size}")
        return top1(dist), confidence(dist)

    return _walk("mcl", s, grid.points(len(s)), backend, measure, lambda v: v[0] == t and v[1] >= delta, delta)


_METRICS: dict[str, Callable[[TokenDistribution, TokenDistribution], float]] = {
    "jsd": jsd,
    "tvd": tvd,
    "one_minus_f1": lambda a, b: 1.0 - set_metrics(a.support(), b.support()).f1,
}

METRIC_NAMES = tuple(_METRICS)


def divergence_metric(name: str) -> Callable[[TokenDistribution, TokenDistribution], float]:
    try:
        return _METRICS[name]
    except KeyError:
        raise StrategyError(f"unknown metric {name!r}, expected one of {METRIC_NAMES}") from None


def damcl(
    s: Sequence[int], strategy: DecodingStrategy, metric: str, epsilon: float,
    grid: PrefixGrid, backend: Backend,
) -> ProbeResult:
    """Smallest grid suffix length whose decoded distribution is within ``epsilon``.

    The divergence is measured against the decoded full-context distribution
    (computed once). The final grid point is the full sequence, where every
    metric is zero, so the probe always resolves; the whole trace is kept so
    non-monotone divergence profiles stay observable. ``at_epsilon`` reads
    the result at any larger epsilon without walking again.
    """
    if not epsilon >= 0:
        raise StrategyError("epsilon must be >= 0")
    fn = divergence_metric(metric)
    points = grid.points(len(s))
    # The reference and the first grid point are asked for together; the walk takes the point.
    try:
        raw_full, first = prefix_distributions(s, (len(s), points[0]), backend)
    except BackendError as err:
        if err.batch_index == 1:
            err.partial_trace = []  # the reference was fetched, the walk's first point failed
        raise
    reference = apply_strategy(raw_full, strategy)

    def measure(dist: TokenDistribution) -> float:
        return float(fn(apply_strategy(dist, strategy), reference))

    return _walk("damcl", s, points, backend, measure, lambda v: v <= epsilon, epsilon, first)


def mcl_histogram(lengths: Sequence[int]) -> tuple[list[tuple[int, int]], PowerLawFit | None]:
    """Counts of resolved lengths, plus a power-law fit when enough bins exist.

    The fit is None with one bin, or when its scale ``a`` overflows a float.
    Its exponent follows the negative sign convention (see ``PowerLawFit.slope``);
    zero-count bins are never created here. An unresolved (None) length is an error.
    """
    if not lengths:
        raise InsufficientData("no resolved lengths to aggregate")
    counts: dict[int, int] = {}
    for ell in lengths:
        if ell is None:
            raise InsufficientData("histogram input must be resolved lengths")
        counts[ell] = counts.get(ell, 0) + 1
    bins = sorted(counts.items())
    try:
        fit = fit_power_law([(float(ell), float(c)) for ell, c in bins])
    except (InsufficientData, OverflowError):
        fit = None
    return bins, fit
