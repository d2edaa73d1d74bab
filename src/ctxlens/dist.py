"""Distributions over a token vocabulary and the divergences between them.

All divergences use the natural logarithm, so the Jensen-Shannon distance is
bounded by sqrt(ln 2) ~= 0.832555.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientData, InvalidDistribution, VocabMismatch

#: Upper bound of the Jensen-Shannon distance under natural log.
JSD_MAX = math.sqrt(math.log(2.0))

_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TokenDistribution:
    """A probability distribution over token ids 0..vocab_size-1.

    The probability array is float64 and read-only. Build instances through
    :meth:`from_probs` (validates) or the ``point_mass`` / ``uniform``
    constructors.

    ``ids``, when set, holds the ascending ids of the positive entries, read
    only. Decoding records them for sparse supports, and ``support``,
    ``jsd``, ``decoding.sample`` and the boosting step then read those
    entries instead of scanning the vocabulary. ``None`` means they were not
    recorded.
    """

    probs: np.ndarray
    ids: np.ndarray | None = None

    @property
    def vocab_size(self) -> int:
        return int(self.probs.shape[0])

    @classmethod
    def from_probs(cls, values: Sequence[float] | np.ndarray) -> "TokenDistribution":
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise InvalidDistribution("probabilities must be a non-empty 1-d sequence")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise InvalidDistribution("probabilities must be finite and non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidDistribution(f"probabilities sum to {total!r}, expected 1 within {_SUM_TOL}")
        arr = arr.copy()
        arr.flags.writeable = False
        return cls(arr)

    @classmethod
    def from_weights(cls, weights: Sequence[float] | np.ndarray) -> "TokenDistribution":
        """Normalize non-negative weights with positive total into a distribution."""
        arr = np.asarray(weights, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise InvalidDistribution("weights must be a non-empty 1-d sequence")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise InvalidDistribution("weights must be finite and non-negative")
        total = float(arr.sum())
        if total <= 0.0:
            raise InvalidDistribution("weights must have positive total mass")
        out = arr / total
        out.flags.writeable = False
        return cls(out)

    @classmethod
    def point_mass(cls, token: int, vocab_size: int) -> "TokenDistribution":
        if not 0 <= token < vocab_size:
            raise VocabMismatch(f"token {token} outside vocab of size {vocab_size}")
        arr = np.zeros(vocab_size, dtype=np.float64)
        arr[token] = 1.0
        arr.flags.writeable = False
        ids = np.array([token])
        ids.flags.writeable = False
        return cls(arr, ids)

    @classmethod
    def uniform(cls, vocab_size: int) -> "TokenDistribution":
        if vocab_size < 1:
            raise InvalidDistribution("vocab_size must be >= 1")
        arr = np.full(vocab_size, 1.0 / vocab_size, dtype=np.float64)
        arr.flags.writeable = False
        return cls(arr)

    def entry(self, token: int) -> float:
        if not 0 <= token < self.vocab_size:
            raise VocabMismatch(f"token {token} outside vocab of size {self.vocab_size}")
        return float(self.probs[token])

    def positive_ids(self) -> np.ndarray:
        """Ascending ids of the positive entries."""
        return np.flatnonzero(self.probs) if self.ids is None else self.ids

    def support(self) -> frozenset[int]:
        return frozenset(self.positive_ids().tolist())

    def same_values(self, other: "TokenDistribution") -> bool:
        """Bitwise equality of the probability arrays."""
        return self.vocab_size == other.vocab_size and bool(np.array_equal(self.probs, other.probs))


@dataclass(frozen=True)
class SetMetrics:
    """Recall/precision/F1 between two token sets.

    ``recall`` is None when the reference set is empty, ``precision`` is None
    when the candidate set is empty; F1 is 0 whenever either side is zero or
    undefined.
    """

    recall: float | None
    precision: float | None
    f1: float


def _check_same_vocab(p1: TokenDistribution, p2: TokenDistribution) -> None:
    if p1.vocab_size != p2.vocab_size:
        raise VocabMismatch(f"vocab sizes differ: {p1.vocab_size} vs {p2.vocab_size}")


def _positive(p: TokenDistribution) -> np.ndarray:
    """An index of p's positive entries: its recorded ids, else a mask over the vocabulary.

    Both select the same entries in the same order, so sums over them agree
    bit for bit; a mask is the cheaper of the two when most ids are positive.
    """
    return p.probs > 0.0 if p.ids is None else p.ids


def _kl_to_midpoint(p: TokenDistribution, q: TokenDistribution) -> float:
    """KL(p || (p + q) / 2), with the midpoint formed only on p's support.

    The terms are formed in place in the gather of q, a fresh copy, with the
    operations of ``(a * np.log(a / ((a + b) / 2.0))).sum()`` in its order.
    """
    pos = _positive(p)
    a = p.probs[pos]
    m = q.probs[pos]
    m += a
    m /= 2.0
    np.divide(a, m, out=m)
    np.log(m, out=m)
    m *= a
    return float(m.sum())


def jsd(p1: TokenDistribution, p2: TokenDistribution) -> float:
    """Jensen-Shannon distance sqrt(KL(p1||q)/2 + KL(p2||q)/2), q the midpoint.

    Symmetric in its arguments by construction; bounded by sqrt(log 2).
    """
    _check_same_vocab(p1, p2)
    kl_a = _kl_to_midpoint(p1, p2)
    kl_b = _kl_to_midpoint(p2, p1)
    sq = 0.5 * kl_a + 0.5 * kl_b
    # Rounding can push the squared distance a hair below zero.
    return math.sqrt(max(sq, 0.0))


def tvd(p1: TokenDistribution, p2: TokenDistribution) -> float:
    """Total variation distance, half the L1 difference."""
    _check_same_vocab(p1, p2)
    # Rounding can overshoot the mathematical bound of 1 by an ulp.
    return min(1.0, 0.5 * float(np.abs(p1.probs - p2.probs).sum()))


def set_metrics(candidate: Iterable[int], reference: Iterable[int]) -> SetMetrics:
    """Recall/precision/F1 of ``candidate`` against ``reference``.

    Empty operands make the corresponding rate undefined (None) rather than
    raising; F1 degrades to 0 in that case.
    """
    cand = frozenset(candidate)
    ref = frozenset(reference)
    inter = len(cand & ref)
    recall = None if len(ref) == 0 else inter / len(ref)
    precision = None if len(cand) == 0 else inter / len(cand)
    if not recall or not precision:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return SetMetrics(recall=recall, precision=precision, f1=f1)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of y = a * x**(-b) in log-log space.

    ``b_hat`` is the positive decay exponent; ``slope`` is the raw log-log
    slope (-b_hat), which is the sign convention used when reporting.
    """

    a: float
    b_hat: float
    r_squared: float

    @property
    def slope(self) -> float:
        return -self.b_hat


def fit_power_law(points: Sequence[tuple[float, float]]) -> PowerLawFit:
    """Fit y = a * x**(-b) by OLS on (log x, log y).

    Points with y <= 0 are dropped (empty histogram bins carry no
    information in log space). Fewer than two usable points with distinct x
    is an error.
    """
    usable = [(x, y) for x, y in points if y > 0.0]
    if any(x <= 0.0 for x, _ in usable):
        raise InvalidDistribution("x values must be positive for a log-log fit")
    xs = np.array([x for x, _ in usable], dtype=np.float64)
    ys = np.array([y for _, y in usable], dtype=np.float64)
    # A set, not np.unique, whose first call imports numpy.ma.
    if len({float(x) for x, _ in usable}) < 2:
        raise InsufficientData("need at least two usable points with distinct x to fit a power law")
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float((resid**2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(a=float(math.exp(intercept)), b_hat=float(-slope), r_squared=r2)
