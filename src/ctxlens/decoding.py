"""Decoding strategies: truncate-and-renormalize transforms of a distribution.

A strategy keeps a subset of tokens (greedy keeps the argmax, top-k the k
most probable, nucleus the smallest probability-sorted prefix covering mass
p, adaptive every token with probability >= its threshold) and renormalizes
the kept entries. Ties are always broken toward the lower token id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import TokenDistribution
from .errors import StrategyError, VocabMismatch

STRATEGY_KINDS = ("greedy", "top_k", "nucleus", "adaptive")

#: First chunk of the partial scans in ``_keep_largest`` and ``_nucleus_size``; each next chunk doubles.
_CHUNK = 256

#: ``_nucleus_size`` brackets its cut with sums of blocks this long. On a flat V=32768 vector the
#: cut's sequential sums then cover 512 entries: the first chunk, 128 block sums and one block.
_BLOCK = 128

#: Allowed gap between two orders of summing k entries of sum S, per entry and unit of S: 4u, u = 2**-53.
_SUM_ERR = 2.0**-51

#: A decoded distribution records its positive ids when it keeps at most 1/_SPARSE_SHARE of the
#: vocabulary. Above that, gathers by id cost more than the boolean masks they replace.
_SPARSE_SHARE = 4


@dataclass(frozen=True)
class DecodingStrategy:
    """A named truncation rule plus its single parameter.

    Text form round-trips through :meth:`parse` / :meth:`token`:
    ``greedy``, ``topk:5``, ``nucleus:0.9``, ``adaptive:0.001``.
    """

    kind: str
    k: int | None = None
    p: float | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise StrategyError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "top_k":
            if self.k is None or self.k < 1:
                raise StrategyError("top_k needs k >= 1")
        elif self.kind == "nucleus":
            if self.p is None or not 0.0 < self.p <= 1.0:
                raise StrategyError("nucleus needs p in (0, 1]")
        elif self.kind == "adaptive":
            if self.eps is None or not 0.0 < self.eps < 1.0:
                raise StrategyError("adaptive needs eps in (0, 1)")

    @classmethod
    def greedy(cls) -> "DecodingStrategy":
        return cls("greedy")

    @classmethod
    def top_k(cls, k: int) -> "DecodingStrategy":
        return cls("top_k", k=int(k))

    @classmethod
    def nucleus(cls, p: float = 0.9) -> "DecodingStrategy":
        return cls("nucleus", p=float(p))

    @classmethod
    def adaptive(cls, eps: float = 0.001) -> "DecodingStrategy":
        return cls("adaptive", eps=float(eps))

    @classmethod
    def parse(cls, text: str) -> "DecodingStrategy":
        head, sep, arg = text.strip().partition(":")
        try:
            if head == "greedy":
                if sep:
                    raise StrategyError("greedy takes no parameter")
                return cls.greedy()
            if head == "topk":
                return cls.top_k(int(arg))
            if head == "nucleus":
                return cls.nucleus(float(arg))
            if head == "adaptive":
                return cls.adaptive(float(arg))
        except ValueError as exc:
            raise StrategyError(f"bad strategy parameter in {text!r}") from exc
        raise StrategyError(f"unknown strategy {text!r}")

    def token(self) -> str:
        if self.kind == "greedy":
            return "greedy"
        if self.kind == "top_k":
            return f"topk:{self.k}"
        if self.kind == "nucleus":
            return f"nucleus:{self.p:g}"
        return f"adaptive:{self.eps:g}"


def _keep_largest(probs: np.ndarray, desc: np.ndarray) -> TokenDistribution:
    """Keep the ``len(desc)`` largest entries of ``probs`` and renormalize.

    ``desc`` holds their values in descending order. Every id above the cut
    value is kept, plus the lowest ids tied at it. The kept mass is summed in
    descending order, so ties and rounding match a sort by (-prob, id).
    """
    cut = desc[-1]
    keep = probs > cut
    tied = probs == cut
    need = len(desc) - np.count_nonzero(keep)
    # The lowest `need` tied ids are kept. Count tied ids in growing chunks up
    # to the one holding the last kept id, and list ids in that chunk only.
    start, size = 0, _CHUNK
    while (found := np.count_nonzero(tied[start : start + size])) < need:
        need -= found
        start += size
        size *= 2
    stop = start + int(np.flatnonzero(tied[start : start + size])[need - 1]) + 1
    keep[:stop] |= tied[:stop]
    ids = None
    if _SPARSE_SHARE * len(desc) <= len(probs):
        out = np.zeros(len(probs))
        ids = np.flatnonzero(keep)
        out[ids] = probs[ids] / desc.sum()
        ids = ids[out[ids] > 0.0]  # a cut at zero keeps zero entries
        ids.flags.writeable = False
    else:
        # Zeroing by a multiply costs the same for any mask; a masked divide slows on scattered ones.
        out = np.divide(probs, desc.sum())
        out *= keep
    out.flags.writeable = False
    return TokenDistribution(out, ids)


def _nucleus_size(desc: np.ndarray, p: float) -> int:
    """Length of the shortest prefix of ``desc`` whose running sum reaches ``p``.

    That is the first i with ``np.cumsum(desc)[i - 1] >= p``, or
    ``len(desc)`` when rounding leaves the whole running sum short of p = 1.

    The first ``_CHUNK`` entries are summed with ``np.cumsum``, so a peaked
    distribution gets its exact answer there. Past them, ranges that double
    in size are summed pairwise until the total reaches p. A running sum of
    that range's ``_BLOCK``-entry block sums finds the block where the sum
    reaches p, and ``np.cumsum`` runs over that block only. These sums add
    the same entries as ``np.cumsum`` in another order, so they estimate
    its running sum rather than repeat it.

    Each floating-point addition of non-negative terms errs by at most u =
    2**-53 of its result, so any order of summing k of them lands within
    (k-1)u/(1-(k-1)u) of their exact sum S (Higham, *Accuracy and Stability
    of Numerical Algorithms*, ch. 4), and two orders within about 2·k·u·S
    of each other. The bound below is twice that, ``_SUM_ERR`` · k · S with
    k the end of the range and S its estimated total, which also covers the
    rounding of the bound and of p ± bound. The block's crossing i is
    accepted only when the estimate at i is at least p + bound and the one
    at i - 1 is below p - bound: then ``np.cumsum`` reaches p at i and not
    before, as its running sum never decreases. Otherwise p lies within the
    bound of an estimate, or no estimate reaches it, and the answer comes
    from ``np.cumsum`` over the whole of ``desc``. Either way it is the
    sequential sum's answer, bit for bit.
    """
    n = len(desc)
    head = np.cumsum(desc[:_CHUNK])
    j = int(head.searchsorted(p, side="left"))
    if j < len(head) or n == len(head):
        return min(j + 1, n)
    reached, start, size = float(head[-1]), _CHUNK, 2 * _CHUNK  # reached estimates the sum of desc[:start]
    while True:
        stop = min(start + size, n)
        total = reached + float(desc[start:stop].sum())
        if total >= p or stop == n:
            break
        reached, start, size = total, stop, 2 * size
    bound = _SUM_ERR * stop * total
    ends = np.add.reduceat(desc[start:stop], np.arange(0, stop - start, _BLOCK))  # block sums
    ends[0] += reached
    np.cumsum(ends, out=ends)  # ends[b] estimates the sum of desc up to the end of block b
    b = int(ends.searchsorted(p, side="left"))
    lo = start + b * _BLOCK
    before = reached if b == 0 else float(ends[b - 1])
    run = np.cumsum(desc[lo : min(lo + _BLOCK, stop)])  # empty if no block sum reaches p
    run += before
    i = int(run.searchsorted(p, side="left"))
    if i < len(run) and run[i] >= p + bound and (run[i - 1] if i else before) < p - bound:
        return lo + i + 1
    return min(int(np.cumsum(desc).searchsorted(p, side="left")) + 1, n)


def apply_strategy(dist: TokenDistribution, strategy: DecodingStrategy) -> TokenDistribution:
    """Truncate ``dist`` per ``strategy`` and renormalize the kept entries."""
    probs = dist.probs
    if strategy.kind == "greedy":
        return TokenDistribution.point_mass(top1(dist), dist.vocab_size)
    desc = np.sort(probs)[::-1]  # values only, in descending order
    if strategy.kind == "top_k":
        n = min(strategy.k, dist.vocab_size)
    elif strategy.kind == "nucleus":
        n = _nucleus_size(desc, strategy.p)
    else:
        # adaptive: every token with probability >= eps, at least the argmax
        n = max(int(np.count_nonzero(probs >= strategy.eps)), 1)
    return _keep_largest(probs, desc[:n])


def top1(dist: TokenDistribution) -> int:
    """Most probable token id, lowest id on ties."""
    return int(np.argmax(dist.probs))


def confidence(dist: TokenDistribution) -> float:
    """Gap between the two largest probabilities."""
    if dist.vocab_size < 2:
        raise VocabMismatch("confidence needs a vocab of at least 2")
    probs = dist.probs
    i = int(np.argmax(probs))
    second = max(probs[:i].max(initial=0.0), probs[i + 1 :].max(initial=0.0))
    return float(probs[i] - second)


def sample(dist: TokenDistribution, rng_seed: int) -> int:
    """Draw one token by inverse CDF in token-id order.

    Uses a counter-based generator keyed on ``rng_seed``, so the same
    (distribution, seed) pair always yields the same token.
    """
    gen = np.random.Generator(np.random.Philox(key=rng_seed))
    u = gen.random()
    # Zeros add nothing to the running sum, so the recorded positive entries
    # alone pick the same token as the whole vocabulary.
    probs = dist.probs if dist.ids is None else dist.probs[dist.ids]
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    if idx >= len(probs) or probs[idx] == 0.0:
        # u landed past the last positive entry through rounding
        idx = int(np.flatnonzero(probs)[-1])
    return idx if dist.ids is None else int(dist.ids[idx])


def derive_seed(*parts: int) -> int:
    """Mix integers into a fresh seed; used to split one run seed per draw."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])
