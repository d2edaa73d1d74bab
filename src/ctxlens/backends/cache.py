"""Memo of next-token distributions for one unit of work, keyed on the exact token suffix."""

from __future__ import annotations

from ..dist import TokenDistribution
from .base import BackendWrapper


class CachedBackend(BackendWrapper):
    """Each distinct suffix the memo keeps reaches ``inner`` once for as long as the memo lives.

    A memo serves one unit of work (one sequence, or one prompt's samples):
    create it when the unit starts and drop it when the unit is done, so it
    holds only that unit's distributions and needs no bound. A memo is used
    by one thread only, so it takes no lock. Distributions are immutable, so
    a repeat returns the same object the upstream produced.

    A unit that will not ask again for contexts longer than some length
    lowers ``longest_kept`` to it, so that the memo holds only vocab-sized
    distributions (1 MiB at V=131072) that the unit can ask for again.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self._store: dict[tuple[int, ...], TokenDistribution] = {}
        self.longest_kept = float("inf")

    def next_token_distribution(self, tokens: tuple[int, ...]) -> TokenDistribution:
        dist = self._store.get(tokens)
        if dist is None:
            dist = self.inner.next_token_distribution(tokens)
            if len(tokens) <= self.longest_kept:
                self._store[tokens] = dist
        return dist
