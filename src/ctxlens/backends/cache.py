"""Memo of next-token distributions for one unit of work, keyed on the exact token suffix."""

from __future__ import annotations

from ..dist import TokenDistribution
from .base import BackendWrapper


class CachedBackend(BackendWrapper):
    """Each distinct suffix reaches ``inner`` once for as long as the memo lives.

    A memo serves one unit of work (one sequence, or one prompt's samples):
    create it when the unit starts and drop it when the unit is done, so it
    holds only that unit's distributions and needs no bound. A memo is used
    by one thread only, so it takes no lock. Distributions are immutable, so
    a repeat returns the same object the upstream produced.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self._store: dict[tuple[int, ...], TokenDistribution] = {}

    def next_token_distribution(self, tokens: tuple[int, ...]) -> TokenDistribution:
        dist = self._store.get(tokens)
        if dist is None:
            dist = self._store[tokens] = self.inner.next_token_distribution(tokens)
        return dist
