"""Memo of next-token distributions for one unit of work, keyed on the exact token suffix."""

from __future__ import annotations

from ..dist import TokenDistribution
from ..errors import BackendError
from .base import BackendWrapper, distributions


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

    A batch forwards the contexts the memo does not hold, each once, in
    first-seen order, as one batch, or one at a time if ``inner`` has no
    batch member.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self._store: dict[tuple[int, ...], TokenDistribution] = {}
        self.longest_kept = float("inf")

    def next_token_distribution(self, tokens: tuple[int, ...]) -> TokenDistribution:
        dist = self._store.get(tokens)
        if dist is None:
            dist = self.inner.next_token_distribution(tokens)
            self._keep(tokens, dist)
        return dist

    def next_token_distributions(self, contexts: list[tuple[int, ...]]) -> list[TokenDistribution]:
        out = [self._store.get(tokens) for tokens in contexts]
        # A list, not a dict: a batch holds a few contexts, and telling tuples of different
        # lengths apart costs less than hashing a long context a second time.
        unseen: list[tuple[int, ...]] = []  # each context not held, once, in first-seen order
        for tokens, dist in zip(contexts, out):
            if dist is None and tokens not in unseen:
                unseen.append(tokens)
        if not unseen:
            return out
        try:
            dists = distributions(self.inner, unseen)
        except BackendError as err:
            if err.fetched is not None:
                # Keep what arrived, as single calls would have, and report it in the caller's order.
                failed = contexts.index(unseen[len(err.fetched)])
                err.fetched = self._fill(contexts[:failed], out[:failed], unseen, err.fetched)
            raise
        return self._fill(contexts, out, unseen, dists)

    def _fill(self, contexts, out, unseen, dists) -> list[TokenDistribution]:
        """Keep ``dists``, the distributions of ``unseen``, and put them in the gaps of ``out``."""
        for tokens, dist in zip(unseen, dists):
            self._keep(tokens, dist)
        for i, dist in enumerate(out):
            if dist is None:
                out[i] = dists[unseen.index(contexts[i])]
        return out

    def _keep(self, tokens: tuple[int, ...], dist: TokenDistribution) -> None:
        if len(tokens) <= self.longest_kept:
            self._store[tokens] = dist
