"""Backend protocol: anything that maps a token sequence to a next-token distribution."""

from __future__ import annotations

from array import array
from typing import Callable, Protocol, Sequence, runtime_checkable

from ..dist import TokenDistribution
from ..errors import BackendError, SequenceTooShort


@runtime_checkable
class Backend(Protocol):
    """The model as an oracle: the context shown to it in, the next-token distribution out.

    A backend may also have ``next_token_distributions(contexts)``, which takes a list of
    contexts and returns, in input order, the distributions ``next_token_distribution``
    would, with the requests in flight together. A ``BackendError`` from it carries the
    distributions fetched before the failed context as ``fetched``, so ``batch_index`` is the
    failed context's position. ``prefix_distributions`` uses the member when it is there and
    makes one call per context otherwise.
    """

    vocab_size: int
    eos_token_id: int | None

    def next_token_distribution(self, tokens: tuple[int, ...]) -> TokenDistribution: ...


@runtime_checkable
class Tokenizer(Protocol):
    def tokenize(self, text: str) -> list[int]: ...

    def detokenize(self, tokens: Sequence[int]) -> str: ...


class BackendWrapper:
    """Base for a backend in front of another one; forwards ``inner``'s metadata."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def vocab_size(self) -> int:
        return self.inner.vocab_size

    @property
    def eos_token_id(self):
        return self.inner.eos_token_id


def fetch_each(
    fetch: Callable[[tuple[int, ...]], TokenDistribution], contexts: Sequence[tuple[int, ...]]
) -> list[TokenDistribution]:
    """``fetch`` of each context, one at a time, in order; a ``BackendError`` carries those ``fetched``."""
    out: list[TokenDistribution] = []
    try:
        for tokens in contexts:
            out.append(fetch(tokens))
    except BackendError as err:
        err.fetched = out
        raise
    return out


def prefix_distribution(s: Sequence[int], ell: int, backend: Backend) -> TokenDistribution:
    """Next-token distribution conditioned on the final ``ell`` tokens of ``s``."""
    return backend.next_token_distribution(_suffix(s, ell))


def prefix_distributions(s: Sequence[int], ells: Sequence[int], backend: Backend) -> list[TokenDistribution]:
    """``prefix_distribution`` of each length in ``ells``, in order, with the requests in flight together.

    The backend's ``next_token_distributions`` gets every context at once; a backend without
    that member gets one call per context, in order.
    """
    return distributions(backend, [_suffix(s, ell) for ell in ells])


def distributions(backend: Backend, contexts: list[tuple[int, ...]]) -> list[TokenDistribution]:
    """``backend``'s distributions of ``contexts``, in order: one batch if it can, else one call each."""
    batch = getattr(backend, "next_token_distributions", None)
    if batch is None:
        return fetch_each(backend.next_token_distribution, contexts)
    return batch(contexts)


def _suffix(s: Sequence[int], ell: int) -> tuple[int, ...]:
    """The final ``ell`` tokens of ``s`` as the tuple of ints a backend takes."""
    n = len(s)
    if not 1 <= ell <= n:
        raise SequenceTooShort(f"prefix length {ell} outside [1, {n}]")
    tail = s[n - ell :]
    if isinstance(tail, array) and tail.typecode == "i":
        return tuple(tail.tolist())  # the library's token type converts in one C call
    return tuple(int(t) for t in tail)
