"""Backend protocol: anything that maps a token sequence to a next-token distribution."""

from __future__ import annotations

from array import array
from typing import Protocol, Sequence, runtime_checkable

from ..dist import TokenDistribution
from ..errors import SequenceTooShort


@runtime_checkable
class Backend(Protocol):
    """The model as an oracle: the context shown to it in, the next-token distribution out."""

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


def prefix_distribution(s: Sequence[int], ell: int, backend: Backend) -> TokenDistribution:
    """Next-token distribution conditioned on the final ``ell`` tokens of ``s``."""
    n = len(s)
    if not 1 <= ell <= n:
        raise SequenceTooShort(f"prefix length {ell} outside [1, {n}]")
    tail = s[n - ell :]
    if isinstance(tail, array) and tail.typecode == "i":
        suffix = tuple(tail.tolist())  # the library's token type converts in one C call
    else:
        suffix = tuple(int(t) for t in tail)
    return backend.next_token_distribution(suffix)
