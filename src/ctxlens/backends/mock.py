"""Deterministic in-process backends for tests, demos, and benchmarks.

Every mock is referentially transparent: the same tokens always yield the
bitwise-identical distribution. Each keeps a ``calls`` counter so cache and
retry behavior can be asserted against the upstream traffic. The counters
live in memory shared with forked children, so they also count the calls
made in the CLI's worker processes.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import time
import weakref
import zlib
from typing import Sequence

from ..dist import TokenDistribution
from ..errors import BackendError, UsageError
from .base import BackendWrapper, fetch_each


class _PipeLock:
    """A lock that threads and forked children share: one byte in a pipe, read out by the holder.

    ``multiprocessing``'s lock would cost every mock-backed command about 10 ms of imports.
    """

    def __init__(self):
        self._r, self._w = os.pipe()
        os.write(self._w, b"\0")
        for fd in (self._r, self._w):
            weakref.finalize(self, os.close, fd)

    def __enter__(self):
        os.read(self._r, 1)

    def __exit__(self, *exc):
        os.write(self._w, b"\0")


class _SharedCount:
    """An int in an anonymous shared mapping: a forked child's increments reach its parent.

    Increments take a lock that forked children share. Reads take none, so a
    read never waits on a worker process killed while it held the lock (a
    later increment would).
    """

    def __init__(self):
        self._cell = ctypes.c_int64.from_buffer(mmap.mmap(-1, ctypes.sizeof(ctypes.c_int64)))
        self._lock = _PipeLock()

    @property
    def value(self) -> int:
        return self._cell.value

    @value.setter
    def value(self, value: int) -> None:
        with self._lock:
            self._cell.value = value

    def add_one(self) -> int:
        """Count one more and return the new total."""
        with self._lock:
            self._cell.value += 1
            return self._cell.value


class SwitchBackend:
    """Two-regime backend: ``below`` for a context shorter than ``cutoff`` tokens, ``at_or_above`` otherwise."""

    def __init__(
        self,
        cutoff: int | None,
        below: TokenDistribution,
        at_or_above: TokenDistribution,
        eos_token_id: int | None = None,
    ):
        if below.vocab_size != at_or_above.vocab_size:
            raise UsageError("switch backend needs matching vocab sizes")
        self.vocab_size = below.vocab_size
        self.eos_token_id = eos_token_id
        self.cutoff = cutoff
        self.below = below
        self.at_or_above = at_or_above
        self._calls = _SharedCount()

    @property
    def calls(self) -> int:
        return self._calls.value

    def next_token_distribution(self, tokens: tuple[int, ...]) -> TokenDistribution:
        self._calls.add_one()
        return self.at_or_above if len(tokens) >= self.cutoff else self.below


class ConstantBackend(SwitchBackend):
    """Returns the same distribution for every context."""

    def __init__(self, dist: TokenDistribution, eos_token_id: int | None = None):
        super().__init__(0, dist, dist, eos_token_id)


class PlantedDependencyBackend(SwitchBackend):
    """Uniform until the context reaches the planted dependency length.

    Once the presented context has at least ``dependency_length`` tokens the
    answer token gets ``confident_prob`` and the rest share the remainder.
    """

    def __init__(
        self,
        vocab_size: int,
        dependency_length: int,
        answer_token: int,
        confident_prob: float = 0.9,
        eos_token_id: int | None = None,
    ):
        if vocab_size < 2:
            raise UsageError("planted backend needs vocab_size >= 2")
        if not 0.0 < confident_prob < 1.0:
            raise UsageError("confident_prob must be in (0, 1)")
        if not 0 <= answer_token < vocab_size:
            raise UsageError("answer_token outside vocab")
        probs = [(1.0 - confident_prob) / (vocab_size - 1)] * vocab_size
        probs[answer_token] = confident_prob
        below, above = TokenDistribution.uniform(vocab_size), TokenDistribution.from_weights(probs)
        super().__init__(int(dependency_length), below, above, eos_token_id)
        self.dependency_length = self.cutoff
        self.answer_token = int(answer_token)
        self.confident_prob = float(confident_prob)


class PlantedLastTokenBackend(SwitchBackend):
    """Planted dependency whose length is carried by the sequence itself.

    The final token id (which every suffix keeps) is read as the cutoff, so
    one backend can serve a corpus with per-sequence dependency lengths. Its
    two distributions are those of :class:`PlantedDependencyBackend`; it has
    no fixed cutoff.
    """

    def __init__(
        self,
        vocab_size: int,
        answer_token: int,
        confident_prob: float = 0.9,
        eos_token_id: int | None = None,
    ):
        planted = PlantedDependencyBackend(vocab_size, 0, answer_token, confident_prob)
        super().__init__(None, planted.below, planted.at_or_above, eos_token_id)
        self.answer_token = planted.answer_token
        self.confident_prob = planted.confident_prob

    def next_token_distribution(self, tokens: tuple[int, ...]) -> TokenDistribution:
        self._calls.add_one()
        return self.at_or_above if tokens and len(tokens) >= tokens[-1] else self.below


class DelayedBackend(BackendWrapper):
    """Wraps a backend and sleeps per call, optionally per context token.

    A batch sleeps once, as long as its longest context's call would, then
    asks ``inner`` for each context in order: requests in flight together to
    a server with capacity to spare.
    """

    def __init__(self, inner, per_call_s: float = 0.0, per_token_s: float = 0.0):
        super().__init__(inner)
        self.per_call_s = float(per_call_s)
        self.per_token_s = float(per_token_s)

    @property
    def calls(self) -> int:
        return self.inner.calls

    def next_token_distribution(self, tokens: tuple[int, ...]) -> TokenDistribution:
        self._sleep(len(tokens))
        return self.inner.next_token_distribution(tokens)

    def next_token_distributions(self, contexts: list[tuple[int, ...]]) -> list[TokenDistribution]:
        if contexts:
            self._sleep(max(map(len, contexts)))
        return fetch_each(self.inner.next_token_distribution, contexts)

    def _sleep(self, n_tokens: int) -> None:
        delay = self.per_call_s + self.per_token_s * n_tokens
        if delay > 0:
            time.sleep(delay)


class FlakyBackend(BackendWrapper):
    """Wraps a backend and fails deterministically, for retry and flush tests.

    ``fail_first`` makes the first n calls raise (the transient-failure
    shape); ``fail_after`` makes every call past the first n raise (the
    mid-run outage shape). It has no batch member: its attempt counter is per
    context, so a batch reaches it one context at a time.
    """

    def __init__(self, inner, fail_first: int = 0, fail_after: int | None = None):
        super().__init__(inner)
        self.fail_first = int(fail_first)
        self.fail_after = fail_after
        self._attempts = _SharedCount()

    @property
    def attempts(self) -> int:
        return self._attempts.value

    @attempts.setter
    def attempts(self, value: int) -> None:
        self._attempts.value = value

    def next_token_distribution(self, tokens: tuple[int, ...]) -> TokenDistribution:
        n = self._attempts.add_one()
        if n <= self.fail_first:
            raise BackendError(f"injected failure on call {n}", attempts=1)
        if self.fail_after is not None and n > self.fail_after:
            raise BackendError(f"injected outage after {self.fail_after} calls", attempts=1)
        return self.inner.next_token_distribution(tokens)


class MockTokenizer:
    """Deterministic text <-> token mapping for mock-backed runs.

    Words hash into the vocab; runs of digits become one token per digit so
    numeric answers keep their per-digit structure. Not invertible:
    detokenize emits placeholder words.
    """

    def __init__(self, vocab_size: int):
        self.vocab_size = int(vocab_size)

    def tokenize(self, text: str) -> list[int]:
        out: list[int] = []
        for word in text.split():
            if word.isdigit():
                out.extend(int(ch) % self.vocab_size for ch in word)
            else:
                out.append(zlib.crc32(word.encode("utf-8")) % self.vocab_size)
        return out

    def detokenize(self, tokens: Sequence[int]) -> str:
        return " ".join(f"t{int(t)}" for t in tokens)


def parse_kv(text: str) -> dict[str, str]:
    """The comma-separated ``key=value`` parameters of a backend spec."""
    out: dict[str, str] = {}
    for part in text.split(","):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise UsageError(f"bad backend parameter {part!r}, expected key=value")
        out[key.strip()] = value.strip()
    return out


def pop_number(kv: dict[str, str], key: str, kind: type, default):
    """Remove ``key`` from ``kv`` and convert its value with ``kind`` (int or float); ``default`` if absent."""
    if key not in kv:
        return default
    value = kv.pop(key)
    try:
        return kind(value)
    except ValueError:
        raise UsageError(f"backend parameter {key!r} must be {kind.__name__}, got {value!r}") from None


def parse_mock_spec(spec: str):
    """Build a mock backend from a CLI spec like ``planted:d=40,answer=5,vocab=50``.

    Supported kinds: ``planted``, ``planted_last``, ``uniform``. Optional
    keys on any kind: ``eos`` (token id), ``latency_ms`` and
    ``token_latency_us`` (wraps the mock in a delay). ``vocab`` must be at
    least 2 for the planted kinds and 1 for ``uniform``; ``latency_ms`` must
    lie in [0, 3.6e6] (an hour) and ``token_latency_us`` in [0, 1e6] (a second).
    """
    kind, _, rest = spec.partition(":")
    if kind not in ("planted", "planted_last", "uniform"):
        raise UsageError(f"unknown mock backend kind {kind!r}")
    kv = parse_kv(rest)
    vocab = pop_number(kv, "vocab", int, 64)
    least_vocab = 1 if kind == "uniform" else 2
    if vocab < least_vocab:
        raise UsageError(f"backend parameter 'vocab' must be >= {least_vocab}, got {vocab}")
    eos = pop_number(kv, "eos", int, None)
    latency_ms = pop_number(kv, "latency_ms", float, 0.0)
    token_latency_us = pop_number(kv, "token_latency_us", float, 0.0)
    # An hour per call and a second per token keep every delay within what time.sleep takes.
    for key, value, most in (("latency_ms", latency_ms, 3.6e6), ("token_latency_us", token_latency_us, 1e6)):
        if not 0.0 <= value <= most:  # NaN fails too
            raise UsageError(f"backend parameter {key!r} must lie in [0, {most:g}], got {value!r}")

    if kind == "planted":
        backend = PlantedDependencyBackend(
            vocab_size=vocab,
            dependency_length=pop_number(kv, "d", int, 40),
            answer_token=pop_number(kv, "answer", int, 1),
            confident_prob=pop_number(kv, "conf", float, 0.9),
            eos_token_id=eos,
        )
    elif kind == "planted_last":
        backend = PlantedLastTokenBackend(
            vocab_size=vocab,
            answer_token=pop_number(kv, "answer", int, 1),
            confident_prob=pop_number(kv, "conf", float, 0.9),
            eos_token_id=eos,
        )
    else:
        backend = ConstantBackend(TokenDistribution.uniform(vocab), eos_token_id=eos)
    if kv:
        raise UsageError(f"unknown mock parameters: {', '.join(sorted(kv))}")
    if latency_ms > 0 or token_latency_us > 0:
        return DelayedBackend(backend, per_call_s=latency_ms / 1e3, per_token_s=token_latency_us / 1e6)
    return backend
