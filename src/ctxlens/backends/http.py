"""HTTP backends.

Native wire protocol (one model server, three POST routes):

* ``{base}/v1/next_logprobs``  body ``{"tokens": [int, ...], "top": int | "full"}``
  response ``{"logprobs": [{"id": int, "logprob": float}, ...], "vocab_size": int}``
* ``{base}/v1/tokenize``      body ``{"text": str}``    response ``{"tokens": [int, ...]}``
* ``{base}/v1/detokenize``    body ``{"tokens": [...]}`` response ``{"text": str}``

When the server returns only the top entries, the residual probability mass
is spread uniformly over the ids it did not return, so the completed
distribution sums to one.

A ``next_logprobs`` body is decoded straight into its id and logprob columns
when its entry list has one of the two layouts Python's ``json`` emits: the
``json.dumps`` default, ``{"id": 0, "logprob": -1.2}`` entries joined by
``", "``, or the compact form FastAPI and Starlette send,
``{"id":0,"logprob":-1.2}`` joined by ``","``. Any other valid JSON is still
accepted and parsed whole, with the same columns and the same errors.

Responses must be RFC 8259 JSON, parsed with ``orjson``. The literals
``NaN``, ``Infinity`` and ``-Infinity`` are not JSON, so a response that
carries them is retried like any other unparsable body and then ends in
:class:`BackendError`. A server omits zero-probability ids instead of
sending a logprob of ``-Infinity``; the residual rule covers them.
Probabilities are ``np.exp`` of the logprobs, which can differ from
``math.exp`` in the last digit.

The client is ``http.client`` over keep-alive connections, one per request in
flight: at most two, the largest batch a unit sends. ``next_token_distributions``
sends each request of a batch on its own connection before it reads any reply,
then reads and decodes the replies one at a time, in order, so that one reply
body is in memory at a time. A backend serves one thread; programs parallelise
with processes, and a forked child closes the connections it inherited and
opens its own. The client reads no proxy environment
variables, follows no redirects (a 3xx ends in :class:`BackendError`), asks
for identity encoding only and sends no credentials embedded in the URL.
HTTPS verifies against the system trust store through
``ssl.create_default_context()``.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import ssl
import time
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence, TypeVar
from urllib.parse import urlsplit

import numpy as np
import orjson

from ..dist import TokenDistribution
from ..errors import BackendError

_BACKOFF_S = (0.1, 0.2, 0.4)
_ATTEMPTS = 4  # per request; a retry past the end of _BACKOFF_S waits its last entry

_T = TypeVar("_T")


@dataclass(frozen=True)
class BackendEndpoint:
    """Where and how to talk to a model server."""

    base_url: str
    timeout_s: float = 30.0
    top: int | str = "full"  # how many logprob entries to request

    def __post_init__(self):
        if isinstance(self.top, str) and self.top != "full":
            raise ValueError("top must be an integer or 'full'")
        if isinstance(self.top, int) and self.top < 1:
            raise ValueError("top must be >= 1")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url {self.base_url!r} needs an http:// or https:// scheme and a host")
        url.port  # raises ValueError on a malformed port


def complete_distribution(ids: np.ndarray, logprobs: np.ndarray, vocab_size: int) -> TokenDistribution:
    """Turn parallel columns of token ids and logprobs into a full distribution.

    Residual mass 1 - sum(exp(logprob)) is spread uniformly over ids that
    did not appear. An id listed twice, or a completed vector whose total is
    not finite or strays from 1 by more than 1e-6, means the server reported
    inconsistent logprobs. Otherwise the vector is divided by that total in
    place, which gives the bits ``TokenDistribution.from_weights`` would
    without its checks and its copy: the entries are finite and non-negative
    once the total is. The caller's arrays are left as they are.
    """
    return _complete(np.asarray(ids, dtype=np.int64), np.array(logprobs, dtype=np.float64), vocab_size)


def _complete(ids: np.ndarray, logprobs: np.ndarray, vocab_size: int) -> TokenDistribution:
    """``complete_distribution`` of columns no one else holds: ``logprobs`` is exponentiated in place."""
    if ids.shape != logprobs.shape or ids.ndim != 1:
        raise BackendError(f"token ids {ids.shape} and logprobs {logprobs.shape} do not pair up")
    outside = (ids < 0) | (ids >= vocab_size)
    if outside.any():
        raise BackendError(f"server returned token id {ids[outside][0]} outside vocab {vocab_size}")
    seen = np.zeros(vocab_size, dtype=bool)
    seen[ids] = True
    listed = int(np.count_nonzero(seen))
    if listed < len(ids):
        raise BackendError(f"server returned token id {np.flatnonzero(np.bincount(ids) > 1)[0]} more than once")
    with np.errstate(over="ignore"):  # an overflow is caught by the total check below
        np.exp(logprobs, out=logprobs)
    probs = np.zeros(vocab_size, dtype=np.float64)
    probs[ids] = logprobs
    residual = 1.0 - float(probs.sum())
    missing = vocab_size - listed
    if missing > 0 and residual > 0.0:
        probs[~seen] = residual / missing
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-6:  # also rejects NaN and infinite totals
        raise BackendError(f"completed distribution sums to {total!r}, server logprobs inconsistent")
    probs /= total
    probs.flags.writeable = False
    return TokenDistribution(probs)


class _ServerBusy(http.client.HTTPException):
    """A 429 or 5xx reply, retried with backoff; ``retry_after`` is the server's numeric wait."""

    def __init__(self, status: int, retry_after: float | None):
        super().__init__(f"server error {status}")
        self.status = status
        self.retry_after = retry_after

    def __reduce__(self):
        # Rebuilt from its own arguments, so a BackendError caused by it crosses a process boundary.
        return type(self), (self.status, self.retry_after)


class _HttpBase:
    """Connections, retries and batches of a model server client.

    A subclass names its distribution route ``_ROUTE``, builds a context's request with
    ``_body`` and reads a reply into a distribution with ``_read_distribution``.
    """

    def __init__(self, endpoint: BackendEndpoint):
        self.endpoint = endpoint
        self.eos_token_id: int | None = None
        url = urlsplit(endpoint.base_url)
        self._prefix = url.path.rstrip("/")
        if url.scheme == "https":
            context = ssl.create_default_context()
            self._connect = lambda: http.client.HTTPSConnection(
                url.hostname, url.port, timeout=endpoint.timeout_s, context=context
            )
        else:
            self._connect = lambda: http.client.HTTPConnection(
                url.hostname, url.port, timeout=endpoint.timeout_s
            )
        self._idle: list[http.client.HTTPConnection] = []  # keep-alive connections between requests
        self._owner_pid = os.getpid()  # the process whose sockets ``_idle`` holds
        self._vocab_size: int | None = None

    @property
    def vocab_size(self) -> int:
        if self._vocab_size is None:
            raise BackendError("vocab size unknown until the first server response")
        return self._vocab_size

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _checkout(self) -> http.client.HTTPConnection:
        """The last idle connection the server has not closed, or a new one."""
        if self._owner_pid != os.getpid():
            # A forked child shares its parent's sockets; a request on one would mix its reply
            # with the parent's or a sibling worker's. The child closes its copies unused.
            self.close()
            self._owner_pid = os.getpid()
        while self._idle:
            conn = self._idle.pop()
            if not _closed_by_peer(conn):
                return conn
            conn.close()
        return self._connect()

    def _send(self, route: str, body: bytes) -> http.client.HTTPConnection:
        """Send one request on an idle or a new connection; ``_receive`` reads its reply."""
        conn = self._checkout()
        try:
            conn.request("POST", self._prefix + route, body, {"Content-Type": "application/json"})
        except BaseException:
            conn.close()
            raise
        return conn

    def _receive(self, conn: http.client.HTTPConnection) -> tuple[http.client.HTTPResponse, bytes]:
        """The response to the request sent on ``conn`` and its whole body; ``conn`` is kept if it can be."""
        try:
            resp = conn.getresponse()
            raw = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            self._idle.append(conn)
        return resp, raw

    def _post(
        self, route: str, body: bytes, read: Callable[[bytes], _T],
        sent: http.client.HTTPConnection | Exception | None = None,
    ) -> _T:
        """POST the JSON ``body`` and return ``read`` of the response body.

        Transport errors, 429, 5xx and bodies ``read`` cannot parse (it raises
        ``orjson.JSONDecodeError``) are retried with backoff, or after a longer
        numeric ``Retry-After`` of a 429 or 503 (at most ``timeout_s``); other
        statuses and other errors raised by ``read`` are not. A batch that
        already sent the request passes its connection, or the error that
        sending raised, as ``sent``: that send is attempt 1.
        """
        url = self.endpoint.base_url.rstrip("/") + route
        last: Exception | None = None
        for attempts in range(1, _ATTEMPTS + 1):
            try:
                conn, sent = sent, None
                if isinstance(conn, Exception):
                    raise conn
                resp, raw = self._receive(conn or self._send(route, body))
                if resp.status >= 500 or resp.status == 429:
                    raise _ServerBusy(resp.status, _retry_after(resp))
                if resp.status != 200:
                    text = raw.decode("utf-8", "replace")[:200]
                    raise BackendError(f"{url} returned {resp.status}: {text}", attempts=attempts)
                return read(raw)
            except (OSError, http.client.HTTPException, orjson.JSONDecodeError) as exc:
                last = exc
                if attempts < _ATTEMPTS:
                    delay = _BACKOFF_S[min(attempts, len(_BACKOFF_S)) - 1]
                    if isinstance(exc, _ServerBusy) and exc.retry_after is not None:
                        delay = max(delay, min(exc.retry_after, self.endpoint.timeout_s))
                    time.sleep(delay)
        raise BackendError(f"{url} failed after {attempts} attempts: {last}", attempts=attempts, cause=last)

    def next_token_distributions(self, contexts: list[tuple[int, ...]]) -> list[TokenDistribution]:
        """``next_token_distribution`` of each context, with every request sent before any reply is read.

        Each request goes out on its own connection. The replies are then read and parsed one
        at a time, in order, so that one reply body is in memory at a time. A reply that fails
        goes on alone through ``_post``'s retries. A ``BackendError`` carries the distributions
        read before it as ``fetched``, and the connections of the replies not yet read are closed.
        """
        bodies = [self._body(tokens) for tokens in contexts]
        pending: deque[http.client.HTTPConnection | Exception] = deque()
        out: list[TokenDistribution] = []
        try:
            for body in bodies:
                try:
                    pending.append(self._send(self._ROUTE, body))
                except (OSError, http.client.HTTPException) as exc:
                    pending.append(exc)
            for body in bodies:
                out.append(self._post(self._ROUTE, body, self._read_distribution, pending.popleft()))
        except BackendError as err:
            err.fetched = out
            raise
        finally:
            for conn in pending:
                if not isinstance(conn, Exception):
                    conn.close()
        return out


def _closed_by_peer(conn: http.client.HTTPConnection) -> bool:
    """True if an idle connection's socket is readable: the server closed it (or sent stray bytes)."""
    if conn.sock is None:
        return True
    with selectors.DefaultSelector() as sel:
        sel.register(conn.sock, selectors.EVENT_READ)
        return bool(sel.select(0))


def _retry_after(resp: http.client.HTTPResponse) -> float | None:
    """The seconds of a numeric ``Retry-After`` on a 429 or 503; None for an HTTP date or none."""
    value = (resp.getheader("Retry-After") or "").strip()
    if resp.status in (429, 503) and value.isascii() and value.isdigit():
        return float(value)
    return None


class HttpBackend(_HttpBase):
    """Client for the native next-logprobs protocol, including tokenize routes."""

    _ROUTE = "/v1/next_logprobs"

    def next_token_distribution(self, tokens: tuple[int, ...]) -> TokenDistribution:
        return self._post(self._ROUTE, self._body(tokens), self._read_distribution)

    def _body(self, tokens: tuple[int, ...]) -> bytes:
        return _json({"tokens": list(tokens), "top": self.endpoint.top})

    def _read_distribution(self, raw: bytes) -> TokenDistribution:
        vocab, eos, ids, logprobs = _decode_next_logprobs(raw)
        self._vocab_size = vocab
        if eos is not None:
            self.eos_token_id = eos
        return _complete(ids, logprobs, vocab)

    def tokenize(self, text: str) -> list[int]:
        return self._post(
            "/v1/tokenize", _json({"text": text}), lambda raw: [int(t) for t in orjson.loads(raw)["tokens"]]
        )

    def detokenize(self, tokens: Sequence[int]) -> str:
        body = _json({"tokens": [int(t) for t in tokens]})
        return self._post("/v1/detokenize", body, lambda raw: str(orjson.loads(raw)["text"]))


class OpenAICompatBackend(_HttpBase):
    """Adapter for OpenAI-style completion servers that echo prompt logprobs.

    Sends a one-token completion request with ``logprobs`` and reads the top
    logprobs of the next position. The server must accept a token-id prompt
    and key ``top_logprobs`` by token id; the vocab size is not discoverable
    over this API, so it is required up front.
    """

    _ROUTE = "/v1/completions"

    def __init__(self, endpoint: BackendEndpoint, model: str, vocab_size: int):
        super().__init__(endpoint)
        self.model = model
        self._vocab_size = int(vocab_size)

    def next_token_distribution(self, tokens: tuple[int, ...]) -> TokenDistribution:
        return self._post(self._ROUTE, self._body(tokens), self._read_distribution)

    def _body(self, tokens: tuple[int, ...]) -> bytes:
        top = self.endpoint.top
        return _json({
            "model": self.model,
            "prompt": list(tokens),
            "max_tokens": 1,
            "temperature": 0,
            "logprobs": self._vocab_size if top == "full" else int(top),
            "echo": False,
        })

    def _read_distribution(self, raw: bytes) -> TokenDistribution:
        ids, logprobs = _read_top_logprobs(orjson.loads(raw))
        return _complete(ids, logprobs, self._vocab_size)


def _json(payload: dict) -> bytes:
    """The request body: ``json.dumps`` of ``payload``, which must hold no NaN or infinity."""
    return json.dumps(payload, allow_nan=False).encode()


# The two entry-list layouts that get the columnar decode: ``json.dumps``'s
# default and its compact form, which FastAPI and Starlette send. Each maps the
# entry with its two numbers left out to the separator between entries.
_LAYOUTS = {b'{"id": , "logprob": }': b", ", b'{"id":,"logprob":}': b","}
_NUMBER_CHARS = b"0123456789.eE+-"
# Blanking the layouts' bytes leaves a flat array of numbers. Each closing
# brace becomes a newline and every other byte but the comma a space, so an
# empty gap shows as a space right before a comma or a newline.
_BLANK_LAYOUT = bytes.maketrans(b'{}":idlogprb ', b" \n" + b" " * 11)
# The entry list is read in pieces of about this many bytes, each ending at an
# entry boundary, so a decode's working set does not grow with the vocabulary.
_PIECE_BYTES = 1 << 18


def _decode_next_logprobs(raw: bytes) -> tuple[int, int | None, np.ndarray, np.ndarray]:
    """``_read_next_logprobs(orjson.loads(raw))``, read column-wise when the body allows it."""
    return _read_columns(raw) or _read_next_logprobs(orjson.loads(raw))


def _read_columns(raw: bytes) -> tuple[int, int | None, np.ndarray, np.ndarray] | None:
    """The next_logprobs fields of ``raw`` without an object per entry; None if it cannot.

    It takes a body whose entry list, between its first ``[`` and last ``]``,
    is one of ``_LAYOUTS`` with a number in every gap. Its first entry picks
    the layout. The list is cut into pieces of about ``_PIECE_BYTES`` at the
    layout's entry boundaries, ``}`` + separator + ``{``, and each piece is
    checked and read on its own:

    1. With the number characters deleted, the piece is k entries of the
       layout.
    2. With the layout's bytes blanked, no space comes right before a comma
       or a newline, so no gap is empty.
    3. The blanked piece parses as a flat array of numbers: 2k of them, as
       1 leaves it 2k - 1 commas.

    Each run of number characters is one array element, so by 3 a piece
    holds 2k runs, and by 2 they are the ones in its 2k gaps. The pieces and
    the separators between them make up the list, so the list is entries of
    the layout with a number in each gap. The body with the list emptied
    must parse, once, to an object whose ``logprobs`` is ``[]``. The body is
    then valid JSON, and orjson reads the same numbers from it as from the
    pieces. Every id must be an integer; ids and logprobs go through the
    same ``np.fromiter`` as in ``_read_next_logprobs``. Any other body, one
    with a malformed value included, returns None and is left to that
    reference path.

    The pieces are written into two columns allocated once. Every entry of
    the layout holds one ``}`` and a number holds none, so the list's count
    of ``}``, taken a piece at a time, bounds its entries, and meets it when
    the list is the layout.
    """
    start, end = raw.find(b"["), raw.rfind(b"]")
    if not 0 <= start < end:
        return None
    entry = raw[start + 1 : raw.find(b"}", start, end) + 1].translate(None, _NUMBER_CHARS)
    sep = _LAYOUTS.get(entry)
    if sep is None:
        return None
    boundary = b"}" + sep + b"{"
    listed = np.frombuffer(raw, dtype=np.uint8)[start:end]
    capacity = sum(int(np.count_nonzero(listed[i : i + _PIECE_BYTES] == ord("}")))
                   for i in range(0, len(listed), _PIECE_BYTES))
    ids, logprobs = np.empty(capacity, dtype=np.int64), np.empty(capacity, dtype=np.float64)
    filled = 0
    try:
        head = orjson.loads(raw[: start + 1] + raw[end:])
        if type(head) is not dict or head.get("logprobs") != []:
            return None
        vocab, eos, _, _ = _read_next_logprobs(head)
        at = start + 1
        while at < end:
            cut = raw.find(boundary, at + _PIECE_BYTES - 1, end)
            stop = end if cut < 0 else cut + 1
            numbers = _read_piece(memoryview(raw)[at:stop], entry, sep)
            if numbers is None:
                return None
            piece_ids = numbers[0::2]
            if type(sum(piece_ids)) is not int:  # an id such as 5.0 or 1e2 is a float, and so is the sum
                return None
            k = len(piece_ids)
            ids[filled : filled + k] = np.fromiter(piece_ids, dtype=np.int64, count=k)
            logprobs[filled : filled + k] = np.fromiter(numbers[1::2], dtype=np.float64, count=k)
            filled += k
            at = stop + len(sep)
    except (BackendError, ValueError, OverflowError):  # orjson.JSONDecodeError is a ValueError
        return None
    return vocab, eos, ids[:filled], logprobs[:filled]


def _read_piece(piece: memoryview, entry: bytes, sep: bytes) -> list | None:
    """The flat list of numbers in ``piece``, k entries of one layout; None if it is not."""
    listed = b"[%b]" % piece
    skeleton = listed.translate(None, _NUMBER_CHARS)
    k, rest = divmod(len(skeleton) - 2 + len(sep), len(entry) + len(sep))
    if rest or skeleton != b"[%b%b]" % (entry, (sep + entry) * (k - 1)):
        return None
    del skeleton
    blank = listed.translate(_BLANK_LAYOUT)
    del listed
    if _has_empty_gap(np.frombuffer(blank, dtype=np.uint8)):
        return None
    return orjson.loads(blank)


def _has_empty_gap(listed: np.ndarray) -> bool:
    """True if a space comes right before a comma or a newline in a blanked piece."""
    empty = listed[1:] == ord(",")
    empty |= listed[1:] == ord("\n")
    empty &= listed[:-1] == ord(" ")
    return bool(empty.any())


def _read_next_logprobs(data: dict) -> tuple[int, int | None, np.ndarray, np.ndarray]:
    """Vocab size, EOS id, and the id and logprob columns of a next_logprobs response."""
    try:
        vocab = data["vocab_size"]
        eos = data.get("eos_token_id")
        # int() would read 4.9 as 4 and true as 1.
        if type(vocab) is not int or vocab < 1:
            raise BackendError(f"malformed next_logprobs response: vocab_size {vocab!r} is no integer >= 1")
        if eos is not None and type(eos) is not int:
            raise BackendError(f"malformed next_logprobs response: eos_token_id {eos!r} is no integer")
        entries = data["logprobs"]
        n = len(entries)
        ids = list(map(itemgetter("id"), entries))
        for token_id in ids:
            if type(token_id) is not int:  # np.fromiter would read JSON true as 1 and 1.5 as 1
                raise BackendError(f"malformed next_logprobs response: token id {token_id!r} is no integer")
        ids = np.fromiter(ids, dtype=np.int64, count=n)
        logprobs = np.fromiter(map(itemgetter("logprob"), entries), dtype=np.float64, count=n)
        return vocab, eos, ids, logprobs
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BackendError(f"malformed next_logprobs response: {exc!r}") from exc


def _read_top_logprobs(data: dict) -> tuple[np.ndarray, np.ndarray]:
    """Id and logprob columns of the first position's ``top_logprobs`` table."""
    try:
        table = data["choices"][0]["logprobs"]["top_logprobs"][0]
        n = len(table)
        ids = np.fromiter(map(_token_id_key, table), dtype=np.int64, count=n)
        logprobs = np.fromiter(table.values(), dtype=np.float64, count=n)
        return ids, logprobs
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise BackendError(f"malformed completion response: {exc!r}") from exc


def _token_id_key(key: str) -> int:
    """The token id a ``top_logprobs`` key names: ASCII digits without a leading zero.

    ``int()`` alone would also read ``" 1"`` as 1, ``"1_0"`` as 10 and the fullwidth ``"２"`` as 2.
    """
    if not (key.isascii() and key.isdigit()) or (key[0] == "0" and key != "0"):
        raise BackendError(f"malformed completion response: top_logprobs key {key!r} is no token id")
    return int(key)
