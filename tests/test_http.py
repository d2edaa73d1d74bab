"""HTTP backend client against an in-process fake model server."""

import gc
import http.client
import json
import math
import multiprocessing
import os
import pickle
import ssl
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY, FakeModelServer
from ctxlens.backends import http as http_module
from ctxlens.backends import (
    BackendEndpoint,
    HttpBackend,
    OpenAICompatBackend,
    complete_distribution,
)
from ctxlens.detection import LONG, LSD_LCL_SHORT_LEN, lsd_lcl_oracle_label
from ctxlens.dist import TokenDistribution
from ctxlens.errors import BackendError, VocabMismatch
from ctxlens.probe import PrefixGrid, mcl


def full_logprobs(probs):
    return [{"id": i, "logprob": math.log(p)} for i, p in enumerate(probs) if p > 0.0]


def _backend(url, **kwargs):
    return HttpBackend(BackendEndpoint(base_url=url, timeout_s=5.0, **kwargs))


def columns(entries):
    """Split (id, logprob) pairs into the id and logprob columns."""
    return [i for i, _ in entries], [lp for _, lp in entries]


def math_exp_complete(entries, vocab_size):
    """The per-entry ``math.exp`` loop, kept as the reference for ``complete_distribution``."""
    probs = np.zeros(vocab_size, dtype=np.float64)
    seen = np.zeros(vocab_size, dtype=bool)
    for token_id, logprob in entries:
        probs[token_id] = math.exp(logprob)
        seen[token_id] = True
    residual = 1.0 - float(probs.sum())
    missing = int(vocab_size - seen.sum())
    if missing > 0 and residual > 0.0:
        probs[~seen] = residual / missing
    return TokenDistribution.from_weights(probs)


# np.exp and math.exp may differ by 1 ulp per entry. That bounds the relative
# error of each returned entry by a few float64 eps, and the absolute error of
# the residual (1 minus a sum of at most 1) by a few eps as well.
EXP_RTOL = 1e-14
EXP_ATOL = 16 * np.finfo(np.float64).eps


class TestCompleteDistribution:
    def test_full_entries(self):
        entries = [(i, math.log(p)) for i, p in enumerate([0.4, 0.3, 0.2, 0.1])]
        d = complete_distribution(*columns(entries), 4)
        assert d.probs == pytest.approx([0.4, 0.3, 0.2, 0.1], abs=1e-12)

    def test_residual_spread_uniformly(self):
        entries = [(2, math.log(0.6)), (0, math.log(0.3))]
        d = complete_distribution(*columns(entries), 5)
        assert d.entry(2) == pytest.approx(0.6, abs=1e-9)
        assert d.entry(0) == pytest.approx(0.3, abs=1e-9)
        for t in (1, 3, 4):
            assert d.entry(t) == pytest.approx(0.1 / 3, abs=1e-9)
        assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_mass_rejected(self):
        entries = [(0, math.log(0.8)), (1, math.log(0.8))]
        with pytest.raises(BackendError):
            complete_distribution(*columns(entries), 4)

    def test_out_of_vocab_id_rejected(self):
        with pytest.raises(BackendError):
            complete_distribution(*columns([(9, math.log(0.5))]), 4)

    def test_top_entries_covering_everything(self):
        entries = [(0, math.log(0.5)), (1, math.log(0.5))]
        d = complete_distribution(*columns(entries), 2)
        assert d.probs == pytest.approx([0.5, 0.5], abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 800.0])
    def test_non_finite_total_rejected(self, bad):
        with pytest.raises(BackendError):
            complete_distribution([0, 1], [math.log(0.5), bad], 3)

    def test_negative_id_rejected(self):
        with pytest.raises(BackendError):
            complete_distribution([-1], [0.0], 4)

    @pytest.mark.parametrize("ids", [[0, 0], [2, 1, 2]])
    def test_repeated_id_rejected(self, ids):
        # Listed twice, an id's first mass was overwritten, then spread over the unlisted ids as residual.
        with pytest.raises(BackendError, match=f"token id {ids[-1]} more than once"):
            complete_distribution(ids, [math.log(0.5)] * len(ids), 3)

    @PROPERTY
    @given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_matches_math_exp_loop(self, vocab, seed, share):
        gen = np.random.default_rng(seed)
        probs = gen.random(vocab) ** 8
        probs /= probs.sum()
        sent = gen.permutation(vocab)[: max(1, int(share * vocab))]
        entries = [(int(t), math.log(probs[t])) for t in sent]
        want = math_exp_complete(entries, vocab)
        got = complete_distribution(*columns(entries), vocab)
        np.testing.assert_allclose(got.probs, want.probs, rtol=EXP_RTOL, atol=EXP_ATOL)

    @PROPERTY
    @given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 0.5, 0.01]))
    def test_bitwise_equal_to_the_from_weights_path(self, vocab, seed, share):
        gen = np.random.default_rng(seed)
        probs = gen.random(vocab) ** 8
        probs /= probs.sum()
        ids = gen.permutation(vocab)[: max(1, int(share * vocab))]  # share 1.0 sends the full columns
        logprobs = np.log(probs[ids])
        completed = np.zeros(vocab)
        completed[ids] = np.exp(logprobs)
        missing = vocab - len(ids)
        if missing:
            completed[np.isin(np.arange(vocab), ids, invert=True)] = (1.0 - float(completed.sum())) / missing
        want = TokenDistribution.from_weights(completed)
        sent = ids.copy(), logprobs.copy()
        got = complete_distribution(ids, logprobs, vocab)
        assert got.probs.tobytes() == want.probs.tobytes()
        assert got.ids is None and not got.probs.flags.writeable
        # The client exponentiates its own columns in place; a caller's arrays are left as they were.
        assert ids.tobytes() == sent[0].tobytes() and logprobs.tobytes() == sent[1].tobytes()


class TestProbesOnFreshBackend:
    """A fresh HttpBackend learns its vocab from its first response, so probes must not ask sooner."""

    @staticmethod
    def route(body, n, confident_from=4):
        # Token 2 becomes confident once the context has `confident_from` tokens; before that it is improbable.
        probs = [0.05, 0.05, 0.9] if len(body["tokens"]) >= confident_from else [0.495, 0.495, 0.01]
        return 200, {"logprobs": full_logprobs(probs), "vocab_size": 3}

    @classmethod
    def lsd_lcl_route(cls, body, n):
        # Confident only past the oracle's 32-token short suffix.
        return cls.route(body, n, confident_from=LSD_LCL_SHORT_LEN + 1)

    def test_mcl(self):
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = self.route
            res = mcl([0] * 8, 2, 0.2, PrefixGrid(start=2, step=2), _backend(srv.url))
            assert res.resolved_length == 4
            assert srv.hits["/v1/next_logprobs"] == 2

    def test_mcl_checks_target_against_first_response(self):
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = self.route
            with pytest.raises(VocabMismatch):
                mcl([0] * 8, 3, 0.2, PrefixGrid(start=2, step=2), _backend(srv.url))
            assert srv.hits["/v1/next_logprobs"] == 1

    def test_lsd_lcl_oracle(self):
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = self.lsd_lcl_route
            assert lsd_lcl_oracle_label([0] * 40, 2, _backend(srv.url)) == LONG
            assert srv.hits["/v1/next_logprobs"] == 2

    def test_lsd_lcl_oracle_checks_target_against_first_response(self):
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = self.lsd_lcl_route
            with pytest.raises(VocabMismatch):
                lsd_lcl_oracle_label([0] * 40, 3, _backend(srv.url))
            assert srv.hits["/v1/next_logprobs"] == 1


class TestHttpBackend:
    def test_request_and_response_shapes(self):
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (
                200,
                {"logprobs": full_logprobs([0.7, 0.2, 0.1]), "vocab_size": 3},
            )
            b = _backend(srv.url)
            d = b.next_token_distribution((5, 6))
            assert d.probs == pytest.approx([0.7, 0.2, 0.1], abs=1e-9)
            assert b.vocab_size == 3
            sent = srv.bodies["/v1/next_logprobs"][0]
            assert sent == {"tokens": [5, 6], "top": "full"}

    def test_top_k_request_and_residual(self):
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (
                200,
                {"logprobs": [{"id": 1, "logprob": math.log(0.9)}], "vocab_size": 11},
            )
            b = _backend(srv.url, top=1)
            d = b.next_token_distribution((1,))
            assert srv.bodies["/v1/next_logprobs"][0]["top"] == 1
            assert d.entry(1) == pytest.approx(0.9, abs=1e-9)
            assert d.entry(0) == pytest.approx(0.01, abs=1e-9)

    def test_vocab_unknown_before_first_call(self):
        b = _backend("http://127.0.0.1:9")
        with pytest.raises(BackendError):
            b.vocab_size

    def test_eos_token_id_picked_up(self):
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (
                200,
                {"logprobs": full_logprobs([1.0]), "vocab_size": 1, "eos_token_id": 0},
            )
            b = _backend(srv.url)
            b.next_token_distribution((0,))
            assert b.eos_token_id == 0

    def test_retries_transient_500s(self):
        def route(body, n):
            if n <= 2:
                return 500, {"error": "busy"}
            return 200, {"logprobs": full_logprobs([1.0]), "vocab_size": 1}

        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = route
            b = _backend(srv.url)
            start = time.perf_counter()
            d = b.next_token_distribution((1,))
            elapsed = time.perf_counter() - start
            assert d.entry(0) == 1.0
            assert srv.hits["/v1/next_logprobs"] == 3
            # Two backoffs happened: 0.1s then 0.2s.
            assert elapsed >= 0.3

    def test_retries_429_like_a_5xx(self):
        def route(body, n):
            if n == 1:
                return 429, {"error": "rate limited"}
            return 200, {"logprobs": full_logprobs([1.0]), "vocab_size": 1}

        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = route
            d = _backend(srv.url).next_token_distribution((1,))
            assert d.entry(0) == 1.0
            assert srv.hits["/v1/next_logprobs"] == 2

    def test_numeric_retry_after_is_honoured(self):
        def route(body, n):
            if n == 1:
                return 429, {"error": "rate limited"}, {"Retry-After": "1"}
            return 200, {"logprobs": full_logprobs([1.0]), "vocab_size": 1}

        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = route
            start = time.perf_counter()
            d = _backend(srv.url).next_token_distribution((1,))
            elapsed = time.perf_counter() - start
            assert d.entry(0) == 1.0
            assert srv.hits["/v1/next_logprobs"] == 2
            assert elapsed >= 1.0

    @pytest.mark.parametrize(
        "status, retry_after, waits",
        [
            (503, "0", [0.1, 0.2, 0.4]),  # shorter than the backoff
            (503, "2", [2.0, 2.0, 2.0]),
            (429, "60", [5.0, 5.0, 5.0]),  # capped at timeout_s
            (503, "Wed, 21 Oct 2015 07:28:00 GMT", [0.1, 0.2, 0.4]),  # HTTP date: plain backoff
            (503, "1.5", [0.1, 0.2, 0.4]),  # not delay-seconds
            (500, "2", [0.1, 0.2, 0.4]),  # only 429 and 503 carry it
        ],
    )
    def test_retry_after_sets_the_wait(self, monkeypatch, status, retry_after, waits):
        slept = []
        monkeypatch.setattr(http_module.time, "sleep", slept.append)
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (status, {}, {"Retry-After": retry_after})
            with pytest.raises(BackendError) as err:
                _backend(srv.url).next_token_distribution((1,))
        assert err.value.attempts == 4
        assert slept == waits

    def test_gives_up_after_four_attempts(self):
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (503, {"error": "down"})
            b = _backend(srv.url)
            with pytest.raises(BackendError) as err:
                b.next_token_distribution((1,))
            assert srv.hits["/v1/next_logprobs"] == 4
            assert err.value.attempts == 4

    def test_backend_error_survives_pickling(self, monkeypatch):
        # The CLI's worker processes send a unit's BackendError to their parent pickled.
        monkeypatch.setattr(http_module, "_BACKOFF_S", (0.0,))
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (503, {"error": "down"}, {"Retry-After": "0"})
            with pytest.raises(BackendError) as err:
                _backend(srv.url).next_token_distribution((1,))
        err.value.partial_trace = [[32, 0.5]]
        copy = pickle.loads(pickle.dumps(err.value))
        assert (str(copy), copy.attempts, copy.partial_trace) == (str(err.value), 4, [[32, 0.5]])
        assert type(copy.cause) is type(err.value.cause)
        assert (str(copy.cause), copy.cause.retry_after) == ("server error 503", 0.0)

    def test_redirects_are_not_followed(self):
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (307, b"moved", {"Location": "/elsewhere"})
            with pytest.raises(BackendError, match="returned 307: moved"):
                _backend(srv.url).next_token_distribution((1,))
            assert srv.hits["/v1/next_logprobs"] == 1

    def test_request_body_is_json_dumps_bytes(self, monkeypatch):
        sent = []
        request = http_module.http.client.HTTPConnection.request

        def spy(conn, method, url, body=None, headers={}, **kwargs):
            sent.append((method, url, body, dict(headers)))
            return request(conn, method, url, body, headers, **kwargs)

        monkeypatch.setattr(http_module.http.client.HTTPConnection, "request", spy)
        with FakeModelServer() as srv:
            srv.routes["/v1/detokenize"] = lambda body, n: (200, {"text": "x"})
            _backend(srv.url).detokenize([1, 2])
        assert sent == [("POST", "/v1/detokenize", b'{"tokens": [1, 2]}', {"Content-Type": "application/json"})]

    @pytest.mark.parametrize(
        "url", ["localhost:8000", "127.0.0.1:8000", "ftp://host/", "http://", "http://host:port", "/v1"]
    )
    def test_endpoint_needs_an_http_scheme_and_a_host(self, url):
        with pytest.raises(ValueError):
            BackendEndpoint(base_url=url)

    def test_https_connection_verifies_the_server(self):
        conn = HttpBackend(BackendEndpoint("https://127.0.0.1:9"))._connect()
        assert isinstance(conn, http_module.http.client.HTTPSConnection)
        assert conn._context.verify_mode == ssl.CERT_REQUIRED
        assert conn._context.check_hostname
        assert conn.sock is None  # built, not connected

    def test_client_errors_do_not_retry(self):
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (400, {"error": "bad request"})
            b = _backend(srv.url)
            with pytest.raises(BackendError):
                b.next_token_distribution((1,))
            assert srv.hits["/v1/next_logprobs"] == 1

    def test_broken_json_is_retried(self):
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (200, b"this is not json")
            b = _backend(srv.url)
            with pytest.raises(BackendError) as err:
                b.next_token_distribution((1,))
            assert err.value.attempts == 4

    @pytest.mark.parametrize(
        "logprob, hits",
        [
            # Not RFC 8259 JSON: unparsable, so retried like any broken body.
            (b"NaN", 4),
            (b"Infinity", 4),
            # Parsed, then rejected without a retry.
            (b'"-0.5x"', 1),
            (b"800.0", 1),
            (b"null", 1),
        ],
    )
    def test_malformed_logprob_values_are_backend_errors(self, logprob, hits):
        raw = b'{"vocab_size": 2, "logprobs": [{"id": 0, "logprob": -0.1}, {"id": 1, "logprob": %s}]}'
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (200, raw % logprob)
            with pytest.raises(BackendError):
                _backend(srv.url).next_token_distribution((1,))
            assert srv.hits["/v1/next_logprobs"] == hits

    def test_connection_refused_maps_to_backend_error(self):
        b = HttpBackend(BackendEndpoint(base_url="http://127.0.0.1:9", timeout_s=0.2))
        with pytest.raises(BackendError) as err:
            b.next_token_distribution((1,))
        assert err.value.attempts == 4
        assert err.value.cause is not None

    def test_tokenize_detokenize_round_trip(self):
        def tokenize(body, n):
            return 200, {"tokens": [len(w) for w in body["text"].split()]}

        def detokenize(body, n):
            return 200, {"text": " ".join(str(t) for t in body["tokens"])}

        with FakeModelServer() as srv:
            srv.routes["/v1/tokenize"] = tokenize
            srv.routes["/v1/detokenize"] = detokenize
            b = _backend(srv.url)
            assert b.tokenize("one two three") == [3, 3, 5]
            assert b.detokenize([1, 2]) == "1 2"



NUMBER_CHARS = "0123456789.eE+-"
ID_TEXT = st.one_of(st.integers(0, 200), st.integers(0, 2**63 - 1)).map(str)
LOGPROB_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # -0.0, 1e-300, 1.5e+300, ...
    st.floats(-60.0, 0.0).map(lambda x: f"{x:.6e}"),
    st.floats(-60.0, 0.0).map(lambda x: f"{x:.3E}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["-0.0", "-0", "0", "1E+2", "-1e-5", "-2.5E-3", "-0.5e0"]),
)
# Each one is invalid JSON, JSON that is not a number, or a number that is not an int64 integer.
BAD_NUMBERS = [
    "NaN", "Infinity", "-Infinity", "+1", "01", "-01", "5.0", "1e2", "1.", ".5", "-", "1e", "--1",
    "", str(2**63), str(2**64), str(-(2**63) - 1), "1e400", "true", "null", '"5"', "[1]", "0x1",
]
STRUCTURES = [
    ("entry", lambda e: e[:-1] + ', "x": 1}'),  # an extra key
    ("entry", lambda e: '{"logprob": -1.5, "id": 7}'),  # keys reordered
    ("entry", lambda e: e.replace('"id"', '"id" ', 1)),  # changed whitespace
    ("entry", lambda e: e.replace("{", "{ ", 1)),
    ("entry", lambda e: e + "\n"),
    ("list", lambda items: "[]"),  # an empty list
    ("list", lambda items: items + ', "extra": [1, 2]'),  # a second list after logprobs
    ("list", lambda items: items + ', "logprobs": 5'),  # duplicate logprobs keys
    ("list", lambda items: '5, "logprobs": ' + items),
    ("list", lambda items: items + ', "logprobs": []'),
    ("list", lambda items: '{}, "other": ' + items),  # the entries under another key
    ("list", lambda items: '"", "other": ' + items),
    ("body", lambda body: "[" + body + "]"),
    ("body", lambda body: body + " "),
    ("body", lambda body: body.replace('"vocab_size"', '"vocab"')),
]


@st.composite
def next_logprobs_bodies(draw):
    """A next_logprobs body in either layout, mutated or not, and whether it was left whole.

    Mutations: a number swapped for a bad one, a run of number characters
    inserted into an entry (after emptying one of its gaps, or not), the
    structure changed, a byte deleted or replaced, or the body truncated.
    """
    compact = draw(st.booleans())
    sep, colon = (",", ":") if compact else (", ", ": ")
    n = draw(st.integers(1, 6))
    numbers = [[draw(ID_TEXT), draw(LOGPROB_TEXT)] for _ in range(n)]
    mutation = draw(st.sampled_from(["none", "number", "stray", "structure", "byte", "truncate"]))
    i = draw(st.integers(0, n - 1))
    if mutation == "number":
        numbers[i][draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_NUMBERS))
    elif mutation == "stray" and draw(st.booleans()):
        numbers[i][draw(st.integers(0, 1))] = ""
    entries = [f'{{"id"{colon}{id_}{sep}"logprob"{colon}{lp}}}' for id_, lp in numbers]
    if mutation == "stray":
        at = draw(st.integers(0, len(entries[i])))
        stray = draw(st.text(alphabet=NUMBER_CHARS, min_size=1, max_size=3))
        entries[i] = entries[i][:at] + stray + entries[i][at:]
    where, change = draw(st.sampled_from(STRUCTURES)) if mutation == "structure" else (None, None)
    if where == "entry":
        entries[i] = change(entries[i])
    items = "[" + sep.join(entries) + "]"
    if where == "list":
        items = change(items)
    fields = [f'"logprobs"{colon}{items}', f'"vocab_size"{colon}{draw(st.integers(1, 10**6))}']
    if draw(st.booleans()):
        fields.append(f'"eos_token_id"{colon}{draw(st.integers(0, 10))}')
    if draw(st.booleans()):
        fields.reverse()
    body = "{" + sep.join(fields) + "}"
    if where == "body":
        body = change(body)
    raw = body.encode()
    if mutation == "byte":
        at = draw(st.integers(0, len(raw) - 1))
        swap = draw(st.sampled_from([b"", b" ", b"\n", b"{", b"}", b"[", b"]", b",", b":", b'"', b"0", b"-"]))
        raw = raw[:at] + swap + raw[at + 1 :]
    elif mutation == "truncate":
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    return raw, mutation == "none"


def decode_outcome(decode, raw):
    """The fields ``decode`` returns, or the type of the exception it raises."""
    try:
        return decode(raw)
    except Exception as exc:
        return type(exc)


def assert_same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    assert got[:2] == want[:2]
    for column, reference in zip(got[2:], want[2:]):
        assert column.dtype == reference.dtype
        assert column.tobytes() == reference.tobytes()


def reference_decode(raw):
    return http_module._read_next_logprobs(orjson.loads(raw))


def fp32_log_softmax(seed, vocab):
    """Log-softmax of random float32 logits, computed in float32 as a model server would."""
    logits = np.random.default_rng(seed).standard_normal(vocab).astype(np.float32)
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum(dtype=np.float32))


class TestColumnarDecode:
    """The columnar decode of next_logprobs bodies against ``_read_next_logprobs(orjson.loads(raw))``."""

    @PROPERTY
    @given(next_logprobs_bodies())
    def test_matches_the_reference_on_any_body(self, case):
        raw, whole = case
        want = decode_outcome(reference_decode, raw)
        assert_same_outcome(decode_outcome(http_module._decode_next_logprobs, raw), want)
        if whole:
            assert http_module._read_columns(raw) is not None

    @pytest.mark.parametrize(
        "items",
        [
            # One run of number characters per array slot, but not in the gap: not JSON.
            b'[{"i5d": , "logprob": -0.5}]',
            b'[{"id": 0, "lo1gprob": }]',
            b'[{"id": 0, "logprob": }5]',
            b'[{"id":0,"logprob":-0.5},5{"id":,"logprob":-0.5}]',
        ],
    )
    def test_numbers_outside_the_gaps_are_not_json(self, items):
        raw = b'{"logprobs": %s, "vocab_size": 8}' % items
        with pytest.raises(orjson.JSONDecodeError):
            reference_decode(raw)
        assert http_module._read_columns(raw) is None
        with pytest.raises(orjson.JSONDecodeError):
            http_module._decode_next_logprobs(raw)

    @PROPERTY
    @given(next_logprobs_bodies(), st.integers(1, 64))
    def test_matches_the_reference_in_tiny_pieces(self, case, piece_bytes):
        # Pieces of a few bytes put piece edges everywhere a mutation can land.
        raw, whole = case
        want = decode_outcome(reference_decode, raw)
        with mock.patch.object(http_module, "_PIECE_BYTES", piece_bytes):
            assert_same_outcome(decode_outcome(http_module._decode_next_logprobs, raw), want)
            if whole:
                assert http_module._read_columns(raw) is not None

    @pytest.mark.parametrize(
        "items, piece_bytes, sizes",
        [
            # A piece edge right after the first entry, and one right before the last.
            (b'[{"id": 0, "logprob": -0.5}, {"id": 1, "logprob": -1}, {"id": 2, "logprob": -2}]', 26, [1, 2]),
            (b'[{"id": 0, "logprob": -0.5}, {"id": 1, "logprob": -1.5}, {"id": 2, "logprob": -2.5}]', 27, [2, 1]),
            (b'[{"id":0,"logprob":-0.5},{"id":1,"logprob":-1.5},{"id":2,"logprob":-2.5}]', 1, [1, 1, 1]),
        ],
    )
    def test_pieces_end_at_entry_boundaries(self, monkeypatch, items, piece_bytes, sizes):
        raw = b'{"logprobs": %s, "vocab_size": 8}' % items
        monkeypatch.setattr(http_module, "_PIECE_BYTES", piece_bytes)
        parsed = []
        loads = orjson.loads

        def spy(data):
            parsed.append(loads(data))
            return parsed[-1]

        monkeypatch.setattr(http_module.orjson, "loads", spy)
        got = http_module._read_columns(raw)
        assert [len(array) // 2 for array in parsed[1:]] == sizes
        assert_same_outcome(got, reference_decode(raw))

    @pytest.mark.parametrize("piece_bytes", [1, 27, 1 << 20])
    @pytest.mark.parametrize(
        "items",
        [
            # "}, {" inside an entry that is valid JSON but not the layout.
            b'[{"id": 0, "logprob": -0.5, "x": [{}, {}]}, {"id": 1, "logprob": -1.5}]',
            # A separator between entries that is not the first entry's layout.
            b'[{"id": 0, "logprob": -0.5},{"id": 1, "logprob": -1.5}]',
            b'[{"id":0,"logprob":-0.5}, {"id":1,"logprob":-1.5}]',
            b'[{"id": 0, "logprob": -0.5}, {"id":1,"logprob":-1.5}]',
            b'[{"id": 0, "logprob": -0.5},\n{"id": 1, "logprob": -1.5}]',
        ],
    )
    def test_bodies_outside_the_layout_take_the_reference_path(self, monkeypatch, items, piece_bytes):
        raw = b'{"logprobs": %s, "vocab_size": 8}' % items
        monkeypatch.setattr(http_module, "_PIECE_BYTES", piece_bytes)
        assert http_module._read_columns(raw) is None
        assert_same_outcome(http_module._decode_next_logprobs(raw), reference_decode(raw))

    @pytest.mark.parametrize("piece_bytes", [None, 1], ids=["one-piece", "a-piece-per-entry"])
    @pytest.mark.parametrize("separators", [None, (",", ":")], ids=["default", "compact"])
    def test_both_layouts_skip_the_object_tree(self, monkeypatch, separators, piece_bytes):
        probs = [0.5, 0.25, 0.125, 0.125]
        payload = {"logprobs": full_logprobs(probs), "vocab_size": 4, "eos_token_id": 3}
        raw = json.dumps(payload, separators=separators).encode()
        pieces = 1 if piece_bytes is None else len(probs)
        if piece_bytes is not None:
            monkeypatch.setattr(http_module, "_PIECE_BYTES", piece_bytes)
        parsed = []
        loads = orjson.loads

        def spy(data):
            parsed.append(bytes(data))
            return loads(data)

        monkeypatch.setattr(http_module.orjson, "loads", spy)
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (200, raw)
            b = _backend(srv.url)
            d = b.next_token_distribution((1,))
            b.close()
        assert d.probs == pytest.approx(probs, abs=1e-12)
        assert b.eos_token_id == 3
        # The body with its list emptied, then one flat array of numbers per piece; never the whole body.
        assert len(parsed) == 1 + pieces
        assert loads(parsed[0]) == {"logprobs": [], "vocab_size": 4, "eos_token_id": 3}
        arrays = [loads(data) for data in parsed[1:]]
        assert all(type(x) in (int, float) for array in arrays for x in array)
        assert sum(len(array) for array in arrays) == 2 * len(probs)
        assert raw not in parsed

    def test_decode_at_128k_peaks_below_10_mib(self):
        # The bound lies between a decode a piece at a time (about 6 MiB) and one of the whole list (about 17 MiB).
        vocab = 131072
        entries = [{"id": i, "logprob": lp} for i, lp in enumerate(fp32_log_softmax(0, vocab).tolist())]
        raw = json.dumps({"logprobs": entries, "vocab_size": vocab}).encode()
        del entries
        tracemalloc.start()
        try:
            got = http_module._decode_next_logprobs(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0] == vocab and len(got[2]) == vocab
        assert peak < 10 * 2**20

    def test_decode_and_completion_at_128k_peak_below_4_mib(self):
        # 2 MiB of id and logprob columns allocated once, pieces of 256 KiB and a 1 MiB vector
        # completed from the logprobs column in place; the columns grown piece by piece and a
        # temporary for the probabilities peaked near 6 MiB.
        vocab = 131072
        entries = [{"id": i, "logprob": lp} for i, lp in enumerate(fp32_log_softmax(1, vocab).tolist())]
        raw = json.dumps({"logprobs": entries, "vocab_size": vocab}).encode()
        del entries
        tracemalloc.start()
        try:
            vocab_size, _, ids, logprobs = http_module._decode_next_logprobs(raw)
            got = http_module._complete(ids, logprobs, vocab_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.vocab_size == vocab and float(got.probs.sum()) == pytest.approx(1.0)
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("entry", ['{"id": %s, "logprob": -1.5}', '{"logprob": -1.5, "id": %s}'],
                             ids=["columnar", "reference"])
    @pytest.mark.parametrize("token_id", ["1.5", "5.0", "1e2", "-0.0", "true"])
    def test_an_id_that_is_no_integer_is_a_backend_error(self, entry, token_id):
        # np.int64 used to take 1.5 and true as 1, 5.0 as 5 and 1e2 as 100.
        raw = b'{"logprobs": [{"id": 0, "logprob": -0.5}, %s], "vocab_size": 200}' % (entry % token_id).encode()
        assert http_module._read_columns(raw) is None
        with pytest.raises(BackendError, match="is no integer"):
            http_module._decode_next_logprobs(raw)

    @pytest.mark.parametrize("layout", ['{"id": 0, "logprob": 0.0}', '{"logprob": 0.0, "id": 0}'],
                             ids=["columnar", "reference"])
    @pytest.mark.parametrize(
        "fields",
        [
            '"vocab_size": 4.9',
            '"vocab_size": 1.0',
            '"vocab_size": true',
            '"vocab_size": "4"',
            '"vocab_size": 0',
            '"vocab_size": -3',
            '"vocab_size": 4, "eos_token_id": true',
            '"vocab_size": 4, "eos_token_id": 1.0',
            '"vocab_size": 4, "eos_token_id": "1"',
        ],
    )
    def test_vocab_size_and_eos_must_be_json_integers(self, layout, fields):
        # int() used to read 4.9 as vocab 4 and true as EOS id 1.
        raw = b'{"logprobs": [%s], %s}' % (layout.encode(), fields.encode())
        with pytest.raises(BackendError, match="vocab_size|eos_token_id"):
            http_module._decode_next_logprobs(raw)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fp32_logprobs_at_128k(self, seed):
        vocab = 131072
        logprobs = fp32_log_softmax(seed, vocab)
        entries = [{"id": i, "logprob": lp} for i, lp in enumerate(logprobs.tolist())]
        raw = json.dumps({"logprobs": entries, "vocab_size": vocab}).encode()
        got = http_module._read_columns(raw)
        assert got is not None
        assert_same_outcome(got, reference_decode(raw))
        # Raises if the completed total strays from 1 by more than 1e-6.
        assert complete_distribution(got[2], got[3], vocab).vocab_size == vocab


def one_token(body, n):
    """A point mass on the request's first token, so each reply names its request."""
    return 200, {"logprobs": [{"id": body["tokens"][0], "logprob": 0.0}], "vocab_size": 1000}


class TestConnectionPool:
    def test_server_closed_idle_connection_costs_no_attempt(self, monkeypatch):
        with FakeModelServer(keep_alive_s=0.2) as srv:
            srv.routes["/v1/next_logprobs"] = one_token
            b = _backend(srv.url)
            b.next_token_distribution((1,))
            time.sleep(0.5)  # the server drops the idle connection after 0.2 s
            slept = []
            monkeypatch.setattr(http_module.time, "sleep", slept.append)
            d = b.next_token_distribution((2,))
            b.close()
        assert d.entry(2) == 1.0
        assert slept == []
        assert srv.hits["/v1/next_logprobs"] == 2
        assert len(srv.peers) == 2

    def test_keep_alive_reuses_one_connection(self):
        with FakeModelServer(keep_alive_s=5.0) as srv:
            srv.routes["/v1/next_logprobs"] = one_token
            b = _backend(srv.url)
            for t in range(5):
                b.next_token_distribution((t,))
            b.close()
        assert srv.hits["/v1/next_logprobs"] == 5
        assert len(srv.peers) == 1

    def test_close_drops_the_connection_and_a_later_call_opens_one(self):
        with FakeModelServer(keep_alive_s=5.0) as srv:
            srv.routes["/v1/next_logprobs"] = one_token
            b = _backend(srv.url)
            b.next_token_distribution((1,))
            b.close()
            d = b.next_token_distribution((2,))
            b.close()
        assert d.entry(2) == 1.0
        assert srv.hits["/v1/next_logprobs"] == 2
        assert len(srv.peers) == 2

    def test_connection_the_server_will_close_is_not_kept(self, monkeypatch):
        def closing(body, n):
            return (*one_token(body, n), {"Connection": "close"})

        with FakeModelServer(keep_alive_s=5.0) as srv:
            srv.routes["/v1/next_logprobs"] = closing
            b = _backend(srv.url)
            slept = []
            monkeypatch.setattr(http_module.time, "sleep", slept.append)
            got = [b.next_token_distribution((t,)).entry(t) for t in range(3)]
            b.close()
        assert got == [1.0, 1.0, 1.0]
        assert slept == []
        assert srv.hits["/v1/next_logprobs"] == 3
        assert len(srv.peers) == 3

    def test_base_url_path_prefix_is_kept(self):
        with FakeModelServer() as srv:
            srv.routes["/api/v1/next_logprobs"] = one_token
            b = _backend(srv.url + "/api/")
            assert b.next_token_distribution((3,)).entry(3) == 1.0

    def test_import_leaves_requests_out(self, tmp_path):
        # Neither importing the CLI nor a mock-backed run loads an HTTP client; the names that
        # need one still import from the package.
        src = str(Path(http_module.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"seq_id": "s", "tokens": [3] * 40, "next_token": 5}) + "\n")
        argv = ["mcl", "--backend", "mock:planted_last:answer=5,vocab=64", "--corpus", str(corpus),
                "--out", str(tmp_path / "out")]
        code = (
            "import json, sys\n"
            "heavy = ('requests', 'urllib3', 'http.client', 'ssl', 'email')\n"
            "loaded = lambda: sorted(m for m in heavy if m in sys.modules)\n"
            "import ctxlens.cli\n"
            "seen = {'import': loaded()}\n"
            f"seen['code'] = ctxlens.cli.main({argv!r})\n"
            "seen['main'] = loaded()\n"
            "from ctxlens.backends import HttpBackend\n"
            "seen['http'] = HttpBackend.__module__\n"
            "print(json.dumps(seen))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {"import": [], "code": 0, "main": [], "http": "ctxlens.backends.http"}
        assert (tmp_path / "out" / "mcl_summary.json").is_file()

    def test_mcl_summary_leaves_numpy_ma_out(self, tmp_path):
        # Two distinct resolved lengths make the summary fit a power law, which once
        # counted distinct x values with np.unique and so imported numpy.ma.
        src = str(Path(http_module.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        corpus = tmp_path / "corpus.jsonl"
        rows = [{"seq_id": "a", "tokens": [3] * 40, "next_token": 5},
                {"seq_id": "b", "tokens": [7] * 59 + [45], "next_token": 5}]
        corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
        argv = ["mcl", "--backend", "mock:planted_last:answer=5,vocab=64", "--corpus", str(corpus),
                "--out", str(tmp_path / "out")]
        code = (
            "import sys\n"
            "import ctxlens.cli\n"
            f"code = ctxlens.cli.main({argv!r})\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["0", "False"]
        summary = orjson.loads((tmp_path / "out" / "mcl_summary.json").read_bytes())
        assert summary["fit"] is not None

def one_completion(body, n):
    """``one_token`` in the completions format: a point mass on the prompt's first token."""
    return 200, {"choices": [{"logprobs": {"top_logprobs": [{str(body["prompt"][0]): 0.0}]}}]}


def _openai(url):
    return OpenAICompatBackend(BackendEndpoint(base_url=url, timeout_s=5.0), model="m", vocab_size=1000)


class TestBatchedRequests:
    """``next_token_distributions`` puts every request in flight before it reads a reply."""

    D = 0.4  # seconds the slow server spends on each request

    @pytest.mark.parametrize(
        "make, route, reply",
        [(_backend, "/v1/next_logprobs", one_token), (_openai, "/v1/completions", one_completion)],
        ids=["native", "openai"],
    )
    def test_two_contexts_are_in_flight_together(self, make, route, reply):
        def slow(body, n):
            time.sleep(self.D)
            return reply(body, n)

        with FakeModelServer(keep_alive_s=5.0) as srv:
            srv.routes[route] = slow
            b = make(srv.url)
            start = time.perf_counter()
            together = b.next_token_distributions([(3,), (4,)])
            together_s, together_inflight = time.perf_counter() - start, srv.max_inflight
            srv.max_inflight = 0
            start = time.perf_counter()
            apart = [b.next_token_distribution(tokens) for tokens in [(3,), (4,)]]
            apart_s = time.perf_counter() - start
            b.close()
        assert [d.entry(t) for d, t in zip(together, (3, 4))] == [1.0, 1.0]
        assert [d.same_values(e) for d, e in zip(together, apart)] == [True, True]
        assert together_inflight == 2 and together_s < 1.5 * self.D
        assert srv.max_inflight == 1 and apart_s >= 2 * self.D

    def test_a_busy_reply_is_retried_alone_while_the_other_is_returned(self, monkeypatch):
        slept = []
        monkeypatch.setattr(http_module.time, "sleep", slept.append)
        busy = [[3]]  # the first request for (3,) gets a 503

        def route(body, n):
            if body["tokens"] in busy:
                busy.remove(body["tokens"])
                return 503, {"error": "busy"}
            return one_token(body, n)

        with FakeModelServer(keep_alive_s=5.0) as srv:
            srv.routes["/v1/next_logprobs"] = route
            b = _backend(srv.url)
            got = b.next_token_distributions([(3,), (4,)])
            b.close()
        assert [got[0].entry(3), got[1].entry(4)] == [1.0, 1.0]
        assert sorted(body["tokens"] for body in srv.bodies["/v1/next_logprobs"]) == [[3], [3], [4]]
        assert slept == [0.1]  # the wait a single call makes before its second attempt

    @pytest.mark.parametrize("status, attempts, waits", [(503, 4, [0.1, 0.2, 0.4]), (400, 1, [])])
    def test_a_failed_context_leaves_no_unread_reply_behind(self, monkeypatch, status, attempts, waits):
        slept = []
        monkeypatch.setattr(http_module.time, "sleep", slept.append)

        def route(body, n):
            return (status, {"error": "no"}) if body["tokens"] == [3] else one_token(body, n)

        with FakeModelServer(keep_alive_s=5.0) as srv:
            srv.routes["/v1/next_logprobs"] = route
            b = _backend(srv.url)
            with pytest.raises(BackendError) as err:
                b.next_token_distributions([(3,), (4,)])
            gc.collect()  # a dropped connection that is still open warns here
            states = [conn._HTTPConnection__state for conn in b._idle]
            later = b.next_token_distribution((5,))  # gets its own reply, not the unread one for (4,)
            b.close()
        assert (err.value.attempts, err.value.batch_index) == (attempts, 0)
        assert slept == waits
        assert states == [http.client._CS_IDLE] * len(states)
        assert later.entry(5) == 1.0

    def test_a_forked_child_closes_every_idle_connection_it_inherited(self):
        with FakeModelServer(keep_alive_s=5.0) as srv:
            srv.routes["/v1/next_logprobs"] = one_token
            b = _backend(srv.url)
            b.next_token_distributions([(1,), (2,)])
            inherited = list(b._idle)

            def child():
                fresh = b.next_token_distribution((3,)).entry(3) == 1.0
                closed = all(conn.sock is None for conn in inherited)
                os._exit(0 if fresh and closed and [c in inherited for c in b._idle] == [False] else 1)

            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
            proc.join(timeout=60)
            got = b.next_token_distributions([(4,), (5,)])  # the parent keeps both of its connections
            b.close()
        assert len(inherited) == 2 and proc.exitcode == 0
        assert [got[0].entry(4), got[1].entry(5)] == [1.0, 1.0]
        assert len(srv.peers) == 3

    def test_a_batch_at_128k_holds_one_reply_body_at_a_time(self):
        # Fixed before the run: a batch of two may peak 1.5 MiB above one call, room for the
        # first context's 1 MiB result. Holding both 6 MB bodies at once would add 6 MB.
        vocab = 131072
        entries = [{"id": i, "logprob": lp} for i, lp in enumerate(fp32_log_softmax(2, vocab).tolist())]
        raw = json.dumps({"logprobs": entries, "vocab_size": vocab}).encode()
        del entries
        with FakeModelServer(keep_alive_s=5.0) as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (200, raw)
            b = _backend(srv.url)
            b.next_token_distributions([(1,), (2,)])  # opens both connections
            tracemalloc.start()
            try:
                single = b.next_token_distribution((1,))
                single_peak = tracemalloc.get_traced_memory()[1]
                del single
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                pair = b.next_token_distributions([(1,), (2,)])
                pair_peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
                b.close()
        assert [d.vocab_size for d in pair] == [vocab, vocab]
        assert pair_peak < single_peak + 1.5 * 2**20


class TestOpenAICompatBackend:
    def test_parses_top_logprobs_table(self):
        def completions(body, n):
            assert body["max_tokens"] == 1
            assert body["prompt"] == [4, 2]
            table = {"0": math.log(0.6), "3": math.log(0.4)}
            return 200, {"choices": [{"logprobs": {"top_logprobs": [table]}}]}

        with FakeModelServer() as srv:
            srv.routes["/v1/completions"] = completions
            b = OpenAICompatBackend(
                BackendEndpoint(base_url=srv.url, timeout_s=5.0, top=2), model="m", vocab_size=4
            )
            d = b.next_token_distribution((4, 2))
            assert d.entry(0) == pytest.approx(0.6, abs=1e-9)
            assert d.entry(3) == pytest.approx(0.4, abs=1e-9)
            assert b.vocab_size == 4

    @pytest.mark.parametrize("key", [" 1", "1 ", "+1", "-1", "1_0", "\uff12", "\u0661", "01", "00", "", "1.0", "0x1"])
    def test_a_key_that_is_not_plain_decimal_digits_is_a_backend_error(self, key):
        # int() used to read " 1" as 1, "1_0" as 10 and the fullwidth "２" as 2.
        table = {"0": math.log(0.5), key: math.log(0.5)}
        with pytest.raises(BackendError, match="top_logprobs key"):
            http_module._read_top_logprobs({"choices": [{"logprobs": {"top_logprobs": [table]}}]})

    def test_keys_read_as_decimal_token_ids(self):
        table = {"0": math.log(0.25), "7": math.log(0.25), "10": math.log(0.25), "131071": math.log(0.25)}
        ids, _ = http_module._read_top_logprobs({"choices": [{"logprobs": {"top_logprobs": [table]}}]})
        assert ids.tolist() == [0, 7, 10, 131071]

    @pytest.mark.parametrize(
        "payload",
        [
            {"choices": []},
            # "01" is no token id; int() read it as a second entry for id 1.
            {"choices": [{"logprobs": {"top_logprobs": [{"1": math.log(0.5), "01": math.log(0.5)}]}}]},
        ],
    )
    def test_malformed_response_is_backend_error(self, payload):
        with FakeModelServer() as srv:
            srv.routes["/v1/completions"] = lambda body, n: (200, payload)
            b = OpenAICompatBackend(
                BackendEndpoint(base_url=srv.url, timeout_s=5.0), model="m", vocab_size=4
            )
            with pytest.raises(BackendError):
                b.next_token_distribution((1,))
