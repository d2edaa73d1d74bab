"""Reference model server for the benchmark's HTTP workload.

Speaks the native ctxlens protocol (``/v1/next_logprobs``, ``/v1/tokenize``,
``/v1/detokenize``) on 127.0.0.1 with the same planted-last-token rule as
``mock:planted_last``: the final context token is read as a dependency
length ``d``, and a context at least that long puts ``CONF`` on the answer
token.

Unlike the flat mock, every distribution is a randomly permuted Zipf over
the whole vocab, so client kernels see heavy-tailed supports. The Zipf
exponents are assumptions, not fitted to a model (see README.md). Every
response body is JSON-encoded once at start; a request only picks a body,
so server CPU per call is small and constant and there is no sleep.
``GET /v1/stats`` returns request and byte counts per route.

Run: ``python3 refserver.py --vocab 131072 --seed 7``. It prints
``PORT <n>`` once ready and exits when its standard input closes, so it
never outlives the benchmark that started it.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
import threading
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from inputs import ANSWER

CONF = 0.9
#: Zipf exponents of the "dependency not yet visible" bodies. A context
#: picks one by its last token, so a short suffix and the full context of
#: one sequence always agree below the dependency length.
BELOW_EXPONENTS = (1.1, 1.2, 1.3, 1.4)
#: Exponent of the tail that shares 1 - CONF above the dependency length.
ABOVE_EXPONENT = 1.2


def zipf_probs(vocab: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf weights over ``vocab`` ranks, randomly permuted onto token ids."""
    weights = np.arange(1, vocab + 1, dtype=np.float64) ** -exponent
    probs = np.empty(vocab)
    probs[rng.permutation(vocab)] = weights / weights.sum()
    return probs


def planted_probs(vocab: int, rng: np.random.Generator) -> np.ndarray:
    """``CONF`` on the answer; the rest shaped like a Zipf tail over the other ids."""
    tail = zipf_probs(vocab, ABOVE_EXPONENT, rng)
    tail[ANSWER] = 0.0
    probs = tail * ((1.0 - CONF) / tail.sum())
    probs[ANSWER] = CONF
    return probs


def encode_body(probs: np.ndarray) -> bytes:
    logprobs = np.log(probs).tolist()
    entries = [{"id": i, "logprob": lp} for i, lp in enumerate(logprobs)]
    return json.dumps({"logprobs": entries, "vocab_size": len(logprobs)}).encode()


class ReferenceModel:
    """Precomputed bodies plus the planted rule that picks one per request."""

    def __init__(self, vocab: int, seed: int):
        if vocab < ANSWER + 2:
            raise ValueError(f"vocab must be at least {ANSWER + 2}")
        rng = np.random.default_rng(seed)
        self.vocab = vocab
        self.below = []
        for exponent in BELOW_EXPONENTS:
            probs = zipf_probs(vocab, exponent, rng)
            # The answer must never be a confident top-1 below the dependency length.
            if int(np.argmax(probs)) == ANSWER:
                probs[[ANSWER, ANSWER + 1]] = probs[[ANSWER + 1, ANSWER]]
            self.below.append(encode_body(probs))
        self.above = encode_body(planted_probs(vocab, rng))

    def body_for(self, tokens: list[int]) -> bytes:
        if not tokens:
            return self.below[0]
        last = int(tokens[-1])
        if len(tokens) >= max(1, last):
            return self.above
        return self.below[last % len(self.below)]

    def tokenize(self, text: str) -> list[int]:
        out: list[int] = []
        for word in text.split():
            if word.isdigit():
                out.extend(int(ch) % self.vocab for ch in word)
            else:
                out.append(zlib.crc32(word.encode("utf-8")) % self.vocab)
        return out


def make_server(model: ReferenceModel, port: int = 0) -> ThreadingHTTPServer:
    requests_by_route: collections.Counter = collections.Counter()
    bytes_by_route: collections.Counter = collections.Counter()
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in separate writes; without TCP_NODELAY a small body waits for a delayed ACK.
        disable_nagle_algorithm = True

        def _send(self, status: int, raw: bytes) -> None:
            with lock:
                requests_by_route[self.path] += 1
                bytes_by_route[self.path] += len(raw)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

        def do_GET(self):
            if self.path != "/v1/stats":
                self._send(404, b'{"error": "no route"}')
                return
            with lock:
                stats = {"requests": dict(requests_by_route), "bytes": dict(bytes_by_route)}
            self._send(200, json.dumps(stats).encode())

        def do_POST(self):
            try:
                n = int(self.headers.get("Content-Length") or 0)
                body = json.loads(self.rfile.read(n) or b"{}")
                if self.path == "/v1/next_logprobs":
                    if body.get("top", "full") != "full":
                        raise ValueError("reference server only serves full-vocab logprobs")
                    raw = model.body_for([int(t) for t in body["tokens"]])
                elif self.path == "/v1/tokenize":
                    raw = json.dumps({"tokens": model.tokenize(str(body["text"]))}).encode()
                elif self.path == "/v1/detokenize":
                    text = " ".join(f"t{int(t)}" for t in body["tokens"])
                    raw = json.dumps({"text": text}).encode()
                else:
                    self._send(404, b'{"error": "no route"}')
                    return
            except (ValueError, KeyError, TypeError) as exc:
                self._send(400, json.dumps({"error": str(exc)}).encode())
                return
            self._send(200, raw)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
    server.daemon_threads = True
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--vocab", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    server = make_server(ReferenceModel(args.vocab, args.seed))
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    print(f"PORT {server.server_port}", flush=True)
    try:
        sys.stdin.read()  # returns at EOF, when the parent closes the pipe or exits
    finally:
        server.shutdown()
        server.server_close()
        worker.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
