import collections
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from ctxlens.dist import TokenDistribution

#: Property tests run a fixed example sequence and keep no example database.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

SRC = Path(__file__).resolve().parent.parent / "src"

# Run by ``peak_rss_mb``: it spawns the command, reaps it with os.wait4 and prints the exit code
# and ru_maxrss (KiB on Linux) on its last line of output.
_LAUNCHER = """
import os, sys
argv = [sys.executable, "-m", "ctxlens.cli", *sys.argv[1:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(argv: list[str]) -> tuple[int, float]:
    """Exit code and peak RSS in MB of ``python -m ctxlens.cli *argv`` as a child process.

    The peak is the child's ``ru_maxrss`` from ``os.wait4``, the measure ``perfbench/run.py``
    takes. On Linux that figure also counts the memory of the process that forked the child,
    so a small launcher process starts the command: started from the test process, the
    command would read at least the test process's own peak.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, *argv], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    code, kib = done.stdout.splitlines()[-1].split()
    return int(code), int(kib) / 1024


def pytest_collection_modifyitems(items):
    """A test in this directory that leaves a socket or file to the garbage collector fails."""
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):  # the hook sees every item of the session
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


def rand_dist(rng: np.random.Generator, vocab: int, zeros: bool = False) -> TokenDistribution:
    """Random point on the simplex; optionally with some zero entries."""
    w = rng.random(vocab)
    if zeros and vocab > 2:
        k = int(rng.integers(1, vocab - 1))
        idx = rng.choice(vocab, size=k, replace=False)
        w[idx] = 0.0
    if w.sum() == 0.0:
        w[0] = 1.0
    return TokenDistribution.from_weights(w)


@st.composite
def dists(draw, max_vocab: int = 2000) -> TokenDistribution:
    """Distributions with zeros and exact ties, small or large.

    Small ones are drawn weight by weight from a few integer levels and free
    floats; large ones come from a drawn seed, with weights snapped to a
    drawn number of levels so that many entries tie.
    """
    if draw(st.booleans()):
        level = st.integers(0, 3).map(float)
        weights = draw(st.lists(st.one_of(level, st.floats(0.0, 1.0)), min_size=1, max_size=24))
    else:
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        vocab = draw(st.integers(1, max_vocab))
        weights = gen.random(vocab) ** draw(st.sampled_from([1.0, 4.0, 16.0]))
        levels = draw(st.sampled_from([0, 3, 50]))
        if levels:
            weights = np.floor(weights * levels)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.sum() == 0.0:
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    return TokenDistribution.from_weights(weights)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class FakeModelServer:
    """Tiny threaded HTTP server whose routes are plain callables.

    A route gets the parsed request body and the 1-based hit count for its
    path, and returns (status, payload) or (status, payload, headers). A bytes
    payload is sent verbatim, which lets tests serve broken JSON.

    By default the server speaks HTTP/1.0 and closes each connection after
    its response. With ``keep_alive_s`` it speaks HTTP/1.1 and closes a
    connection once it has been idle that many seconds. ``peers`` maps the
    client address of every connection that sent a request to the paths it
    requested.
    """

    def __init__(self, keep_alive_s: float | None = None):
        self.keep_alive_s = keep_alive_s
        self.routes = {}
        self.hits = collections.Counter()
        self.bodies = collections.defaultdict(list)
        self.peers = collections.defaultdict(set)
        self.inflight = 0
        self.max_inflight = 0
        self._lock = threading.Lock()

    def __enter__(self):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            if outer.keep_alive_s is not None:
                protocol_version = "HTTP/1.1"
                timeout = outer.keep_alive_s

            def do_POST(self):
                with outer._lock:
                    outer.inflight += 1
                    outer.max_inflight = max(outer.max_inflight, outer.inflight)
                try:
                    n = int(self.headers.get("Content-Length") or 0)
                    body = json.loads(self.rfile.read(n) or b"{}")
                    with outer._lock:
                        outer.hits[self.path] += 1
                        count = outer.hits[self.path]
                        outer.bodies[self.path].append(body)
                        outer.peers[self.client_address].add(self.path)
                    fn = outer.routes.get(self.path)
                    status, payload, *headers = (404, {"error": "no route"}) if fn is None else fn(body, count)
                    raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(raw)))
                    for name, value in (headers[0] if headers else {}).items():
                        self.send_header(name, value)
                    self.end_headers()
                    self.wfile.write(raw)
                finally:
                    with outer._lock:
                        outer.inflight -= 1

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._httpd.server_port}"
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join()
