"""Span tracing of one ctxlens CLI command, installed from outside the package.

Run: ``python3 tracer.py TRACE.json -- mcl --backend ... --out DIR``. It
imports ``ctxlens.cli``, wraps the public functions of each layer at every
import site (each module attribute, class attribute or module-level table
entry that holds the original object), runs the command in this process
and writes the spans to ``TRACE.json`` when it ends.

A span records its name, its parent on the same thread, start, end and
self time (its duration minus the time its child spans cover). Spans are
kept in memory until exit. A target that no longer exists is listed under
``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start, end, self seconds]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.backends: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name: str, hook=None, span: bool = True):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.add(f"{name}.calls")
            if not span:
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    tracer.add(f"{name}.raised")
                    raise
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span_id, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.add(f"{name}.raised")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                tracer.spans.append(
                    [span_id, parent[0] if parent else None, name, frame[1], end, duration - frame[2]]
                )
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def _on_backend(tracer, backend, args, kwargs):
    tracer.backends.append(backend)


def _on_probe(kind):
    def hook(tracer, result, args, kwargs):
        tracer.add(f"probe.{kind}.points", len(result.trace))

    return hook


def _on_youden(tracer, result, args, kwargs):
    with tracer._lock:
        tracer.counts["detection.calibration_n"] = max(
            tracer.counts.get("detection.calibration_n", 0), len(args[0])
        )


def _on_taboo(tracer, result, args, kwargs):
    tracer.add("boosting.taboo_steps")
    if len(result[1].boosted_set) > 0:
        tracer.add("boosting.gate_open_steps")


def _on_generate(tracer, result, args, kwargs):
    tracer.add("boosting.tokens", len(result.tokens))


def _on_post(tracer, response, args, kwargs):
    tracer.add("http.response_bytes", len(response.content))


# (module, attribute path, span name, hook, whether it is a span or only a counter)
TARGETS = (
    ("ctxlens.cli", "build_backend", "cli.build_backend", _on_backend, True),
    ("ctxlens.backends.base", "prefix_distribution", "backends.prefix_distribution", None, True),
    ("ctxlens.backends.http", "HttpBackend.next_token_distribution", "http.next_token_distribution", None, True),
    ("ctxlens.backends.http", "_HttpBase._post", "http.request", None, False),
    ("requests", "Session.post", "http.post", _on_post, True),
    ("ctxlens.backends.http", "complete_distribution", "http.complete_distribution", None, True),
    ("ctxlens.probe", "filter_confident_correct", "probe.filter_confident_correct", None, True),
    ("ctxlens.probe", "mcl", "probe.mcl", _on_probe("mcl"), True),
    ("ctxlens.probe", "damcl", "probe.damcl", _on_probe("damcl"), True),
    ("ctxlens.detection", "lsds", "detection.lsds", None, True),
    ("ctxlens.detection", "roc_auc", "detection.roc_auc", None, True),
    ("ctxlens.detection", "youden_threshold", "detection.youden_threshold", _on_youden, True),
    ("ctxlens.detection", "tau_sweep", "detection.tau_sweep", None, True),
    ("ctxlens.decoding", "apply_strategy", "decoding.apply_strategy", None, True),
    ("ctxlens.decoding", "confidence", "decoding.confidence", None, True),
    ("ctxlens.decoding", "sample", "decoding.sample", None, True),
    ("ctxlens.dist", "jsd", "dist.jsd", None, True),
    ("ctxlens.dist", "TokenDistribution.from_weights", "dist.from_weights", None, True),
    ("ctxlens.boosting", "taboo_step", "boosting.taboo_step", _on_taboo, True),
    ("ctxlens.boosting", "cad_step", "boosting.cad_step", None, True),
    ("ctxlens.boosting", "generate", "boosting.generate", _on_generate, True),
    ("ctxlens.corpus", "load_sequences_jsonl", "corpus.load_sequences_jsonl", None, True),
    ("ctxlens.corpus", "load_jsonl", "corpus.load_jsonl", None, True),
    ("ctxlens.reporting", "append_jsonl", "reporting.append_jsonl", None, True),
    ("ctxlens.reporting", "write_report", "reporting.write_report", None, True),
)


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ctxlens module attribute and module-level dict value that is ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "ctxlens" or mod_name.startswith("ctxlens.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install(tracer: Tracer) -> None:
    for mod_name, path, name, hook, span in TARGETS:
        try:
            module = importlib.import_module(mod_name)
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part)
            if owners:
                raw = vars(owner).get(attr)
                if raw is None:
                    raise AttributeError(path)
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, hook, span)))
                else:
                    setattr(owner, attr, tracer.wrap(raw, name, hook, span))
            else:
                original = getattr(module, attr)
                _replace_everywhere(original, tracer.wrap(original, name, hook, span))
        except (ImportError, AttributeError):
            tracer.absent.append(f"{mod_name}.{path}")


def backend_counters(backend) -> dict:
    """Cache hits, misses and resident bytes, and the upstream call count of a mock."""
    out: dict = {}
    node = backend
    while node is not None:
        if hasattr(node, "hits") and hasattr(node, "misses"):
            out["cache.hits"] = out.get("cache.hits", 0) + node.hits
            out["cache.misses"] = out.get("cache.misses", 0) + node.misses
            store = getattr(node, "_store", None)
            if store is not None:
                # Entries may share one array (mocks return the same object), so count each once.
                arrays = {id(d.probs): d.probs.nbytes for d in list(store.values())}
                out["cache.resident_bytes"] = sum(arrays.values())
        inner = getattr(node, "inner", None)
        if inner is None and isinstance(getattr(node, "calls", None), int):
            out["mock.calls"] = node.calls
        node = inner
    return out


def main(argv: list[str]) -> int:
    trace_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE.json -- <ctxlens arguments>")
    from ctxlens import cli

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    code = None
    try:
        code = cli.main(cli_args)
        return code
    finally:
        counts = dict(tracer.counts)
        for backend in tracer.backends:
            for key, value in backend_counters(backend).items():
                counts[key] = counts.get(key, 0) + value
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "argv": cli_args,
                    "exit": code,
                    "wall_s": time.perf_counter() - start,
                    "counts": counts,
                    "absent": tracer.absent,
                    "spans": tracer.spans,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
