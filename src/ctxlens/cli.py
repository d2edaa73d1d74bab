"""Command line front end.

Subcommands: ``mcl`` (minimal context length pipeline), ``damcl``
(divergence-based variant), ``detect`` (long/short classification),
``generate`` (sampling with optional boosting), ``bench`` (detection
overhead timing), ``score`` (text metrics), ``synth`` (synthetic corpora).

Exit codes: 0 success, 1 usage error, 2 backend failure, 3 data error.
Backends come from ``--backend`` (``mock:...``, ``openai:...`` or an
``http://`` or ``https://`` URL) or the ``CTXLENS_BACKEND_URL`` environment
variable. Output files are documented under "File formats" in README.md;
reruns with the same seed and mock backend are byte-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import math
import os
import pickle
import select
import signal
import sys
import time
import traceback
from dataclasses import asdict, replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .backends import CachedBackend, MockTokenizer, parse_mock_spec, prefix_distribution
from .backends.mock import parse_kv, pop_number
from .boosting import GENERATION_METHODS, BoostConfig, generate
from .corpus import (
    DEFAULT_BUCKETS,
    SYNTH_KINDS,
    id_field,
    load_jsonl,
    load_sequences_jsonl,
    parse_jsonl,
    sample_sequences,
    synth_sample,
    text_field,
)
from .decoding import DecodingStrategy, apply_strategy, derive_seed
from .detection import (
    LONG,
    LSD_LCL_SHORT_LEN,
    SHORT,
    LsdsConfig,
    lsd_lcl_oracle_label,
    lsds,
    mcl_oracle_label,
    roc_auc,
    tau_sweep,
    youden_threshold,
)
from .dist import JSD_MAX, jsd
from .errors import (
    BackendError,
    CtxlensError,
    DataError,
    NotLabelable,
    StrategyError,
    UsageError,
)
from .probe import GRID_MODES, METRIC_NAMES, PrefixGrid, accepts, damcl, mcl, mcl_histogram
from .reporting import aggregate_share, append_jsonl, histogram_csv, write_report, write_text
from .textmetrics import score_all, summarize

ENV_BACKEND_URL = "CTXLENS_BACKEND_URL"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BACKEND = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through the usage exit code instead.
    def error(self, message):
        raise UsageError(message)


def _ranged(kind: type, bound: str, in_range):
    """An option's converter (argparse's ``type=``): its text as a ``kind`` that passes ``in_range``.

    argparse runs the converters on flags, string defaults and ``--config`` lines alike, before
    the backend is built, and prints a bad value as ``argument --FLAG: ...``. NaN is never in range.
    """

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not in_range(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return convert


_SEED = _ranged(int, ">= 0", lambda v: v >= 0)
_COUNT = _ranged(int, ">= 1", lambda v: v >= 1)
_SHARE = _ranged(float, "in [0, 1]", lambda v: 0 <= v <= 1)
_JSD_BOUND = _ranged(float, f"in [0, {JSD_MAX}]", lambda v: 0 <= v <= JSD_MAX)
_NON_NEGATIVE = _ranged(float, ">= 0 and finite", lambda v: 0 <= v < math.inf)
_FINITE = _ranged(float, "finite", math.isfinite)


def _list_of(item):
    """A converter of comma-separated ``item`` values, at least one; empty items are skipped."""

    def convert(text: str) -> list:
        values = [item(x) for x in text.split(",") if x]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values

    return convert


def _strategy(text: str) -> DecodingStrategy:
    try:
        return DecodingStrategy.parse(text)
    except StrategyError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _buckets(text: str) -> tuple:
    """``lo-hi[,...]`` length buckets with 1 <= lo < hi; none twice, as samples are named by bucket."""
    buckets = []
    for part in text.split(","):
        try:
            lo, hi = map(int, part.split("-"))
        except ValueError:
            lo = hi = 0
        if not 1 <= lo < hi:
            raise argparse.ArgumentTypeError(f"bad bucket {part!r}, expected lo-hi with 1 <= lo < hi")
        if (lo, hi) in buckets:
            raise argparse.ArgumentTypeError(f"bucket {part!r} is given twice")
        buckets.append((lo, hi))
    return tuple(buckets)


def _short_len(text: str) -> int | float:
    """``detect --short-len``: a token count, or a fraction of the sequence length when below 1."""
    value = _ranged(float, "> 0 and finite", lambda v: 0 < v < math.inf)(text)
    if value >= 1 and value != int(value):
        raise argparse.ArgumentTypeError(f"must be an integer when >= 1, got {value}")
    return int(value) if value >= 1 else value


def _common_options(parser: argparse.ArgumentParser, backend: bool = True, parallel: bool = True) -> None:
    """The options every subcommand shares, leaving out those a subcommand would not read."""
    if backend:
        parser.add_argument("--backend", help="backend spec: mock:kind:k=v,..., openai:URL,vocab=N or a URL")
        parser.add_argument("--seed", type=_SEED, default=0, help="master RNG seed")
    parser.add_argument("--out", default="out", help="output directory")
    if parallel:
        parser.add_argument("--parallel", type=_COUNT, default=1, help="worker processes for a command's units")
    parser.add_argument("--config", help="key=value config file; flags override it")


def _corpus_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="JSONL corpus (documents or sequences)")
    parser.add_argument("--sample", type=_COUNT, help="treat corpus as documents, cut N sequences per bucket")
    default = ",".join(f"{lo}-{hi}" for lo, hi in DEFAULT_BUCKETS)
    parser.add_argument(
        "--buckets", type=_buckets, default=default, help="length buckets lo-hi[,...], default %(default)s"
    )


def _grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-start", type=_COUNT, default=32)
    parser.add_argument("--grid-step", type=_COUNT, default=16)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="ctxlens", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"ctxlens {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = subs.add_parser("mcl", help="minimal context length over a corpus")
    _common_options(p)
    _corpus_options(p)
    p.add_argument("--delta", type=_SHARE, default=0.2, help="confidence margin")
    _grid_options(p)
    p.set_defaults(func=cmd_mcl)

    p = subs.add_parser("damcl", help="divergence-based minimal context length")
    _common_options(p)
    _corpus_options(p)
    p.add_argument(
        "--strategies", type=_list_of(_strategy), default="nucleus:0.9",
        help="comma-separated decoding strategies",
    )
    p.add_argument("--metric", choices=METRIC_NAMES, default="jsd")
    p.add_argument(
        "--epsilons", type=_list_of(_NON_NEGATIVE), default="0.1,0.2", help="comma-separated thresholds"
    )
    p.add_argument("--grid-mode", choices=GRID_MODES, default="percentile")
    _grid_options(p)
    p.set_defaults(func=cmd_damcl)

    p = subs.add_parser("detect", help="long/short context detection")
    _common_options(p)
    p.add_argument("--corpus", required=True, help="JSONL sequences")
    p.add_argument("--oracle", choices=("planted", "mcl", "lsd_lcl"), default="planted")
    p.add_argument("--tau", type=_JSD_BOUND, default=0.6, help="decision threshold")
    p.add_argument("--short-len", type=_short_len, default=32, help="suffix size; <1 means fraction of length")
    p.add_argument("--strategy", type=_strategy, default="nucleus:0.9")
    p.add_argument("--tau-sweep", type=_list_of(_FINITE), help="comma-separated taus for a sweep table")
    p.add_argument("--delta", type=_SHARE, default=0.2, help="margin for the mcl oracle")
    _grid_options(p)
    p.set_defaults(func=cmd_detect)

    p = subs.add_parser("generate", help="sample continuations, optionally boosted")
    _common_options(p)
    p.add_argument("--prompts", required=True, help="JSONL prompts: {id, tokens|text, gold?}")
    p.add_argument("--method", choices=GENERATION_METHODS, default="vanilla")
    p.add_argument("--max-new", type=_COUNT, default=64)
    p.add_argument("--n-samples", type=_COUNT, default=5)
    p.add_argument("--strategy", type=_strategy, default="nucleus:0.9")
    p.add_argument(
        "--lam", type=_ranged(float, ">= 1 and finite", lambda v: 1 <= v < math.inf),
        help="boost factor, required for --method taboo",
    )
    p.add_argument("--alpha", type=_NON_NEGATIVE, default=0.5, help="contrast strength for --method cad")
    p.add_argument("--gamma", type=_JSD_BOUND, default=0.1225, help="score gate for boosting")
    p.add_argument(
        "--boost-eps", type=_ranged(float, "in (0, 1]", lambda v: 0 < v <= 1), default=0.05,
        help="probability-shift cutoff",
    )
    p.add_argument("--short-len", type=_COUNT, default=32)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("bench", help="detection overhead vs context length")
    _common_options(p)
    p.add_argument(
        "--lengths", type=_list_of(_COUNT), default="100,200,500", help="comma-separated context lengths"
    )
    p.add_argument(
        "--repeat", type=_COUNT, default=3, help="timings per length; the fastest of each is kept"
    )
    p.add_argument("--short-len", type=_COUNT, default=32)
    p.add_argument("--strategy", type=_strategy, default="nucleus:0.9")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("score", help="text metrics over prediction/gold pairs")
    _common_options(p, backend=False, parallel=False)
    p.add_argument("--pairs", required=True, help="JSONL rows: {id?, pred, gold}")
    p.set_defaults(func=cmd_score)

    p = subs.add_parser("synth", help="emit a synthetic labeled corpus")
    _common_options(p, parallel=False)
    p.add_argument("--kind", choices=tuple(SYNTH_KINDS), default="niah")
    p.add_argument("--n", type=_COUNT, default=20)
    p.add_argument("--total-len", type=_COUNT, default=200)
    p.add_argument("--window", type=_COUNT, default=32)
    p.add_argument("--digits", type=_COUNT, default=6)
    p.set_defaults(func=cmd_synth)

    return parser, subs.choices


def _config_flags(path: str, table: dict[str, argparse.ArgumentParser], command: str) -> list[str]:
    """The ``--key=value`` flag of each ``key = value`` line of a config file that ``command`` has.

    One pair per line, ``#`` comments. A key of another subcommand is skipped; a key that no
    subcommand has is a usage error.
    """
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    flags, unknown = [], []
    for raw in p.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"bad config line (need key=value): {raw!r}")
        flag = "--" + key.strip().replace("_", "-")
        if flag in table[command]._option_string_actions:
            flags.append(f"{flag}={value.strip()}")
        elif not any(flag in sub._option_string_actions for sub in table.values()):
            unknown.append(key.strip())
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return flags


def build_backend(spec: str | None):
    """The backend a spec names."""
    if spec is None:
        spec = os.environ.get(ENV_BACKEND_URL)
        if not spec:
            raise UsageError(f"no backend: pass --backend or set {ENV_BACKEND_URL}")

    if spec.startswith("mock:"):
        return parse_mock_spec(spec[len("mock:") :])
    if not spec.startswith(("http://", "https://", "openai:")):
        raise UsageError(f"unrecognized backend spec {spec!r}; a URL needs an http:// or https:// scheme")
    # Only these specs load the HTTP client and the stdlib it pulls in (http.client, ssl, email).
    from .backends.http import BackendEndpoint, HttpBackend, OpenAICompatBackend

    def endpoint(url: str, **kwargs) -> BackendEndpoint:
        try:
            return BackendEndpoint(base_url=url, **kwargs)
        except ValueError as exc:
            raise UsageError(f"bad backend spec {spec!r}: {exc}") from None

    if spec.startswith(("http://", "https://")):
        return HttpBackend(endpoint(spec))
    url, _, params = spec[len("openai:") :].partition(",")
    kv = parse_kv(params)
    vocab = pop_number(kv, "vocab", int, None)
    if vocab is None:
        raise UsageError("openai backend needs vocab=N (vocab size is not discoverable)")
    if vocab < 1:
        raise UsageError(f"openai backend vocab must be >= 1, got {vocab}")
    top, model = pop_number(kv, "top", int, 50), kv.pop("model", "default")
    if kv:
        raise UsageError(f"unknown openai parameters: {', '.join(sorted(kv))}")
    return OpenAICompatBackend(endpoint(url, top=top), model=model, vocab_size=vocab)


def _tokenizer_of(backend):
    return backend if hasattr(backend, "tokenize") else MockTokenizer(backend.vocab_size)


def _load_tokenized(path, tokenizer):
    """``load_jsonl``'s documents in file order, every text document tokenized by ``tokenizer``."""
    docs, warnings = load_jsonl(path)
    docs = [replace(doc, tokens=tokenizer.tokenize(doc.text)) if doc.tokens is None else doc for doc in docs]
    return docs, warnings


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The options of ``argv``, each read once and checked before a backend is built or ``--out`` made.

    A ``--config`` file's lines go in right after the subcommand as the flags they name, so
    argparse holds them to the converters, choices and ``required`` of flags, and a later flag
    wins. The settings that a command and its summary share are built here, once: ``grid``,
    ``combos`` (damcl's (strategy, epsilon, file slug) triples), ``lsds``, and ``boost`` with
    ``boost_record``, the config that each generation record carries.
    """
    parser, table = build_parser()
    find_config = _Parser(add_help=False)
    find_config.add_argument("--config")
    config_path = find_config.parse_known_args(argv)[0].config
    at = next((i for i, arg in enumerate(argv) if arg in table), None)
    if config_path and at is not None:
        argv = [*argv[: at + 1], *_config_flags(config_path, table, argv[at]), *argv[at + 1 :]]
    args = parser.parse_args(argv)
    if "grid_start" in args:
        args.grid = PrefixGrid(args.grid_start, args.grid_step, getattr(args, "grid_mode", "fixed_step"))
    if args.command == "damcl":
        args.combos = [(strategy, eps, f"{strategy.token().replace(':', '-')}_{args.metric}_eps{eps:g}")
                       for strategy in args.strategies for eps in args.epsilons]
        slugs = [slug for _, _, slug in args.combos]
        for slug in slugs:
            if slugs.count(slug) > 1:
                raise UsageError(f"two --strategies x --epsilons combinations name damcl_{slug}.jsonl")
    elif args.command == "detect":
        args.lsds = LsdsConfig(short_len=args.short_len, strategy=args.strategy, tau=args.tau)
    elif args.command == "generate":
        if args.method == "taboo" and args.lam is None:
            raise UsageError("--method taboo requires --lam (no published default)")
        lam = 1.0 if args.lam is None else args.lam
        args.boost = BoostConfig(lam, args.gamma, args.boost_eps, args.strategy, args.short_len)
        args.boost_record = {
            "method": args.method, "strategy": args.strategy.token(), "lam": lam, "gamma": args.gamma,
            "epsilon": args.boost_eps, "alpha": args.alpha, "short_len": args.short_len,
            "max_new": args.max_new,
        }
    elif args.command == "bench" and any(n <= args.short_len for n in args.lengths):
        raise UsageError(f"--lengths must all exceed --short-len {args.short_len}")
    return args


@contextlib.contextmanager
def _setup(args):
    """Build the command's backend and make its ``--out`` directory; close the backend on the way out.

    Mocks hold nothing to close. An HTTP backend closes its keep-alive connections, which nothing
    else would: the ``ctxlens`` process ends with ``os._exit``, without interpreter teardown.
    """
    backend = build_backend(args.backend)
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        yield backend, out
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()


def _load_input_sequences(args, backend):
    """Corpus rows are documents when --sample is given, pre-cut sequences otherwise; sorted by seq_id."""
    if not getattr(args, "sample", None):
        samples, warnings = load_sequences_jsonl(args.corpus)
    else:
        docs, warnings = _load_tokenized(args.corpus, _tokenizer_of(backend))
        samples = []
        for i, doc in enumerate(docs):
            seed = derive_seed(args.seed, i)
            cut, warn = sample_sequences(doc.tokens, args.sample, args.buckets, seed, doc.doc_id)
            samples.extend(cut)
            warnings.extend({"doc_id": doc.doc_id, **w} for w in warn)
        if not samples:
            raise DataError("sampling produced no sequences (documents too short for every bucket)")
    return sorted(samples, key=lambda s: s.seq_id), warnings


def _run_units(args, backend, items, unit, files, summarize, unit_id=lambda item: item.seq_id) -> dict:
    """Run ``unit(item, memo)`` over ``items``, write each unit's records, then the summary.

    ``unit`` returns one list of records per entry of ``files`` (None: a stream no file holds).
    They are appended as soon as the unit is done, after every earlier unit's, so at any
    ``--parallel`` a file lists records in input order and a cut run leaves a prefix. Units run
    in ``--parallel`` forked worker processes (inline for one worker, one unit, or where
    ``os.fork`` is missing). Each unit gets its own ``CachedBackend``, made in the process that
    runs it and dropped with the unit. ``summarize`` reads the units' records once, keeping
    none, and returns the other files' contents (a report dict or text). A unit's
    ``BackendError`` writes ``<command>_failure.json`` before it propagates.
    """
    out = Path(args.out)

    def run(item):
        return unit(item, CachedBackend(backend))

    def written(results):
        for item in items:
            try:
                records = next(results)
            except BackendError as err:
                report = {"command": args.command, "seq_id": unit_id(item), "error": str(err),
                          "attempts": err.attempts, "partial_trace": err.partial_trace}
                write_report(out / f"{args.command}_failure.json", report)
                raise
            for fh, stream in zip(handles, records):
                for record in stream if fh else ():
                    append_jsonl(fh, record)
            yield records

    with contextlib.ExitStack() as stack:
        handles = [name and stack.enter_context((out / name).open("w", encoding="utf-8")) for name in files]
        workers = min(args.parallel, len(items)) if hasattr(os, "fork") else 1
        results = map(run, items)
        if workers > 1:
            results = stack.enter_context(contextlib.closing(_in_workers(run, items, workers)))
        artifacts = summarize(written(results))
    for name, body in artifacts.items():
        (write_report if isinstance(body, dict) else write_text)(out / name, body)
    return artifacts


class _WorkerTraceback(Exception):
    """The traceback of a unit's exception in its worker process, chained as the exception's cause."""


def _in_workers(run, items, workers: int):
    """Yield ``run(item)`` for each of ``items``, in input order, computed by ``workers`` forked processes.

    A worker reads units from its forked copy of ``items``, so they are never pickled. It
    takes the next unit's index from a pipe that holds it between takes, so a worker that
    finishes early takes more. It sends ``(index, result, traceback)`` pickled over its own
    pipe. A unit's exception is sent in place of its result, ends that worker, and is raised
    here at the unit's turn. Workers end with ``os._exit``, so they never flush the buffers
    they inherit. However the caller leaves, every worker is killed and reaped. The commands
    start no threads, so no worker inherits a lock that another thread holds.
    """
    next_r, next_w = os.pipe()
    os.write(next_w, (0).to_bytes(8, "little"))
    fds, pids, poll, live = [next_r, next_w], [], select.poll(), 0
    try:
        for _ in range(workers):
            result_r, result_w = os.pipe()
            fds += result_r, result_w
            pid = os.fork()
            if pid == 0:
                try:
                    _work(run, items, next_r, next_w, result_w)
                finally:
                    os._exit(0)
            pids.append(pid)
            fds.remove(result_w)
            os.close(result_w)
            poll.register(result_r, select.POLLIN)
            live += 1
        done = {}
        for i in range(len(items)):
            while i not in done:
                if not live:
                    raise RuntimeError(f"the worker processes ended before unit {i} was done")
                for fd, _ in poll.poll():
                    size = _read(fd, 8)
                    body = size and _read(fd, int.from_bytes(size, "little"))
                    if not body:  # the worker has ended
                        poll.unregister(fd)
                        live -= 1
                        continue
                    index, result, trace = pickle.loads(body)
                    if trace is not None:
                        result.__cause__ = _WorkerTraceback(trace)
                    done[index] = result
            result = done.pop(i)
            if isinstance(result, Exception):
                raise result
            yield result
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _work(run, items, next_r: int, next_w: int, out: int) -> None:
    """A worker's loop: take the next index, run its unit and send ``(index, result, traceback)``."""
    while True:
        # The pipe holds one 8-byte index at a time, so a read takes it whole and the other
        # workers wait until it is written back, one higher.
        i = int.from_bytes(os.read(next_r, 8), "little")
        os.write(next_w, (i + 1).to_bytes(8, "little"))
        if i >= len(items):
            return
        try:
            message = (i, run(items[i]), None)
        except Exception as exc:
            message = (i, exc, traceback.format_exc())
        body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        view = memoryview(len(body).to_bytes(8, "little") + body)
        while view:
            view = view[os.write(out, view) :]
        if message[2] is not None:
            return


def _read(fd: int, n: int) -> bytes:
    """``n`` bytes from a pipe, or none if its writer closed it before sending them all."""
    data = bytearray()
    while len(data) < n and (chunk := os.read(fd, n - len(data))):
        data += chunk
    return data if len(data) == n else b""


def cmd_mcl(args) -> int:
    with _setup(args) as (backend, _):
        samples, warnings = _load_input_sequences(args, backend)

        def probe_one(sample, memo):
            """The sequence's record, or, in the stream no file holds, why it was filtered out."""
            if sample.next_token is None:
                reason = "no ground-truth next token"
            elif len(sample.tokens) < args.grid.start:
                reason = f"sequence length {len(sample.tokens)} below grid start {args.grid.start}"
            elif not accepts(
                prefix_distribution(sample.tokens, len(sample.tokens), memo), sample.next_token, args.delta
            ):
                reason = "full-context prediction not confident-correct"
            else:
                memo.longest_kept = 0  # the walk asks twice only for the full sequence, stored by the gate
                probe = mcl(sample.tokens, sample.next_token, args.delta, args.grid, memo)
                return [probe.to_record(sample.seq_id)], []
            return [], [{"seq_id": sample.seq_id, "reason": reason}]

        _run_units(
            args, backend, samples, probe_one, ["mcl_results.jsonl", None],
            lambda units: _mcl_summary(args, units, warnings),
        )
        return EXIT_OK


def _mcl_summary(args, units, warnings) -> dict:
    """``mcl_summary.json``, and ``mcl_hist.csv`` when a sequence resolved, from each unit's two streams."""
    n_kept, lengths, filtered = 0, [], []
    for records, dropped in units:
        n_kept += len(records)
        lengths.extend(r["length"] for r in records if r["resolved"])
        filtered.extend(dropped)
    artifacts, fit = {}, None
    if lengths:
        _, fit = mcl_histogram(lengths)
        artifacts["mcl_hist.csv"] = histogram_csv(lengths)
    artifacts["mcl_summary.json"] = {
        "command": "mcl",
        "n_input": n_kept + len(filtered),
        "n_kept": n_kept,
        "n_resolved": len(lengths),
        "n_unresolved": n_kept - len(lengths),
        "filtered": filtered,
        "warnings": warnings,
        "share_le": {key: aggregate_share(lengths, int(key)) if lengths else None for key in ("32", "96")},
        "fit": None if fit is None else {
            "a": fit.a, "b_hat": fit.b_hat, "b_hat_signed": fit.slope, "r_squared": fit.r_squared
        },
        "delta": args.delta,
        "grid": asdict(args.grid),
        "truncation": "suffix",
        "seed": args.seed,
    }
    return artifacts


def cmd_damcl(args) -> int:
    with _setup(args) as (backend, _):
        samples, warnings = _load_input_sequences(args, backend)
        strategies, epsilons, grid = args.strategies, args.epsilons, args.grid
        floor = min(epsilons)

        def probe_one(sample, memo):
            """Every combination of one sequence, cut from one walk per strategy at the smallest epsilon."""
            walks = [damcl(sample.tokens, strategy, args.metric, floor, grid, memo) for strategy in strategies]
            return [[walk.at_epsilon(eps).to_record(sample.seq_id)] for walk in walks for eps in epsilons]

        files = [f"damcl_{slug}.jsonl" for _, _, slug in args.combos]
        _run_units(
            args, backend, samples, probe_one, files, lambda units: _damcl_summary(args, units, warnings)
        )
        return EXIT_OK


def _damcl_summary(args, units, warnings) -> dict:
    """A histogram per combination and ``damcl_summary.json``, from each unit's records per combination."""
    lengths = [[] for _ in args.combos]
    for row in units:
        for combo_lengths, records in zip(lengths, row):
            combo_lengths.extend(r["length"] for r in records)
    artifacts = {
        f"damcl_{slug}_hist.csv": histogram_csv(ells) for (_, _, slug), ells in zip(args.combos, lengths)
    }
    artifacts["damcl_summary.json"] = {
        "command": "damcl",
        "combos": [
            {"strategy": strategy.token(), "metric": args.metric, "epsilon": eps, "n": len(ells),
             "mean_length": sum(ells) / len(ells)}
            for (strategy, eps, _), ells in zip(args.combos, lengths)
        ],
        "warnings": warnings,
        "grid": asdict(args.grid),
        "truncation": "suffix",
        "seed": args.seed,
    }
    return artifacts


def _oracle_label_fn(args):
    """The oracle as a function of (sample, memo), and the fewest tokens a sequence needs for it."""
    def label_of(sample, memo):
        if args.oracle == "planted":
            if sample.label is None:
                raise DataError(f"sequence {sample.seq_id} has no planted label")
            return sample.label
        if sample.next_token is None:
            raise DataError(f"sequence {sample.seq_id} has no ground-truth token")
        if args.oracle == "mcl":
            return mcl_oracle_label(sample.tokens, sample.next_token, args.delta, args.grid, memo)
        return lsd_lcl_oracle_label(sample.tokens, sample.next_token, memo)

    return label_of, {"planted": 1, "mcl": args.grid.start, "lsd_lcl": LSD_LCL_SHORT_LEN + 1}[args.oracle]


def cmd_detect(args) -> int:
    with _setup(args) as (backend, _):
        samples, warnings = _load_input_sequences(args, backend)
        cfg = args.lsds
        label_of, oracle_len = _oracle_label_fn(args)
        # Check every sequence before the first backend call, so a short one writes no partial results.
        too_short = [
            s.seq_id
            for s in samples
            if len(s.tokens) < oracle_len or len(s.tokens) <= cfg.resolved_short_len(len(s.tokens))
        ]
        if too_short:
            raise DataError(
                f"sequences too short for --short-len {args.short_len:g} and the {args.oracle} oracle:"
                f" {', '.join(too_short)}"
            )

        def score_one(sample, memo):
            """The position's record, or, in the stream no file holds, why the oracle could not label it."""
            try:
                label = label_of(sample, memo)
            except NotLabelable as err:
                return [], [{"seq_id": sample.seq_id, "reason": str(err)}]
            score = lsds(sample.tokens, cfg, memo)
            pred = LONG if score >= cfg.tau else SHORT
            return [{"seq_id": sample.seq_id, "lsds": score, "label_pred": pred, "label_oracle": label,
                     "oracle_kind": args.oracle}], []

        _run_units(
            args, backend, samples, score_one, ["detect_results.jsonl", None],
            lambda units: _detect_summary(args, units, warnings),
        )
        return EXIT_OK


def _detect_summary(args, units, warnings) -> dict:
    """``detect_summary.json``, and ``detect_tau_sweep.csv`` for ``--tau-sweep``, from the two streams."""
    pairs, filtered = [], []
    for records, dropped in units:
        pairs.extend((r["lsds"], r["label_oracle"] == LONG) for r in records)
        filtered.extend(dropped)
    cfg = args.lsds
    auc = roc_auc(pairs)
    at_tau = tau_sweep(pairs, [cfg.tau])[0]
    artifacts = {}
    if args.tau_sweep:
        rows = tau_sweep(pairs, args.tau_sweep)
        artifacts["detect_tau_sweep.csv"] = "tau,tpr,fpr,j,accuracy\n" + "".join(
            f"{r['tau']:g},{r['tpr']:.6f},{r['fpr']:.6f},{r['j']:.6f},{r['accuracy']:.6f}\n" for r in rows
        )
    artifacts["detect_summary.json"] = {
        "command": "detect",
        "n": len(pairs),
        "auc": auc,
        "youden": youden_threshold(pairs),
        "confusion": {key: at_tau[key] for key in ("tp", "fp", "tn", "fn")},
        "accuracy": at_tau["accuracy"],
        "filtered": filtered,
        "tau": cfg.tau,
        "short_len": cfg.short_len,
        "strategy": cfg.strategy.token(),
        "oracle": args.oracle,
        "warnings": warnings,
        "truncation": "suffix",
        "seed": args.seed,
    }
    return artifacts


def cmd_generate(args) -> int:
    with _setup(args) as (backend, _):
        cfg, config = args.boost, args.boost_record
        tokenizer = _tokenizer_of(backend)
        docs, warnings = _load_tokenized(args.prompts, tokenizer)
        prompts = sorted(docs, key=lambda doc: doc.doc_id)

        def generate_prompt(item, memo):
            """The records of all samples of one prompt, generated on one memo."""
            p_idx, prompt = item
            records = []
            for k in range(args.n_samples):
                if k == args.n_samples - 1:
                    # A later sample may follow an earlier one's tokens, but none follows the last,
                    # whose full contexts grow every step: only its short suffixes can come back.
                    memo.longest_kept = args.short_len
                seed = derive_seed(args.seed, p_idx, k)
                result = generate(prompt.tokens, args.max_new, args.method, cfg, seed, memo, alpha=args.alpha)
                text = tokenizer.detokenize(result.tokens)
                records.append({"prompt_id": prompt.doc_id, "sample": k, "config": config, "text": text,
                                **result.to_record()})
            return (records,)

        artifacts = _run_units(
            args, backend, list(enumerate(prompts)), generate_prompt, ["generations.jsonl"],
            lambda units: _generate_summary(args, units, prompts, warnings),
            unit_id=lambda item: item[1].doc_id,
        )
        return EXIT_BACKEND if artifacts["generate_summary.json"]["had_backend_error"] else EXIT_OK


def _generate_summary(args, units, prompts, warnings) -> dict:
    """``generate_summary.json``, and ``generate_scores.json`` when a prompt has a gold answer.

    Besides the records, it reads the prompts' number and gold answers, which no record holds.
    """
    gold = {prompt.doc_id: prompt.gold for prompt in prompts}
    scores: dict[str, list[dict[str, float]]] = {}
    had_error = False
    for (records,) in units:
        for r in records:
            had_error = had_error or r["error"] is not None
            if gold[r["prompt_id"]] is not None:
                scores.setdefault(r["prompt_id"], []).append(score_all(r["text"], gold[r["prompt_id"]]))
    artifacts = {}
    if scores:
        metrics = {}
        for metric in ("token_f1", "bleu", "rouge_l"):
            per_prompt = [summarize([s[metric] for s in samples]) for samples in scores.values()]
            metrics[metric] = {k: sum(p[k] for p in per_prompt) / len(per_prompt) for k in ("mean", "best")}
        artifacts["generate_scores.json"] = {
            "command": "generate", "n_prompts": len(scores), "metrics": metrics
        }
    artifacts["generate_summary.json"] = {
        "command": "generate",
        "n_prompts": len(prompts),
        "n_samples": args.n_samples,
        "config": args.boost_record,
        "prompt_errors": warnings,
        "had_backend_error": had_error,
        "seed": args.seed,
    }
    return artifacts


def cmd_bench(args) -> int:
    with _setup(args) as (backend, out):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
        # One warmup call resolves lazy vocab discovery on HTTP backends.
        prefix_distribution([0], 1, backend)
        vocab = backend.vocab_size

        # Scheduling noise only ever adds time, so the fastest of the repeats is
        # the least disturbed estimate of each component's cost.
        rows = []
        for n in args.lengths:
            seq = [int(t) for t in rng.integers(0, vocab, size=n)]
            full_s = short_s = arith_s = float("inf")
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                raw_full = prefix_distribution(seq, n, backend)
                t1 = time.perf_counter()
                raw_short = prefix_distribution(seq, args.short_len, backend)
                t2 = time.perf_counter()
                jsd(apply_strategy(raw_short, args.strategy), apply_strategy(raw_full, args.strategy))
                t3 = time.perf_counter()
                full_s = min(full_s, t1 - t0)
                short_s = min(short_s, t2 - t1)
                arith_s = min(arith_s, t3 - t2)
            full_ms = 1e3 * full_s
            extra_ms = 1e3 * (short_s + arith_s)
            rows.append(
                {"len": n, "full_ms": full_ms, "extra_ms": extra_ms, "ratio": extra_ms / full_ms}
            )

    lines = ["len,full_ms,extra_ms,ratio"]
    lines.extend(
        f"{r['len']},{r['full_ms']:.3f},{r['extra_ms']:.3f},{r['ratio']:.4f}" for r in rows
    )
    write_text(out / "bench.csv", "\n".join(lines) + "\n")
    write_report(
        out / "bench.json",
        {"command": "bench", "rows": rows, "repeat": args.repeat, "short_len": args.short_len},
    )
    return EXIT_OK


def _score_pair(rec: dict, line: bytes, lineno: int) -> tuple[str, str, str]:
    row_id = id_field(rec, "id", default=f"line{lineno}")
    return row_id, text_field(rec, "pred", True), text_field(rec, "gold", True)


def cmd_score(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows, bad = parse_jsonl(args.pairs, _score_pair, "pairs", "scoreable rows")
    per_metric: dict[str, list[float]] = {"token_f1": [], "bleu": [], "rouge_l": []}
    with (out / "scores.jsonl").open("w", encoding="utf-8") as fh:
        for row_id, pred, gold in rows:
            scores = score_all(pred, gold)
            append_jsonl(fh, {"id": row_id, **scores})
            for name, value in scores.items():
                per_metric[name].append(value)
    write_report(
        out / "score_summary.json",
        {
            "command": "score",
            "n": len(rows),
            "errors": bad,
            "metrics": {name: summarize(vals) for name, vals in per_metric.items()},
        },
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    with _setup(args) as (backend, out):
        tokenizer = _tokenizer_of(backend)
        records = []
        for i in range(args.n):
            seed = derive_seed(args.seed, i)
            sample = synth_sample(args.kind, args.total_len, args.window, args.digits, tokenizer, seed)
            records.append(
                {**sample.to_record(), "seq_id": f"{args.kind}/{i:04d}", "kind": SYNTH_KINDS[args.kind]}
            )
    with (out / "synth.jsonl").open("w", encoding="utf-8") as fh:
        for record in records:
            append_jsonl(fh, record)
    write_report(
        out / "synth_summary.json",
        {
            "command": "synth",
            "kind": args.kind,
            "n": len(records),
            "n_short": sum(1 for r in records if r["label"] == SHORT),
            "n_long": sum(1 for r in records if r["label"] == LONG),
            "window": args.window,
            "seed": args.seed,
        },
    )
    return EXIT_OK


# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Make glibc keep freed memory in the process for reuse, not hand it back to the kernel.

    By default glibc maps each allocation above its mmap threshold afresh and
    unmaps it on free, and returns the free top of a heap once it passes the
    trim threshold. A probe run allocates and frees vocab-sized numpy
    temporaries (256 KB at V=32768) on every backend call, so under those
    defaults each call faults the same pages in again: about 225 minor faults
    per ``detect`` position. Where the C library has no ``mallopt`` (not
    glibc) this does nothing.
    """
    if os.name != "posix":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # glibc's largest mmap threshold, 4 MiB per byte of a long (32 MiB on 64-bit): blocks up
    # to it, such as a float64 vector at V=131072 or the 6 MB JSON body of a V=131072 reply,
    # come from the heap.
    mallopt(_M_MMAP_THRESHOLD, 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long))
    # Above the free top one call leaves (tens of MB at most, with every thread's
    # temporaries freed) and above a thread arena's 64 MiB heap, so no heap is trimmed
    # between calls; the process keeps its high-water mark until it exits.
    mallopt(_M_TRIM_THRESHOLD, 128 * 1024 * 1024)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    try:
        args = parse_args(list(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except (UsageError, StrategyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except CtxlensError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run_and_exit() -> NoReturn:
    """The ``ctxlens`` script and ``python -m ctxlens.cli``: :func:`main`, then ``os._exit``.

    Ending without interpreter teardown (module cleanup, numpy's BLAS threads) saves
    30-45 ms per command on a 2-core VM. By the time ``main`` returns, or argparse raises ``SystemExit``
    for ``--help`` or ``--version``, every output file is closed and ``_setup`` has closed
    the backend, so only stdout and stderr are left to flush. A failed flush exits 120, as
    the interpreter would; any other exception takes the interpreter's usual way out.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None when the process started with that descriptor closed
                stream.flush()
        except (OSError, ValueError):
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
