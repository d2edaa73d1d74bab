"""Command line front end.

Subcommands: ``mcl`` (minimal context length pipeline), ``damcl``
(divergence-based variant), ``detect`` (long/short classification),
``generate`` (sampling with optional boosting), ``bench`` (detection
overhead timing), ``score`` (text metrics), ``synth`` (synthetic corpora).

Exit codes: 0 success, 1 usage error, 2 backend failure, 3 data error.
Backends come from ``--backend`` (``mock:...`` or ``http:URL``) or the
``CTXLENS_BACKEND_URL`` environment variable. Output files are documented
under "File formats" in README.md; reruns with the same seed and mock
backend are byte-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .backends import (
    BackendEndpoint,
    CachedBackend,
    HttpBackend,
    MockTokenizer,
    OpenAICompatBackend,
    parse_mock_spec,
    prefix_distribution,
)
from .boosting import GENERATION_METHODS, BoostConfig, generate
from .corpus import (
    DEFAULT_BUCKETS,
    SyntheticSpec,
    TokenDiskCache,
    default_filler_tokens,
    gen_longeval,
    gen_niah,
    load_jsonl,
    load_sequences_jsonl,
    sample_sequences,
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
from .dist import jsd
from .errors import (
    BackendError,
    CtxlensError,
    DataError,
    InsufficientData,
    NotLabelable,
    StrategyError,
    UsageError,
)
from .probe import GRID_MODES, METRIC_NAMES, PrefixGrid, accepts, damcl, mcl, mcl_histogram
from .reporting import ConfusionMatrix, Histogram, aggregate_share, append_jsonl, write_report, write_text
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


def _common_options(parser: argparse.ArgumentParser, backend: bool = True, parallel: bool = True) -> None:
    """The options every subcommand shares, leaving out those a subcommand would not read."""
    if backend:
        parser.add_argument("--backend", help="backend spec: mock:kind:k=v,... or http:URL")
        parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--out", default="out", help="output directory")
    if parallel:
        parser.add_argument("--parallel", type=int, default=1, help="concurrent backend calls")
    parser.add_argument("--config", help="key=value config file; flags override it")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="ctxlens", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"ctxlens {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command")
    table: dict[str, argparse.ArgumentParser] = {}

    p = subs.add_parser("mcl", help="minimal context length over a corpus")
    _common_options(p)
    p.add_argument("--corpus", required=True, help="JSONL corpus (documents or sequences)")
    p.add_argument("--sample", type=int, help="treat corpus as documents, cut N sequences per bucket")
    p.add_argument("--buckets", help="length buckets lo-hi[,lo-hi...], default 32-100..900-1000")
    p.add_argument("--delta", type=float, default=0.2, help="confidence margin")
    p.add_argument("--grid-start", type=int, default=32)
    p.add_argument("--grid-step", type=int, default=16)
    p.set_defaults(func=cmd_mcl)
    table["mcl"] = p

    p = subs.add_parser("damcl", help="divergence-based minimal context length")
    _common_options(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--sample", type=int)
    p.add_argument("--buckets")
    p.add_argument("--strategies", default="nucleus:0.9", help="comma-separated decoding strategies")
    p.add_argument("--metric", choices=METRIC_NAMES, default="jsd")
    p.add_argument("--epsilons", default="0.1,0.2", help="comma-separated thresholds")
    p.add_argument("--grid-mode", choices=GRID_MODES, default="percentile")
    p.add_argument("--grid-start", type=int, default=32)
    p.add_argument("--grid-step", type=int, default=16)
    p.set_defaults(func=cmd_damcl)
    table["damcl"] = p

    p = subs.add_parser("detect", help="long/short context detection")
    _common_options(p)
    p.add_argument("--corpus", required=True, help="JSONL sequences")
    p.add_argument("--oracle", choices=("planted", "mcl", "lsd_lcl"), default="planted")
    p.add_argument("--tau", type=float, default=0.6, help="decision threshold")
    p.add_argument("--short-len", type=float, default=32, help="suffix size; <1 means fraction of length")
    p.add_argument("--strategy", default="nucleus:0.9")
    p.add_argument("--tau-sweep", help="comma-separated taus for a sweep table")
    p.add_argument("--delta", type=float, default=0.2, help="margin for the mcl oracle")
    p.add_argument("--grid-start", type=int, default=32)
    p.add_argument("--grid-step", type=int, default=16)
    p.set_defaults(func=cmd_detect)
    table["detect"] = p

    p = subs.add_parser("generate", help="sample continuations, optionally boosted")
    _common_options(p)
    p.add_argument("--prompts", required=True, help="JSONL prompts: {id, tokens|text, gold?}")
    p.add_argument("--method", choices=GENERATION_METHODS, default="vanilla")
    p.add_argument("--max-new", type=int, default=64)
    p.add_argument("--n-samples", type=int, default=5)
    p.add_argument("--strategy", default="nucleus:0.9")
    p.add_argument("--lam", type=float, help="boost factor, required for --method taboo")
    p.add_argument("--alpha", type=float, default=0.5, help="contrast strength for --method cad")
    p.add_argument("--gamma", type=float, default=0.1225, help="score gate for boosting")
    p.add_argument("--boost-eps", type=float, default=0.05, help="probability-shift cutoff")
    p.add_argument("--short-len", type=int, default=32)
    p.set_defaults(func=cmd_generate)
    table["generate"] = p

    p = subs.add_parser("bench", help="detection overhead vs context length")
    _common_options(p)
    p.add_argument("--lengths", default="100,200,500", help="comma-separated context lengths")
    p.add_argument(
        "--repeat", type=int, default=3, help="timings per length; the fastest of each is kept"
    )
    p.add_argument("--short-len", type=int, default=32)
    p.add_argument("--strategy", default="nucleus:0.9")
    p.set_defaults(func=cmd_bench)
    table["bench"] = p

    p = subs.add_parser("score", help="text metrics over prediction/gold pairs")
    _common_options(p, backend=False, parallel=False)
    p.add_argument("--pairs", required=True, help="JSONL rows: {id?, pred, gold}")
    p.set_defaults(func=cmd_score)
    table["score"] = p

    p = subs.add_parser("synth", help="emit a synthetic labeled corpus")
    _common_options(p, parallel=False)
    p.add_argument("--kind", choices=("niah", "longeval"), default="niah")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--total-len", type=int, default=200)
    p.add_argument("--window", type=int, default=32)
    p.add_argument("--digits", type=int, default=6)
    p.set_defaults(func=cmd_synth)
    table["synth"] = p

    return parser, table


def load_config_file(path: str) -> dict:
    """Parse the key=value config grammar: one pair per line, # comments."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    out: dict = {}
    for raw in p.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"bad config line (need key=value): {raw!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _extract_config_path(argv: list[str]) -> str | None:
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


def build_backend(spec: str | None, parallel: int):
    """The backend a spec names; an HTTP client keeps up to ``parallel`` calls in flight."""
    if spec is None:
        url = os.environ.get(ENV_BACKEND_URL)
        if not url:
            raise UsageError(f"no backend: pass --backend or set {ENV_BACKEND_URL}")
        spec = url if url.startswith(("http://", "https://")) else f"http:{url}"

    def endpoint(url: str, **kwargs) -> BackendEndpoint:
        try:
            return BackendEndpoint(base_url=url, max_parallel=max(1, parallel), **kwargs)
        except ValueError as exc:
            raise UsageError(f"bad backend spec {spec!r}: {exc}") from None

    if spec.startswith("mock:"):
        backend = parse_mock_spec(spec[len("mock:") :])
    elif spec.startswith(("http://", "https://")):
        backend = HttpBackend(endpoint(spec))
    elif spec.startswith("http:"):
        backend = HttpBackend(endpoint(spec[len("http:") :]))
    elif spec.startswith("openai:"):
        rest = spec[len("openai:") :]
        url, _, params = rest.partition(",")
        kv = dict(part.split("=", 1) for part in params.split(",") if part)
        if "vocab" not in kv:
            raise UsageError("openai backend needs vocab=N (vocab size is not discoverable)")
        backend = OpenAICompatBackend(
            endpoint(url, top=int(kv.get("top", 50))),
            model=kv.get("model", "default"),
            vocab_size=int(kv["vocab"]),
        )
    else:
        raise UsageError(f"unrecognized backend spec {spec!r}")
    return backend


def _tokenizer_of(backend):
    return backend if hasattr(backend, "tokenize") else MockTokenizer(backend.vocab_size)


def _parse_buckets(text: str | None):
    if not text:
        return DEFAULT_BUCKETS
    buckets = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        if not sep:
            raise UsageError(f"bad bucket {part!r}, expected lo-hi")
        buckets.append((int(lo), int(hi)))
    return tuple(buckets)


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"bad {flag} value {text!r}") from None
    if not values:
        raise UsageError(f"{flag} needs at least one value")
    if any(math.isnan(v) for v in values):
        raise UsageError(f"{flag} values must not be nan")
    return values


def _short_len_arg(value: float):
    if value >= 1:
        if value != int(value):
            raise UsageError("--short-len must be an integer when >= 1")
        return int(value)
    if value <= 0:
        raise UsageError("--short-len must be positive")
    return float(value)


def _load_input_sequences(args, backend):
    """Corpus rows are documents when --sample is given, pre-cut sequences otherwise."""
    if getattr(args, "sample", None):
        docs, errors = load_jsonl(args.corpus)
        tokenizer = _tokenizer_of(backend)
        cache = TokenDiskCache(Path(args.out) / "tokcache")
        buckets = _parse_buckets(getattr(args, "buckets", None))
        samples = []
        warnings = list(errors)
        for i, doc in enumerate(docs):
            tokens = cache.tokens_for(doc, tokenizer)
            cut, warn = sample_sequences(
                tokens,
                args.sample,
                buckets=buckets,
                rng_seed=derive_seed(args.seed, i),
                with_ground_truth=True,
                doc_id=doc.doc_id,
            )
            samples.extend(cut)
            warnings.extend({"doc_id": doc.doc_id, **w} for w in warn)
        if not samples:
            raise DataError("sampling produced no sequences (documents too short for every bucket)")
        return samples, warnings
    samples, errors = load_sequences_jsonl(args.corpus)
    return samples, errors


def _run_units(items, fn, backend, parallel: int):
    """``fn(item, memo)`` for each unit of work, in input order; parallelism never reorders output.

    A unit (a sequence, or a prompt's samples) gets its own ``CachedBackend``
    in front of ``backend``, created on the thread that runs it, so a memo
    never crosses threads and is dropped when its unit is done.
    """

    def run(item):
        return fn(item, CachedBackend(backend))

    if parallel <= 1:
        yield from map(run, items)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallel) as pool:
            yield from pool.map(run, items)


def _fit_payload(fit):
    if fit is None:
        return None
    return {"a": fit.a, "b_hat": fit.b_hat, "b_hat_signed": fit.slope, "r_squared": fit.r_squared}


def cmd_mcl(args) -> int:
    backend = build_backend(args.backend, args.parallel)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    samples, warnings = _load_input_sequences(args, backend)
    samples = sorted(samples, key=lambda s: s.seq_id)
    grid = PrefixGrid(start=args.grid_start, step=args.grid_step)

    def probe_one(sample, memo):
        """The probe result, or why the sample was filtered out before the walk."""
        if sample.next_token is None:
            return "no ground-truth next token"
        if len(sample.tokens) < grid.start:
            return f"sequence length {len(sample.tokens)} below grid start {grid.start}"
        full = prefix_distribution(sample.tokens, len(sample.tokens), memo)
        if not accepts(full, sample.next_token, args.delta):
            return "full-context prediction not confident-correct"
        return mcl(sample.tokens, sample.next_token, args.delta, grid, memo)

    results = []
    filtered = []
    with (out / "mcl_results.jsonl").open("w", encoding="utf-8") as fh:
        for sample, res in zip(samples, _run_units(samples, probe_one, backend, args.parallel)):
            if isinstance(res, str):
                filtered.append({"seq_id": sample.seq_id, "reason": res})
            else:
                append_jsonl(fh, res.to_record(sample.seq_id))
                results.append(res)

    resolved = [r for r in results if r.resolved]
    fit = None
    share = {"32": None, "96": None}
    if resolved:
        bins, fit = mcl_histogram(resolved)
        write_text(out / "mcl_hist.csv", Histogram.from_pairs(bins).to_csv())
        share = {"32": aggregate_share(resolved, 32), "96": aggregate_share(resolved, 96)}
    write_report(
        out / "mcl_summary.json",
        {
            "command": "mcl",
            "n_input": len(samples),
            "n_kept": len(results),
            "n_resolved": len(resolved),
            "n_unresolved": len(results) - len(resolved),
            "filtered": filtered,
            "warnings": warnings,
            "share_le": share,
            "fit": _fit_payload(fit),
            "delta": args.delta,
            "grid": {"mode": grid.mode, "start": grid.start, "step": grid.step},
            "truncation": "suffix",
            "seed": args.seed,
        },
    )
    return EXIT_OK


def cmd_damcl(args) -> int:
    backend = build_backend(args.backend, args.parallel)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    samples, warnings = _load_input_sequences(args, backend)
    samples = sorted(samples, key=lambda s: s.seq_id)
    strategies = [DecodingStrategy.parse(tok) for tok in args.strategies.split(",") if tok]
    if not strategies:
        raise UsageError("--strategies needs at least one strategy")
    epsilons = _parse_float_list(args.epsilons, "--epsilons")
    floor = min(epsilons)
    grid = PrefixGrid(start=args.grid_start, step=args.grid_step, mode=args.grid_mode)
    combos = [(strategy, eps) for strategy in strategies for eps in epsilons]
    slugs = [f"{strategy.token().replace(':', '-')}_{args.metric}_eps{eps:g}" for strategy, eps in combos]

    def probe_one(sample, memo):
        """Every combination of one sequence, cut from one walk per strategy at the smallest epsilon."""
        walks = [damcl(sample.tokens, strategy, args.metric, floor, grid, memo) for strategy in strategies]
        return [walk.at_epsilon(eps) for walk in walks for eps in epsilons]

    results = [[] for _ in combos]
    with contextlib.ExitStack() as stack:
        files = [
            stack.enter_context((out / f"damcl_{slug}.jsonl").open("w", encoding="utf-8")) for slug in slugs
        ]
        for sample, row in zip(samples, _run_units(samples, probe_one, backend, args.parallel)):
            for fh, combo_results, res in zip(files, results, row):
                append_jsonl(fh, res.to_record(sample.seq_id))
                combo_results.append(res)

    summaries = []
    for (strategy, eps), slug, combo_results in zip(combos, slugs, results):
        hist = Histogram.from_values(r.resolved_length for r in combo_results)
        write_text(out / f"damcl_{slug}_hist.csv", hist.to_csv())
        summaries.append(
            {
                "strategy": strategy.token(),
                "metric": args.metric,
                "epsilon": eps,
                "n": len(combo_results),
                "mean_length": sum(r.resolved_length for r in combo_results) / len(combo_results),
            }
        )
    write_report(
        out / "damcl_summary.json",
        {
            "command": "damcl",
            "combos": summaries,
            "warnings": warnings,
            "grid": {"mode": grid.mode, "start": grid.start, "step": grid.step},
            "truncation": "suffix",
            "seed": args.seed,
        },
    )
    return EXIT_OK


def _oracle_label_fn(args):
    """The oracle as a function of (sample, backend), and the fewest tokens a sequence needs for it.

    The backend is the position's memo.
    """
    if args.oracle == "planted":
        def planted(sample, backend):
            if sample.label is None:
                raise DataError(f"sequence {sample.seq_id} has no planted label")
            return sample.label

        return planted, 1
    if args.oracle == "mcl":
        grid = PrefixGrid(start=args.grid_start, step=args.grid_step)

        def from_mcl(sample, backend):
            if sample.next_token is None:
                raise DataError(f"sequence {sample.seq_id} has no ground-truth token")
            return mcl_oracle_label(sample.tokens, sample.next_token, args.delta, grid, backend).label

        return from_mcl, grid.start

    def from_lsd_lcl(sample, backend):
        if sample.next_token is None:
            raise DataError(f"sequence {sample.seq_id} has no ground-truth token")
        return lsd_lcl_oracle_label(sample.tokens, sample.next_token, backend).label

    return from_lsd_lcl, LSD_LCL_SHORT_LEN + 1


def cmd_detect(args) -> int:
    backend = build_backend(args.backend, args.parallel)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    samples, _ = load_sequences_jsonl(args.corpus)
    samples = sorted(samples, key=lambda s: s.seq_id)
    cfg = LsdsConfig(
        short_len=_short_len_arg(args.short_len),
        strategy=DecodingStrategy.parse(args.strategy),
        tau=args.tau,
    )
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

    def run_one(sample, memo):
        return lsds(sample.tokens, cfg, memo), label_of(sample, memo)

    scored = []
    with (out / "detect_results.jsonl").open("w", encoding="utf-8") as fh:
        for sample, (score, oracle_label) in zip(
            samples, _run_units(samples, run_one, backend, args.parallel)
        ):
            pred = LONG if score >= cfg.tau else SHORT
            append_jsonl(
                fh,
                {
                    "seq_id": sample.seq_id,
                    "lsds": score,
                    "label_pred": pred,
                    "label_oracle": oracle_label,
                    "oracle_kind": args.oracle,
                },
            )
            scored.append((score, oracle_label == LONG, pred == LONG))

    pairs = [(score, truth) for score, truth, _ in scored]
    auc = roc_auc(pairs)
    best = youden_threshold(pairs)
    confusion = ConfusionMatrix.from_labels((pred, truth) for _, truth, pred in scored)
    if args.tau_sweep:
        rows = tau_sweep(pairs, _parse_float_list(args.tau_sweep, "--tau-sweep"))
        lines = ["tau,tpr,fpr,j,accuracy"]
        lines.extend(
            f"{r['tau']:g},{r['tpr']:.6f},{r['fpr']:.6f},{r['j']:.6f},{r['accuracy']:.6f}"
            for r in rows
        )
        write_text(out / "detect_tau_sweep.csv", "\n".join(lines) + "\n")
    write_report(
        out / "detect_summary.json",
        {
            "command": "detect",
            "n": len(scored),
            "auc": auc,
            "youden": {"theta": best.theta, "j": best.j, "tpr": best.tpr, "fpr": best.fpr},
            "confusion": confusion.to_dict(),
            "accuracy": confusion.accuracy,
            "tau": cfg.tau,
            "short_len": cfg.short_len,
            "strategy": cfg.strategy.token(),
            "oracle": args.oracle,
            "truncation": "suffix",
            "seed": args.seed,
        },
    )
    return EXIT_OK


def cmd_generate(args) -> int:
    backend = build_backend(args.backend, args.parallel)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.method == "taboo" and args.lam is None:
        raise UsageError("--method taboo requires --lam (no published default)")
    cfg = BoostConfig(
        lam=args.lam if args.lam is not None else 1.0,
        gamma=args.gamma,
        epsilon=args.boost_eps,
        strategy=DecodingStrategy.parse(args.strategy),
        short_len=args.short_len,
    )
    tokenizer = _tokenizer_of(backend)
    rows, errors = load_jsonl(args.prompts)
    prompts = []
    for doc in rows:
        tokens = doc.tokens if doc.tokens is not None else tokenizer.tokenize(doc.text)
        prompts.append((doc.doc_id, tokens, doc.gold))
    prompts.sort(key=lambda prompt: prompt[0])

    had_error = False
    per_prompt_scores: dict[str, list[dict[str, float]]] = {}
    config_payload = {
        "method": args.method,
        "strategy": cfg.strategy.token(),
        "lam": cfg.lam,
        "gamma": cfg.gamma,
        "epsilon": cfg.epsilon,
        "alpha": args.alpha,
        "short_len": cfg.short_len,
        "max_new": args.max_new,
    }

    def generate_prompt(item, memo):
        """All samples of one prompt, on one memo."""
        p_idx, (_, tokens, _) = item
        return [
            generate(
                tokens,
                args.max_new,
                args.method,
                cfg,
                derive_seed(args.seed, p_idx, k),
                memo,
                alpha=args.alpha,
            )
            for k in range(args.n_samples)
        ]

    with (out / "generations.jsonl").open("w", encoding="utf-8") as fh:
        runner = _run_units(enumerate(prompts), generate_prompt, backend, args.parallel)
        for (prompt_id, _, gold), results in zip(prompts, runner):
            for k, result in enumerate(results):
                text = tokenizer.detokenize(result.tokens)
                record = {
                    "prompt_id": prompt_id,
                    "sample": k,
                    "config": config_payload,
                    "text": text,
                    **result.to_record(),
                }
                append_jsonl(fh, record)
                if result.error is not None:
                    had_error = True
                if gold is not None:
                    per_prompt_scores.setdefault(prompt_id, []).append(score_all(text, gold))

    if per_prompt_scores:
        metrics_summary = {}
        for metric in ("token_f1", "bleu", "rouge_l"):
            per_prompt = [
                summarize([s[metric] for s in samples_scores])
                for samples_scores in per_prompt_scores.values()
            ]
            metrics_summary[metric] = {
                "mean": sum(p["mean"] for p in per_prompt) / len(per_prompt),
                "best": sum(p["best"] for p in per_prompt) / len(per_prompt),
            }
        write_report(
            out / "generate_scores.json",
            {"command": "generate", "n_prompts": len(per_prompt_scores), "metrics": metrics_summary},
        )
    write_report(
        out / "generate_summary.json",
        {
            "command": "generate",
            "n_prompts": len(prompts),
            "n_samples": args.n_samples,
            "config": config_payload,
            "prompt_errors": errors,
            "had_backend_error": had_error,
            "seed": args.seed,
        },
    )
    return EXIT_BACKEND if had_error else EXIT_OK


def cmd_bench(args) -> int:
    backend = build_backend(args.backend, args.parallel)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lengths = [int(x) for x in args.lengths.split(",") if x]
    if not lengths or any(n <= args.short_len for n in lengths):
        raise UsageError(f"--lengths must all exceed --short-len {args.short_len}")
    if args.repeat < 1:
        raise UsageError("--repeat must be >= 1")
    strategy = DecodingStrategy.parse(args.strategy)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    # One warmup call resolves lazy vocab discovery on HTTP backends.
    prefix_distribution([0], 1, backend)
    vocab = backend.vocab_size

    # Scheduling noise only ever adds time, so the fastest of the repeats is
    # the least disturbed estimate of each component's cost.
    rows = []
    for n in lengths:
        seq = [int(t) for t in rng.integers(0, vocab, size=n)]
        full_s = short_s = arith_s = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            raw_full = prefix_distribution(seq, n, backend)
            t1 = time.perf_counter()
            raw_short = prefix_distribution(seq, args.short_len, backend)
            t2 = time.perf_counter()
            jsd(apply_strategy(raw_short, strategy), apply_strategy(raw_full, strategy))
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


def cmd_score(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = Path(args.pairs)
    if not path.exists():
        raise DataError(f"pairs file not found: {path}")
    rows = []
    bad = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                rows.append((str(rec.get("id", f"line{lineno}")), str(rec["pred"]), str(rec["gold"])))
            except (ValueError, KeyError, TypeError) as exc:
                bad.append({"line": lineno, "error": str(exc)})
    if not rows:
        raise DataError(f"no scoreable rows in {path}")
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
    backend = build_backend(args.backend, 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tokenizer = _tokenizer_of(backend)
    records = []
    for i in range(args.n):
        seed_i = derive_seed(args.seed, i)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_i)))
        if args.kind == "niah":
            probe_needle = tokenizer.tokenize(f"The magic number is {'0' * args.digits}")
            query_len = len(tokenizer.tokenize("The magic number mentioned in the provided text is"))
            body = args.total_len - query_len
            max_pos = body - len(probe_needle)
            if max_pos < 0:
                raise DataError("--total-len too small for the needle and query")
            spec = SyntheticSpec(
                kind="niah_magic",
                total_len=args.total_len,
                needle_pos=int(rng.integers(0, max_pos + 1)),
                digits=args.digits,
                window=args.window,
            )
            filler = default_filler_tokens(tokenizer, args.total_len, rng_seed=derive_seed(seed_i, 1))
            sample, label = gen_niah(spec, filler, tokenizer, rng_seed=seed_i)
        else:
            probe_line = tokenizer.tokenize("line 00000 REGISTER_CONTENT is 00000")
            est_lines = max(2, (args.total_len - 12) // max(1, len(probe_line)))
            spec = SyntheticSpec(
                kind="longeval_registers",
                total_len=args.total_len,
                answer_line_distance=int(rng.integers(1, est_lines + 1)),
                window=args.window,
            )
            sample, label = gen_longeval(spec, tokenizer, rng_seed=seed_i)
        record = sample.to_record()
        record["seq_id"] = f"{args.kind}/{i:04d}"
        record["kind"] = spec.kind
        records.append(record)
    records.sort(key=lambda r: r["seq_id"])
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
    # to it, such as a float64 vector at V=131072 or orjson's parse buffers for a 6 MB body,
    # come from the heap.
    mallopt(_M_MMAP_THRESHOLD, 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long))
    # Above the free top one call leaves (tens of MB at most, with every thread's
    # temporaries freed) and above a thread arena's 64 MiB heap, so no heap is trimmed
    # between calls; the process keeps its high-water mark until it exits.
    mallopt(_M_TRIM_THRESHOLD, 128 * 1024 * 1024)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, table = build_parser()
    try:
        config_path = _extract_config_path(argv)
        if config_path:
            overrides = load_config_file(config_path)
            known = set()
            for sub in table.values():
                dests = {a.dest for a in sub._actions}
                hit = {k: v for k, v in overrides.items() if k in dests}
                known.update(hit)
                sub.set_defaults(**hit)
            unknown = set(overrides) - known
            if unknown:
                raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except (UsageError, StrategyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (DataError, NotLabelable, InsufficientData, CtxlensError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
