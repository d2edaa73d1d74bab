"""Seeded input generator: the only files the ctxlens commands get to read.

Every sequence carries its planted dependency length ``d`` in its last
token, the rule both ``mock:planted_last`` and the reference server apply:
a context of at least ``d`` tokens predicts the answer token confidently,
a shorter one does not. So every probe outcome is forced by ``d`` and the
checker can compute it without recording a run.

Dependency lengths are heavy-tailed, P(d > x) = 12 / x, drawn by stratified
quantiles: the i-th of n sequences takes the grid cell of quantile
(i + 1/2) / n, and the seed only picks ``d`` inside that cell, the filler
tokens and the order. Different seeds give different inputs that cost the
same number of grid points, so throughput compares across seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ANSWER = 1
#: Suffix length that separates short from long dependencies (``--short-len``).
WINDOW = 32
#: MCL grid the cells are aligned to: the CLI default ``--grid-start 32 --grid-step 16``.
GRID_START = 32
GRID_STEP = 16
#: Scale of the Pareto tail P(d > x) = TAIL_SCALE / x (an assumption, see README.md).
TAIL_SCALE = 12.0
#: Share of the mcl corpus whose d lies beyond the sequence, so the confident-correct filter drops it.
OVER_SHARE = 0.05


@dataclass(frozen=True)
class InputSpec:
    """Sizes of one workload's inputs."""

    vocab: int
    n_corpus: int  # sequences for mcl (some unresolvable, d > length)
    n_damcl: int  # the first n_damcl corpus sequences, for damcl
    n_detect: int  # labeled calibration positions, all resolvable
    n_prompts: int
    seq_len: int = 1000


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def grid_cell(x: float, cap: int) -> tuple[int, int]:
    """Inclusive range of d, at most ``cap``, that the MCL grid resolves where it resolves ``x``."""
    if x <= GRID_START:
        return 1, GRID_START
    hi = GRID_START + GRID_STEP * math.ceil((x - GRID_START) / GRID_STEP)
    return hi - GRID_STEP + 1, min(hi, cap)


def planted_lengths(n: int, cap: int, rng: np.random.Generator, q_lo: float = 0.0) -> list[int]:
    """Heavy-tailed dependency lengths in [1, cap], one per quantile stratum of [q_lo, 1)."""
    out = []
    for i in range(n):
        q = q_lo + (1.0 - q_lo) * (i + 0.5) / n
        lo, hi = grid_cell(min(TAIL_SCALE / (1.0 - q), cap), cap)
        out.append(int(rng.integers(lo, hi + 1)))
    return out


def make_sequence(d: int, seq_len: int, vocab: int, rng: np.random.Generator) -> list[int]:
    if not 1 <= d < vocab:
        raise ValueError(f"dependency length {d} must be a token id below vocab {vocab}")
    tokens = rng.integers(2, vocab, size=seq_len).tolist()
    tokens[-1] = d
    return tokens


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def generate_inputs(spec: InputSpec, seed: int, out: Path) -> dict:
    """Write corpus.jsonl, damcl.jsonl, detect.jsonl, setup.jsonl and prompts.jsonl; return the truth.

    The returned dict maps each file to ``{seq_id: (d, length)}``, which is
    everything the checker needs.
    """
    out.mkdir(parents=True, exist_ok=True)
    lengths_rng = rng_for(seed, 1)
    tokens_rng = rng_for(seed, 2)
    truth: dict[str, dict[str, tuple[int, int]]] = {}

    def rows_for(name: str, ds: list[int], with_label: bool) -> list[dict]:
        order = lengths_rng.permutation(len(ds))
        rows = []
        truth[name] = {}
        for idx, j in enumerate(order):
            d = ds[j]
            n = int(tokens_rng.integers(spec.seq_len - 10, spec.seq_len + 1))
            seq_id = f"{name}/{idx:05d}"
            row = {
                "seq_id": seq_id,
                "tokens": make_sequence(d, n, spec.vocab, tokens_rng),
                "next_token": ANSWER,
            }
            if with_label:
                row["label"] = "long" if d > WINDOW else "short"
            truth[name][seq_id] = (d, n)
            rows.append(row)
        return rows

    n_over = round(OVER_SHARE * spec.n_corpus) if spec.vocab - 1 > spec.seq_len else 0
    corpus_ds = planted_lengths(spec.n_corpus - n_over, spec.seq_len - 10, lengths_rng)
    corpus_ds += lengths_rng.integers(spec.seq_len + 1, min(spec.vocab, 2 * spec.seq_len), size=n_over).tolist()
    corpus = rows_for("corpus", corpus_ds, with_label=False)
    _write_jsonl(out / "corpus.jsonl", corpus)
    _write_jsonl(out / "damcl.jsonl", corpus[: spec.n_damcl])
    truth["damcl"] = {r["seq_id"]: truth["corpus"][r["seq_id"]] for r in corpus[: spec.n_damcl]}
    _write_jsonl(
        out / "detect.jsonl",
        rows_for("detect", planted_lengths(spec.n_detect, spec.seq_len - 10, lengths_rng), with_label=True),
    )
    # One sequence at the grid start, so an mcl run over it makes a single upstream call (set-up probe).
    d = int(lengths_rng.integers(1, GRID_START + 1))
    truth["setup"] = {"setup/0": (d, GRID_START)}
    setup_tokens = make_sequence(d, GRID_START, spec.vocab, tokens_rng)
    _write_jsonl(out / "setup.jsonl", [{"seq_id": "setup/0", "tokens": setup_tokens, "next_token": ANSWER}])
    # Prompts depend on more than the window, so taboo's gate has something to open on.
    long_only = 1.0 - TAIL_SCALE / WINDOW
    prompts = rows_for("prompt", planted_lengths(spec.n_prompts, spec.seq_len - 10, lengths_rng, long_only), False)
    _write_jsonl(out / "prompts.jsonl", [{"id": r["seq_id"], "tokens": r["tokens"]} for r in prompts])
    return truth
