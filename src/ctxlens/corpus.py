"""Corpus handling: document loading, bucketed sequence sampling, synthetic tasks.

Natural corpora are JSONL documents; sequences are contiguous token slices
cut at seeded-random points, bucketed by length, with the token after the
cut kept as ground truth. Synthetic generators plant a retrieval target at
a known distance from the end, so the short/long label is known by
construction.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import orjson

from .backends import Tokenizer
from .decoding import derive_seed
from .detection import LONG, SHORT
from .errors import DataError

#: Length buckets for natural-corpus sampling: [32,100), [100,200), ..., [900,1000).
DEFAULT_BUCKETS: tuple[tuple[int, int], ...] = ((32, 100),) + tuple(
    (lo, lo + 100) for lo in range(100, 1000, 100)
)

NEEDLE_PREFIX = "The magic number is"
NEEDLE_QUERY = "The magic number mentioned in the provided text is"
REGISTER_LINE = "line {} REGISTER_CONTENT is {}"
REGISTER_QUERY = "What is the REGISTER_CONTENT of line {}"
#: ``synth --kind`` values and the ``kind`` each writes on its records.
SYNTH_KINDS = {"niah": "niah_magic", "longeval": "longeval_registers"}


@dataclass(frozen=True)
class Document:
    """One corpus row or prompt; ``tokens`` is copied into an ``array('i')`` like ``SequenceSample``'s."""

    doc_id: str
    text: str | None = None
    tokens: array | None = None
    gold: str | None = None  # reference continuation, for generate prompts

    def __post_init__(self):
        if self.tokens is not None:
            object.__setattr__(self, "tokens", array("i", self.tokens))


@dataclass(frozen=True)
class SequenceSample:
    """One probe-ready sequence: tokens, optional ground truth, and provenance.

    ``tokens`` is copied into a 4-byte ``array('i')`` on construction. A
    non-integer id raises TypeError, one outside int32 OverflowError.
    """

    seq_id: str
    tokens: array
    next_token: int | None
    doc_id: str
    bucket: tuple[int, int]
    label: str | None = None  # planted short/long label, when the generator knows it

    def __post_init__(self):
        object.__setattr__(self, "tokens", array("i", self.tokens))

    def to_record(self) -> dict:
        return {
            "seq_id": self.seq_id,
            "tokens": self.tokens.tolist(),
            "next_token": self.next_token,
            "doc_id": self.doc_id,
            "bucket": list(self.bucket),
            "label": self.label,
        }


def _token_ids(values, line: bytes) -> array:
    """JSON token ids as an ``array('i')``.

    A float, string, null or bool raises TypeError, an id outside int32 OverflowError.
    """
    tokens = array("i", values)
    # array('i') reads true and false as 1 and 0; only a line that spells one of them can hold one.
    if (b"true" in line or b"false" in line) and bool in set(map(type, values)):
        raise TypeError("token ids must be integers, not true or false")
    return tokens


def _int32(value, field: str) -> int:
    """A JSON int32 integer (not a float, string or bool); ``field`` names it in the error."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, not {value!r}")
    return array("i", (value,))[0]


def _bucket(value, n: int) -> tuple[int, int]:
    """A JSON ``bucket``: a list of two int32 integers, or null for the sequence's own ``(n, n + 1)``."""
    if value is None:
        return n, n + 1
    if type(value) is not list or len(value) != 2:
        raise ValueError(f"bucket must be a list of two integers, not {value!r}")
    return _int32(value[0], "bucket"), _int32(value[1], "bucket")


def text_field(rec: dict, field: str, required: bool = False) -> str | None:
    """A JSON text field: a string, or a number (not true or false) kept as its text.

    Null or absent gives None unless ``required``; any other value raises TypeError naming ``field``.
    """
    value = rec[field] if required else rec.get(field)
    if value is None and not required:
        return None
    if type(value) not in (str, int, float):
        raise TypeError(f"{field} must be a string or a number, not {value!r}")
    return str(value)


def id_field(rec: dict, *fields: str, default: str) -> str:
    """The first of ``fields`` that ``rec`` holds, read by ``text_field``; ``default`` if it holds none.

    So a present id is a string or a number, kept as its text; null, true or false, a list or
    an object raises TypeError naming the field.
    """
    for field in fields:
        if field in rec:
            return text_field(rec, field, True)
    return default


def parse_jsonl(path: str | Path, build, file_kind: str, items: str) -> tuple[list, list[dict]]:
    """``build(rec, line, lineno)`` of each non-blank line of a JSONL file, in file order.

    Lines are parsed as strict JSON. A line that is not a JSON object, or that
    ``build`` rejects with ValueError, KeyError, TypeError or OverflowError,
    becomes an error record ``{"line", "error"}``. A missing file, or one
    with nothing built, is a DataError naming ``file_kind`` or ``items``.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{file_kind} file not found: {path}")
    built: list = []
    errors: list[dict] = []
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = orjson.loads(line)
                if type(rec) is not dict:
                    raise TypeError(f"expected a JSON object, not {type(rec).__name__}")
                built.append(build(rec, line, lineno))
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                errors.append({"line": lineno, "error": str(exc)})
    if not built:
        raise DataError(f"no {items} in {path}")
    return built, errors


def _document(rec: dict, line: bytes, lineno: int) -> Document:
    doc_id = text_field(rec, "id", True)
    tokens = _token_ids(rec["tokens"], line) if "tokens" in rec else None
    text = text_field(rec, "text")
    if tokens is None and text is None:
        raise KeyError("need 'text' or 'tokens'")
    return Document(doc_id=doc_id, text=text, tokens=tokens, gold=text_field(rec, "gold"))


def load_jsonl(path: str | Path) -> tuple[list[Document], list[dict]]:
    """Read documents ({"id", "text"} or {"id", "tokens"}, optional "gold") in file order.

    Malformed lines, token ids that are not int32 integers, and text fields
    that are not strings or numbers are returned as error records, not
    dropped silently. A file with no valid documents is an error.
    """
    return parse_jsonl(path, _document, "corpus", "valid documents")


def _sequence(rec: dict, line: bytes, lineno: int) -> SequenceSample:
    tokens = _token_ids(rec["tokens"], line)
    if not tokens:
        raise ValueError("empty token sequence")
    label = rec.get("label")
    if label not in (None, SHORT, LONG):
        raise ValueError(f"label must be {SHORT!r}, {LONG!r} or null, not {label!r}")
    next_token = rec.get("next_token")
    return SequenceSample(
        seq_id=id_field(rec, "seq_id", "id", default=f"line{lineno}"),
        tokens=tokens,
        next_token=None if next_token is None else _int32(next_token, "next_token"),
        doc_id=id_field(rec, "doc_id", default=""),
        bucket=_bucket(rec.get("bucket"), len(tokens)),
        label=label,
    )


def load_sequences_jsonl(path: str | Path) -> tuple[list[SequenceSample], list[dict]]:
    """Read pre-cut sequences ({"seq_id", "tokens", "next_token"?, "label"?}); bad lines as ``load_jsonl``.

    ``next_token`` is null or an int32 id, ``bucket`` is null or a list of
    two int32 integers, and ``label`` is null, "short" or "long"; any other
    value makes the line an error record.
    """
    return parse_jsonl(path, _sequence, "sequence", "valid sequences")


def sample_sequences(
    doc_tokens: Sequence[int],
    n_per_bucket: int,
    buckets: Sequence[tuple[int, int]] = DEFAULT_BUCKETS,
    rng_seed: int = 0,
    doc_id: str = "doc",
) -> tuple[list[SequenceSample], list[dict]]:
    """Cut seeded-random contiguous slices of the document, n per length bucket.

    A slice of length L in bucket [lo, hi) ends at a uniform position with
    room for the following ground-truth token. Buckets the document cannot
    fill are skipped with a warning record.
    """
    if n_per_bucket < 1:
        raise DataError("n_per_bucket must be >= 1")
    tokens = array("i", doc_tokens)
    n = len(tokens)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rng_seed)))
    samples: list[SequenceSample] = []
    warnings: list[dict] = []
    for lo, hi in buckets:
        if not 1 <= lo < hi:
            raise DataError(f"bad bucket [{lo}, {hi})")
        if n <= lo:
            warnings.append({"bucket": [lo, hi], "warning": f"document too short ({n} tokens), bucket skipped"})
            continue
        for i in range(n_per_bucket):
            length = int(rng.integers(lo, min(hi, n)))
            end = int(rng.integers(length, n))
            samples.append(
                SequenceSample(
                    seq_id=f"{doc_id}/b{lo}-{hi}/{i}",
                    tokens=tokens[end - length : end],
                    next_token=tokens[end],
                    doc_id=doc_id,
                    bucket=(lo, hi),
                )
            )
    return samples, warnings


_FILLER_WORDS = (
    "the quick brown fox jumps over a lazy dog while distant hills "
    "gather morning light and rivers carry small boats toward the sea"
).split()


def default_filler_tokens(tokenizer: Tokenizer, n: int, rng_seed: int = 0) -> list[int]:
    """Filler text tokens for synthetic prompts, cycled from a small word list."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rng_seed)))
    words = [_FILLER_WORDS[int(rng.integers(0, len(_FILLER_WORDS)))] for _ in range(n)]
    out = tokenizer.tokenize(" ".join(words))
    while len(out) < n:
        out.extend(out[: n - len(out)])
    return out[:n]


def _check_layout(total_len: int, window: int) -> None:
    if total_len < 1:
        raise DataError("total_len must be >= 1")
    if window < 1:
        raise DataError("window must be >= 1")


def gen_niah(
    filler_tokens: Sequence[int],
    tokenizer: Tokenizer,
    rng_seed: int = 0,
    *,
    total_len: int,
    needle_pos: int,
    digits: int = 6,
    window: int = 32,
) -> SequenceSample:
    """Magic-number retrieval prompt with the statement planted at token offset ``needle_pos``.

    The prompt is filler + needle + filler + query, ``total_len`` tokens in
    all; ground truth is the number's first token. Short iff the statement
    starts within the final ``window`` tokens.
    """
    _check_layout(total_len, window)
    if digits < 1:
        raise DataError("digits must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rng_seed)))
    number = f"{int(rng.integers(0, 10 ** digits)):0{digits}d}"
    needle = tokenizer.tokenize(f"{NEEDLE_PREFIX} {number}")
    query = tokenizer.tokenize(NEEDLE_QUERY)
    answer = tokenizer.tokenize(number)
    body = total_len - len(query)
    if needle_pos < 0 or needle_pos + len(needle) > body:
        raise DataError(f"needle at {needle_pos} (length {len(needle)}) collides with the query region")
    filler = list(filler_tokens)
    need = body - len(needle)
    if len(filler) < need:
        raise DataError(f"need {need} filler tokens, got {len(filler)}")
    tokens = filler[:needle_pos] + needle + filler[needle_pos:need] + query
    return SequenceSample(
        seq_id=f"niah/{rng_seed}",
        tokens=tokens,
        next_token=answer[0],
        doc_id="niah",
        bucket=(len(tokens), len(tokens) + 1),
        label=SHORT if total_len - needle_pos <= window else LONG,
    )


def _register_lines(tokenizer: Tokenizer, rng_seed: int, total_len: int) -> tuple[list, list, list]:
    """The tokens, ids and values of the register lines that fit ``total_len`` tokens with the query.

    There is at least one line; ids and values are drawn from a fresh generator on ``rng_seed``.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rng_seed)))
    lines, line_ids, values, total = [], [], [], 0
    probe = tokenizer.tokenize(REGISTER_QUERY.format("00000"))
    while True:
        line_id = f"{int(rng.integers(0, 100000)):05d}"
        value = f"{int(rng.integers(0, 100000)):05d}"
        toks = tokenizer.tokenize(REGISTER_LINE.format(line_id, value))
        if lines and total + len(toks) + len(probe) > total_len:
            return lines, line_ids, values
        lines.append(toks)
        line_ids.append(line_id)
        values.append(value)
        total += len(toks)
        if total + len(probe) >= total_len:
            return lines, line_ids, values


def gen_longeval(
    tokenizer: Tokenizer,
    rng_seed: int = 0,
    *,
    total_len: int,
    answer_line_distance: int,
    window: int = 32,
) -> SequenceSample:
    """Register-lookup prompt: numbered lines, query about one of them.

    The queried line sits ``answer_line_distance`` lines from the end
    (1 = last line). Short iff that line starts within the final ``window``
    tokens of the prompt.
    """
    _check_layout(total_len, window)
    lines, line_ids, values = _register_lines(tokenizer, rng_seed, total_len)
    if len(lines) < 2:
        raise DataError("total_len too small for at least two register lines")
    if not 1 <= answer_line_distance <= len(lines):
        raise DataError(f"answer_line_distance {answer_line_distance} outside 1..{len(lines)}")
    target = len(lines) - answer_line_distance
    query = tokenizer.tokenize(REGISTER_QUERY.format(line_ids[target]))
    answer = tokenizer.tokenize(values[target])
    tokens: list[int] = []
    starts: list[int] = []
    for toks in lines:
        starts.append(len(tokens))
        tokens.extend(toks)
    tokens.extend(query)
    return SequenceSample(
        seq_id=f"longeval/{rng_seed}",
        tokens=tokens,
        next_token=answer[0],
        doc_id="longeval",
        bucket=(len(tokens), len(tokens) + 1),
        label=SHORT if len(tokens) - starts[target] <= window else LONG,
    )


def synth_sample(
    kind: str, total_len: int, window: int, digits: int, tokenizer: Tokenizer, seed: int
) -> SequenceSample:
    """One example of a ``SYNTH_KINDS`` task, with the needle position or line distance drawn from ``seed``.

    The draw is the first of a fresh generator on ``seed``, and so is the
    magic number inside ``gen_niah``; the filler comes from ``derive_seed(seed, 1)``.
    A line distance is drawn among the lines ``gen_longeval`` builds.
    """
    if kind not in SYNTH_KINDS:
        raise DataError(f"unknown synthetic kind {kind!r}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if kind == "niah":
        needle_len = len(tokenizer.tokenize(f"{NEEDLE_PREFIX} {'0' * digits}"))
        max_pos = total_len - len(tokenizer.tokenize(NEEDLE_QUERY)) - needle_len
        if max_pos < 0:
            raise DataError("--total-len too small for the needle and query")
        needle_pos = int(rng.integers(0, max_pos + 1))
        filler = default_filler_tokens(tokenizer, total_len, rng_seed=derive_seed(seed, 1))
        return gen_niah(
            filler, tokenizer, seed, total_len=total_len, needle_pos=needle_pos, digits=digits, window=window
        )
    n_lines = len(_register_lines(tokenizer, seed, total_len)[0])
    distance = int(rng.integers(1, n_lines + 1))
    return gen_longeval(tokenizer, seed, total_len=total_len, answer_line_distance=distance, window=window)
