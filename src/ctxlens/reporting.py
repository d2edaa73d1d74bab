"""Run artifacts: histogram CSVs, shares, and atomic JSON reports.

Every JSON report embeds the schema version so downstream readers can check
compatibility; file formats are documented under "File formats" in README.md.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

import orjson

from .errors import DataError, InsufficientData

REPORT_SCHEMA = "ctxlens/1"


def histogram_csv(values: Iterable[int]) -> str:
    """``ell,count`` CSV text: one row per distinct value, in ascending order."""
    counts = Counter(int(v) for v in values)
    return "ell,count\n" + "".join(f"{ell},{counts[ell]}\n" for ell in sorted(counts))


def aggregate_share(lengths: Sequence[int], cutoff: int) -> float:
    """Fraction of resolved lengths at or below ``cutoff``.

    An unresolved (None) length and empty input are errors rather than
    silent zeros.
    """
    if not lengths:
        raise InsufficientData("aggregate_share of empty input")
    if any(length is None for length in lengths):
        raise InsufficientData("aggregate_share needs resolved lengths only")
    return sum(1 for length in lengths if length <= cutoff) / len(lengths)


def _dumps(record: dict, where, **kwargs) -> str:
    """RFC 8259 ``json.dumps``, keys sorted; a NaN or an infinity raises ``DataError`` naming ``where``."""
    try:
        return json.dumps(record, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError:
        raise DataError(f"cannot write {where}: a value is NaN or infinite") from None


def write_report(path: str | Path, payload: dict) -> Path:
    """Write a JSON report atomically (temp file + rename), tagged with the schema."""
    body = dict(payload)
    body["schema"] = REPORT_SCHEMA
    return write_text(path, _dumps(body, path, indent=2) + "\n")


def read_report(path: str | Path) -> dict:
    """A report written by ``write_report``, parsed strictly (RFC 8259) and schema-checked."""
    data = orjson.loads(Path(path).read_bytes())
    if data.get("schema") != REPORT_SCHEMA:
        raise InsufficientData(f"unexpected report schema {data.get('schema')!r}")
    return data


def append_jsonl(fh, record: dict) -> None:
    """One JSON object per line, flushed immediately so partial runs stay valid.

    A record holding a NaN or an infinity raises ``DataError`` before any of it is written.
    """
    fh.write(_dumps(record, getattr(fh, "name", fh)) + "\n")
    fh.flush()


def write_text(path: str | Path, text: str) -> Path:
    """Atomic plain-text write: a temp file in the target directory, then a rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
