"""Run artifacts: histograms, confusion matrices, shares, and atomic JSON reports.

Every JSON report embeds the schema version so downstream readers can check
compatibility; file formats are documented under "File formats" in README.md.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import InsufficientData

REPORT_SCHEMA = "ctxlens/1"


@dataclass(frozen=True)
class Histogram:
    """Counts over integer bins (typically resolved probe lengths)."""

    points: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.points) != len(self.counts):
            raise InsufficientData("points and counts must align")
        if any(c < 0 for c in self.counts):
            raise InsufficientData("counts must be non-negative")

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "Histogram":
        counts: dict[int, int] = {}
        for v in values:
            counts[int(v)] = counts.get(int(v), 0) + 1
        items = sorted(counts.items())
        return cls(points=tuple(k for k, _ in items), counts=tuple(v for _, v in items))

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_csv(self) -> str:
        lines = ["ell,count"]
        lines.extend(f"{p},{c}" for p, c in zip(self.points, self.counts))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts with long as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    @classmethod
    def from_labels(cls, pairs: Iterable[tuple[bool, bool]]) -> "ConfusionMatrix":
        """Build from (predicted_long, oracle_long) pairs."""
        tp = fp = tn = fn = 0
        for pred, truth in pairs:
            if pred and truth:
                tp += 1
            elif pred and not truth:
                fp += 1
            elif not pred and not truth:
                tn += 1
            else:
                fn += 1
        return cls(tp=tp, fp=fp, tn=tn, fn=fn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            raise InsufficientData("empty confusion matrix")
        return (self.tp + self.tn) / self.total

    @property
    def tpr(self) -> float:
        if self.tp + self.fn == 0:
            raise InsufficientData("no positive examples")
        return self.tp / (self.tp + self.fn)

    @property
    def fpr(self) -> float:
        if self.fp + self.tn == 0:
            raise InsufficientData("no negative examples")
        return self.fp / (self.fp + self.tn)

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


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


def write_report(path: str | Path, payload: dict) -> Path:
    """Write a JSON report atomically (temp file + rename), tagged with the schema."""
    body = dict(payload)
    body["schema"] = REPORT_SCHEMA
    return write_text(path, json.dumps(body, sort_keys=True, indent=2) + "\n")


def read_report(path: str | Path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("schema") != REPORT_SCHEMA:
        raise InsufficientData(f"unexpected report schema {data.get('schema')!r}")
    return data


def append_jsonl(fh, record: dict) -> None:
    """One JSON object per line, flushed immediately so partial runs stay valid."""
    fh.write(json.dumps(record, sort_keys=True) + "\n")
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
