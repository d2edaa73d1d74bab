"""Forced-outcome checker.

Each function compares a command's output directory with the outcome the
planted dependency lengths force, and returns a list of problems (empty
when the output is right). Expected values are computed here from ``d``
and the sequence length, never from bytes a previous run wrote, so extra
summary fields in later versions do not break the check. Grids are
re-derived from their documented definitions rather than imported from
ctxlens, so a grid defect shows as a mismatch.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from inputs import WINDOW

PERCENTILES = tuple((i + 1) / 10 for i in range(10))


def fixed_step_points(n: int, start: int, step: int) -> list[int]:
    points = list(range(start, n + 1, step)) if n >= start else []
    if not points or points[-1] != n:
        points.append(n)
    return points


def percentile_points(n: int) -> list[int]:
    return sorted({max(1, math.ceil(p * n)) for p in PERCENTILES})


def first_at_least(points: list[int], d: int) -> int:
    return next(p for p in points if p >= d)


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _guard(fn):
    """A missing or unparsable output file is a failed check, not a crash."""

    def checked(*args, **kwargs) -> list[str]:
        try:
            return fn(*args, **kwargs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{fn.__name__}: unreadable output: {exc!r}"]

    checked.__name__ = fn.__name__
    return checked


@_guard
def check_mcl(out: Path, truth: dict, grid_start: int, grid_step: int) -> list[str]:
    """Every sequence with d <= length is kept and resolves at the first grid point >= d."""
    expected = {
        sid: first_at_least(fixed_step_points(n, grid_start, grid_step), d)
        for sid, (d, n) in truth.items()
        if d <= n
    }
    problems = []
    rows = {r["seq_id"]: r for r in _read_jsonl(out / "mcl_results.jsonl")}
    if set(rows) != set(expected):
        problems.append(f"mcl kept {len(rows)} sequences, expected {len(expected)}")
    for sid, length in expected.items():
        row = rows.get(sid)
        if row is not None and (not row["resolved"] or row["length"] != length):
            problems.append(f"mcl {sid}: resolved={row['resolved']} length={row['length']}, expected {length}")
    summary = _read_json(out / "mcl_summary.json")
    if (summary["n_input"], summary["n_kept"], summary["n_resolved"]) != (len(truth), len(expected), len(expected)):
        problems.append(
            f"mcl summary n_input/n_kept/n_resolved = {summary['n_input']}/{summary['n_kept']}/"
            f"{summary['n_resolved']}, expected {len(truth)}/{len(expected)}/{len(expected)}"
        )
    return problems


@_guard
def check_damcl(out: Path, truth: dict, n_combos: int) -> list[str]:
    """Each combo resolves at the first percentile point >= d.

    A sequence whose d exceeds its length never sees the dependency, so
    every prefix matches the full context and it resolves at the first point.
    """
    expected = {}
    for sid, (d, n) in truth.items():
        points = percentile_points(n)
        expected[sid] = first_at_least(points, d) if d <= n else points[0]
    problems = []
    files = sorted(out.glob("damcl_*.jsonl"))
    if len(files) != n_combos:
        problems.append(f"damcl wrote {len(files)} result files, expected {n_combos}")
    for path in files:
        rows = {r["seq_id"]: r for r in _read_jsonl(path)}
        if set(rows) != set(expected):
            problems.append(f"{path.name}: {len(rows)} rows, expected {len(expected)}")
            continue
        wrong = [sid for sid, length in expected.items() if rows[sid]["length"] != length]
        if wrong:
            sid = wrong[0]
            problems.append(
                f"{path.name}: {len(wrong)} wrong lengths, e.g. {sid} {rows[sid]['length']} != {expected[sid]}"
            )
    mean = sum(expected.values()) / len(expected)
    combos = _read_json(out / "damcl_summary.json")["combos"]
    if len(combos) != n_combos:
        problems.append(f"damcl summary lists {len(combos)} combos, expected {n_combos}")
    for combo in combos:
        if combo["n"] != len(expected) or not math.isclose(combo["mean_length"], mean, rel_tol=1e-12):
            problems.append(f"damcl combo {combo}: expected n={len(expected)} mean_length={mean}")
    return problems


@_guard
def check_detect(out: Path, truth: dict, n_taus: int) -> list[str]:
    """Planted labels at the window are separable: AUC 1, accuracy 1 at tau 0.6."""
    problems = []
    summary = _read_json(out / "detect_summary.json")
    if summary["n"] != len(truth):
        problems.append(f"detect scored {summary['n']} positions, expected {len(truth)}")
    if summary["auc"] != 1.0 or summary["accuracy"] != 1.0:
        problems.append(f"detect auc={summary['auc']} accuracy={summary['accuracy']}, expected 1.0 and 1.0")
    rows = _read_jsonl(out / "detect_results.jsonl")
    wrong = [
        r["seq_id"] for r in rows if r["label_pred"] != ("long" if truth[r["seq_id"]][0] > WINDOW else "short")
    ]
    if wrong or len(rows) != len(truth):
        problems.append(f"detect: {len(rows)} rows, {len(wrong)} wrong predictions")
    sweep = (out / "detect_tau_sweep.csv").read_text(encoding="utf-8").strip().splitlines()
    if len(sweep) != n_taus + 1:
        problems.append(f"detect tau sweep has {len(sweep) - 1} rows, expected {n_taus}")
    return problems


@_guard
def check_generate(out: Path, n_prompts: int, n_samples: int, max_new: int) -> list[str]:
    """Exactly max_new tokens per sample (no eos is configured) and no backend error."""
    rows = _read_jsonl(out / "generations.jsonl")
    problems = []
    if len(rows) != n_prompts * n_samples:
        problems.append(f"generate wrote {len(rows)} samples, expected {n_prompts * n_samples}")
    bad = [r for r in rows if len(r["tokens"]) != max_new or r["error"] is not None]
    if bad:
        problems.append(f"generate: {len(bad)} samples short or errored, e.g. error={bad[0]['error']!r}")
    return problems


@_guard
def check_bench(out: Path, lengths: list[int]) -> list[str]:
    """One row per requested length, with positive timings."""
    rows = _read_json(out / "bench.json")["rows"]
    problems = []
    if [r["len"] for r in rows] != lengths:
        problems.append(f"bench rows {[r['len'] for r in rows]}, expected {lengths}")
    if any(not (r["full_ms"] > 0 and r["extra_ms"] > 0) for r in rows):
        problems.append("bench: nonpositive timing")
    return problems
