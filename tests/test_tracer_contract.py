"""The names and results that ``perfbench/tracer.py`` reads from ctxlens, checked by running it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import orjson
import pytest

from conftest import write_jsonl

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("method", ["taboo", "cad"])
def test_tracer_counts_match_the_written_generations(tmp_path, method):
    # The planted dependency (last token 50) lies beyond the 32-token short suffix, so taboo's gate opens.
    prompts = write_jsonl(
        tmp_path / "prompts.jsonl",
        [{"id": f"p{i}", "tokens": [(7 * i + j) % 500 + 2 for j in range(59)] + [50]} for i in range(2)],
    )
    out, trace_path = tmp_path / "out", tmp_path / "trace.json"
    argv = ["generate", "--backend", "mock:planted_last:vocab=512", "--prompts", str(prompts),
            "--method", method, "--lam", "4", "--n-samples", "2", "--max-new", "4", "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace_path), "--", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_path.read_text())
    assert trace["exit"] == 0
    records = [orjson.loads(line) for line in (out / "generations.jsonl").read_bytes().splitlines()]
    steps = [step for r in records for step in r["steps"]]
    counts = trace["counts"]
    assert counts["boosting.tokens"] == sum(len(r["tokens"]) for r in records) > 0
    taboo_steps = len(steps) if method == "taboo" else 0
    assert counts.get("boosting.taboo_steps", 0) == taboo_steps
    assert counts.get("boosting.gate_open_steps", 0) == sum(1 for step in steps if step["boosted"])
    if method == "taboo":
        assert counts["boosting.gate_open_steps"] > 0


def test_tracer_counts_match_the_written_detect_results(tmp_path):
    rows = [
        {"seq_id": f"s{i}", "tokens": [(3 * i + j) % 500 + 2 for j in range(59)] + [50 if i % 2 else 10],
         "label": "long" if i % 2 else "short"}
        for i in range(6)
    ]
    corpus = write_jsonl(tmp_path / "corpus.jsonl", rows)
    out, trace_path = tmp_path / "out", tmp_path / "trace.json"
    argv = ["detect", "--backend", "mock:planted_last:vocab=512", "--corpus", str(corpus),
            "--oracle", "planted", "--tau-sweep", "0.2,0.6", "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace_path), "--", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_path.read_text())
    assert trace["exit"] == 0
    n_records = len((out / "detect_results.jsonl").read_text().splitlines())
    counts = trace["counts"]
    assert counts["detection.lsds.calls"] == n_records == len(rows)
    assert counts["detection.calibration_n"] == n_records
    for name in ("roc_auc", "youden_threshold", "tau_sweep"):
        assert counts[f"detection.{name}.calls"] >= 1
    # filter_confident_correct is gone from ctxlens but still listed in the tracer's targets.
    assert set(trace["absent"]) <= {"ctxlens.probe.filter_confident_correct"}
