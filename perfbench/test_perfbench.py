"""Tests of the benchmark's own parts: inputs, forced-outcome checker, tracer, metric aggregation.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from inputs import InputSpec, generate_inputs  # noqa: E402

from ctxlens import cli  # noqa: E402

SPEC = InputSpec(vocab=1024, n_corpus=24, n_damcl=6, n_detect=16, n_prompts=2, seq_len=300)
BACKEND = "mock:planted_last:vocab=1024"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs")
    return out, generate_inputs(SPEC, 5, out)


def run_cli(tmp_path, name, *args):
    out = tmp_path / name
    assert cli.main([*args, "--backend", BACKEND, "--out", str(out)]) == 0
    return out


def rewrite_jsonl(path, edit):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_inputs_are_seeded_and_cost_the_same_across_seeds(tmp_path):
    a = generate_inputs(SPEC, 1, tmp_path / "a")
    again = generate_inputs(SPEC, 1, tmp_path / "again")
    b = generate_inputs(SPEC, 2, tmp_path / "b")
    assert a == again
    assert (tmp_path / "a" / "corpus.jsonl").read_bytes() == (tmp_path / "again" / "corpus.jsonl").read_bytes()
    assert a != b

    def points_walked(truth):
        walks = []
        for d, n in truth["corpus"].values():
            points = check.fixed_step_points(n, 32, 16)
            walks.append(points.index(check.first_at_least(points, d)) + 1 if d <= n else 0)
        return sorted(walks)

    assert points_walked(a) == points_walked(b)
    labels = [d > 32 for d, _ in a["detect"].values()]
    assert any(labels) and not all(labels)


def test_mcl_check_passes_and_catches_a_wrong_length(tmp_path, inputs):
    src, truth = inputs
    out = run_cli(tmp_path, "mcl", "mcl", "--corpus", str(src / "corpus.jsonl"))
    assert check.check_mcl(out, truth["corpus"], 32, 16) == []

    def shift(rows):
        rows[0]["length"] += 16

    rewrite_jsonl(out / "mcl_results.jsonl", shift)
    assert check.check_mcl(out, truth["corpus"], 32, 16)

    out = run_cli(tmp_path, "setup", "mcl", "--corpus", str(src / "setup.jsonl"))
    assert check.check_mcl(out, truth["setup"], 32, 16) == []


def test_damcl_check_passes_and_catches_a_wrong_length(tmp_path, inputs):
    src, truth = inputs
    out = run_cli(
        tmp_path, "damcl", "damcl", "--corpus", str(src / "damcl.jsonl"),
        "--strategies", "nucleus:0.9,topk:50", "--epsilons", "0.1,0.2",
    )
    assert check.check_damcl(out, truth["damcl"], 4) == []
    assert check.check_damcl(out, truth["damcl"], 2)

    def shift(rows):
        rows[-1]["length"] += 1

    rewrite_jsonl(sorted(out.glob("damcl_*.jsonl"))[0], shift)
    assert check.check_damcl(out, truth["damcl"], 4)


def test_detect_check_passes_and_catches_a_wrong_label(tmp_path, inputs):
    src, truth = inputs
    out = run_cli(
        tmp_path, "detect", "detect", "--corpus", str(src / "detect.jsonl"), "--tau-sweep", "0.2,0.6",
    )
    assert check.check_detect(out, truth["detect"], 2) == []

    def flip(rows):
        rows[0]["label_pred"] = "short" if rows[0]["label_pred"] == "long" else "long"

    rewrite_jsonl(out / "detect_results.jsonl", flip)
    assert check.check_detect(out, truth["detect"], 2)


def test_generate_and_bench_checks_catch_short_output(tmp_path, inputs):
    src, _ = inputs
    out = run_cli(
        tmp_path, "gen", "generate", "--prompts", str(src / "prompts.jsonl"), "--method", "taboo",
        "--lam", "4", "--n-samples", "2", "--max-new", "3",
    )
    assert check.check_generate(out, 2, 2, 3) == []

    def truncate(rows):
        rows[1]["tokens"] = rows[1]["tokens"][:-1]

    rewrite_jsonl(out / "generations.jsonl", truncate)
    assert check.check_generate(out, 2, 2, 3)

    out = run_cli(tmp_path, "bench", "bench", "--lengths", "100,200", "--repeat", "1")
    assert check.check_bench(out, [100, 200]) == []
    assert check.check_bench(out, [100, 200, 500])


def test_missing_output_is_a_failed_check(tmp_path, inputs):
    _, truth = inputs
    assert check.check_mcl(tmp_path, truth["corpus"], 32, 16)


def test_tracer_records_nested_spans(tmp_path, inputs):
    src, _ = inputs
    trace_path = tmp_path / "trace.json"
    cmd = [
        sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", "mcl", "--backend", BACKEND,
        "--corpus", str(src / "corpus.jsonl"), "--out", str(tmp_path / "out"),
    ]
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    assert subprocess.run(cmd, env=env, timeout=120).returncode == 0
    trace = json.loads(trace_path.read_text())
    assert trace["absent"] == []
    by_id = {span[0]: span for span in trace["spans"]}
    names = {span[2] for span in trace["spans"]}
    assert {"probe.mcl", "backends.prefix_distribution", "decoding.confidence"} <= names
    child = next(s for s in trace["spans"] if s[2] == "backends.prefix_distribution" and s[1] is not None)
    assert by_id[child[1]][2] in ("probe.mcl", "probe.filter_confident_correct")
    assert all(span[5] <= span[4] - span[3] + 1e-9 for span in trace["spans"])
    assert trace["counts"]["mock.calls"] > 0


def test_tracer_reports_removed_targets_as_absent(monkeypatch):
    gone = (
        ("ctxlens.probe", "no_such_function", "probe.gone", None, True),
        ("ctxlens.probe", "NoSuchClass.method", "probe.gone_method", None, True),
        ("ctxlens.no_such_module", "f", "gone.f", None, True),
    )
    monkeypatch.setattr(tracer, "TARGETS", gone)
    t = tracer.Tracer()
    tracer.install(t)
    assert t.absent == [
        "ctxlens.probe.no_such_function", "ctxlens.probe.NoSuchClass.method", "ctxlens.no_such_module.f",
    ]


def test_reference_server_applies_the_planted_rule_and_counts_requests():
    import threading

    import refserver

    from ctxlens.backends import BackendEndpoint, HttpBackend, prefix_distribution
    from ctxlens.decoding import top1

    server = refserver.make_server(refserver.ReferenceModel(vocab=512, seed=3))
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    try:
        url = f"http://127.0.0.1:{server.server_port}"
        backend = HttpBackend(BackendEndpoint(base_url=url, timeout_s=10))
        seq = [7] * 99 + [40]  # dependency length 40
        above = prefix_distribution(seq, 40, backend)
        below = prefix_distribution(seq, 39, backend)
        assert backend.vocab_size == 512
        assert top1(above) == 1 and above.entry(1) > 0.89
        assert top1(below) != 1
        assert backend.detokenize([3, 4]) == "t3 t4"
        with urllib.request.urlopen(url + "/v1/stats", timeout=10) as resp:
            stats = json.load(resp)
        assert stats["requests"] == {"/v1/next_logprobs": 2, "/v1/detokenize": 1}
    finally:
        server.shutdown()
        server.server_close()
        worker.join(timeout=10)
    assert not worker.is_alive()


def sample(op, wall, trace=None, upstream=None):
    return run.Sample(op, True, wall, 100.0, {}, upstream, trace)


def test_layer_metrics_report_per_pass_counts_and_overhead_with_its_base():
    op = run.Op("detect", "detect", "detect_pos_per_s", [], 10, 10, lambda out: [])
    trace = {
        "absent": ["ctxlens.gone"],
        "counts": {"mock.calls": 20, "decoding.apply_strategy.calls": 40, "cache.hits": 1, "cache.misses": 3},
        "spans": [[0, None, "detection.lsds", 0.0, 0.004, 0.001], [1, 0, "decoding.apply_strategy", 0.0, 0.003, 0.003]],
    }
    passes = [[(sample(op, 1.0), sample(op, 1.1, trace))], [(sample(op, 1.0), sample(op, 1.3, trace))]]
    values, absent = run.layer_metrics(passes)
    assert absent == ["ctxlens.gone"]
    assert values["backend.calls.detect"] == 20 and values["backend.calls_per_seq.detect"] == 2
    assert values["decoding.apply_strategy.calls"] == 40
    assert values["cache.hit_ratio"] == 0.25
    assert values["detection.lsds_ms.p50"] == pytest.approx(4.0)
    assert values["trace.traced_wall_s"] == pytest.approx(2.4)
    assert values["trace.overhead_share"] == pytest.approx(0.2)
    assert values["http.calls"] == 0
    assert set(values) == set(run.declared_metrics()[1])


def test_end_to_end_samples_are_rates_per_round():
    op = run.Op("mcl", "mcl", "mcl_seq_per_s", [], 50, 50, lambda out: [])
    rounds = [[sample(op, 2.0)], [sample(op, 1.0)], [run.Sample(op, False, 0.1, 100.0)]]
    per_round = run.end_to_end_samples(rounds, [0.3, 0.4])
    assert per_round["mcl_seq_per_s"] == [25.0, 50.0]
    assert per_round["setup_s"] == [0.3, 0.4]
    assert per_round["peak_rss_mb"] == [100.0, 100.0, 100.0]
