"""End-to-end command line runs against mock backends in temp directories."""

import gc
import hashlib
import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ctxlens.cli as cli
from conftest import PROPERTY, FakeModelServer, peak_rss_mb, write_jsonl
from ctxlens.backends import (
    ConstantBackend,
    FlakyBackend,
    PlantedDependencyBackend,
    PlantedLastTokenBackend,
)
from ctxlens.backends.base import BackendWrapper
from ctxlens.boosting import GENERATION_METHODS
from ctxlens.corpus import SYNTH_KINDS, load_jsonl
from ctxlens.decoding import apply_strategy
from ctxlens.dist import TokenDistribution
from ctxlens.probe import METRIC_NAMES
from ctxlens.reporting import read_report


def planted_corpus_records(n_short=8, n_long=2, length=300, seed=99, with_labels=False):
    """Sequences whose final token encodes the planted dependency depth.

    Short sequences end with token 20 (resolvable from the 32-token grid
    start), long ones with 208 (a grid point well past it). Ground truth is
    the planted answer token 5.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_short + n_long):
        depth = 20 if i < n_short else 208
        tokens = [int(t) for t in rng.integers(0, 256, size=length)]
        tokens[-1] = depth
        rec = {
            "seq_id": f"s{i:02d}",
            "tokens": tokens,
            "next_token": 5,
            "doc_id": "synthetic",
            "bucket": [200, 400],
        }
        if with_labels:
            rec["label"] = "short" if depth <= 32 else "long"
        records.append(rec)
    return records


PLANTED = "mock:planted_last:answer=5,vocab=256"


def run(argv):
    return cli.main(argv)


def read_jsonl(path):
    """The records of an output JSONL file, each line parsed as strict (RFC 8259) JSON."""
    return [orjson.loads(line) for line in path.read_bytes().splitlines()]


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestMclCommand:
    def test_end_to_end_shares_and_fit(self, tmp_path):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records())
        out = tmp_path / "out"
        code = run(
            [
                "mcl",
                "--backend",
                "mock:planted_last:answer=5,vocab=256",
                "--corpus",
                str(corpus),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        results = read_jsonl(out / "mcl_results.jsonl")
        assert len(results) == 10
        lengths = sorted(r["length"] for r in results)
        assert lengths == [32] * 8 + [208] * 2
        summary = read_report(out / "mcl_summary.json")
        assert summary["n_kept"] == 10
        assert summary["n_resolved"] == 10
        assert summary["share_le"]["32"] == 0.8
        assert summary["share_le"]["96"] == 0.8
        fit = summary["fit"]
        assert fit["b_hat"] > 0
        assert fit["b_hat_signed"] == -fit["b_hat"]
        hist = (out / "mcl_hist.csv").read_text()
        assert hist == "ell,count\n32,8\n208,2\n"

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records())
        args = [
            "mcl",
            "--backend",
            "mock:planted_last:answer=5,vocab=256",
            "--corpus",
            str(corpus),
            "--seed",
            "3",
        ]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_document_sampling_mode(self, tmp_path):
        corpus = write_jsonl(tmp_path / "docs.jsonl", [{"id": "d0", "tokens": [5] * 1100}])
        out = tmp_path / "out"
        code = run(
            [
                "mcl",
                "--backend",
                "mock:planted_last:answer=5,vocab=256",
                "--corpus",
                str(corpus),
                "--sample",
                "2",
                "--buckets",
                "32-100,100-200",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = read_report(out / "mcl_summary.json")
        assert summary["n_input"] == 4
        assert summary["n_kept"] == 4
        assert summary["share_le"]["32"] == 1.0
        assert summary["fit"] is None  # single histogram bin
        assert sorted(path.name for path in out.iterdir()) == ["mcl_hist.csv", "mcl_results.jsonl", "mcl_summary.json"]

    def test_text_documents_sample_like_their_tokens(self, tmp_path):
        mixed = write_jsonl(
            tmp_path / "mixed.jsonl",
            [{"id": "d0", "text": " ".join(["5"] * 300)}, {"id": "d1", "tokens": [5] * 250}],
        )
        tokens = write_jsonl(
            tmp_path / "tokens.jsonl", [{"id": "d0", "tokens": [5] * 300}, {"id": "d1", "tokens": [5] * 250}]
        )
        argv = ["mcl", "--backend", PLANTED, "--sample", "2", "--buckets", "32-100,100-200"]
        out_mixed, out_tokens = tmp_path / "o_mixed", tmp_path / "o_tokens"
        assert run([*argv, "--corpus", str(mixed), "--out", str(out_mixed)]) == 0
        assert run([*argv, "--corpus", str(tokens), "--out", str(out_tokens)]) == 0
        assert read_report(out_mixed / "mcl_summary.json")["n_input"] == 8
        assert tree_bytes(out_mixed) == tree_bytes(out_tokens)

    def test_changed_text_is_tokenized_afresh_on_a_rerun(self, tmp_path):
        corpus = tmp_path / "docs.jsonl"
        argv = ["mcl", "--backend", PLANTED, "--corpus", str(corpus), "--sample", "1", "--buckets", "32-100"]
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        write_jsonl(corpus, [{"id": "d0", "text": " ".join(["5"] * 20)}, {"id": "d1", "tokens": [5] * 300}])
        assert run([*argv, "--out", str(out)]) == 0
        assert len(read_report(out / "mcl_summary.json")["warnings"]) == 1  # d0 is too short for the bucket
        write_jsonl(corpus, [{"id": "d0", "text": " ".join(["5"] * 300)}, {"id": "d1", "tokens": [5] * 300}])
        assert run([*argv, "--out", str(out)]) == 0
        assert run([*argv, "--out", str(fresh)]) == 0
        summary = read_report(out / "mcl_summary.json")
        assert (summary["n_input"], summary["warnings"]) == (2, [])
        assert tree_bytes(out) == tree_bytes(fresh)

    def test_document_text_that_is_not_text_is_an_error_record(self, tmp_path):
        corpus = write_jsonl(
            tmp_path / "docs.jsonl", [{"id": "d0", "tokens": [5] * 300}, {"id": "d1", "text": ["a", "b"]}]
        )
        out = tmp_path / "out"
        argv = ["mcl", "--backend", PLANTED, "--corpus", str(corpus), "--sample", "1", "--buckets", "32-100"]
        assert run([*argv, "--out", str(out)]) == 0
        summary = read_report(out / "mcl_summary.json")
        assert summary["n_input"] == 1
        assert summary["warnings"] == [{"line": 2, "error": "text must be a string or a number, not ['a', 'b']"}]

    def test_unconfident_sequences_are_reported_not_probed(self, tmp_path):
        records = planted_corpus_records(n_short=2, n_long=0)
        records[0]["next_token"] = 7  # planted answer is 5, so this fails the gate
        corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
        out = tmp_path / "out"
        assert run(["mcl", "--backend", PLANTED, "--corpus", str(corpus), "--out", str(out)]) == 0
        summary = read_report(out / "mcl_summary.json")
        assert summary["n_kept"] == 1
        assert summary["filtered"][0]["seq_id"] == "s00"

    def test_gate_keeps_confident_correct_only(self, tmp_path):
        records = planted_corpus_records(n_short=3, n_long=0)
        records[0]["next_token"] = 7  # planted answer is 5, so this fails the gate
        del records[2]["next_token"]
        corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
        out = tmp_path / "out"
        assert run(["mcl", "--backend", PLANTED, "--corpus", str(corpus), "--out", str(out)]) == 0
        assert [r["seq_id"] for r in read_jsonl(out / "mcl_results.jsonl")] == ["s01"]
        summary = read_report(out / "mcl_summary.json")
        assert (summary["n_input"], summary["n_kept"]) == (3, 1)
        assert summary["filtered"] == [
            {"seq_id": "s00", "reason": "full-context prediction not confident-correct"},
            {"seq_id": "s02", "reason": "no ground-truth next token"},
        ]

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_sequence_below_grid_start_is_filtered_not_fatal(self, tmp_path, monkeypatch, parallel):
        mock = PlantedLastTokenBackend(vocab_size=256, answer_token=5)
        monkeypatch.setattr(cli, "build_backend", lambda spec: mock)
        records = [{"seq_id": f"s{i}", "tokens": [1] * 99 + [20], "next_token": 5} for i in range(4)]
        records[1]["tokens"] = [1] * 19 + [20]
        corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
        out = tmp_path / "out"
        argv = ["mcl", "--backend", "unused", "--corpus", str(corpus), "--parallel", parallel]
        assert run([*argv, "--out", str(out)]) == 0
        assert [r["seq_id"] for r in read_jsonl(out / "mcl_results.jsonl")] == ["s0", "s2", "s3"]
        summary = read_report(out / "mcl_summary.json")
        assert (summary["n_input"], summary["n_kept"]) == (4, 3)
        assert summary["filtered"] == [{"seq_id": "s1", "reason": "sequence length 20 below grid start 32"}]
        assert mock.calls == 3 * 2  # the short sequence costs no call

    def test_gate_with_delta_one_rejects_everything(self, tmp_path):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=2, n_long=0))
        out = tmp_path / "out"
        argv = ["mcl", "--backend", PLANTED, "--corpus", str(corpus), "--delta", "1", "--out", str(out)]
        assert run(argv) == 0
        assert read_jsonl(out / "mcl_results.jsonl") == []
        summary = read_report(out / "mcl_summary.json")
        assert summary["n_kept"] == 0
        assert [f["seq_id"] for f in summary["filtered"]] == ["s00", "s01"]

    def test_partial_results_survive_backend_outage(self, tmp_path, monkeypatch):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records())
        out = tmp_path / "out"
        # Budget: the gate call plus one probe for each of s00..s07, the gate
        # call plus 12 probes for s08 and the gate call for s09, then the
        # outage hits the first probe of s09.
        flaky = FlakyBackend(
            PlantedLastTokenBackend(vocab_size=256, answer_token=5), fail_after=30
        )
        monkeypatch.setattr(cli, "build_backend", lambda spec: flaky)
        code = run(
            ["mcl", "--backend", "unused", "--corpus", str(corpus), "--out", str(out)]
        )
        assert code == 2
        results = read_jsonl(out / "mcl_results.jsonl")
        assert len(results) == 9
        assert [r["seq_id"] for r in results] == [f"s{i:02d}" for i in range(9)]
        assert not (out / "mcl_summary.json").exists()
        failure = read_report(out / "mcl_failure.json")
        assert (failure["seq_id"], failure["attempts"]) == ("s09", 1)
        assert failure["error"] == "injected outage after 30 calls"
        assert failure["partial_trace"] == []  # the first grid point of s09 failed
        # Five calls earlier, the outage hits s08's walk after eight of its grid points.
        flaky.fail_after, flaky.attempts = 25, 0
        assert run(["mcl", "--backend", "unused", "--corpus", str(corpus), "--out", str(out)]) == 2
        assert len(read_jsonl(out / "mcl_results.jsonl")) == 8
        failure = read_report(out / "mcl_failure.json")
        assert failure["seq_id"] == "s08"
        # Before s08's dependency the mock is uniform: top-1 id 0 at confidence 0.
        assert failure["partial_trace"] == [[ell, [0, 0.0]] for ell in range(32, 160, 16)]

    def test_empty_corpus_is_a_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        code = run(
            [
                "mcl",
                "--backend",
                "mock:uniform:vocab=8",
                "--corpus",
                str(corpus),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 3
        assert "no valid sequences" in capsys.readouterr().err


class TestDamclCommand:
    def test_strategy_epsilon_matrix(self, tmp_path):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=3, n_long=1))
        out = tmp_path / "out"
        code = run(
            [
                "damcl",
                "--backend",
                "mock:planted_last:answer=5,vocab=256",
                "--corpus",
                str(corpus),
                "--strategies",
                "nucleus:0.9,greedy",
                "--epsilons",
                "0.1,0.2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        slugs = [
            "nucleus-0.9_jsd_eps0.1",
            "nucleus-0.9_jsd_eps0.2",
            "greedy_jsd_eps0.1",
            "greedy_jsd_eps0.2",
        ]
        for slug in slugs:
            assert (out / f"damcl_{slug}.jsonl").exists()
            assert (out / f"damcl_{slug}_hist.csv").read_text().startswith("ell,count\n")
        summary = read_report(out / "damcl_summary.json")
        assert len(summary["combos"]) == 4
        assert all(c["mean_length"] > 0 for c in summary["combos"])
        assert all(c["n"] == 4 for c in summary["combos"])

    def test_document_sampling_mode_writes_only_documented_files(self, tmp_path):
        corpus = write_jsonl(tmp_path / "docs.jsonl", [{"id": "d0", "text": " ".join(["5"] * 300)}])
        out = tmp_path / "out"
        argv = ["damcl", "--backend", PLANTED, "--corpus", str(corpus), "--sample", "2", "--buckets", "32-100",
                "--strategies", "nucleus:0.9", "--epsilons", "0.1", "--out", str(out)]
        assert run(argv) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "damcl_nucleus-0.9_jsd_eps0.1.jsonl",
            "damcl_nucleus-0.9_jsd_eps0.1_hist.csv",
            "damcl_summary.json",
        ]
        assert read_report(out / "damcl_summary.json")["combos"][0]["n"] == 2

    def test_every_sequence_resolves(self, tmp_path):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=2, n_long=2))
        out = tmp_path / "out"
        run(
            [
                "damcl",
                "--backend",
                "mock:planted_last:answer=5,vocab=256",
                "--corpus",
                str(corpus),
                "--strategies",
                "nucleus:0.9",
                "--epsilons",
                "0.1",
                "--out",
                str(out),
            ]
        )
        results = read_jsonl(out / "damcl_nucleus-0.9_jsd_eps0.1.jsonl")
        assert all(r["resolved"] for r in results)
        assert all(r["trace"] for r in results)

    @pytest.mark.parametrize("metric", ["cosine", "kl"])
    def test_unknown_metric_is_usage_error(self, tmp_path, metric):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=1, n_long=0))
        code = run(
            [
                "damcl",
                "--backend",
                "mock:uniform:vocab=8",
                "--corpus",
                str(corpus),
                "--metric",
                metric,
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("epsilons", ["0.1,-0.1", "nan", "0.1,nan", "inf", "0.1,inf", ","])
    def test_negative_or_non_finite_epsilon_is_usage_error(self, tmp_path, capsys, epsilons):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=1, n_long=0))
        argv = ["damcl", "--backend", PLANTED, "--corpus", str(corpus), "--epsilons", epsilons]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("usage error: argument --epsilons: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "options, name",
        [
            (["--epsilons", "0.1,0.1000001"], "damcl_nucleus-0.9_jsd_eps0.1.jsonl"),
            (["--epsilons", "0.1,0.1"], "damcl_nucleus-0.9_jsd_eps0.1.jsonl"),
            (["--strategies", "nucleus:0.9,nucleus:0.90", "--epsilons", "0.2"], "damcl_nucleus-0.9_jsd_eps0.2"),
        ],
    )
    def test_combinations_sharing_a_file_are_usage_error(self, tmp_path, capsys, options, name):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=3, n_long=0))
        out = tmp_path / "out"
        assert run(["damcl", "--backend", PLANTED, "--corpus", str(corpus), *options, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and name in err
        assert not out.exists()

    def test_fixed_50_is_a_step_not_a_mode(self, tmp_path):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=1, n_long=0))
        argv = ["damcl", "--backend", PLANTED, "--corpus", str(corpus), "--grid-mode"]
        assert run([*argv, "fixed_50", "--out", str(tmp_path / "bad")]) == 1
        out = tmp_path / "out"
        assert run([*argv, "fixed_step", "--grid-step", "50", "--out", str(out)]) == 0
        summary = read_report(out / "damcl_summary.json")
        assert summary["grid"] == {"mode": "fixed_step", "start": 32, "step": 50}
        (record,) = read_jsonl(out / "damcl_nucleus-0.9_jsd_eps0.1.jsonl")
        assert record["grid"] == [32, 82, 132, 182, 232, 282, 300]


class TestDetectCommand:
    def test_planted_oracle_perfect_separation(self, tmp_path):
        corpus = write_jsonl(
            tmp_path / "corpus.jsonl", planted_corpus_records(with_labels=True)
        )
        out = tmp_path / "out"
        code = run(
            [
                "detect",
                "--backend",
                "mock:planted_last:answer=5,vocab=256",
                "--corpus",
                str(corpus),
                "--tau-sweep",
                "0.2,0.6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        results = read_jsonl(out / "detect_results.jsonl")
        assert len(results) == 10
        for r in results:
            assert r["label_pred"] == r["label_oracle"]
        summary = read_report(out / "detect_summary.json")
        assert summary["auc"] == 1.0
        assert summary["youden"]["j"] == 1.0
        assert summary["accuracy"] == 1.0
        assert summary["confusion"] == {"tp": 2, "fp": 0, "tn": 8, "fn": 0}
        sweep = (out / "detect_tau_sweep.csv").read_text().splitlines()
        assert sweep[0] == "tau,tpr,fpr,j,accuracy"
        assert len(sweep) == 3

    @pytest.mark.parametrize("taus", ["0.2,inf", "0.2,nan"])
    def test_non_finite_tau_sweep_is_usage_error_before_any_call(self, tmp_path, taus):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(with_labels=True))
        out = tmp_path / "out"
        assert run(["detect", "--backend", PLANTED, "--corpus", str(corpus), "--tau-sweep", taus,
                    "--out", str(out)]) == 1
        assert not out.exists()

    def test_score_equal_to_tau_counts_as_long(self, tmp_path):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(with_labels=True))
        argv = ["detect", "--backend", PLANTED, "--corpus", str(corpus)]
        assert run([*argv, "--out", str(tmp_path / "first")]) == 0
        tau = max(r["lsds"] for r in read_jsonl(tmp_path / "first" / "detect_results.jsonl"))
        assert tau > 0.0
        out = tmp_path / "at_tau"
        assert run([*argv, "--tau", repr(tau), "--out", str(out)]) == 0
        at_tau = [r for r in read_jsonl(out / "detect_results.jsonl") if r["lsds"] == tau]
        assert at_tau and all(r["label_pred"] == "long" for r in at_tau)
        confusion = read_report(out / "detect_summary.json")["confusion"]
        assert confusion["tp"] + confusion["fp"] == len(at_tau)

    def test_mcl_oracle_agrees_with_planted_labels(self, tmp_path):
        corpus = write_jsonl(
            tmp_path / "corpus.jsonl",
            planted_corpus_records(n_short=3, n_long=2, with_labels=True),
        )
        out = tmp_path / "out"
        code = run(
            [
                "detect",
                "--backend",
                "mock:planted_last:answer=5,vocab=256",
                "--corpus",
                str(corpus),
                "--oracle",
                "mcl",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        results = read_jsonl(out / "detect_results.jsonl")
        for rec, raw in zip(results, planted_corpus_records(n_short=3, n_long=2, with_labels=True)):
            assert rec["label_oracle"] == raw["label"]
            assert rec["oracle_kind"] == "mcl"

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_unlabelable_position_is_filtered_not_fatal(self, tmp_path, parallel):
        records = planted_corpus_records(n_short=4, n_long=2)
        records[3]["next_token"] = 7  # the mock predicts 5, so the mcl probe never resolves
        corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
        out = tmp_path / "out"
        argv = ["detect", "--backend", PLANTED, "--corpus", str(corpus), "--oracle", "mcl"]
        assert run([*argv, "--parallel", parallel, "--out", str(out)]) == 0
        kept = [r["seq_id"] for r in read_jsonl(out / "detect_results.jsonl")]
        assert kept == ["s00", "s01", "s02", "s04", "s05"]
        summary = read_report(out / "detect_summary.json")
        assert summary["n"] == 5
        reason = "probe never resolved, sequence is not labelable"
        assert summary["filtered"] == [{"seq_id": "s03", "reason": reason}]

    @pytest.mark.parametrize("tau", ["0", "0.6", "0.83"])
    def test_confusion_and_accuracy_recount_from_the_results(self, tmp_path, tau):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(with_labels=True))
        out = tmp_path / "out"
        argv = ["detect", "--backend", PLANTED, "--corpus", str(corpus), "--tau", tau]
        assert run([*argv, "--out", str(out)]) == 0
        results = read_jsonl(out / "detect_results.jsonl")
        counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for r in results:
            pred, truth = r["label_pred"] == "long", r["label_oracle"] == "long"
            counts[("t" if pred == truth else "f") + ("p" if pred else "n")] += 1
        summary = read_report(out / "detect_summary.json")
        assert summary["confusion"] == counts
        assert summary["accuracy"] == (counts["tp"] + counts["tn"]) / len(results)

    def test_missing_labels_is_a_data_error(self, tmp_path):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records())
        code = run(
            [
                "detect",
                "--backend",
                "mock:planted_last:answer=5,vocab=256",
                "--corpus",
                str(corpus),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "oracle, short_len, code",
        [
            ("planted", "32", 3),  # 20 tokens leave no context beyond the 32-token suffix
            ("planted", "0.5", 0),
            ("mcl", "0.5", 3),  # below the grid start
            ("lsd_lcl", "0.5", 3),  # not longer than the oracle's 32-token suffix
        ],
    )
    def test_short_sequence_stops_the_run_before_any_result(self, tmp_path, capsys, oracle, short_len, code):
        records = planted_corpus_records(n_short=2, n_long=1, length=100, with_labels=True)
        records.append({**records[0], "seq_id": "s99", "tokens": records[0]["tokens"][-20:]})
        corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
        out = tmp_path / "out"
        argv = ["detect", "--backend", PLANTED, "--corpus", str(corpus), "--oracle", oracle]
        assert run([*argv, "--short-len", short_len, "--out", str(out)]) == code
        if code:
            assert "s99" in capsys.readouterr().err
            assert not (out / "detect_results.jsonl").exists()
        else:
            assert len(read_jsonl(out / "detect_results.jsonl")) == 4

    def test_malformed_lines_are_reported_as_warnings(self, tmp_path):
        records = planted_corpus_records(n_short=2, n_long=1, with_labels=True)
        corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
        with corpus.open("a", encoding="utf-8") as fh:
            fh.write('{"seq_id": "bad", "tokens": [1, 2.5], "label": "short"}\n')
        out = tmp_path / "out"
        assert run(["detect", "--backend", PLANTED, "--corpus", str(corpus), "--out", str(out)]) == 0
        summary = read_report(out / "detect_summary.json")
        assert summary["n"] == 3
        assert [w["line"] for w in summary["warnings"]] == [4]

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = write_jsonl(
            tmp_path / "corpus.jsonl", planted_corpus_records(with_labels=True)
        )
        args = [
            "detect",
            "--backend",
            "mock:planted_last:answer=5,vocab=256",
            "--corpus",
            str(corpus),
        ]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)


class TestGenerateCommand:
    PROMPTS = [
        {"id": "p1", "tokens": [2, 3, 4], "gold": "t1 t1 t1 t1"},
        {"id": "p0", "tokens": [3, 4, 5]},
    ]

    def test_vanilla_generation_and_scoring(self, tmp_path):
        prompts = write_jsonl(tmp_path / "prompts.jsonl", self.PROMPTS)
        out = tmp_path / "out"
        code = run(
            [
                "generate",
                "--backend",
                "mock:planted:d=2,answer=1,vocab=8",
                "--prompts",
                str(prompts),
                "--max-new",
                "4",
                "--n-samples",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records = read_jsonl(out / "generations.jsonl")
        assert len(records) == 4
        assert [r["prompt_id"] for r in records] == ["p0", "p0", "p1", "p1"]
        assert all(len(r["tokens"]) == 4 for r in records)
        assert all(len(r["steps"]) == 4 for r in records)
        assert all(r["error"] is None for r in records)
        scores = read_report(out / "generate_scores.json")
        assert scores["n_prompts"] == 1
        assert scores["metrics"]["token_f1"]["best"] > 0.5
        summary = read_report(out / "generate_summary.json")
        assert summary["had_backend_error"] is False
        assert summary["config"]["method"] == "vanilla"

    def test_prompt_text_is_a_string_or_a_number(self, tmp_path):
        prompts = write_jsonl(tmp_path / "prompts.jsonl", [{"id": "p", "text": 5}, {"id": "q", "text": ["a"]}])
        out = tmp_path / "out"
        argv = ["generate", "--backend", "mock:planted:d=2,answer=1,vocab=8", "--prompts", str(prompts)]
        assert run([*argv, "--max-new", "2", "--out", str(out)]) == 0
        assert {r["prompt_id"] for r in read_jsonl(out / "generations.jsonl")} == {"p"}
        errors = read_report(out / "generate_summary.json")["prompt_errors"]
        assert errors == [{"line": 2, "error": "text must be a string or a number, not ['a']"}]

    def test_taboo_requires_lam(self, tmp_path, capsys):
        prompts = write_jsonl(tmp_path / "prompts.jsonl", self.PROMPTS)
        code = run(
            [
                "generate",
                "--backend",
                "mock:uniform:vocab=8",
                "--prompts",
                str(prompts),
                "--method",
                "taboo",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "--lam" in capsys.readouterr().err

    def test_taboo_method_runs_and_reports(self, tmp_path):
        prompts = write_jsonl(
            tmp_path / "prompts.jsonl", [{"id": "p", "tokens": [40] * 40}]
        )
        out = tmp_path / "out"
        code = run(
            [
                "generate",
                "--backend",
                "mock:planted:d=36,answer=2,vocab=8",
                "--prompts",
                str(prompts),
                "--method",
                "taboo",
                "--lam",
                "4",
                "--max-new",
                "3",
                "--n-samples",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records = read_jsonl(out / "generations.jsonl")
        assert records[0]["config"]["lam"] == 4.0
        assert all(step["lsds"] is not None for step in records[0]["steps"])

    def test_rerun_is_byte_identical(self, tmp_path):
        prompts = write_jsonl(tmp_path / "prompts.jsonl", self.PROMPTS)
        args = [
            "generate",
            "--backend",
            "mock:planted:d=2,answer=1,vocab=8",
            "--prompts",
            str(prompts),
            "--max-new",
            "6",
            "--n-samples",
            "3",
            "--seed",
            "42",
        ]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_seed_changes_output(self, tmp_path):
        prompts = write_jsonl(tmp_path / "prompts.jsonl", self.PROMPTS)
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"o{seed}"
            run(
                [
                    "generate",
                    "--backend",
                    "mock:uniform:vocab=32",
                    "--prompts",
                    str(prompts),
                    "--max-new",
                    "8",
                    "--n-samples",
                    "1",
                    "--seed",
                    seed,
                    "--out",
                    str(out),
                ]
            )
            outs.append(read_jsonl(out / "generations.jsonl"))
        assert outs[0] != outs[1]

    def test_backend_outage_sets_error_and_exit_code(self, tmp_path, monkeypatch):
        prompts = write_jsonl(tmp_path / "prompts.jsonl", [{"id": "p", "tokens": [1, 2]}])
        flaky = FlakyBackend(
            ConstantBackend(TokenDistribution.point_mass(1, vocab_size=4)), fail_after=2
        )
        monkeypatch.setattr(cli, "build_backend", lambda spec: flaky)
        out = tmp_path / "out"
        code = run(
            [
                "generate",
                "--backend",
                "unused",
                "--prompts",
                str(prompts),
                "--max-new",
                "5",
                "--n-samples",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        records = read_jsonl(out / "generations.jsonl")
        assert records[0]["tokens"] == [1, 1]
        assert records[0]["error"] is not None
        summary = read_report(out / "generate_summary.json")
        assert summary["had_backend_error"] is True


class TestUpstreamCalls:
    """Backend calls per command are exact: each distinct suffix of a unit is fetched once."""

    @pytest.fixture
    def backend(self, monkeypatch):
        mock = PlantedLastTokenBackend(vocab_size=256, answer_token=5)
        monkeypatch.setattr(cli, "build_backend", lambda spec: mock)
        return mock

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_mcl_at_grid_start_length(self, tmp_path, backend, parallel):
        corpus = write_jsonl(
            tmp_path / "corpus.jsonl", [{"seq_id": "s", "tokens": [1] * 31 + [20], "next_token": 5}]
        )
        argv = ["mcl", "--backend", "unused", "--corpus", str(corpus), "--parallel", parallel]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 0
        assert backend.calls == 1

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_damcl_fetches_each_grid_point_once_for_all_combos(self, tmp_path, backend, monkeypatch, parallel):
        # Percentile grid over 100 tokens: 10, 20, ..., 100. Depth 35 resolves at 40, depth 80 at 80.
        decodes = multiprocessing.get_context("fork").Value("q", 0)  # counts in worker processes too

        def counted(dist, strategy):
            with decodes.get_lock():
                decodes.value += 1
            return apply_strategy(dist, strategy)

        monkeypatch.setattr("ctxlens.probe.apply_strategy", counted)
        records = [
            {"seq_id": f"s{i}", "tokens": [1] * 99 + [depth], "next_token": 5}
            for i, depth in enumerate((35, 80))
        ]
        corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
        out = tmp_path / "out"
        argv = [
            "damcl", "--backend", "unused", "--corpus", str(corpus), "--strategies", "nucleus:0.9,topk:50",
            "--epsilons", "0.1,0.2", "--parallel", parallel, "--out", str(out),
        ]
        assert run(argv) == 0
        for path in out.glob("damcl_*.jsonl"):
            assert [r["length"] for r in read_jsonl(path)] == [40, 80]
        assert len(list(out.glob("damcl_*.jsonl"))) == 4
        assert backend.calls == (1 + 4) + (1 + 8)
        # Each strategy decodes the reference and every point it walks once, for both epsilons.
        assert decodes.value == 2 * ((1 + 4) + (1 + 8))

    @pytest.mark.parametrize("oracle", ["planted", "lsd_lcl"])
    def test_detect_two_per_position(self, tmp_path, backend, oracle):
        corpus = write_jsonl(
            tmp_path / "corpus.jsonl", planted_corpus_records(n_short=3, n_long=2, with_labels=True)
        )
        argv = ["detect", "--backend", "unused", "--corpus", str(corpus), "--oracle", oracle]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 0
        assert backend.calls == 2 * 5

    @pytest.mark.parametrize("method", ["taboo", "cad"])
    def test_generate_samples_of_a_deterministic_prompt_share_calls(self, tmp_path, monkeypatch, method):
        calls = {}
        prompts = write_jsonl(tmp_path / "prompts.jsonl", [{"id": "p", "tokens": list(range(40))}])
        for n_samples in (1, 2):
            mock = ConstantBackend(TokenDistribution.point_mass(1, vocab_size=8))
            monkeypatch.setattr(cli, "build_backend", lambda spec: mock)
            argv = [
                "generate", "--backend", "unused", "--prompts", str(prompts), "--method", method,
                "--lam", "2", "--max-new", "5", "--n-samples", str(n_samples),
                "--out", str(tmp_path / f"out{n_samples}"),
            ]
            assert run(argv) == 0
            calls[n_samples] = mock.calls
        assert calls == {1: 2 * 5, 2: 2 * 5}

    def test_each_text_document_is_tokenized_once_per_run(self, tmp_path):
        docs = write_jsonl(tmp_path / "docs.jsonl", [{"id": f"d{i}", "text": f"document {i}"} for i in range(2)])
        pretokenized = write_jsonl(tmp_path / "tokens.jsonl", [{"id": "d", "tokens": [1] * 150}])
        prompts = write_jsonl(tmp_path / "prompts.jsonl", [{"id": f"p{i}", "text": f"prompt {i}"} for i in range(2)])
        sample = ["--sample", "1", "--buckets", "32-100", "--out", str(tmp_path / "out")]
        runs = [
            ["mcl", "--corpus", str(docs), *sample],
            ["mcl", "--corpus", str(docs), *sample],  # a rerun into the same --out tokenizes afresh
            ["mcl", "--corpus", str(pretokenized), *sample],
            ["generate", "--prompts", str(prompts), "--max-new", "1", "--n-samples", "1",
             "--out", str(tmp_path / "gen")],
        ]
        tokenized = []
        with FakeModelServer() as srv:
            srv.routes["/v1/tokenize"] = lambda body, n: (200, {"tokens": [1] * 150})
            srv.routes["/v1/detokenize"] = lambda body, n: (200, {"text": "t"})
            srv.routes["/v1/next_logprobs"] = lambda body, n: (
                200, {"logprobs": [{"id": 1, "logprob": 0.0}], "vocab_size": 4}
            )
            for argv in runs:
                before = srv.hits["/v1/tokenize"]
                assert run([argv[0], "--backend", srv.url, *argv[1:]]) == 0
                tokenized.append(srv.hits["/v1/tokenize"] - before)
        assert tokenized == [2, 2, 0, 2]


class KeepEverythingMemo(BackendWrapper):
    """The memo before ``longest_kept``: it stores every miss. Kept as the reference for the keep rule."""

    def __init__(self, inner):
        super().__init__(inner)
        self.store = {}
        self.longest_kept = math.inf  # the commands set it; this memo ignores it

    def next_token_distribution(self, tokens):
        if tokens not in self.store:
            self.store[tokens] = self.inner.next_token_distribution(tokens)
        return self.store[tokens]


class FreshCopies(BackendWrapper):
    """``inner``'s distributions, each in a new array, as an HTTP backend returns them."""

    def next_token_distribution(self, tokens):
        return TokenDistribution.from_probs(self.inner.next_token_distribution(tokens).probs)


class TestMemoKeepRule:
    """A unit's memo stores a distribution only if the unit can ask for it again."""

    @PROPERTY
    @given(st.data())
    def test_same_calls_and_records_as_a_memo_that_keeps_everything(self, data):
        def draw_ints(lo, hi):
            return data.draw(st.integers(lo, hi))

        command = data.draw(st.sampled_from([*GENERATION_METHODS, "mcl"]))
        if command == "mcl":
            # The last token plants the dependency depth, so walks resolve anywhere or nowhere.
            vocab, start, step = 64, draw_ints(1, 6), draw_ints(1, 5)
            rows = [
                {"seq_id": f"s{i}", "tokens": [draw_ints(0, 63) for _ in range(n - 1)] + [draw_ints(1, 63)],
                 "next_token": 1}
                for i, n in enumerate(data.draw(st.lists(st.integers(start, 40), min_size=1, max_size=3)))
            ]
            argv = ["mcl", "--corpus", "{dir}/in.jsonl", "--grid-start", str(start), "--grid-step", str(step),
                    "--delta", "0.2"]
        else:
            # A vocab of 2 to 4 ids and a short suffix of 1 to 4 tokens: draws repeat and short suffixes
            # recur, within a sample and across samples. Prompts are shorter and longer than the suffix.
            vocab, short_len = draw_ints(2, 4), draw_ints(1, 4)
            rows = [{"id": f"p{i}", "tokens": [draw_ints(0, vocab - 1) for _ in range(n)]}
                    for i, n in enumerate(data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=2)))]
            argv = ["generate", "--prompts", "{dir}/in.jsonl", "--method", command, "--lam", "2",
                    "--short-len", str(short_len), "--n-samples", str(draw_ints(1, 3)),
                    "--max-new", str(draw_ints(1, 8)), "--gamma", "0"]
        argv += ["--backend", "unused", "--seed", str(draw_ints(0, 2**16)), "--out", "{dir}/out"]
        outcomes = []
        for memo in (cli.CachedBackend, KeepEverythingMemo):
            backend = PlantedLastTokenBackend(vocab_size=vocab, answer_token=1)
            with (tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "CachedBackend", memo),
                  mock.patch.object(cli, "build_backend", lambda spec: backend)):
                write_jsonl(Path(tmp) / "in.jsonl", rows)
                assert run([arg.format(dir=tmp) for arg in argv]) == 0
                outcomes.append((backend.calls, tree_bytes(Path(tmp) / "out")))
        assert outcomes[0] == outcomes[1]

    def test_mcl_walk_at_128k_holds_one_distribution(self, tmp_path, monkeypatch):
        # Grid points 32, 48, ..., 1888 and the full 1890 tokens: 118. Only the full context is
        # confident, so the walk visits them all and ends at the gate's context.
        vocab, length = 131072, 1890
        inner = PlantedDependencyBackend(vocab, dependency_length=length, answer_token=5)
        monkeypatch.setattr(cli, "build_backend", lambda spec: FreshCopies(inner))
        held, walk = [], cli.mcl

        def traced_walk(*args):
            probe = walk(*args)
            held.append(tracemalloc.get_traced_memory()[0] - before)
            return probe

        monkeypatch.setattr(cli, "mcl", traced_walk)
        corpus = write_jsonl(tmp_path / "corpus.jsonl", [{"seq_id": "s", "tokens": [1] * length, "next_token": 5}])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert run(["mcl", "--backend", "unused", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 0
        finally:
            tracemalloc.stop()
        (record,) = read_jsonl(tmp_path / "out" / "mcl_results.jsonl")
        assert (len(record["grid"]), record["length"], inner.calls) == (118, length, 118)
        # The gate's distribution is 1 MiB; keeping every point's held 119 MiB.
        assert held[0] < 3 * 2**20

    def test_generate_peak_rss_does_not_grow_with_max_new(self, tmp_path):
        # Each step's context is one token longer than the last, so the one sample stores none of them.
        # Keeping them all grew the peak by about 1.1 MB per step, 11 MB over these ten.
        vocab = 131072
        logprobs = np.full(vocab, math.log(0.01 / (vocab - 1)))
        logprobs[7] = math.log(0.99)
        raw = json.dumps({"logprobs": [{"id": i, "logprob": lp} for i, lp in enumerate(logprobs.tolist())],
                          "vocab_size": vocab}).encode()
        prompts = write_jsonl(tmp_path / "prompts.jsonl", [{"id": "p", "tokens": list(range(40))}])
        peaks = {}
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (200, raw)
            srv.routes["/v1/detokenize"] = lambda body, n: (200, {"text": "t"})
            for max_new in (2, 12):
                code, peaks[max_new] = peak_rss_mb([
                    "generate", "--backend", srv.url, "--prompts", str(prompts), "--method", "vanilla",
                    "--n-samples", "1", "--max-new", str(max_new), "--out", str(tmp_path / f"out{max_new}"),
                ])
                assert code == 0
        assert srv.hits["/v1/next_logprobs"] == 2 + 12
        assert abs(peaks[12] - peaks[2]) < 3, peaks


class MinimalBackend:
    """Only the three members of the backend contract: no base class and no tokenizer."""

    def __init__(self, inner):
        self.vocab_size = inner.vocab_size
        self.eos_token_id = inner.eos_token_id
        self._inner = inner

    def next_token_distribution(self, tokens):
        return self._inner.next_token_distribution(tokens)


class TestBackendContract:
    @pytest.mark.parametrize(
        "command",
        [
            ["mcl"],
            ["damcl", "--strategies", "nucleus:0.9,greedy"],
            ["detect", "--oracle", "mcl", "--tau-sweep", "0.1,0.5"],
            ["generate", "--method", "taboo", "--lam", "2", "--max-new", "4", "--n-samples", "2"],
        ],
        ids=lambda command: command[0],
    )
    def test_three_member_backend_matches_the_mock_spec(self, tmp_path, monkeypatch, command):
        corpus = write_jsonl(
            tmp_path / "corpus.jsonl", planted_corpus_records(n_short=3, n_long=2, with_labels=True)
        )
        prompts = write_jsonl(tmp_path / "prompts.jsonl", [{"id": "p", "tokens": [1] * 39 + [20]}])
        source = ["--prompts", str(prompts)] if command[0] == "generate" else ["--corpus", str(corpus)]
        argv = [*command, *source, "--parallel", "2"]
        assert run([*argv, "--backend", PLANTED, "--out", str(tmp_path / "spec")]) == 0
        minimal = MinimalBackend(PlantedLastTokenBackend(vocab_size=256, answer_token=5))
        monkeypatch.setattr(cli, "build_backend", lambda spec: minimal)
        assert run([*argv, "--backend", "unused", "--out", str(tmp_path / "minimal")]) == 0
        assert tree_bytes(tmp_path / "minimal") == tree_bytes(tmp_path / "spec")


RUNNER_COMMANDS = {
    "mcl": ["mcl"],
    "damcl": ["damcl", "--strategies", "nucleus:0.9,topk:50", "--epsilons", "0.1,0.2"],
    "detect": ["detect", "--tau-sweep", "0.2,0.6"],
    "generate": ["generate", "--method", "taboo", "--lam", "2", "--max-new", "4", "--n-samples", "2"],
}


class TestRunner:
    """The one runner behind mcl, damcl, detect and generate: records per unit, in input order."""

    @pytest.fixture
    def inputs(self, tmp_path):
        records = planted_corpus_records(n_short=4, n_long=2, with_labels=True)
        records[1]["next_token"] = 7  # filtered out by mcl's gate
        prompts = [
            {"id": f"p{i}", "tokens": [1] * (30 + i) + [20], "gold": "t5 t5" if i % 2 else None}
            for i in range(3)
        ]
        corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
        return corpus, write_jsonl(tmp_path / "prompts.jsonl", prompts)

    @staticmethod
    def argv(command, inputs):
        corpus, prompts = inputs
        source = ["--prompts", str(prompts)] if command == "generate" else ["--corpus", str(corpus)]
        return [*RUNNER_COMMANDS[command], *source, "--backend", PLANTED]

    @pytest.mark.parametrize("command", RUNNER_COMMANDS)
    def test_outputs_do_not_depend_on_parallel(self, tmp_path, inputs, command):
        trees = []
        for parallel in ("1", "2", "3"):
            out = tmp_path / f"p{parallel}"
            assert run([*self.argv(command, inputs), "--parallel", parallel, "--out", str(out)]) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1] == trees[2]

    @pytest.mark.parametrize("fail_after", [3, 9, 20])
    def test_outage_at_parallel_2_leaves_a_prefix(self, tmp_path, monkeypatch, inputs, fail_after):
        argv = self.argv("damcl", inputs)
        assert run([*argv, "--out", str(tmp_path / "full")]) == 0
        flaky = FlakyBackend(PlantedLastTokenBackend(vocab_size=256, answer_token=5), fail_after=fail_after)
        monkeypatch.setattr(cli, "build_backend", lambda spec: flaky)
        out = tmp_path / "cut"
        assert run([*argv, "--parallel", "2", "--out", str(out)]) == 2
        files = sorted(out.glob("damcl_*.jsonl"))
        assert len(files) == 4
        for path in files:
            cut, full = path.read_bytes(), (tmp_path / "full" / path.name).read_bytes()
            assert full.startswith(cut)
            assert cut.count(b"\n") == len(read_jsonl(files[0]))  # every combination stops at one unit
        failure = read_report(out / "damcl_failure.json")
        assert failure["seq_id"] == f"s{len(read_jsonl(files[0])):02d}"
        assert not (out / "damcl_summary.json").exists()

    @pytest.mark.parametrize("command", RUNNER_COMMANDS)
    def test_summary_is_rebuilt_from_the_written_records(self, tmp_path, inputs, command):
        out = tmp_path / "out"
        argv = [*self.argv(command, inputs), "--parallel", "2", "--out", str(out)]
        assert run(argv) == 0
        args = cli.parse_args(argv)
        _, prompts = inputs
        if command == "mcl":
            summary = read_report(out / "mcl_summary.json")
            assert summary["filtered"]
            units = [(read_jsonl(out / "mcl_results.jsonl"), summary["filtered"])]
            artifacts = cli._mcl_summary(args, units, summary["warnings"])
        elif command == "damcl":
            units = [tuple(read_jsonl(out / f"damcl_{slug}.jsonl") for _, _, slug in args.combos)]
            artifacts = cli._damcl_summary(args, units, [])
        elif command == "detect":
            filtered = read_report(out / "detect_summary.json")["filtered"]
            artifacts = cli._detect_summary(args, [(read_jsonl(out / "detect_results.jsonl"), filtered)], [])
        else:
            docs, warnings = load_jsonl(prompts)
            units = [(read_jsonl(out / "generations.jsonl"),)]
            artifacts = cli._generate_summary(args, units, docs, warnings)
        written = {path.name for path in out.iterdir() if path.suffix != ".jsonl"}
        assert set(artifacts) == written
        for name, body in artifacts.items():
            if isinstance(body, dict):
                assert {**body, "schema": "ctxlens/1"} == read_report(out / name)
            else:
                assert body == (out / name).read_text()


def assert_no_child_processes():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    """``--parallel N`` runs units in N forked worker processes, none of which outlives its command."""

    @pytest.fixture
    def corpus(self, tmp_path):
        return write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=4, n_long=2))

    def test_no_worker_outlives_a_finished_command(self, tmp_path, corpus):
        assert_no_child_processes()
        assert run(["mcl", "--backend", PLANTED, "--corpus", str(corpus), "--parallel", "2",
                    "--out", str(tmp_path / "out")]) == 0
        assert_no_child_processes()

    def test_no_worker_outlives_a_backend_error(self, tmp_path, monkeypatch, corpus):
        flaky = FlakyBackend(PlantedLastTokenBackend(vocab_size=256, answer_token=5), fail_after=5)
        monkeypatch.setattr(cli, "build_backend", lambda spec: flaky)
        assert_no_child_processes()
        assert run(["mcl", "--backend", "unused", "--corpus", str(corpus), "--parallel", "2",
                    "--out", str(tmp_path / "out")]) == 2
        assert_no_child_processes()
        # fail_after counts the calls of both workers, so at most five reach the model (fewer only if
        # a worker is killed between counting a call and making it).
        assert 0 < flaky.inner.calls <= 5

    def test_no_worker_outlives_an_unexpected_exception(self, tmp_path, monkeypatch, corpus):
        real_mcl, s03 = cli.mcl, read_jsonl(corpus)[3]["tokens"]

        def mcl_failing_on_s03(tokens, *args):
            if tokens.tolist() == s03:
                raise ZeroDivisionError("unit s03 broke")
            return real_mcl(tokens, *args)

        monkeypatch.setattr(cli, "mcl", mcl_failing_on_s03)
        assert_no_child_processes()
        with pytest.raises(ZeroDivisionError, match="unit s03 broke") as err:
            run(["mcl", "--backend", PLANTED, "--corpus", str(corpus), "--parallel", "2",
                 "--out", str(tmp_path / "out")])
        assert_no_child_processes()
        assert "mcl_failing_on_s03" in str(err.value.__cause__)  # the worker's traceback
        assert [r["seq_id"] for r in read_jsonl(tmp_path / "out" / "mcl_results.jsonl")] == ["s00", "s01", "s02"]

    def test_no_worker_outlives_an_interrupt(self, tmp_path, monkeypatch, corpus):
        def interrupt(fh, record):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "append_jsonl", interrupt)
        assert_no_child_processes()
        with pytest.raises(KeyboardInterrupt):
            run(["mcl", "--backend", PLANTED, "--corpus", str(corpus), "--parallel", "2",
                 "--out", str(tmp_path / "out")])
        assert_no_child_processes()

    def test_http_outage_ends_in_exit_2_and_names_the_first_unit(self, tmp_path, monkeypatch, corpus):
        monkeypatch.setattr("ctxlens.backends.http._BACKOFF_S", (0.0,))
        out = tmp_path / "out"
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = lambda body, n: (503, {"error": "down"})
            argv = ["mcl", "--backend", srv.url, "--corpus", str(corpus), "--parallel", "2"]
            assert run([*argv, "--out", str(out)]) == 2
        assert_no_child_processes()
        failure = read_report(out / "mcl_failure.json")
        assert (failure["seq_id"], failure["attempts"]) == ("s00", 4)
        assert failure["error"].endswith("failed after 4 attempts: server error 503")
        assert read_jsonl(out / "mcl_results.jsonl") == []

    def test_workers_open_their_own_connections(self, tmp_path):
        # The parent tokenizes the text prompts on a keep-alive connection before the workers fork.
        prompts = write_jsonl(tmp_path / "prompts.jsonl", [{"id": f"p{i}", "text": f"prompt {i}"} for i in range(4)])
        with FakeModelServer(keep_alive_s=5.0) as srv:
            srv.routes["/v1/tokenize"] = lambda body, n: (200, {"tokens": [1, 2, 3]})
            srv.routes["/v1/detokenize"] = lambda body, n: (200, {"text": "t"})
            srv.routes["/v1/next_logprobs"] = lambda body, n: (
                200, {"logprobs": [{"id": 2, "logprob": 0.0}], "vocab_size": 4}
            )
            argv = ["generate", "--backend", srv.url, "--prompts", str(prompts), "--max-new", "2",
                    "--n-samples", "1", "--parallel", "2", "--out", str(tmp_path / "out")]
            assert run(argv) == 0
        assert srv.hits["/v1/tokenize"] == 4
        assert [paths for paths in srv.peers.values() if "/v1/tokenize" in paths] == [{"/v1/tokenize"}]
        assert [r["tokens"] for r in read_jsonl(tmp_path / "out" / "generations.jsonl")] == [[2, 2]] * 4


def _documented_fields():
    """The README's "Output records" list: each entry's label mapped to its field names."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Output records", 1)[1]
    entries = {}
    for line in section.splitlines():
        if line.startswith("- ") and ": `" in line:
            label, fields = line[2:].split(": ", 1)
            entries[label] = [field.strip("`") for field in fields.split(", ")]
    return entries


def test_readme_lists_the_fields_of_every_output_record(tmp_path, monkeypatch):
    records = planted_corpus_records(n_short=2, n_long=1, with_labels=True)
    corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
    prompts = write_jsonl(tmp_path / "prompts.jsonl", [{"id": "p", "tokens": [1] * 39 + [20]}])
    for command in RUNNER_COMMANDS:
        source = ["--prompts", str(prompts)] if command == "generate" else ["--corpus", str(corpus)]
        argv = [*RUNNER_COMMANDS[command], *source, "--backend", PLANTED]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 0
    flaky = FlakyBackend(PlantedLastTokenBackend(vocab_size=256, answer_token=5), fail_after=0)
    monkeypatch.setattr(cli, "build_backend", lambda spec: flaky)
    argv = ["detect", "--corpus", str(corpus), "--backend", "unused"]
    assert run([*argv, "--out", str(tmp_path / "cut")]) == 2
    out = tmp_path / "out"
    generations = read_jsonl(out / "generations.jsonl")
    written = {
        "`mcl_results.jsonl`": read_jsonl(out / "mcl_results.jsonl"),
        "`damcl_*.jsonl`": [r for path in out.glob("damcl_*.jsonl") for r in read_jsonl(path)],
        "`detect_results.jsonl`": read_jsonl(out / "detect_results.jsonl"),
        "`detect_summary.json`": [read_report(out / "detect_summary.json")],
        "`generations.jsonl`": generations,
        "a step in `steps`": [step for r in generations for step in r["steps"]],
        "`<command>_failure.json`": [read_report(tmp_path / "cut" / "detect_failure.json")],
    }
    documented = _documented_fields()
    assert set(documented) == set(written)
    for label, records in written.items():
        assert records
        for record in records:
            assert sorted(record) == sorted(documented[label]), label


class TestBenchCommand:
    def test_overhead_ratio_tracks_short_fraction(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "bench",
                "--backend",
                "mock:uniform:vocab=16,token_latency_us=500",
                "--lengths",
                "160,320",
                "--repeat",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "len,full_ms,extra_ms,ratio"
        assert len(lines) == 3
        report = read_report(out / "bench.json")
        for row in report["rows"]:
            expected = 32 / row["len"]
            assert row["ratio"] == pytest.approx(expected, rel=0.25)
        by_len = {row["len"]: row["ratio"] for row in report["rows"]}
        assert by_len[320] < by_len[160]

    def test_parallel_is_accepted_and_ignored(self, tmp_path):
        # The benchmark harness passes --parallel to every command; bench runs serially regardless.
        reports = {}
        for parallel in ("1", "2"):
            out = tmp_path / f"p{parallel}"
            argv = ["bench", "--backend", "mock:uniform:vocab=8", "--lengths", "100,200", "--repeat", "1"]
            assert run([*argv, "--parallel", parallel, "--out", str(out)]) == 0
            reports[parallel] = read_report(out / "bench.json")
        for report in reports.values():
            assert [row["len"] for row in report["rows"]] == [100, 200]
        assert {k: v for k, v in reports["1"].items() if k != "rows"} == {
            k: v for k, v in reports["2"].items() if k != "rows"
        }

    def test_lengths_must_exceed_short_len(self, tmp_path):
        code = run(
            [
                "bench",
                "--backend",
                "mock:uniform:vocab=8",
                "--lengths",
                "20,200",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1

    def test_repeat_must_be_positive(self, tmp_path):
        argv = ["bench", "--backend", "mock:uniform:vocab=8", "--lengths", "100", "--repeat", "0"]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 1

    def test_malformed_lengths_are_usage_error(self, tmp_path, capsys):
        argv = ["bench", "--backend", "mock:uniform:vocab=8", "--lengths", "100,x"]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "usage error: argument --lengths: invalid int value: 'x'\n"


class TestScoreCommand:
    def test_scores_and_summary(self, tmp_path):
        pairs = write_jsonl(
            tmp_path / "pairs.jsonl",
            [
                {"id": "a", "pred": "the cat sat", "gold": "cat sat"},
                {"id": "b", "pred": "w x y z", "gold": "w x y z"},
                {"bad": True},
            ],
        )
        out = tmp_path / "out"
        code = run(["score", "--pairs", str(pairs), "--out", str(out)])
        assert code == 0
        rows = read_jsonl(out / "scores.jsonl")
        assert [r["id"] for r in rows] == ["a", "b"]
        assert rows[0]["token_f1"] == 1.0
        assert rows[1]["bleu"] == pytest.approx(1.0, abs=1e-12)
        summary = read_report(out / "score_summary.json")
        assert summary["n"] == 2
        assert len(summary["errors"]) == 1
        # rouge_l keeps articles: row "a" scores 2*(1*2/3)/(1+2/3) = 0.8.
        assert summary["metrics"]["rouge_l"]["mean"] == pytest.approx(0.9, abs=1e-12)

    def test_line_that_is_not_an_object_is_an_error_record(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text('[1, 2]\n{"id": "a", "pred": "x", "gold": "x"}\n')
        out = tmp_path / "out"
        assert run(["score", "--pairs", str(pairs), "--out", str(out)]) == 0
        summary = read_report(out / "score_summary.json")
        assert summary["n"] == 1
        assert summary["errors"] == [{"line": 1, "error": "expected a JSON object, not list"}]

    def test_pred_and_gold_are_strict_json_strings_or_numbers(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            '{"id": "null", "pred": null, "gold": "None"}\n'
            '{"id": "nan", "pred": NaN, "gold": "nan"}\n'
            '{"id": "bool", "pred": "True", "gold": true}\n'
            '{"id": "num", "pred": 42, "gold": "42"}\n'
        )
        out = tmp_path / "out"
        assert run(["score", "--pairs", str(pairs), "--out", str(out)]) == 0
        assert [r["id"] for r in read_jsonl(out / "scores.jsonl")] == ["num"]
        errors = read_report(out / "score_summary.json")["errors"]
        assert [e["line"] for e in errors] == [1, 2, 3]
        assert errors[0]["error"] == "pred must be a string or a number, not None"
        assert errors[2]["error"] == "gold must be a string or a number, not True"

    def test_id_is_a_string_or_a_number(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            '{"id": 3, "pred": "x", "gold": "x"}\n'
            '{"pred": "x", "gold": "x"}\n'
            '{"id": null, "pred": "x", "gold": "x"}\n'
            '{"id": ["a"], "pred": "x", "gold": "x"}\n'
        )
        out = tmp_path / "out"
        assert run(["score", "--pairs", str(pairs), "--out", str(out)]) == 0
        assert [r["id"] for r in read_jsonl(out / "scores.jsonl")] == ["3", "line2"]
        assert read_report(out / "score_summary.json")["errors"] == [
            {"line": 3, "error": "id must be a string or a number, not None"},
            {"line": 4, "error": "id must be a string or a number, not ['a']"},
        ]

    def test_no_rows_is_a_data_error(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("junk\n")
        assert run(["score", "--pairs", str(pairs), "--out", str(tmp_path / "out")]) == 3

    def test_missing_file_is_a_data_error(self, tmp_path):
        assert (
            run(["score", "--pairs", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "out")])
            == 3
        )


    @pytest.mark.parametrize("option", [["--seed", "1"], ["--backend", PLANTED], ["--parallel", "2"]])
    def test_options_score_does_not_read_are_usage_errors(self, tmp_path, option):
        pairs = write_jsonl(tmp_path / "pairs.jsonl", [{"pred": "a", "gold": "a"}])
        assert run(["score", "--pairs", str(pairs), *option, "--out", str(tmp_path / "out")]) == 1

    def test_config_keys_of_other_subcommands_stay_valid(self, tmp_path):
        pairs = write_jsonl(tmp_path / "pairs.jsonl", [{"pred": "a", "gold": "a"}])
        config = tmp_path / "run.cfg"
        config.write_text(f"backend = {PLANTED}\nseed = 7\nparallel = 2\n")
        argv = ["score", "--pairs", str(pairs), "--config", str(config), "--out", str(tmp_path / "out")]
        assert run(argv) == 0


class TestSynthCommand:
    def test_niah_corpus_feeds_detect(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "synth",
                "--backend",
                "mock:uniform:vocab=512",
                "--kind",
                "niah",
                "--n",
                "12",
                "--total-len",
                "200",
                "--window",
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records = read_jsonl(out / "synth.jsonl")
        assert len(records) == 12
        assert all(len(r["tokens"]) == 200 for r in records)
        assert all(r["label"] in ("short", "long") for r in records)
        summary = read_report(out / "synth_summary.json")
        assert summary["n_short"] >= 1
        assert summary["n_long"] >= 1
        assert summary["n_short"] + summary["n_long"] == 12

        detect_out = tmp_path / "detect"
        code = run(
            [
                "detect",
                "--backend",
                "mock:uniform:vocab=512",
                "--corpus",
                str(out / "synth.jsonl"),
                "--out",
                str(detect_out),
            ]
        )
        assert code == 0
        summary = read_report(detect_out / "detect_summary.json")
        # A context-insensitive backend scores everything 0: AUC collapses
        # to chance and every prediction is short.
        assert summary["auc"] == 0.5
        assert summary["confusion"]["tp"] == 0
        assert summary["confusion"]["fp"] == 0

    def test_longeval_corpus(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            [
                "synth",
                "--backend",
                "mock:uniform:vocab=512",
                "--kind",
                "longeval",
                "--n",
                "6",
                "--total-len",
                "250",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records = read_jsonl(out / "synth.jsonl")
        assert len(records) == 6
        assert all(r["next_token"] is not None for r in records)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "synth",
            "--backend",
            "mock:uniform:vocab=512",
            "--kind",
            "niah",
            "--n",
            "5",
            "--total-len",
            "150",
            "--seed",
            "7",
        ]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    # Digests of synth.jsonl: moving, adding or reordering a draw changes them.
    @pytest.mark.parametrize(
        "kind, extra, digest",
        [
            ("niah", ["--seed", "3"], "e9bd765c9818916dee307006c4b6cd532383011b7131ec94c3857f312226429a"),
            ("longeval", ["--seed", "3"], "479740e3a26db035c7013e8671fca2c58eda9e7d4504eecae4391193c9d28b75"),
            (
                "niah",
                ["--seed", "11", "--total-len", "400", "--window", "64", "--digits", "4"],
                "5d8ddfbbffb7fe11d7d03808f186447401a57a9686d2916bc6447ce20c6060b9",
            ),
            (
                "longeval",
                ["--seed", "11", "--total-len", "400", "--window", "64", "--digits", "4"],
                "c565d9b649a13c2d21d4c31715f3a13eb80d7d4439b93943f18af94bc4ab3cf1",
            ),
        ],
    )
    def test_draws_are_pinned(self, tmp_path, kind, extra, digest):
        argv = ["synth", "--backend", "mock:uniform:vocab=512", "--kind", kind, "--n", "6", *extra]
        assert run([*argv, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "synth.jsonl").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("digits", ["-1", "0"])
    def test_digits_below_one_is_a_usage_error(self, tmp_path, capsys, digits):
        argv = ["synth", "--backend", "mock:uniform:vocab=512", "--kind", "niah", "--n", "2", "--digits", digits]
        assert run([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"usage error: argument --digits: must be >= 1, got {digits}\n"
        assert not (tmp_path / "out").exists()

    def test_records_stay_in_example_order_past_four_digit_ids(self, tmp_path):
        argv = ["synth", "--backend", "mock:uniform:vocab=512", "--kind", "longeval", "--n", "10002"]
        assert run([*argv, "--total-len", "60", "--out", str(tmp_path)]) == 0
        ids = [r["seq_id"] for r in read_jsonl(tmp_path / "synth.jsonl")]
        assert ids == [f"longeval/{i:04d}" for i in range(10002)]

    def test_total_len_too_small(self, tmp_path):
        code = run(
            [
                "synth",
                "--backend",
                "mock:uniform:vocab=512",
                "--kind",
                "niah",
                "--n",
                "1",
                "--total-len",
                "12",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 3


def strict_json_outputs(out):
    """Every JSON and JSONL file under ``out``, parsed as RFC 8259 JSON (orjson refuses NaN and Infinity)."""
    parsed = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            parsed[path.name] = orjson.loads(path.read_bytes())
        elif path.suffix == ".jsonl":
            parsed[path.name] = read_jsonl(path)
    assert parsed
    return parsed


STRICT_JSON_RUNS = {
    "mcl": ["mcl", "--backend", PLANTED, "--corpus", "{corpus}"],
    **{
        f"damcl-{metric}": ["damcl", "--backend", PLANTED, "--corpus", "{corpus}", "--metric", metric,
                            "--strategies", "nucleus:0.9,greedy", "--epsilons", "0.1,0.2"]
        for metric in METRIC_NAMES
    },
    # Every score ties at 0, so no threshold beats J = 0.
    "detect-uniform": ["detect", "--backend", "mock:uniform:vocab=256", "--corpus", "{corpus}",
                       "--oracle", "planted", "--tau-sweep", "0.2,0.6"],
    **{
        f"generate-{method}": ["generate", "--backend", "mock:planted:d=2,answer=1,vocab=8", "--prompts",
                               "{prompts}", "--method", method, "--lam", "2", "--max-new", "3"]
        for method in GENERATION_METHODS
    },
    "bench": ["bench", "--backend", "mock:uniform:vocab=8", "--lengths", "64,128", "--repeat", "1"],
    "score": ["score", "--pairs", "{pairs}"],
    **{
        f"synth-{kind}": ["synth", "--backend", "mock:uniform:vocab=512", "--kind", kind, "--n", "3",
                          "--total-len", "200", "--window", "100"]
        for kind in SYNTH_KINDS
    },
}


class TestOutputsAreStrictJson:
    @pytest.mark.parametrize("name", STRICT_JSON_RUNS)
    def test_every_output_file_parses(self, tmp_path, name):
        paths = {
            "corpus": write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=3, n_long=2,
                                                                                    with_labels=True)),
            "prompts": write_jsonl(tmp_path / "prompts.jsonl", TestGenerateCommand.PROMPTS),
            "pairs": write_jsonl(tmp_path / "pairs.jsonl", [{"id": "a", "pred": "x y", "gold": "y"}]),
        }
        out = tmp_path / "out"
        argv = [arg.format(**paths) for arg in STRICT_JSON_RUNS[name]]
        assert run([*argv, "--out", str(out)]) == 0
        outputs = strict_json_outputs(out)
        if name == "detect-uniform":
            # theta is the lowest score, not an open end below it.
            assert outputs["detect_summary.json"]["youden"] == {"theta": 0.0, "j": 0.0, "tpr": 1.0, "fpr": 1.0}

    def test_mcl_summary_survives_an_overflowing_fit(self, tmp_path):
        # Six sequences resolve at grid point 1008 and one at 1024: the log-log slope is about -113,
        # so the fit's scale exp(intercept) overflows a float and the summary records no fit.
        rng = np.random.default_rng(5)
        records = []
        for i, depth in enumerate([1000] * 6 + [1016]):
            tokens = [int(t) for t in rng.integers(0, 2048, size=1100)]
            tokens[-1] = depth
            records.append({"seq_id": f"s{i}", "tokens": tokens, "next_token": 1})
        corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
        out = tmp_path / "out"
        argv = ["mcl", "--backend", "mock:planted_last:vocab=2048,answer=1", "--corpus", str(corpus)]
        assert run([*argv, "--out", str(out)]) == 0
        assert strict_json_outputs(out)["mcl_summary.json"]["fit"] is None
        assert (out / "mcl_hist.csv").read_text() == "ell,count\n1008,6\n1024,1\n"


class TestConfigAndEnvironment:
    def test_config_file_sets_defaults(self, tmp_path):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=2, n_long=0))
        config = tmp_path / "run.cfg"
        config.write_text("delta = 0.1\nseed = 7  # master seed\n")
        out = tmp_path / "out"
        code = run(
            [
                "mcl",
                "--backend",
                "mock:planted_last:answer=5,vocab=256",
                "--corpus",
                str(corpus),
                "--config",
                str(config),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = read_report(out / "mcl_summary.json")
        assert summary["delta"] == 0.1
        assert summary["seed"] == 7

    def test_flags_override_config(self, tmp_path):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=2, n_long=0))
        config = tmp_path / "run.cfg"
        config.write_text("delta = 0.1\n")
        out = tmp_path / "out"
        run(
            [
                "mcl",
                "--backend",
                "mock:planted_last:answer=5,vocab=256",
                "--corpus",
                str(corpus),
                "--config",
                str(config),
                "--delta",
                "0.3",
                "--out",
                str(out),
            ]
        )
        assert read_report(out / "mcl_summary.json")["delta"] == 0.3

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("wibble = 1\n")
        code = run(["mcl", "--corpus", "x", "--config", str(config)])
        assert code == 1
        assert "wibble" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line, flag",
        [
            ("mcl", "seed = 1.5", "--seed"),
            ("mcl", "parallel = 2.5", "--parallel"),
            ("generate", "max_new = 2.0", "--max-new"),
            ("detect", "oracle = bogus", "--oracle"),
        ],
    )
    def test_config_values_get_the_types_and_choices_of_flags(
        self, tmp_path, monkeypatch, capsys, command, line, flag
    ):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=2, n_long=1))
        source = ["--prompts" if command == "generate" else "--corpus", str(corpus)]
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        monkeypatch.setattr(cli, "build_backend", lambda spec: pytest.fail("backend built"))
        out = tmp_path / "out"
        assert run([command, *source, "--backend", PLANTED, "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: ")
        assert not out.exists()

    def test_config_value_meets_a_required_flag(self, tmp_path):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=2, n_long=0))
        config = tmp_path / "run.cfg"
        config.write_text(f"corpus = {corpus}\nbackend = {PLANTED}\n")
        out = tmp_path / "out"
        assert run(["mcl", "--config", str(config), "--out", str(out)]) == 0
        assert read_report(out / "mcl_summary.json")["n_input"] == 2

    @pytest.mark.parametrize(
        "command, lines",
        [
            (["mcl"], ["delta = 0"]),
            (["generate", "--max-new", "4", "--n-samples", "2"], ["lam = 4", "method = taboo"]),
        ],
    )
    def test_config_run_writes_the_bytes_of_the_flag_run(self, tmp_path, command, lines):
        if command[0] == "generate":
            prompts = [{"id": f"p{i}", "tokens": [1] * (30 + i) + [20]} for i in range(2)]
            source = ["--prompts", str(write_jsonl(tmp_path / "prompts.jsonl", prompts))]
        else:
            source = ["--corpus", str(write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(2, 1)))]
        argv = [*command, *source, "--backend", PLANTED]
        config = tmp_path / "run.cfg"
        config.write_text("".join(line + "\n" for line in lines))
        flags = [arg for line in lines for arg in ("--" + line.split(" = ")[0], line.split(" = ")[1])]
        assert run([*argv, "--config", str(config), "--out", str(tmp_path / "config")]) == 0
        assert run([*argv, *flags, "--out", str(tmp_path / "flags")]) == 0
        assert tree_bytes(tmp_path / "config") == tree_bytes(tmp_path / "flags")

    def test_env_url_without_scheme_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.ENV_BACKEND_URL, "localhost:8000")
        assert run(["bench", "--lengths", "100", "--out", str(tmp_path / "out")]) == 1
        assert "scheme" in capsys.readouterr().err

    def test_env_backend_url_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_BACKEND_URL, "http://127.0.0.1:9")
        code = run(
            ["bench", "--lengths", "100", "--repeat", "1", "--out", str(tmp_path / "out")]
        )
        assert code == 2  # connection refused after retries

    def test_no_backend_anywhere_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.ENV_BACKEND_URL, raising=False)
        code = run(
            ["bench", "--lengths", "100", "--out", str(tmp_path / "out")]
        )
        assert code == 1


class TestHttpBackendSpec:
    @staticmethod
    def uniform(body, n):
        return 200, {"logprobs": [{"id": i, "logprob": math.log(1 / 3)} for i in range(3)], "vocab_size": 3}

    def test_parallel_reaches_the_http_client(self, tmp_path):
        # Six unconfident sequences: each costs one gate call, and all six can be in flight at once.
        records = [{"seq_id": f"s{i}", "tokens": [1] * 40, "next_token": 0} for i in range(6)]
        corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
        with FakeModelServer() as srv:

            def wait_for_six(body, n):
                deadline = time.monotonic() + 2.0
                while srv.inflight < 6 and time.monotonic() < deadline:
                    time.sleep(0.005)
                return self.uniform(body, n)

            srv.routes["/v1/next_logprobs"] = wait_for_six
            argv = ["mcl", "--backend", srv.url, "--corpus", str(corpus), "--parallel", "6"]
            assert run([*argv, "--out", str(tmp_path / "out")]) == 0
            assert srv.hits["/v1/next_logprobs"] == 6
            assert srv.max_inflight == 6

    @pytest.mark.parametrize("address", ["localhost:{port}", "127.0.0.1:{port}"])
    def test_spec_without_scheme_is_usage_error(self, tmp_path, capsys, address):
        corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=1, n_long=0))
        with FakeModelServer() as srv:
            srv.routes["/v1/next_logprobs"] = self.uniform
            spec = "http:" + address.format(port=srv.url.rsplit(":", 1)[1])
            code = run(["mcl", "--backend", spec, "--corpus", str(corpus), "--out", str(tmp_path / "out")])
            assert code == 1
            assert sum(srv.hits.values()) == 0
        assert "scheme" in capsys.readouterr().err


class TestTopLevelInterface:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert "ctxlens" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert run([]) == 1
        assert "command" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run(["mcl", "--wibble", "--corpus", "x"]) == 1

    def test_bad_flag_value_is_usage_error(self, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", planted_corpus_records(n_short=1, n_long=0))
        assert (
            run(
                [
                    "mcl",
                    "--backend",
                    "mock:uniform:vocab=8",
                    "--corpus",
                    str(corpus),
                    "--delta",
                    "abc",
                ]
            )
            == 1
        )

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("mock:planted:d=abc", "'d'"),
            ("mock:planted:latency_ms=x", "'latency_ms'"),
            ("openai:http://127.0.0.1:9,vocab=abc", "'vocab'"),
            ("openai:http://127.0.0.1:9,vocab", "'vocab'"),
        ],
    )
    def test_malformed_backend_parameter_is_usage_error(self, tmp_path, capsys, spec, key):
        corpus = write_jsonl(tmp_path / "c.jsonl", planted_corpus_records(n_short=1, n_long=0))
        assert run(["mcl", "--backend", spec, "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert key in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("openai:http://127.0.0.1:9,vocab=50,modle=gpt,tpo=5", "unknown openai parameters: modle, tpo"),
            ("openai:http://127.0.0.1:9,vocab=-3", "vocab must be >= 1"),
            ("openai:http://127.0.0.1:9,vocab=50,top=0", "top must be >= 1"),
            ("openai:http://127.0.0.1:9,vocab=50,top=-4", "top must be >= 1"),
        ],
    )
    def test_openai_spec_is_as_strict_as_mock(self, tmp_path, capsys, spec, message):
        corpus = write_jsonl(tmp_path / "c.jsonl", planted_corpus_records(n_short=1, n_long=0))
        assert run(["mcl", "--backend", spec, "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert message in err

    def test_openai_spec_reads_model(self):
        backend = cli.build_backend("openai:http://127.0.0.1:9,vocab=50,model=gpt,top=5")
        assert (backend.model, backend.vocab_size, backend.endpoint.top) == ("gpt", 50, 5)

    def test_malformed_bucket_bound_is_usage_error(self, tmp_path, capsys):
        docs = write_jsonl(tmp_path / "docs.jsonl", [{"id": "d", "tokens": list(range(300))}])
        argv = ["mcl", "--backend", "mock:uniform:vocab=512", "--corpus", str(docs), "--sample", "1"]
        assert run([*argv, "--buckets", "a-b", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "usage error: argument --buckets: bad bucket 'a-b', expected lo-hi with 1 <= lo < hi\n"
        )

    def test_unrecognized_backend_spec(self, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl", planted_corpus_records(n_short=1, n_long=0))
        assert (
            run(["mcl", "--backend", "carrier-pigeon", "--corpus", str(corpus)]) == 1
        )


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is set through glibc's mallopt")
class TestHeapReuse:
    # Under glibc's default thresholds each position costs about 225 minor faults (its
    # vocab-sized temporaries are mapped and unmapped on every call); with the freed heap
    # kept it costs under 1.
    MAX_FAULTS_PER_POSITION = 20

    def detect_faults(self, tmp_path, n):
        # Every position's planted dependency (token 30000) lies beyond its 100 tokens, so the
        # short and the full call both return the flat V=32768 distribution.
        rows = [
            {"seq_id": f"p{i}", "tokens": [7] * 99 + [30000], "label": "long" if i % 2 else "short"}
            for i in range(n)
        ]
        corpus = write_jsonl(tmp_path / f"detect{n}.jsonl", rows)
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [
            sys.executable, "-m", "ctxlens.cli", "detect", "--backend", "mock:planted_last:vocab=32768",
            "--corpus", str(corpus), "--oracle", "planted", "--out", str(tmp_path / f"out{n}"),
        ]
        with subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
            stderr = proc.stderr.read().decode()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0, stderr
        return usage.ru_minflt

    def test_detect_reuses_freed_memory_across_calls(self, tmp_path):
        small, large = 100, 400
        extra = self.detect_faults(tmp_path, large) - self.detect_faults(tmp_path, small)
        assert extra / (large - small) < self.MAX_FAULTS_PER_POSITION


class TestOptionRanges:
    @pytest.fixture
    def inputs(self, tmp_path):
        records = planted_corpus_records(n_short=2, n_long=1, with_labels=True)
        corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
        docs = write_jsonl(tmp_path / "docs.jsonl", [{"id": "d", "tokens": list(range(300))}])
        prompts = write_jsonl(tmp_path / "prompts.jsonl", [{"id": "p", "tokens": [1, 2, 40]}])
        return {
            "mcl": ["mcl", "--corpus", str(corpus)],
            "damcl": ["damcl", "--corpus", str(corpus)],
            "docs": ["mcl", "--corpus", str(docs)],
            "detect": ["detect", "--corpus", str(corpus)],
            "generate": ["generate", "--prompts", str(prompts)],
            "bench": ["bench", "--lengths", "100"],
            "synth": ["synth"],
        }

    @pytest.mark.parametrize(
        "command, options, flag",
        [
            ("mcl", ["--delta", "nan"], "--delta"),
            ("mcl", ["--delta", "1.5"], "--delta"),
            ("detect", ["--oracle", "mcl", "--delta", "nan"], "--delta"),
            ("detect", ["--short-len", "inf"], "--short-len"),
            ("generate", ["--boost-eps", "nan"], "--boost-eps"),
            ("generate", ["--boost-eps", "2"], "--boost-eps"),
            ("generate", ["--method", "taboo", "--lam", "nan"], "--lam"),
            ("generate", ["--method", "taboo", "--lam", "inf"], "--lam"),
            ("generate", ["--method", "cad", "--alpha", "nan"], "--alpha"),
            ("generate", ["--method", "cad", "--alpha", "-1"], "--alpha"),
            ("generate", ["--n-samples", "0"], "--n-samples"),
            ("generate", ["--max-new", "-3"], "--max-new"),
            ("bench", ["--short-len", "0"], "--short-len"),
            ("docs", ["--sample", "0"], "--sample"),
            ("mcl", ["--parallel", "0"], "--parallel"),
            ("mcl", ["--parallel", "-2"], "--parallel"),
            ("generate", ["--seed", "-5"], "--seed"),
            ("bench", ["--seed", "-5"], "--seed"),
            ("synth", ["--seed", "-5"], "--seed"),
            ("synth", ["--n", "0"], "--n"),
            ("detect", ["--tau", "5"], "--tau"),
            ("detect", ["--tau", "-0.1"], "--tau"),
            ("detect", ["--tau", "nan"], "--tau"),
            ("generate", ["--gamma", "2"], "--gamma"),
            ("generate", ["--gamma", "nan"], "--gamma"),
            ("mcl", ["--grid-start", "0"], "--grid-start"),
            ("detect", ["--oracle", "mcl", "--grid-step", "0"], "--grid-step"),
            ("damcl", ["--grid-step", "0"], "--grid-step"),
            ("damcl", ["--epsilons", "0.1,-0.1"], "--epsilons"),
            ("synth", ["--digits", "0"], "--digits"),
            ("synth", ["--window", "0"], "--window"),
            ("synth", ["--total-len", "0"], "--total-len"),
            ("bench", ["--lengths", "100,0"], "--lengths"),
        ],
    )
    def test_out_of_range_option_is_usage_error_before_any_call(
        self, tmp_path, monkeypatch, capsys, inputs, command, options, flag
    ):
        mock = cli.build_backend(PLANTED)
        monkeypatch.setattr(cli, "build_backend", lambda spec: mock)
        out = tmp_path / "out"
        assert run([*inputs[command], "--backend", PLANTED, *options, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: must be ")
        assert mock.calls == 0
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, options",
        [
            ("damcl", ["--strategies", ","]),
            ("damcl", ["--strategies", "nucleus:2"]),
            ("docs", ["--sample", "1", "--buckets", "5"]),
            ("docs", ["--sample", "1", "--buckets", "100-50"]),
            ("docs", ["--sample", "1", "--buckets", "0-10"]),
            ("docs", ["--sample", "1", "--buckets", "32-100,32-100"]),
            ("detect", ["--strategy", "bogus"]),
            ("detect", ["--tau-sweep", ","]),
            ("detect", ["--short-len", "1.5"]),
            ("generate", ["--strategy", "topk:0"]),
            ("generate", ["--method", "taboo"]),
            ("bench", ["--lengths", "10"]),
            ("bench", ["--strategy", "greedy:1"]),
        ],
    )
    def test_bad_option_is_usage_error_before_the_backend_is_built(
        self, tmp_path, monkeypatch, capsys, inputs, command, options
    ):
        monkeypatch.setattr(cli, "build_backend", lambda spec: pytest.fail("backend built"))
        out = tmp_path / "out"
        assert run([*inputs[command], "--backend", PLANTED, *options, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    def test_every_numeric_option_carries_its_range(self):
        # A bare int or float type would let any value through to the command.
        _, table = cli.build_parser()
        bare = [
            f"{name} {action.option_strings[0]}"
            for name, sub in table.items()
            for action in sub._actions
            if action.type in (int, float)
        ]
        assert bare == []

    def test_config_file_values_are_held_to_the_same_ranges(self, tmp_path, capsys, inputs):
        config = tmp_path / "run.cfg"
        config.write_text("delta = 1e999\n")
        argv = [*inputs["mcl"], "--backend", PLANTED, "--config", str(config), "--out", str(tmp_path / "out")]
        assert run(argv) == 1
        assert capsys.readouterr().err == "usage error: argument --delta: must be in [0, 1], got inf\n"


def test_http_backend_is_closed_when_the_command_ends(tmp_path):
    # The server keeps connections open, so the pool still holds one when the command ends;
    # unless the command closes it, the socket is left to the garbage collector.
    corpus = write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=2, n_long=0))
    with FakeModelServer(keep_alive_s=5.0) as srv:
        srv.routes["/v1/next_logprobs"] = TestHttpBackendSpec.uniform
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            argv = ["mcl", "--backend", srv.url, "--corpus", str(corpus), "--out", str(tmp_path / "out")]
            assert run(argv) == 0
            gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert srv.hits["/v1/next_logprobs"] == 2


class TestProcessExit:
    """``python -m ctxlens.cli`` flushes stdout and stderr, then ends with ``os._exit``."""

    @staticmethod
    def run(cmd, cwd=None):
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize(
        "argv, code, stdout, stderr",
        [
            (["--version"], 0, f"ctxlens {cli.__version__}\n", None),
            (["mcl", "--backend", PLANTED, "--corpus", "corpus.jsonl", "--parallel", "2"], 0, "", None),
            (["mcl", "--backend", PLANTED, "--corpus", "corpus.jsonl", "--wibble"], 1, "",
             "usage error: unrecognized arguments: --wibble"),
            (["mcl", "--backend", "http://127.0.0.1:9", "--corpus", "corpus.jsonl"], 2, "", "backend error: "),
            (["mcl", "--backend", PLANTED, "--corpus", "missing.jsonl"], 3, "", "data error: "),
        ],
    )
    def test_output_reaches_the_pipes_without_interpreter_teardown(self, tmp_path, argv, code, stdout, stderr):
        write_jsonl(tmp_path / "corpus.jsonl", planted_corpus_records(n_short=3, n_long=1))
        # -v makes the interpreter report each module it removes at teardown ("# cleanup[...]").
        done = self.run([sys.executable, "-v", "-m", "ctxlens.cli", *argv], cwd=tmp_path)
        assert (done.returncode, done.stdout) == (code, stdout)
        lines = done.stderr.splitlines()
        errors = ("usage error: ", "backend error: ", "data error: ")
        messages = [line for line in lines if line.startswith(errors)]
        assert [m.startswith(stderr) for m in messages] == ([] if stderr is None else [True])
        assert [line for line in lines if line.startswith(("# cleanup", "# destroy"))] == []
        if argv[0] == "mcl" and code == 0:
            summary = read_report(tmp_path / "out" / "mcl_summary.json")
            assert (summary["n_input"], summary["n_resolved"]) == (4, 4)
            assert len(read_jsonl(tmp_path / "out" / "mcl_results.jsonl")) == 4

    def test_closed_stdout_is_not_an_error(self):
        done = self.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "ctxlens.cli", "--version"])
        assert (done.returncode, done.stderr) == (0, f"ctxlens {cli.__version__}\n")

    def test_script_entry_point_exits_with_the_code_of_main(self, monkeypatch, capsys):
        # The `ctxlens` script runs this function; SystemExit from --version becomes code 0.
        codes = []
        monkeypatch.setattr(cli.os, "_exit", codes.append)
        monkeypatch.setattr(sys, "argv", ["ctxlens", "--version"])
        cli.run_and_exit()
        assert (codes, capsys.readouterr().out) == ([0], f"ctxlens {cli.__version__}\n")
