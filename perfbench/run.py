"""ctxlens benchmark: drives the CLI the way users run it, one fresh process per command.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-mock-32k --seed 1 --seconds 25 --trace 0

Each run writes seeded inputs (see ``inputs.py``), starts the reference
server for the HTTP workload, times ``setup_s`` with repeated ``mcl``
commands over a one-sequence corpus, then runs rounds of the workload's
commands (``mcl``, ``damcl``, ``detect``, ``generate``, ``bench``) until
``--seconds`` is spent. Every
command output is checked against the outcome its planted inputs force
(``check.py``). Load is a closed loop: this process launches one command at
a time, and each command runs with ``--parallel 2`` because the reference
machine has two cores.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
command untraced and then traced (``tracer.py``) and reports the per-layer
metrics, including the tracing overhead. Metric names and units come from
``BENCHMARK.json``. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. Workload rationale
and the layer-to-metric map are in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import check
from inputs import GRID_START, GRID_STEP, InputSpec, generate_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

COMMAND_TIMEOUT_S = 150.0
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_ROUND = 1
PARALLEL = "2"
TAU = "0.6"
TAU_SWEEP = "0.2,0.4,0.6,0.8"
STRATEGIES = "nucleus:0.9,topk:50"
EPSILONS = "0.1,0.2"


@dataclass(frozen=True)
class Workload:
    backend: str | None  # mock spec; None means the reference server
    inputs: InputSpec
    methods: tuple[str, ...]  # generate --method values, one command each
    n_samples: int
    max_new: int
    bench_lengths: tuple[int, ...]
    bench_repeat: int


WORKLOADS = {
    "corpus-mock-32k": Workload(
        backend="mock:planted_last:vocab=32768",
        inputs=InputSpec(vocab=32768, n_corpus=300, n_damcl=90, n_detect=2000, n_prompts=4),
        methods=("taboo",),
        n_samples=2,
        max_new=48,
        bench_lengths=(100, 250, 500, 1000),
        bench_repeat=40,
    ),
    "probe-http-128k": Workload(
        backend=None,
        inputs=InputSpec(vocab=131072, n_corpus=4, n_damcl=3, n_detect=6, n_prompts=1),
        methods=("taboo",),
        n_samples=1,
        max_new=4,
        bench_lengths=(1000,),
        bench_repeat=3,
    ),
    "model-latency-1k": Workload(
        backend="mock:planted_last:vocab=1024,latency_ms=1,token_latency_us=5",
        inputs=InputSpec(vocab=1024, n_corpus=100, n_damcl=100, n_detect=200, n_prompts=4),
        methods=("cad", "taboo"),
        n_samples=2,
        max_new=16,
        bench_lengths=(100, 250, 500, 1000),
        bench_repeat=10,
    ),
}


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and of the per-layer metrics, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


@dataclass
class Op:
    """One CLI command of a workload and how to judge and count its output."""

    name: str
    command: str
    metric: str  # end-to-end throughput metric it feeds
    args: list[str]
    items: int  # sequences, positions or tokens the command processes
    seqs: int  # input sequences, the base of calls-per-sequence
    check: object  # callable(out_dir) -> list of problems
    extract: object = None  # callable(out_dir) -> dict of extra end-to-end values


@dataclass
class Sample:
    op: Op
    ok: bool
    wall_s: float
    rss_mb: float
    extra: dict = field(default_factory=dict)
    upstream_calls: int | None = None
    trace: dict | None = None


def run_process(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run to completion; return exit code, wall seconds and peak RSS in MB of that process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL, env=env)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class ReferenceServer:
    """The reference model server as a child process, stopped by closing its stdin."""

    def __init__(self, vocab: int, seed: int, log_path: Path):
        self._log = log_path.open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "refserver.py"), "--vocab", str(vocab), "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        line = self.proc.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "PORT":
            self.stop()
            raise RuntimeError(f"reference server did not start, see {log_path}")
        self.url = f"http://127.0.0.1:{line[1]}"

    def logprob_requests(self) -> int:
        with urllib.request.urlopen(self.url + "/v1/stats", timeout=30) as resp:
            return int(json.load(resp)["requests"].get("/v1/next_logprobs", 0))

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()


def make_ops(wl: Workload, spec: str, inputs: Path, truth: dict, seed: int) -> tuple[Op, list[Op]]:
    """The set-up probe and the commands of one round.

    The set-up probe is ``mcl`` over one sequence of grid-start length: a
    fresh process through imports, backend construction, corpus load and
    one upstream call (its only grid point is the full context, a cache hit).
    """
    common = ["--backend", spec, "--seed", str(seed), "--parallel", PARALLEL]
    n_combos = len(STRATEGIES.split(",")) * len(EPSILONS.split(","))
    n_kept = sum(1 for d, n in truth["corpus"].values() if d <= n)
    setup = Op(
        "setup", "mcl", "setup_s",
        ["mcl", *common, "--corpus", str(inputs / "setup.jsonl")],
        0, 1,
        lambda out: check.check_mcl(out, truth["setup"], GRID_START, GRID_STEP),
    )
    ops = [
        Op(
            "mcl", "mcl", "mcl_seq_per_s",
            ["mcl", *common, "--corpus", str(inputs / "corpus.jsonl")],
            n_kept, wl.inputs.n_corpus,
            lambda out: check.check_mcl(out, truth["corpus"], GRID_START, GRID_STEP),
        ),
        Op(
            "damcl", "damcl", "damcl_seq_per_s",
            ["damcl", *common, "--corpus", str(inputs / "damcl.jsonl"),
             "--strategies", STRATEGIES, "--epsilons", EPSILONS],
            wl.inputs.n_damcl * n_combos, wl.inputs.n_damcl,
            lambda out: check.check_damcl(out, truth["damcl"], n_combos),
        ),
        Op(
            "detect", "detect", "detect_pos_per_s",
            ["detect", *common, "--corpus", str(inputs / "detect.jsonl"), "--oracle", "planted",
             "--tau", TAU, "--tau-sweep", TAU_SWEEP],
            wl.inputs.n_detect, wl.inputs.n_detect,
            lambda out: check.check_detect(out, truth["detect"], len(TAU_SWEEP.split(","))),
        ),
    ]
    for method in wl.methods:
        ops.append(
            Op(
                f"generate-{method}", "generate", "generate_tok_per_s",
                ["generate", *common, "--prompts", str(inputs / "prompts.jsonl"), "--method", method,
                 "--lam", "4", "--n-samples", str(wl.n_samples), "--max-new", str(wl.max_new)],
                wl.inputs.n_prompts * wl.n_samples * wl.max_new, wl.inputs.n_prompts,
                lambda out: check.check_generate(out, wl.inputs.n_prompts, wl.n_samples, wl.max_new),
            )
        )
    lengths = ",".join(str(n) for n in wl.bench_lengths)
    ops.append(
        Op(
            "bench", "bench", "lsds_overhead_ratio",
            ["bench", *common, "--lengths", lengths, "--repeat", str(wl.bench_repeat)],
            0, 0,
            lambda out: check.check_bench(out, list(wl.bench_lengths)),
            extract=lambda out: {"lsds_overhead_ratio": _longest_ratio(out)},
        )
    )
    return setup, ops


def _longest_ratio(out: Path) -> float:
    rows = json.loads((out / "bench.json").read_text(encoding="utf-8"))["rows"]
    longest = max(rows, key=lambda r: r["len"])
    return longest["extra_ms"] / longest["full_ms"]


class Runner:
    def __init__(self, work: Path, server: ReferenceServer | None):
        self.work = work
        self.server = server
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._n = 0

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)

    def run_op(self, op: Op, traced: bool) -> Sample:
        self._n += 1
        self.attempted += 1
        out = self.work / f"{op.name}-{self._n}"
        trace_path = self.work / f"{op.name}-{self._n}.trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *op.args, "--out", str(out)]
        else:
            argv = [sys.executable, "-m", "ctxlens.cli", *op.args, "--out", str(out)]
        before = self.server.logprob_requests() if self.server else None
        code, wall, rss = run_process(argv, self.work / f"{op.name}-{self._n}.log")
        upstream = self.server.logprob_requests() - before if self.server else None
        problems = [f"exit code {code}"] if code != 0 else op.check(out)
        extra = {}
        if not problems and op.extract is not None:
            extra = op.extract(out)
        trace = None
        if traced and not problems:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
            trace_path.unlink()
        if problems:
            self._fail(op.name, problems)
        else:
            shutil.rmtree(out, ignore_errors=True)
        return Sample(op, not problems, wall, rss, extra, upstream, trace)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def end_to_end_samples(rounds: list[list[Sample]], setup_walls: list[float]) -> dict[str, list[float]]:
    """Per-round values of each end-to-end metric: rates, bench ratios, peak RSS, set-up walls."""
    samples: dict[str, list[float]] = defaultdict(list)
    for round_samples in rounds:
        items: Counter = Counter()
        walls: Counter = Counter()
        for s in round_samples:
            if not s.ok:
                continue
            if s.op.items:
                items[s.op.metric] += s.op.items
                walls[s.op.metric] += s.wall_s
            for name, value in s.extra.items():
                samples[name].append(value)
        for metric in items:
            samples[metric].append(items[metric] / walls[metric])
        if round_samples:
            samples["peak_rss_mb"].append(max(s.rss_mb for s in round_samples))
    samples["setup_s"] = list(setup_walls)
    return samples


COMMANDS = ("mcl", "damcl", "detect", "generate", "bench")


def layer_metrics(passes: list[list[tuple[Sample, Sample]]]) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from traced passes: span percentiles over all spans, totals per pass.

    Each pass is a list of (untraced, traced) samples of the same command.
    Totals are medians over passes of the per-pass sum, so counts read the
    same whatever the number of passes.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    totals: list[Counter] = []
    absent: set[str] = set()
    for pairs in passes:
        tot: Counter = Counter()
        for untraced, traced in pairs:
            trace = traced.trace
            absent.update(trace["absent"])
            for _, _, name, start, end, self_s in trace["spans"]:
                durations[name].append(end - start)
                durations[f"{name}.self"].append(self_s)
                tot[f"{name}.total_s"] += end - start
                tot[f"{name}.self_s"] += self_s
            counts = trace["counts"]
            for key, value in counts.items():
                if key != "cache.resident_bytes":
                    tot[key] += value
            tot["cache.resident_bytes"] = max(tot["cache.resident_bytes"], counts.get("cache.resident_bytes", 0))
            cmd = traced.op.command
            upstream = traced.upstream_calls if traced.upstream_calls is not None else counts.get("mock.calls", 0)
            tot[f"backend.calls.{cmd}"] += upstream
            tot["backend.calls"] += upstream
            tot[f"seqs.{cmd}"] += traced.op.seqs
            tot[f"cli.{cmd}.wall_s"] += traced.wall_s
            tot["trace.traced_wall_s"] += traced.wall_s
            tot["trace.untraced_wall_s"] += untraced.wall_s
        totals.append(tot)

    def total(key: str) -> float:
        return _median([t[key] for t in totals])

    def ms(name: str, q: float = 0.5) -> float:
        return 1e3 * _pct(durations[name], q)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    v: dict[str, float] = {
        "http.calls": total("http.next_token_distribution.calls"),
        "http.roundtrip_ms.p50": ms("http.post"),
        "http.roundtrip_ms.p99": ms("http.post", 0.99),
        "http.parse_ms.p50": ms("http.next_token_distribution.self"),
        "http.complete_ms.p50": ms("http.complete_distribution"),
        "http.response_bytes": total("http.response_bytes"),
        "http.retries": max(0.0, total("http.post.calls") - total("http.request.calls")),
        "http.failed": total("http.request.raised"),
        "cache.hits": total("cache.hits"),
        "cache.misses": total("cache.misses"),
        "cache.hit_ratio": ratio(total("cache.hits"), total("cache.hits") + total("cache.misses")),
        "cache.resident_mb": total("cache.resident_bytes") / 2**20,
        "backend.calls": total("backend.calls"),
        "probe.mcl_ms.p50": ms("probe.mcl"),
        "probe.mcl_ms.p99": ms("probe.mcl", 0.99),
        "probe.damcl_ms.p50": ms("probe.damcl"),
        "probe.damcl_ms.p99": ms("probe.damcl", 0.99),
        "probe.grid_points_per_seq": ratio(total("probe.mcl.points"), total("probe.mcl.calls")),
        "probe.damcl_points_per_combo": ratio(total("probe.damcl.points"), total("probe.damcl.calls")),
        "probe.filter_s": total("probe.filter_confident_correct.total_s"),
        "detection.lsds_ms.p50": ms("detection.lsds"),
        "detection.lsds_ms.p99": ms("detection.lsds", 0.99),
        "detection.roc_auc_ms": 1e3 * total("detection.roc_auc.total_s"),
        "detection.youden_ms": 1e3 * total("detection.youden_threshold.total_s"),
        "detection.tau_sweep_ms": 1e3 * total("detection.tau_sweep.total_s"),
        "detection.calibration_n": total("detection.calibration_n"),
        "decoding.apply_strategy.calls": total("decoding.apply_strategy.calls"),
        "decoding.apply_strategy_ms.p50": ms("decoding.apply_strategy"),
        "decoding.apply_strategy.self_s": total("decoding.apply_strategy.self_s"),
        "decoding.confidence_ms.p50": ms("decoding.confidence"),
        "decoding.sample_ms.p50": ms("decoding.sample"),
        "dist.jsd.calls": total("dist.jsd.calls"),
        "dist.jsd_ms.p50": ms("dist.jsd"),
        "dist.jsd.self_s": total("dist.jsd.self_s"),
        "dist.from_weights_ms.p50": ms("dist.from_weights"),
        "boosting.step_ms.p50": 1e3 * _pct(durations["boosting.taboo_step"] + durations["boosting.cad_step"], 0.5),
        "boosting.step_ms.p99": 1e3 * _pct(durations["boosting.taboo_step"] + durations["boosting.cad_step"], 0.99),
        "boosting.tokens": total("boosting.tokens"),
        "boosting.calls_per_token": ratio(total("backend.calls.generate"), total("boosting.tokens")),
        "boosting.steps": total("boosting.taboo_steps"),
        "boosting.gate_open_steps": total("boosting.gate_open_steps"),
        "boosting.gate_open_share": ratio(total("boosting.gate_open_steps"), total("boosting.taboo_steps")),
        "corpus.load_ms": 1e3 * _pct(durations["corpus.load_sequences_jsonl"] + durations["corpus.load_jsonl"], 0.5),
        "reporting.append_jsonl.self_s": total("reporting.append_jsonl.self_s"),
        "reporting.write_report_ms": ms("reporting.write_report"),
    }
    for cmd in COMMANDS:
        v[f"backend.calls.{cmd}"] = total(f"backend.calls.{cmd}")
        v[f"cli.{cmd}.wall_s"] = total(f"cli.{cmd}.wall_s")
    for cmd in ("mcl", "damcl", "detect"):
        v[f"backend.calls_per_seq.{cmd}"] = ratio(total(f"backend.calls.{cmd}"), total(f"seqs.{cmd}"))
    v["trace.traced_wall_s"] = sum(t["trace.traced_wall_s"] for t in totals)
    v["trace.untraced_wall_s"] = sum(t["trace.untraced_wall_s"] for t in totals)
    v["trace.overhead_share"] = ratio(v["trace.traced_wall_s"] - v["trace.untraced_wall_s"], v["trace.untraced_wall_s"])
    return v, sorted(absent)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ctxlens" / "cli.py").is_file():
        print(f"benchmark: no ctxlens sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    end_to_end, per_layer = declared_metrics()
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    server = runner = None
    try:
        truth = generate_inputs(wl.inputs, args.seed, work / "inputs")
        if wl.backend is None:
            server = ReferenceServer(wl.inputs.vocab, args.seed, work / "server.log")
        spec = wl.backend or server.url
        setup, ops = make_ops(wl, spec, work / "inputs", truth, args.seed)
        runner = Runner(work, server)

        start = time.monotonic()
        runner.run_op(setup, traced=False)  # warm-up (bytecode compile), not timed
        setup_walls: list[float] = []
        rounds: list[list[Sample]] = []
        passes: list[list[tuple[Sample, Sample]]] = []
        while True:
            round_start = time.monotonic()
            if not args.trace:
                # Set-up probes are spread over the run so one slow stretch of the host cannot hold them all.
                for _ in range(SETUP_PROBES_PER_ROUND if rounds else SETUP_PROBES_FIRST):
                    probe = runner.run_op(setup, traced=False)
                    if probe.ok:
                        setup_walls.append(probe.wall_s)
            samples, pairs = [], []
            for op in ops:
                plain = runner.run_op(op, traced=False)
                samples.append(plain)
                if args.trace:
                    traced = runner.run_op(op, traced=True)
                    if plain.ok and traced.ok:
                        pairs.append((plain, traced))
            rounds.append(samples)
            passes.append(pairs)
            now = time.monotonic()
            # Another round starts while half of one still fits, so a run ends within half a round of --seconds.
            if now + (now - round_start) / 2 > start + args.seconds:
                break

        print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds in {time.monotonic() - start:.1f} s")
        if args.trace:
            values, absent = layer_metrics(passes)
            units = per_layer
        else:
            per_round = end_to_end_samples(rounds, setup_walls)
            values, absent = {name: _median(per_round[name]) for name in end_to_end}, []
            units = end_to_end
            for name in end_to_end:
                print(f"  samples {name}: {' '.join(f'{v:.6g}' for v in per_round[name])}")
        for op in ops:
            walls = [s.wall_s for samples in rounds for s in samples if s.op is op]
            print(f"  command {op.name:30s} median wall {_median(walls):8.3f} s over {len(walls)} runs")
        for name, unit in units.items():
            print(f"  {name:36s} {values[name]:14.6g} {unit}")
        if absent:
            print(f"  absent wrap targets (reported as 0): {', '.join(absent)}")
        if args.trace:
            idle = [name for name in units if values[name] == 0]
            print(f"  no samples on this workload (reported as 0): {', '.join(idle) or 'none'}")
        for problem in runner.problems:
            print(f"  FAILED {problem}")
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        if server is not None:
            server.stop()
        if runner is None or runner.failed == 0:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
