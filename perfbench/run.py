#!/usr/bin/env python3
"""Benchmark for the shopstream pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Workloads, their sizes and reference outputs are in perfbench/workloads.json;
the metric names and units are in BENCHMARK.json. Every workload goes
through the public ``shopstream`` CLI, one command at a time from this one
process (a closed loop with one client).

--trace 0 runs the CLI as child processes and reports the end-to-end
metrics, each a median over the repetitions made in --seconds (the count is
printed). A discarded warm-up on the recorded seed's input comes first; then
each repetition takes one set-up sample and one timed sample. Timed parts
are the commands' own elapsed_s, so interpreter start-up counts only in
setup_s. --trace 1 runs the commands as children once (for max-RSS and
--threads 1 against --threads 2), then in this process at --threads 1, once
untraced and once with every layer's public functions wrapped
(perfbench/tracing.py), and reports the per-layer metrics; the spans are
written to .bench_work/traces/ when the run ends.

Human-readable lines come first; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "workloads.json").read_text())

# BLAS and OpenMP get one thread, so --threads is the only parallelism; set
# before numpy is imported here or in any child.
os.environ.update(SPEC["env"])
for _var in ("SHOPSTREAM_SEED", "SHOPSTREAM_THREADS"):
    os.environ.pop(_var, None)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
# Timed evaluate runs use one thread: on a shared 2-core host, --threads 2
# runs spread 2.4x wider than --threads 1 across minutes. The traced run
# still runs --threads 2 (the CLI default there) for the speedup and the
# thread-invariance check.
TIMED_THREADS = 1
SCALING_THREADS = 2
# interleaved --threads 1 / --threads N child evaluates per traced run
SCALING_PAIRS = 3
MODEL_KINDS = ("lr", "rf", "gbdt", "knn", "mlp")


class CommandFailed(RuntimeError):
    pass


class Ledger:
    """Operations attempted and failed; every mismatch is kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok: bool, what: str, n: int = 1, n_failed: int | None = None):
        self.attempted += n
        if not ok:
            self.failed += n if n_failed is None else n_failed
            self.problems.append(what)

    def check(self, ok: bool, what: str):
        """A correctness check; a mismatch counts as one failed operation."""
        self.op(ok, what)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_json(path):
    return json.loads(Path(path).read_text())


def elapsed(cmd) -> float:
    """The command's own elapsed_s from its manifest, without interpreter
    start-up (that is measured as setup_s)."""
    return read_json(Path(cmd[cmd.index("--out") + 1]) / "manifest.json")["elapsed_s"]


# --- child processes -------------------------------------------------------

# Runs each command it is sent and answers with its exit code and max-RSS.
# A child's max-RSS also counts the memory of the process it was forked
# from; this launcher stays small, so the figure is the child's own.
LAUNCHER = r"""
import json, os, subprocess, sys, threading
for line in sys.stdin:
    argv, cwd, log, timeout = json.loads(line)
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
    print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]), flush=True)
"""
_launcher = None


def launch(argv, log: Path) -> tuple:
    """(exit code, max-RSS in KiB) of argv run to completion by the launcher."""
    global _launcher
    if _launcher is None:
        _launcher = subprocess.Popen([sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
    _launcher.stdin.write(json.dumps([argv, str(ROOT), str(log), CHILD_TIMEOUT_S]) + "\n")
    _launcher.stdin.flush()
    reply = _launcher.stdout.readline()
    if not reply:
        raise CommandFailed(f"the launcher ended before {argv[:4]} finished")
    return tuple(json.loads(reply))


def stop_launcher():
    global _launcher
    if _launcher is not None:
        _launcher.stdin.close()
        _launcher.wait()
        _launcher = None


class Children:
    """Runs CLI commands as child processes, one at a time, and keeps each
    command's largest max-RSS."""

    def __init__(self, ledger: Ledger, log_dir: Path):
        self.ledger = ledger
        self.log_dir = log_dir
        self.rss_mb = {}

    def run(self, argv, label: str) -> float:
        log = self.log_dir / f"{label}.log"
        start = time.perf_counter()
        code, rss_kib = launch([str(a) for a in argv], log)
        wall = time.perf_counter() - start
        self.rss_mb[label] = max(self.rss_mb.get(label, 0.0), rss_kib / 1024.0)
        ok = code == 0
        self.ledger.op(ok, f"command {label} exited {code} (log {log})")
        if not ok:
            raise CommandFailed(f"{label}: exit {code}")
        return wall

    def cli(self, command: str, *args) -> float:
        return self.run([sys.executable, "-m", "shopstream.cli", command, *args], command)

    def import_time(self) -> float:
        return self.run([sys.executable, "-c", "import shopstream.cli"], "import")


def in_process(*args) -> float:
    """shopstream.cli.main in this process; stdout is swallowed."""
    from shopstream import cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in args])
    wall = time.perf_counter() - start
    if code != 0:
        raise CommandFailed(f"in-process {args[0]}: exit {code}")
    return wall


# --- correctness -----------------------------------------------------------

def check_ingest(ledger: Ledger, gen: Path, ing: Path):
    """Ingest's sessions must equal the generator's truth sidecar exactly."""
    truth = []
    with open(gen / "truth.jsonl", encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            truth.append((r["client_token"], r["customer_id"], r["start_ms"], r["end_ms"],
                          r["n_events"], r["purchase"]))
    got = []
    with open(ing / "sessions.jsonl", encoding="utf-8") as fh:
        for line in fh:
            r = json.loads(line)
            got.append((r["client_token"], r["customer_id"], r["start_ms"], r["events"][-1][0],
                        len(r["events"]), r["purchase"]))
    truth.sort(key=repr)
    got.sort(key=repr)
    ledger.check(truth == got, f"ingest sessions != truth.jsonl in {ing} "
                 f"({len(got)} vs {len(truth)} sessions)")
    gen_manifest = read_json(gen / "manifest.json")
    ing_manifest = read_json(ing / "manifest.json")
    ledger.check(
        ing_manifest["events_read"] == gen_manifest["outputs"]["n_events"],
        f"ingest events_read {ing_manifest['events_read']} != generated "
        f"{gen_manifest['outputs']['n_events']}",
    )
    ledger.check(ing_manifest["sessions"] == len(truth),
                 f"ingest manifest sessions {ing_manifest['sessions']} != truth {len(truth)}")
    return truth


def check_analyze(ledger: Ledger, truth, ing: Path, ana: Path):
    """report.json counts must equal ingest's manifest and the truth sidecar."""
    report = read_json(ana / "report.json")
    manifest = read_json(ing / "manifest.json")
    expected = {
        "sessions": manifest["sessions"],
        "identified_sessions": manifest["identified_sessions"],
        "purchase_sessions": sum(1 for t in truth if t[5]),
        "customers": len({t[1] for t in truth if t[1] is not None}),
    }
    for key, value in expected.items():
        ledger.check(report.get(key) == value, f"analyze report.json {key}={report.get(key)} != {value}")


def check_digest(ledger: Ledger, events_tsv: Path, reference: dict):
    """The generator's output at the recorded seed is byte-identical to the reference."""
    digest = sha256(events_tsv)
    ledger.check(digest == reference["events_sha256"],
                 f"events.tsv sha256 at recorded seed {SPEC['recorded_seed']} is {digest}, "
                 f"reference {reference['events_sha256']}")


def protocol_dims(overrides) -> dict:
    from shopstream.evaluation import ProtocolConfig

    cfg = ProtocolConfig()
    values = {}
    for item in overrides:
        key, _, raw = item.partition("=")
        values[key] = json.loads(raw)
    return {
        "models": tuple(values.get("models", cfg.models)),
        "settings": tuple(values.get("settings", cfg.settings)),
        "variants": tuple(values.get("variants", cfg.variants)),
        "steps": tuple(values.get("steps", cfg.steps)),
        "folds": int(values.get("folds", cfg.folds)),
    }


def cells_per_model(dims) -> int:
    return len(dims["settings"]) * dims["folds"] * len(dims["steps"]) * len(dims["variants"])


def check_step_report(ledger: Ledger, path: Path, dims) -> float:
    """Every (model, setting, variant, step) row present once with finite
    numbers; returns the mean f1_mean over the rows. A missing or non-finite
    row fails all of its cells."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        rec = dict(zip(header, line.split(",")))
        key = (rec["model"], rec["setting"], rec["variant"], int(rec["step"]))
        rows.setdefault(key, []).append(rec)
    f1s = []
    for model in dims["models"]:
        for setting in dims["settings"]:
            for variant in dims["variants"]:
                for step in dims["steps"]:
                    key = (model, setting, variant, step)
                    got = rows.pop(key, [])
                    ok = len(got) == 1 and all(
                        math.isfinite(float(got[0][c])) for c in ("f1_mean", "precision", "recall")
                    )
                    ledger.op(ok, f"step_report row {key}: {len(got)} rows or non-finite",
                              n=dims["folds"])
                    if ok:
                        f1s.append(float(got[0]["f1_mean"]))
    ledger.check(not rows, f"unexpected step_report rows {sorted(rows)[:3]}")
    return statistics.fmean(f1s) if f1s else float("nan")


def check_f1_reference(ledger: Ledger, f1: float, reference: dict):
    floor = reference["f1_mean"] - SPEC["f1_tolerance"]
    ledger.check(f1 >= floor, f"f1_mean {f1:.6f} at the recorded seed is below "
                 f"{floor:.6f} (reference {reference['f1_mean']:.6f})")


# --- workloads: untraced ---------------------------------------------------

def commands(wl, d: Path, seed: int, threads: int) -> list:
    """The workload's CLI commands: generate, ingest, then analyze or evaluate."""
    gen, ing = d / "gen", d / "ingest"
    cmds = [
        ("generate", "--set", f"n_customers={wl['n_customers']}", "--seed", seed, "--out", gen),
        ("ingest", gen / "events.tsv", "--out", ing),
    ]
    if wl["kind"] == "corpus":
        cmds.append(("analyze", ing / "sessions.jsonl", "--out", d / "analytics"))
    else:
        evaluate = ["evaluate", ing / "sessions.jsonl", "--seed", seed, "--threads", threads,
                    "--out", d / "eval"]
        for item in wl["protocol"]:
            evaluate += ["--set", item]
        cmds.append(tuple(evaluate))
    return cmds


def corpus_outputs(d: Path) -> tuple:
    return tuple(sha256(p) for p in (d / "gen" / "events.tsv", d / "ingest" / "sessions.jsonl",
                                     d / "analytics" / "report.json"))


# Set-up and timed work alternate within each repetition, so that both
# sample the whole --seconds window: this host's speed swings within tens of
# seconds, and a burst of set-up samples at the start would see one window.

def run_corpus(wl, seed, seconds, work, ledger, out):
    children = Children(ledger, work)

    # warm-up on the reference input, discarded from timing
    ref_dir = work / "reference"
    for cmd in commands(wl, ref_dir, SPEC["recorded_seed"], 1):
        children.cli(*cmd)
    check_digest(ledger, ref_dir / "gen" / "events.tsv", wl["reference"])

    d = work / "run"
    setup, times = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        rep = {}
        for cmd in commands(wl, d, seed, 1):
            # set-up is CLI start-up: one sample before each command
            setup.append(children.import_time())
            children.cli(*cmd)
            rep[cmd[0]] = elapsed(cmd)
        times.append(rep)
        if len(times) == 1:
            truth = check_ingest(ledger, d / "gen", d / "ingest")
            check_analyze(ledger, truth, d / "ingest", d / "analytics")
            first = corpus_outputs(d)
        else:
            ledger.check(corpus_outputs(d) == first, f"repetition {len(times)} outputs differ")

    n_events = read_json(d / "gen" / "manifest.json")["outputs"]["n_events"]
    n_sessions = read_json(d / "ingest" / "manifest.json")["sessions"]
    med = {k: statistics.median(t[k] for t in times) for k in times[0]}
    walls = [sum(t.values()) for t in times]
    wall = statistics.median(walls)
    out.update(
        rep_walls=walls,
        reps=len(times),
        setup_reps=len(setup),
        setup_s=statistics.median(setup),
        wall_s=wall,
        throughput_per_s=n_events / wall,
        generate_events_per_s=n_events / med["generate"],
        ingest_events_per_s=n_events / med["ingest"],
        analyze_sessions_per_s=n_sessions / med["analyze"],
        peak_rss_mb=max(children.rss_mb.values()),
    )


def run_protocol_workload(wl, seed, seconds, work, ledger, out):
    children = Children(ledger, work)
    dims = protocol_dims(wl["protocol"])

    # warm-up on the reference input, discarded from timing; it also gates
    # prediction quality at the recorded seed
    ref_dir = work / "reference"
    for cmd in commands(wl, ref_dir, SPEC["recorded_seed"], TIMED_THREADS):
        children.cli(*cmd)
    ref_f1 = check_step_report(ledger, ref_dir / "eval" / "step_report.csv", dims)
    check_f1_reference(ledger, ref_f1, wl["reference"])

    d = work / "run"
    *prepare, evaluate = commands(wl, d, seed, TIMED_THREADS)
    setup, times = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        # set-up is generate + ingest, wall time with start-up
        setup.append(sum(children.cli(*cmd) for cmd in prepare))
        children.cli(*evaluate)
        times.append(elapsed(evaluate))
        outputs = tuple(sha256(p) for p in (d / "gen" / "events.tsv", d / "ingest" / "sessions.jsonl",
                                            d / "eval" / "step_report.csv"))
        if len(times) == 1:
            check_ingest(ledger, d / "gen", d / "ingest")
            f1 = check_step_report(ledger, d / "eval" / "step_report.csv", dims)
            first = outputs
        else:
            ledger.check(outputs == first, f"repetition {len(times)} outputs differ")

    wall = statistics.median(times)
    out.update(
        rep_walls=times,
        reps=len(times),
        setup_reps=len(setup),
        setup_s=statistics.median(setup),
        wall_s=wall,
        throughput_per_s=cells_per_model(dims) * len(dims["models"]) / wall,
        peak_rss_mb=max(children.rss_mb.values()),
        f1_mean=f1,
        f1_mean_recorded_seed=ref_f1,
    )


# --- workloads: traced -----------------------------------------------------

def check_coverage(ledger: Ledger, tracer, wl, dims):
    """Call counts at every wrapper; a refactor that routes around one fails here."""
    c = tracer.counts
    expect = {
        "cli.generate.calls": 1, "synthgen.generate.calls": 1, "synthgen.generate_events.calls": 1,
        "cli.ingest.calls": 1, "ingest.read_events.calls": 1, "ingest.filter_events.calls": 1,
        "ingest.sessionize.calls": 1, "sessions.write_sessions.calls": 1,
        "sessions.read_sessions.calls": 1,
    }
    if wl["kind"] == "corpus":
        expect.update({"cli.analyze.calls": 1, "markov.transition_matrix.calls": 1,
                       "sessions.build_journeys.calls": 1})
        for fn in ("session_length_ccdf", "channel_mix", "conversion_rates",
                   "device_ownership", "query_stats"):
            expect[f"analytics.{fn}.calls"] = 1
        expect["analytics.temporal_profile.calls"] = 2
    else:
        per_model = cells_per_model(dims)
        expect.update({"cli.evaluate.calls": 1, "evaluation.run_protocol.calls": 1})
        for kind in dims["models"]:
            for what in ("fit", "predict", "importance"):
                expect[f"models.{what}.{kind}.calls"] = per_model
        for name in ("features.fit_feature_context.calls", "features.step_matrix_builder.calls",
                     "features.matrix.calls", "sessions.build_journeys.calls", "markov.fit.calls"):
            ledger.check(c[name] > 0, f"trace coverage: {name} is 0")
        for report in tracer.reports:
            for row in report.rows:
                ledger.op(row.n_folds == dims["folds"] and not row.errors,
                          f"protocol row {row.model}/{row.setting}/{row.variant}/{row.step}: "
                          f"n_folds={row.n_folds}, errors={row.errors[:1]}",
                          n=dims["folds"], n_failed=dims["folds"] - row.n_folds)
    for name, want in expect.items():
        ledger.check(c[name] == want, f"trace coverage: {name}={c[name]}, expected {want}")


def run_traced(wl, seed, work, ledger, out):
    import tracing
    import shopstream.cli  # noqa: F401  (import cost stays out of the timed commands)

    children = Children(ledger, work)
    imports = [children.import_time() for _ in range(3)]
    sub_dir = work / "sub"
    # child processes: the end-to-end path, for peak RSS, thread scaling and
    # the thread-invariance check. Evaluate runs at --threads 1 and N in
    # turn, so that drift in host speed falls on both sides alike.
    *prepare, last = commands(wl, sub_dir, seed, SCALING_THREADS)
    for cmd in prepare:
        children.cli(*cmd)
    thread_times = {1: [], SCALING_THREADS: []}
    if wl["kind"] == "corpus":
        children.cli(*last)
    else:
        for _ in range(SCALING_PAIRS):
            for threads, times in thread_times.items():
                cmd = list(last)
                cmd[cmd.index("--threads") + 1] = threads
                cmd[cmd.index("--out") + 1] = sub_dir / f"eval-threads{threads}"
                children.cli(*cmd)
                times.append(elapsed(cmd))

    # in-process at --threads 1: untraced, traced, untraced again, so that
    # drift in host speed does not read as tracing overhead
    plain_dir, traced_dir = work / "plain", work / "traced"
    plain = sum(in_process(*cmd) for cmd in commands(wl, plain_dir, seed, 1))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = sum(in_process(*cmd) for cmd in commands(wl, traced_dir, seed, 1))
    plain = (plain + sum(in_process(*cmd) for cmd in commands(wl, plain_dir, seed, 1))) / 2

    ledger.check(sha256(traced_dir / "gen" / "events.tsv") == sha256(sub_dir / "gen" / "events.tsv"),
                 "traced events.tsv differs from the child-process one")
    truth = check_ingest(ledger, traced_dir / "gen", traced_dir / "ingest")
    dims = None
    if wl["kind"] == "corpus":
        check_analyze(ledger, truth, traced_dir / "ingest", traced_dir / "analytics")
    else:
        dims = protocol_dims(wl["protocol"])
        f1 = check_step_report(ledger, traced_dir / "eval" / "step_report.csv", dims)
        for threads in thread_times:
            for name in ("step_report.csv", "importance.csv"):
                ledger.check(
                    (traced_dir / "eval" / name).read_bytes()
                    == (sub_dir / f"eval-threads{threads}" / name).read_bytes(),
                    f"{name}: --threads {threads} child output differs from traced --threads 1",
                )
        # medians of the interleaved child runs' own elapsed_s
        out["evaluation.thread_speedup"] = (statistics.median(thread_times[1])
                                            / statistics.median(thread_times[SCALING_THREADS]))
        # untraced runs gate prediction quality in their warm-up; here only
        # when the traced run is at the recorded seed anyway
        if seed == SPEC["recorded_seed"]:
            check_f1_reference(ledger, f1, wl["reference"])
    check_coverage(ledger, tracer, wl, dims)

    stats = tracer.stats()
    c = tracer.counts
    out.update({
        "cli.import.s": statistics.median(imports),
        "trace.overhead_s": traced - plain,
        "synthgen.generate_events.s": tracer.total("synthgen.generate_events"),
        "synthgen.write.s": tracer.self_time("synthgen.generate"),
        "synthgen.events": c["synthgen.events"],
        "ingest.read_events.s": tracer.total("ingest.read_events"),
        "ingest.filter_events.s": tracer.total("ingest.filter_events"),
        "ingest.sessionize.s": tracer.total("ingest.sessionize"),
        "ingest.events": c["ingest.events"],
        "ingest.events_dropped": c["ingest.events_dropped"],
        "sessions.write_sessions.s": tracer.total("sessions.write_sessions"),
        "sessions.read_sessions.s": tracer.total("sessions.read_sessions"),
        "sessions.jsonl_bytes": c["sessions.jsonl_bytes"],
        "sessions.build_journeys.s": tracer.total("sessions.build_journeys"),
        "sessions.build_journeys.calls": c["sessions.build_journeys.calls"],
        "markov.fit.s": tracer.total("markov.fit"),
        "markov.fit.calls": c["markov.fit.calls"],
        "markov.transition_matrix.s": tracer.total("markov.transition_matrix"),
        "features.fit_feature_context.s": tracer.total("features.fit_feature_context"),
        "features.step_matrix_builder.s": tracer.total("features.step_matrix_builder"),
        "features.step_matrix_builder.rows": c["features.step_matrix_builder.rows"],
        "features.matrix.s": tracer.total("features.matrix"),
        "evaluation.run_protocol.s": tracer.total("evaluation.run_protocol"),
        "evaluation.self.s": tracer.self_time("evaluation.run_protocol"),
        "evaluation.cells": sum(c[f"models.fit.{k}.calls"] for k in MODEL_KINDS),
    })
    out.setdefault("evaluation.thread_speedup", 0.0)
    for fn in tracing.ANALYTICS:
        out[f"analytics.{fn}.s"] = tracer.total(f"analytics.{fn}")
    for kind in MODEL_KINDS:
        for what in ("fit", "predict", "importance"):
            out[f"models.{what}.{kind}.s"] = tracer.total(f"models.{what}.{kind}")
        for what in ("fit", "predict"):
            out[f"models.{what}.{kind}.calls"] = c[f"models.{what}.{kind}.calls"]
    for cmd in tracing.COMMANDS:
        out[f"cli.{cmd}.peak_rss_mb"] = children.rss_mb.get(cmd, 0.0)

    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{out['workload']}-seed{seed}.json"
    trace_path.write_text(json.dumps(
        {"env": out["env"], "stats": stats, "counts": dict(c), "spans": tracer.spans}, indent=1))
    out["trace_path"] = str(trace_path.relative_to(ROOT))
    out["stats"] = stats


# --- entry point ----------------------------------------------------------

def environment(seed: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "seed": seed,
        **{k: os.environ[k] for k in SPEC["env"]},
    }


def benchmark_metrics(trace: int) -> dict:
    bench = read_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: int, spec=None) -> dict:
    """One benchmark run; returns the result dict (also printed)."""
    wl = dict(spec or SPEC["workloads"][workload])
    out = {"workload": workload, "env": environment(seed)}
    ledger = Ledger()
    work = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            run_traced(wl, seed, work, ledger, out)
        elif wl["kind"] == "corpus":
            run_corpus(wl, seed, seconds, work, ledger, out)
        else:
            run_protocol_workload(wl, seed, seconds, work, ledger, out)
    except CommandFailed as exc:
        ledger.problems.append(f"aborted: {exc}")
        ledger.failed = max(ledger.failed, 1)
    except Exception:  # the run must still report: a crash is a failed run
        ledger.problems.append("aborted: " + traceback.format_exc().strip().replace("\n", "\n#   "))
        ledger.failed = max(ledger.failed, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = benchmark_metrics(trace)
    missing = [name for name in wanted if name not in out]
    for name in missing:
        ledger.check(False, f"metric {name} was not measured")
    result = {
        "correct": not ledger.problems,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": out[name], "unit": unit}
                    for name, unit in wanted.items() if name in out},
    }
    report(out, ledger, result, trace)
    return result


def report(out, ledger, result, trace):
    env = " ".join(f"{k}={v}" for k, v in out["env"].items())
    print(f"# workload={out['workload']} trace={trace} {env}")
    if "reps" in out:
        print(f"# timed repetitions: {out['reps']}; set-up repetitions: {out['setup_reps']}")
        walls = sorted(out["rep_walls"])
        quartiles = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        print(f"# timed part per repetition: min {walls[0]:.4g} s, quartiles "
              + ", ".join(f"{q:.4g}" for q in quartiles) + f" s, max {walls[-1]:.4g} s")
    extra = {"wall_s": "s", "generate_events_per_s": "1/s", "ingest_events_per_s": "1/s",
             "analyze_sessions_per_s": "1/s", "f1_mean": "f1", "f1_mean_recorded_seed": "f1"}
    for name, unit in extra.items():
        if name in out:
            print(f"# {name} = {out[name]:.6g} {unit}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if trace and "stats" in out:
        print(f"# spans written to {out['trace_path']}")
        print(f"# {'span':<34} {'calls':>7} {'total_s':>9} {'self_s':>9} {'median_s':>10}  tail")
        for name, row in out["stats"].items():
            tail = " ".join(f"{k}={v:.3g}" for k, v in row.items() if k.startswith("p"))
            print(f"# {name:<34} {row['calls']:>7} {row['total_s']:>9.4f} {row['self_s']:>9.4f} "
                  f"{row['median_s']:>10.6f}  {tail}")
    frac = result["failed"] / result["attempted"]
    print(f"# failed_frac = {frac:.4g} ({result['failed']} of {result['attempted']} operations)")
    for problem in ledger.problems:
        print(f"# MISMATCH {problem}")
    print(f"# correctness: {'PASS' if result['correct'] else 'FAIL'}")
    print(json.dumps(result))


def smoke() -> int:
    """Tiny-scale self-test: every workload in both modes emits every
    BENCHMARK.json metric with its unit and passes its checks, and the
    correctness gate rejects a corrupted corpus."""
    bad = []
    for trace in (0, 1):
        wanted = benchmark_metrics(trace)
        for name, wl in SPEC["workloads"].items():
            spec = {**wl, **wl["smoke"]}
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                result = run(name, SPEC["recorded_seed"], 0, trace, spec)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted or not result["correct"]:
                bad.append(f"{name} trace={trace}: correct={result['correct']}, "
                           f"metrics missing {sorted(set(wanted) - set(got))}")
                print(buf.getvalue(), end="")

    # a corrupted corpus must fail the gate: drop one event line
    work = WORK / f"smoke-corrupt-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ledger = Ledger()
        children = Children(ledger, work)
        wl = {**SPEC["workloads"]["corpus"], **SPEC["workloads"]["corpus"]["smoke"]}
        generate, ingest, _ = commands(wl, work, SPEC["recorded_seed"], 1)
        gen, ing = work / "gen", work / "ingest"
        children.cli(*generate)
        lines = (gen / "events.tsv").read_text().splitlines(keepends=True)
        del lines[len(lines) // 2]
        (gen / "events.tsv").write_text("".join(lines))
        children.cli(*ingest)
        check_ingest(ledger, gen, ing)
        if not ledger.problems:
            bad.append("the ingest-vs-truth check passed a corrupted corpus")
        problems = len(ledger.problems)
        check_digest(ledger, gen / "events.tsv", wl["reference"])
        if len(ledger.problems) == problems:
            bad.append("the digest check passed a corrupted corpus")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in bad:
        print(f"SMOKE FAIL {line}")
    print("smoke: " + ("FAIL" if bad else "PASS"))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=SPEC["recorded_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-scale self-test")
    args = parser.parse_args(argv)
    if not (SRC / "shopstream" / "cli.py").is_file():
        print(f"shopstream sources not found under {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.smoke:
            return smoke()
        result = run(args.workload, args.seed, args.seconds, args.trace)
        return 0 if result["correct"] else 1
    finally:
        stop_launcher()


if __name__ == "__main__":
    sys.exit(main())
