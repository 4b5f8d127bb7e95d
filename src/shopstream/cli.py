"""Command-line pipeline: generate, ingest, analyze, evaluate, report.

Config files are key = value lines; values are parsed as JSON when possible
(so lists and dicts work) and fall back to plain strings. --set overrides
win over the file. Every subcommand writes a run manifest and all
randomness flows from one master seed.

Exit codes, by exception type: 0 success; 2 a bad setting (InvalidConfig,
naming its key) or too few sessions for the protocol (TooFewSessions); 3 a
data error (IngestError with its line number, an input that is not UTF-8,
or an OSError such as a missing file); 4 anything else, an internal error.

Start-up loads only the standard library and the pure-Python ingest,
sessions and analytics modules. generate, evaluate and report import
synthgen, evaluation and numpy when they are dispatched, before their
clock starts, so ingest and analyze run without numpy and elapsed_s never
counts an import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import fields as dataclass_fields

from . import __version__
from .analytics import (
    channel_mix,
    conversion_rates,
    device_ownership,
    query_stats,
    session_length_ccdf,
    temporal_profile,
    transition_matrix,
)
from .ingest import (
    DEVICES,
    BotFilterConfig,
    IngestError,
    InvalidConfig,
    MalformedLine,
    TooFewSessions,
    filter_events,
    not_utf8,
    read_events,
    sessionize,
)
from .sessions import build_journeys, read_sessions, write_sessions

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _parse_pair(item: str, message: str) -> tuple:
    """Split one `key = value` setting; the value is JSON when it parses."""
    if "=" not in item:
        raise InvalidConfig(item, message)
    key, _, value = item.partition("=")
    value = value.strip()
    try:
        return key.strip(), json.loads(value)
    except json.JSONDecodeError:
        return key.strip(), value


def load_config(path: str | None, overrides) -> dict:
    """Settings from a `key = value` file (UTF-8, a leading byte-order mark
    dropped), then --set overrides. A file that is not UTF-8 raises
    MalformedLine with its first undecodable line's number."""
    lines = []
    if path:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from None
    cfg = dict(
        _parse_pair(line, "expected key = value")
        for line in map(str.strip, lines) if line and not line.startswith("#")
    )
    cfg.update(_parse_pair(item, "--set expects key=value") for item in overrides or [])
    return cfg


def _dataclass_from_dict(cls, data: dict):
    """Build cls from settings. An unknown key is a usage error; cls checks
    each value's kind, range and names itself when it is built."""
    known = {f.name for f in dataclass_fields(cls)}
    for key in data:
        if key not in known:
            raise InvalidConfig(key, f"unknown {cls.__name__} option")
    return cls(**data)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _clear_outputs(out_dir: str, *names: str) -> None:
    """Remove an old completion marker and the outputs of an earlier run
    before this run writes any, so a failed run leaves none of them."""
    for name in ("manifest.json", *names):
        try:
            os.remove(os.path.join(out_dir, name))
        except FileNotFoundError:
            pass


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: str, payload: dict) -> None:
    _write_json(os.path.join(out_dir, "manifest.json"), {"tool_version": __version__, **payload})


def _fmt_pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


# The commands call generate and run_protocol through this module, so a
# caller can wrap them here. Each imports its module on call; its command
# has already imported it before starting its clock.

def generate(cfg, out_dir) -> dict:
    from .synthgen import generate

    return generate(cfg, out_dir)


def run_protocol(sessions, cfg):
    from .evaluation import run_protocol

    return run_protocol(sessions, cfg)


def cmd_generate(args) -> int:
    from .synthgen import GenConfig

    raw = load_config(args.config, args.set)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = _dataclass_from_dict(GenConfig, raw)
    _clear_outputs(args.out, "events.tsv", "truth.jsonl")
    started = time.time()
    result = generate(cfg, args.out)
    _write_manifest(
        args.out,
        {
            "subcommand": "generate",
            "seed": cfg.seed,
            "config": raw,
            "outputs": result,
            "events_sha256": _sha256(result["events_path"]),
            "elapsed_s": round(time.time() - started, 3),
        },
    )
    print(f"wrote {result['n_events']} events / {result['n_sessions']} sessions to {args.out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    cfg = _dataclass_from_dict(BotFilterConfig, load_config(args.config, args.set))
    _clear_outputs(args.out, "sessions.jsonl")
    started = time.time()
    kept, dropped = filter_events(read_events(args.input), cfg)
    events_read = len(kept) + dropped
    sessions = sessionize(kept)
    identified = sum(1 for s in sessions if s.customer_id is not None)
    anonymous = len(sessions) - identified
    os.makedirs(args.out, exist_ok=True)
    sessions_path = os.path.join(args.out, "sessions.jsonl")
    write_sessions(sessions_path, sessions)
    _write_manifest(
        args.out,
        {
            "subcommand": "ingest",
            "input": args.input,
            "input_sha256": _sha256(args.input),
            "events_read": events_read,
            "events_dropped": dropped,
            "sessions": len(sessions),
            "anonymous_sessions": anonymous,
            "identified_sessions": identified,
            "outputs": {"sessions_path": sessions_path},
            "elapsed_s": round(time.time() - started, 3),
        },
    )
    print(
        f"{events_read} events read, {dropped} dropped; "
        f"{len(sessions)} sessions ({anonymous} anonymous / {identified} identified)"
    )
    return EXIT_OK


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


ANALYZE_OUTPUTS = (
    "ccdf.csv", "weekday.csv", "hour.csv", "channels.csv", "devices.csv",
    "ownership.csv", "transitions.csv", "queries.csv", "report.json",
)


def cmd_analyze(args) -> int:
    _clear_outputs(args.out, *ANALYZE_OUTPUTS)
    started = time.time()
    sessions = read_sessions(args.input)
    journeys = build_journeys(sessions)
    os.makedirs(args.out, exist_ok=True)
    out = lambda name: os.path.join(args.out, name)

    ccdfs = session_length_ccdf(sessions)
    rows = []
    for (device, label), ccdf in sorted(ccdfs.items()):
        for length, tail in zip(ccdf.support, ccdf.tail):
            rows.append((device, "purchase" if label else "non_purchase", length, f"{tail:.6f}"))
    _write_csv(out("ccdf.csv"), "device,label,length,tail", rows)

    for axis, name in (("weekday", "weekday.csv"), ("hour", "hour.csv")):
        profile = temporal_profile(sessions, axis)
        rows = []
        for label in (True, False):
            if label not in profile:
                continue
            for idx, frac in enumerate(profile[label]):
                rows.append(("purchase" if label else "non_purchase", idx, _fmt_pct(frac)))
        _write_csv(out(name), f"label,{axis},percent", rows)

    mix = channel_mix(sessions)
    rows = []
    for label in (True, False):
        for channel, frac in mix.get(label, {}).items():
            rows.append(("purchase" if label else "non_purchase", channel, _fmt_pct(frac)))
    _write_csv(out("channels.csv"), "label,channel,percent_within_label", rows)

    rows = []
    for r in conversion_rates(sessions):
        std = "" if math.isnan(r.standardized_rate) else f"{r.standardized_rate:.2f}"
        rows.append((r.key, r.purchase_sessions, r.total_sessions, f"{r.conversion_rate:.4f}", std))
    _write_csv(out("devices.csv"), "device,purchase_sessions,total_sessions,conversion_rate,standardized_rate", rows)

    ownership = device_ownership(journeys)
    rows = []
    for group, stats in ownership.items():
        for bucket, frac in stats["fractions"].items():
            rows.append((group, bucket, _fmt_pct(frac)))
        rows.append((group, ">1", _fmt_pct(stats["multi_share"])))
    _write_csv(out("ownership.csv"), "group,devices,percent", rows)

    matrix, support = transition_matrix(journeys)
    rows = []
    for i, src in enumerate(DEVICES):
        for j, dst in enumerate(DEVICES):
            value = "" if math.isnan(matrix[i][j]) else f"{matrix[i][j]:.4f}"
            rows.append((src, dst, value, support[i]))
    _write_csv(out("transitions.csv"), "from_device,to_device,probability,support", rows)

    qs = query_stats(sessions)
    rows = []
    for (device, label), cell in sorted(qs["rows"].items()):
        rows.append((
            device, "purchase" if label else "non_purchase", cell["sessions"],
            f"{cell['queries_per_session']:.4f}", cell["unique_queries"],
        ))
    for label in (True, False):
        if label in qs["avg"]:
            rows.append(("Avg", "purchase" if label else "non_purchase", "", f"{qs['avg'][label]:.4f}", ""))
    _write_csv(out("queries.csv"), "device,label,sessions,queries_per_session,unique_queries", rows)

    report = {
        "sessions": len(sessions),
        "purchase_sessions": sum(1 for s in sessions if s.purchase),
        "identified_sessions": sum(1 for s in sessions if s.customer_id is not None),
        "customers": len(journeys),
        "ownership": ownership,
        "query_avg": {("purchase" if k else "non_purchase"): v for k, v in qs["avg"].items()},
    }
    _write_json(out("report.json"), report)

    _write_manifest(
        args.out,
        {
            "subcommand": "analyze",
            "input": args.input,
            "input_sha256": _sha256(args.input),
            "sessions": len(sessions),
            "elapsed_s": round(time.time() - started, 3),
        },
    )
    print(f"analytics written to {args.out} ({len(sessions)} sessions)")
    return EXIT_OK


def _protocol_from_config(raw: dict):
    """TrainConfig fields go to train, the rest to ProtocolConfig. The
    protocol sets kind and seed per cell, so neither they nor train itself
    can be set: a train setting is not a TrainConfig."""
    from .evaluation import ProtocolConfig
    from .models import TrainConfig

    train_keys = {f.name for f in dataclass_fields(TrainConfig)} - {"kind", "seed"}
    train = _dataclass_from_dict(TrainConfig, {k: v for k, v in raw.items() if k in train_keys})
    proto = {k: v for k, v in raw.items() if k not in train_keys}
    return _dataclass_from_dict(ProtocolConfig, {"train": train, **proto})


def cmd_evaluate(args) -> int:
    raw = load_config(args.config, args.set)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = _protocol_from_config(raw)
    _clear_outputs(args.out, "step_report.csv", "importance.csv")
    started = time.time()
    sessions = read_sessions(args.input)
    report = run_protocol(sessions, cfg)
    os.makedirs(args.out, exist_ok=True)
    step_path = os.path.join(args.out, "step_report.csv")
    imp_path = os.path.join(args.out, "importance.csv")
    with open(step_path, "w", encoding="utf-8") as fh:
        fh.write(report.step_report_csv())
    with open(imp_path, "w", encoding="utf-8") as fh:
        fh.write(report.importance_csv())
    # manifest last: completion marker
    _write_manifest(
        args.out,
        {
            "subcommand": "evaluate",
            "input": args.input,
            "input_sha256": _sha256(args.input),
            "seed": cfg.seed,
            "config": raw,
            "threads": args.threads,
            "outputs": {"step_report": step_path, "importance": imp_path},
            "elapsed_s": round(time.time() - started, 3),
        },
    )
    print(f"protocol report written to {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    import numpy as np

    step_path = os.path.join(args.out, "step_report.csv")
    if not os.path.exists(step_path):
        print(f"no step_report.csv under {args.out}", file=sys.stderr)
        return EXIT_DATA
    seen = {}
    try:
        with open(step_path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            for line_no, line in enumerate(fh, start=2):
                cells = line.strip().split(",")
                if len(cells) != len(header):
                    raise MalformedLine(f"{len(cells)} columns, header has {len(header)}", line_no)
                r = dict(zip(header, cells))
                try:
                    key = (r["model"], r["setting"], r["variant"])
                    step, f1 = int(r["step"]), float(r["f1_mean"])
                except (KeyError, ValueError) as exc:
                    raise MalformedLine(f"bad row: {type(exc).__name__}: {exc}", line_no) from None
                pairs = seen.setdefault(key, [])
                if not math.isnan(f1):  # a step whose every fold failed has no F1
                    pairs.append((step, f1))
    except UnicodeDecodeError as exc:
        raise not_utf8(step_path, exc) from None
    if not seen:
        print("empty report")
        return EXIT_OK
    print(f"{'model':<6} {'setting':<11} {'variant':<9} {'mean F1':<9} best-step F1")
    for (model, setting, variant), pairs in sorted(seen.items()):
        if not pairs:
            continue
        best_step, best = max(pairs, key=lambda p: p[1])
        mean = np.mean([f for _, f in pairs])
        print(f"{model:<6} {setting:<11} {variant:<9} {mean:<9.4f} {best:.4f} @ step {best_step}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shopstream",
        description="Clickstream sessionization, purchase analytics and step-wise purchase prediction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic event log + truth sidecar")
    p.add_argument("--config", help="key = value generator config file")
    p.add_argument("--set", action="append", help="override: key=value", default=[])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="parse + filter a TSV log into sessions.jsonl")
    p.add_argument("input")
    p.add_argument("--config", help="bot filter config file")
    p.add_argument("--set", action="append", default=[])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("analyze", help="emit the characterization CSVs")
    p.add_argument("input", help="sessions.jsonl")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("evaluate", help="run the step-wise cross-validated protocol")
    p.add_argument("input", help="sessions.jsonl")
    p.add_argument("--config", help="protocol config file")
    p.add_argument("--set", action="append", default=[])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="summarize an evaluate output directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidConfig, TooFewSessions) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestError, UnicodeDecodeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
