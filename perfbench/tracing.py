"""In-process span tracer for the shopstream benchmark.

Wraps the public functions each shopstream layer exposes, at the names
their callers look them up (``cli`` and ``evaluation`` import most of them
directly, so patching the defining module alone would miss those calls).
Spans stay in memory and are written out once, when the run ends.

Single-threaded use only: the traced run drives the CLI at ``--threads 1``.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: id, parent, name, start, end, self
        self.counts = Counter()
        self.reports = []  # ProtocolReport objects returned by run_protocol
        self._stack = []  # open frames: [span id, seconds covered by children]
        self._ids = 0

    def _open(self):
        frame = [self._ids, 0.0]
        self._ids += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, start, end, busy):
        """Record a finished span; busy is the time the span itself was running."""
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += busy
        self.spans.append({
            "id": frame[0],
            "parent": self._stack[-1][0] if self._stack else None,
            "name": name,
            "start": start,
            "end": end,
            "self": busy - frame[1],
        })

    def wrap(self, name, fn, after=None):
        """Span around fn. name may be a callable of (args, kwargs);
        after(tracer, args, kwargs, result) records counts."""

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            self.counts[label + ".calls"] += 1
            frame = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(frame, label, start, end, end - start)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name, fn, count_key):
        """One span per generator, covering only the time spent producing
        items (the consumer's time between items is not counted)."""

        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            gen = fn(*args, **kwargs)
            busy = 0.0
            first = None
            frame = self._open()
            items = 0
            try:
                while True:
                    t0 = time.perf_counter()
                    if first is None:
                        first = t0
                    try:
                        item = next(gen)
                    except StopIteration:
                        busy += time.perf_counter() - t0
                        break
                    busy += time.perf_counter() - t0
                    items += 1
                    yield item
            finally:
                self.counts[count_key] += items
                self._close(frame, name, first, first + busy, busy)

        wrapper.__wrapped__ = fn
        return wrapper

    def stats(self) -> dict:
        """Per span name: calls, total and self seconds, per-call median and
        the highest percentile with at least ten calls beyond it."""
        by_name = {}
        for sp in self.spans:
            by_name.setdefault(sp["name"], []).append(sp)
        out = {}
        for name, spans in sorted(by_name.items()):
            durs = sorted(sp["end"] - sp["start"] for sp in spans)
            row = {
                "calls": len(spans),
                "total_s": sum(durs),
                "self_s": sum(sp["self"] for sp in spans),
                "median_s": statistics.median(durs),
            }
            if len(durs) > 10:
                pct = (100 * (len(durs) - 10)) // len(durs)
                if pct > 50:
                    row[f"p{pct}_s"] = durs[min(len(durs) - 1, (pct * len(durs)) // 100)]
            out[name] = row
        return out

    def total(self, name: str) -> float:
        return sum(sp["end"] - sp["start"] for sp in self.spans if sp["name"] == name)

    def self_time(self, name: str) -> float:
        return sum(sp["self"] for sp in self.spans if sp["name"] == name)


def _model_kind(what):
    def label(args, kwargs):
        # fit(X, y, cfg) carries the kind in cfg; predict/importance in the model
        obj = args[2] if what == "fit" else args[0]
        return f"models.{what}.{obj.kind}"
    return label


def _count_protocol(tracer, args, kwargs, report):
    tracer.reports.append(report)


def _count_generate(tracer, args, kwargs, result):
    tracer.counts["synthgen.events"] += result["n_events"]


def _count_dropped(tracer, args, kwargs, result):
    tracer.counts["ingest.events_dropped"] += result[1]


def _count_jsonl(tracer, args, kwargs, result):
    tracer.counts["sessions.jsonl_bytes"] += os.path.getsize(args[0])


def _count_builder_rows(tracer, args, kwargs, builder):
    tracer.counts["features.step_matrix_builder.rows"] += len(builder.sessions)


ANALYTICS = (
    "session_length_ccdf", "temporal_profile", "channel_mix",
    "conversion_rates", "device_ownership", "query_stats",
)
COMMANDS = ("generate", "ingest", "analyze", "evaluate")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced name for the duration of the block."""
    from shopstream import cli, evaluation, features, markov, synthgen

    t = tracer
    patches = [
        (synthgen, "generate_events", t.wrap("synthgen.generate_events", synthgen.generate_events)),
        (cli, "generate", t.wrap("synthgen.generate", cli.generate, _count_generate)),
        (cli, "read_events", t.wrap_generator("ingest.read_events", cli.read_events, "ingest.events")),
        (cli, "filter_events", t.wrap("ingest.filter_events", cli.filter_events, _count_dropped)),
        (cli, "sessionize", t.wrap("ingest.sessionize", cli.sessionize)),
        (cli, "write_sessions", t.wrap("sessions.write_sessions", cli.write_sessions, _count_jsonl)),
        (cli, "read_sessions", t.wrap("sessions.read_sessions", cli.read_sessions)),
        (cli, "build_journeys", t.wrap("sessions.build_journeys", cli.build_journeys)),
        (cli, "transition_matrix", t.wrap("markov.transition_matrix", cli.transition_matrix)),
        (cli, "run_protocol", t.wrap("evaluation.run_protocol", cli.run_protocol, _count_protocol)),
        (evaluation, "build_journeys", t.wrap("sessions.build_journeys", evaluation.build_journeys)),
        (evaluation, "fit_feature_context",
         t.wrap("features.fit_feature_context", evaluation.fit_feature_context)),
        (evaluation, "StepMatrixBuilder",
         t.wrap("features.step_matrix_builder", evaluation.StepMatrixBuilder, _count_builder_rows)),
        (features.StepMatrixBuilder, "matrix", t.wrap("features.matrix", features.StepMatrixBuilder.matrix)),
        (markov, "fit", t.wrap("markov.fit", markov.fit)),
        (evaluation, "fit_model", t.wrap(_model_kind("fit"), evaluation.fit_model)),
        (evaluation, "predict", t.wrap(_model_kind("predict"), evaluation.predict)),
        (evaluation, "model_importance", t.wrap(_model_kind("importance"), evaluation.model_importance)),
    ]
    patches += [(cli, fn, t.wrap(f"analytics.{fn}", getattr(cli, fn))) for fn in ANALYTICS]
    patches += [(cli, f"cmd_{cmd}", t.wrap(f"cli.{cmd}", getattr(cli, f"cmd_{cmd}"))) for cmd in COMMANDS]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
