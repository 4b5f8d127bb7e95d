"""Feature vectors for purchase prediction at a session step.

Four configurations: {anonymous, identified} x {baseline, extended}. Dynamic
features are computed over the first `step` page views only; static session
features come from session metadata; history features are taken at session
start from the customer's prior sessions. The anonymous baseline reduces to
the four dynamic session features (plus the dwell-count indicator that lets
models tell "no data" from a zero dwell).

All statistics carried by a FeatureContext (Markov chains, device conversion
table) must be fitted on training sessions only; extraction itself reads
nothing beyond the requested step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import markov
from .analytics import session_start_cet
from .ingest import CHANNELS, DEVICES, PAGE_TYPES
from .sessions import (
    Journey,
    Session,
    StepOutOfRange,
    dwell_stats_at_step,
    dwell_times,
    history_snapshot,
)

WEEKDAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

SETTINGS = ("anonymous", "identified")
VARIANTS = ("baseline", "extended")


class MissingJourney(ValueError):
    pass


class ShortSession(ValueError):
    pass


class FeatureDescriptor(NamedTuple):
    name: str
    kind: str  # "dynamic" | "static"
    scope: str  # "session" | "history"
    in_baseline: bool
    encoding: str = "numeric"  # "numeric" | "one-hot"


def _dynamic_block() -> list[FeatureDescriptor]:
    return [
        FeatureDescriptor("dwell_mean", "dynamic", "session", True),
        FeatureDescriptor("dwell_std", "dynamic", "session", True),
        FeatureDescriptor("page_sequence_score", "dynamic", "session", True),
        FeatureDescriptor("n_pages", "dynamic", "session", True),
        FeatureDescriptor("dwell_count", "dynamic", "session", True),
    ]


def _static_session_block() -> list[FeatureDescriptor]:
    block = [FeatureDescriptor(f"channel={c}", "static", "session", False, "one-hot") for c in CHANNELS]
    block.append(FeatureDescriptor("start_hour", "static", "session", False))
    block += [FeatureDescriptor(f"weekday={w}", "static", "session", False, "one-hot") for w in WEEKDAY_NAMES]
    block += [FeatureDescriptor(f"device={d}", "static", "session", False, "one-hot") for d in DEVICES]
    block.append(FeatureDescriptor("device_conversion_rate", "static", "session", False))
    return block


def _history_block() -> list[FeatureDescriptor]:
    return [
        FeatureDescriptor("orders", "static", "history", True),
        FeatureDescriptor("days_since_last_purchase", "static", "history", True),
        FeatureDescriptor("n_sessions", "static", "history", False),
        FeatureDescriptor("n_devices", "static", "history", False),
        FeatureDescriptor("device_sequence_score", "static", "history", False),
        FeatureDescriptor("switch_probability", "static", "history", False),
    ]


def catalog(setting: str, variant: str) -> list[FeatureDescriptor]:
    """Ordered feature descriptors for a (setting, variant) configuration.

    Previous-device type and previous-device conversion rate are excluded
    everywhere. Baseline columns are a strict subset of extended columns.
    """
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    feats = _dynamic_block()
    if variant == "extended":
        feats += _static_session_block()
    if setting == "identified":
        history = _history_block()
        if variant == "baseline":
            history = [f for f in history if f.in_baseline]
        feats += history
    return feats


def feature_names(setting: str, variant: str) -> list[str]:
    return [f.name for f in catalog(setting, variant)]


def static_mask(setting: str, variant: str) -> np.ndarray:
    return np.array([f.kind == "static" for f in catalog(setting, variant)])


@dataclass
class FeatureContext:
    """Fold-fitted statistics needed at extraction time."""

    page_chain_purchase: markov.MarkovChain
    page_chain_nonpurchase: markov.MarkovChain
    device_chain_purchase: markov.MarkovChain
    device_chain_nonpurchase: markov.MarkovChain
    device_conversion: dict
    global_conversion: float

    def to_dict(self) -> dict:
        return {
            "page_chain_purchase": self.page_chain_purchase.to_dict(),
            "page_chain_nonpurchase": self.page_chain_nonpurchase.to_dict(),
            "device_chain_purchase": self.device_chain_purchase.to_dict(),
            "device_chain_nonpurchase": self.device_chain_nonpurchase.to_dict(),
            "device_conversion": dict(sorted(self.device_conversion.items())),
            "global_conversion": self.global_conversion,
        }


def _device_history_sequence(s: Session, j: Optional[Journey]) -> list[str]:
    """Prior-session devices followed by the current session's device."""
    if j is None:
        return [s.device]
    prior = [x.device for x in j.sessions if x.end_time < s.start_time]
    return prior + [s.device]


def fit_feature_context(train_sessions, train_journeys, alpha: float = 1.0) -> FeatureContext:
    """Fit Markov chains and the device conversion table on training data only."""
    page_seqs = {True: [], False: []}
    for s in train_sessions:
        page_seqs[s.purchase].append(s.page_type_sequence())
    device_seqs = {True: [], False: []}
    for s in train_sessions:
        if s.customer_id is None:
            continue
        seq = _device_history_sequence(s, train_journeys.get(s.customer_id))
        if len(seq) >= 2:
            device_seqs[s.purchase].append(seq)
    totals: dict[str, int] = {}
    purchases: dict[str, int] = {}
    for s in train_sessions:
        totals[s.device] = totals.get(s.device, 0) + 1
        if s.purchase:
            purchases[s.device] = purchases.get(s.device, 0) + 1
    n_total = sum(totals.values())
    n_purchase = sum(purchases.values())
    return FeatureContext(
        page_chain_purchase=markov.fit(page_seqs[True], PAGE_TYPES, alpha),
        page_chain_nonpurchase=markov.fit(page_seqs[False], PAGE_TYPES, alpha),
        device_chain_purchase=markov.fit(device_seqs[True], DEVICES, alpha),
        device_chain_nonpurchase=markov.fit(device_seqs[False], DEVICES, alpha),
        device_conversion={d: purchases.get(d, 0) / t for d, t in totals.items()},
        global_conversion=(n_purchase / n_total) if n_total else 0.0,
    )


def device_conversion_feature(ctx: FeatureContext, device: str) -> float:
    """Training-fold conversion rate of a device; global rate for unseen devices."""
    return ctx.device_conversion.get(device, ctx.global_conversion)


def extract(
    s: Session,
    j: Optional[Journey],
    step: int,
    setting: str,
    variant: str,
    ctx: FeatureContext,
    min_pages: int = 0,
) -> np.ndarray:
    """Encode one session at one step; reference implementation.

    Reads nothing past the first `step` page views for dynamic features.
    min_pages > 0 enforces the protocol's short-session filter here.
    """
    n_pv = s.n_page_views
    if min_pages and n_pv < min_pages:
        raise ShortSession(f"session {s.session_id} has {n_pv} page views < {min_pages}")
    if step < 0 or step > n_pv:
        raise StepOutOfRange(f"step {step} outside [0, {n_pv}]")
    if setting == "identified" and j is None:
        raise MissingJourney(f"no journey for session {s.session_id}")

    stats = dwell_stats_at_step(s, step)
    page_score = markov.class_score(
        ctx.page_chain_purchase, ctx.page_chain_nonpurchase, s.page_type_sequence(step)
    )
    row = [stats.mean, stats.std, page_score, float(step), float(stats.count)]

    if variant == "extended":
        weekday, hour = session_start_cet(s)
        row += [1.0 if s.channel == c else 0.0 for c in CHANNELS]
        row.append(float(hour))
        row += [1.0 if weekday == i else 0.0 for i in range(7)]
        row += [1.0 if s.device == d else 0.0 for d in DEVICES]
        row.append(device_conversion_feature(ctx, s.device))

    if setting == "identified":
        hist = history_snapshot(j, s.start_time)
        device_score = markov.class_score(
            ctx.device_chain_purchase,
            ctx.device_chain_nonpurchase,
            hist.device_sequence + [s.device],
        )
        row += [float(hist.orders), hist.days_since_last_purchase]
        if variant == "extended":
            row += [
                float(hist.n_sessions),
                float(hist.n_devices),
                device_score,
                hist.switch_probability,
            ]
    return np.array(row, dtype=np.float64)


class StepMatrixBuilder:
    """Precomputes per-session prefix statistics so matrices for many steps
    come out in one pass. Produces exactly the same rows as extract()."""

    def __init__(self, sessions, journeys, ctx, setting, steps, min_pages: int = 12):
        self.sessions = list(sessions)
        self.setting = setting
        self.steps = list(steps)
        self.ctx = ctx
        n = len(self.sessions)
        k = len(self.steps)
        self.labels = np.array([1 if s.purchase else 0 for s in self.sessions], dtype=np.int64)

        self.dyn = {
            "mean": np.zeros((n, k)),
            "std": np.zeros((n, k)),
            "score": np.zeros((n, k)),
            "pages": np.zeros((n, k)),
            "count": np.zeros((n, k)),
        }
        lp = ctx.page_chain_purchase._log_probs
        ln = ctx.page_chain_nonpurchase._log_probs
        page_index = ctx.page_chain_purchase.index
        for i, s in enumerate(self.sessions):
            if min_pages and s.n_page_views < min_pages:
                raise ShortSession(f"session {s.session_id} has too few page views")
            dwells = dwell_times(s)
            csum = np.concatenate([[0.0], np.cumsum(dwells)])
            csq = np.concatenate([[0.0], np.cumsum(np.square(dwells))])
            seq = [page_index[p] for p in s.page_type_sequence()]
            if len(seq) >= 2:
                pairs = np.array(
                    [lp[a, b] - ln[a, b] for a, b in zip(seq, seq[1:])]
                )
                score_csum = np.concatenate([[0.0], np.cumsum(pairs)])
            else:
                score_csum = np.zeros(1)
            for c, step in enumerate(self.steps):
                m = min(step, len(dwells))
                if m > 0:
                    mean = csum[m] / m
                    var = max(csq[m] / m - mean * mean, 0.0)
                    self.dyn["mean"][i, c] = mean
                    self.dyn["std"][i, c] = np.sqrt(var)
                self.dyn["count"][i, c] = m
                self.dyn["pages"][i, c] = step
                t = min(step, len(seq)) - 1
                if t >= 1 and t < len(score_csum):
                    self.dyn["score"][i, c] = score_csum[t] / t

        self.static = np.zeros((n, len(_static_session_block())))
        for i, s in enumerate(self.sessions):
            weekday, hour = session_start_cet(s)
            col = 0
            for c in CHANNELS:
                self.static[i, col] = 1.0 if s.channel == c else 0.0
                col += 1
            self.static[i, col] = hour
            col += 1
            for w in range(7):
                self.static[i, col] = 1.0 if weekday == w else 0.0
                col += 1
            for d in DEVICES:
                self.static[i, col] = 1.0 if s.device == d else 0.0
                col += 1
            self.static[i, col] = device_conversion_feature(ctx, s.device)

        if setting == "identified":
            self.history = np.zeros((n, 6))
            for i, s in enumerate(self.sessions):
                j = journeys.get(s.customer_id)
                if j is None:
                    raise MissingJourney(f"no journey for session {s.session_id}")
                hist = history_snapshot(j, s.start_time)
                device_score = markov.class_score(
                    ctx.device_chain_purchase,
                    ctx.device_chain_nonpurchase,
                    hist.device_sequence + [s.device],
                )
                self.history[i] = [
                    hist.orders,
                    hist.days_since_last_purchase,
                    hist.n_sessions,
                    hist.n_devices,
                    device_score,
                    hist.switch_probability,
                ]

    def matrix(self, step: int, variant: str):
        """(X, y) for one step; column order matches catalog()."""
        c = self.steps.index(step)
        blocks = [
            self.dyn["mean"][:, c : c + 1],
            self.dyn["std"][:, c : c + 1],
            self.dyn["score"][:, c : c + 1],
            self.dyn["pages"][:, c : c + 1],
            self.dyn["count"][:, c : c + 1],
        ]
        if variant == "extended":
            blocks.append(self.static)
        if self.setting == "identified":
            blocks.append(self.history if variant == "extended" else self.history[:, :2])
        return np.hstack(blocks), self.labels
