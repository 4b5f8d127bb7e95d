"""Feature vectors for purchase prediction at a session step.

Four configurations: {anonymous, identified} x {baseline, extended}. Dynamic
features are computed over the first `step` page views only; static session
features come from session metadata; history features are taken at session
start from the customer's prior sessions. The anonymous baseline reduces to
the four dynamic session features (plus the dwell-count indicator that lets
models tell "no data" from a zero dwell).

All statistics carried by a FeatureContext (Markov chains, device conversion
table) must be fitted on training sessions only; the dynamic columns at a
step read nothing beyond its page views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import markov
from .analytics import conversion_rates, session_start_cet
from .ingest import CHANNELS, DEVICES, PAGE_TYPES
from .sessions import Session, dwell_times, history_snapshot

WEEKDAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

SETTINGS = ("anonymous", "identified")
VARIANTS = ("baseline", "extended")


class MissingJourney(ValueError):
    pass


class ShortSession(ValueError):
    pass


DYNAMIC_FEATURES = ("dwell_mean", "dwell_std", "page_sequence_score", "n_pages", "dwell_count")
SESSION_FEATURES = (
    *(f"channel={c}" for c in CHANNELS),
    "start_hour",
    *(f"weekday={w}" for w in WEEKDAY_NAMES),
    *(f"device={d}" for d in DEVICES),
    "device_conversion_rate",
)
# the baseline variant keeps the first two
HISTORY_FEATURES = (
    "orders", "days_since_last_purchase", "n_sessions", "n_devices",
    "device_sequence_score", "switch_probability",
)


def feature_names(setting: str, variant: str) -> list[str]:
    """Ordered feature names of a (setting, variant) configuration.

    Previous-device type and previous-device conversion rate are excluded
    everywhere. Baseline columns are a strict subset of extended columns.
    """
    names = list(DYNAMIC_FEATURES)
    if variant == "extended":
        names += SESSION_FEATURES
    if setting == "identified":
        names += HISTORY_FEATURES if variant == "extended" else HISTORY_FEATURES[:2]
    return names


@dataclass
class FeatureContext:
    """Fold-fitted statistics needed at extraction time."""

    page_chain_purchase: markov.MarkovChain
    page_chain_nonpurchase: markov.MarkovChain
    device_chain_purchase: markov.MarkovChain
    device_chain_nonpurchase: markov.MarkovChain
    device_conversion: dict
    global_conversion: float


def fit_feature_context(builder, train_rows, train_journeys) -> FeatureContext:
    """Fit Laplace-smoothed Markov chains and the device conversion table on
    the builder's train_rows only, the page chains from their transition counts."""
    rows = np.asarray(train_rows, dtype=np.int64)
    train = [builder.sessions[i] for i in rows]
    purchase = builder.labels[rows] == 1
    device_seqs = {True: [], False: []}
    for s in train:
        if s.customer_id is not None:
            hist = history_snapshot(train_journeys.get(s.customer_id), s.start_time)
            device_seqs[s.purchase].append(hist.device_sequence + [s.device])
    return FeatureContext(
        page_chain_purchase=markov.MarkovChain(PAGE_TYPES, builder.page_counts[rows[purchase]].sum(axis=0)),
        page_chain_nonpurchase=markov.MarkovChain(PAGE_TYPES, builder.page_counts[rows[~purchase]].sum(axis=0)),
        device_chain_purchase=markov.fit(device_seqs[True], DEVICES),
        device_chain_nonpurchase=markov.fit(device_seqs[False], DEVICES),
        device_conversion={r.key: r.conversion_rate for r in conversion_rates(train)},
        global_conversion=float(purchase.mean()) if rows.size else 0.0,
    )


def _session_columns(s: Session) -> list[float]:
    """Channel one-hot, CET start hour, weekday one-hot and device one-hot."""
    weekday, hour = session_start_cet(s)
    return (
        [1.0 if s.channel == c else 0.0 for c in CHANNELS]
        + [float(hour)]
        + [1.0 if weekday == i else 0.0 for i in range(7)]
        + [1.0 if s.device == d else 0.0 for d in DEVICES]
    )


def _history_columns(s: Session, journey: list[Session], ctx: FeatureContext) -> list[float]:
    """The history block in HISTORY_FEATURES order, from journey's sessions before s."""
    hist = history_snapshot(journey, s.start_time)
    device_score = markov.class_score(
        ctx.device_chain_purchase,
        ctx.device_chain_nonpurchase,
        hist.device_sequence + [s.device],
    )
    return [
        float(hist.orders),
        hist.days_since_last_purchase,
        float(hist.n_sessions),
        float(hist.n_devices),
        device_score,
        hist.switch_probability,
    ]


class StepMatrixBuilder:
    """Feature matrices of one setting's sessions at many steps.

    The constructor computes what depends on the sessions alone, once:
    labels, dwell prefix statistics, page-type pairs and transition counts,
    the channel/hour/weekday/device block and each variant's columns. fold()
    adds the columns fitted on a fold, and matrix() cuts a (step, variant) out.

    Dwell statistics use the population (divide-by-n) standard deviation and
    an expanding window over the pages seen so far. The dwell of a session's
    final action is undefined and excluded rather than imputed. A session
    with fewer page views than the largest step raises ShortSession: its
    rows at that step would describe pages it does not have."""

    def __init__(self, sessions, setting, steps):
        self.sessions = list(sessions)
        self.setting = setting
        self.steps = list(steps)
        extended = feature_names(setting, "extended")
        self.columns = {v: np.array([extended.index(f) for f in feature_names(setting, v)]) for v in VARIANTS}
        n = len(self.sessions)
        self.labels = np.array([1 if s.purchase else 0 for s in self.sessions], dtype=np.int64)
        # per (session, step): dwell mean, dwell std, n_pages, dwell count
        self.dyn = np.zeros((n, len(self.steps), 4))
        # per step: the number of page transitions the page-sequence score averages
        self.n_scored = np.maximum(np.array(self.steps, dtype=np.int64) - 1, 0)
        last = max(self.steps)
        # from/to page-type codes of the transitions the largest step scores
        width = max(last - 1, 0)
        self.pairs = np.zeros((2, n, width), dtype=np.int64)
        # per session: [a, b] counts page type b following page type a
        n_types = len(PAGE_TYPES)
        self.page_counts = np.zeros((n, n_types, n_types), dtype=np.int64)
        self.static = np.zeros((n, len(SESSION_FEATURES) - 1))
        page_index = {p: i for i, p in enumerate(PAGE_TYPES)}
        for i, s in enumerate(self.sessions):
            codes = np.array([page_index[p] for a, p in zip(s.actions, s.page_types) if a == "PageView"], np.int64)
            if len(codes) < last:
                raise ShortSession(f"session {s.session_id} has {len(codes)} page views, fewer than step {last}")
            dwells = dwell_times(s)
            csum = np.concatenate([[0.0], np.cumsum(dwells)])
            csq = np.concatenate([[0.0], np.cumsum(np.square(dwells))])
            m = np.minimum(self.steps, len(dwells))
            mean = csum[m] / np.maximum(m, 1)  # 0 at m = 0
            std = np.sqrt(np.maximum(csq[m] / np.maximum(m, 1) - mean * mean, 0.0))
            self.dyn[i] = np.column_stack([mean, std, self.steps, m])
            self.pairs[:, i] = codes[:width], codes[1 : width + 1]
            self.page_counts[i].flat = np.bincount(codes[:-1] * n_types + codes[1:], minlength=n_types**2)
            self.static[i] = _session_columns(s)

    def fold(self, rows, journeys, ctx: FeatureContext):
        """(X, y) of the sessions at rows, X[r, c] in feature_names(setting,
        "extended") order at steps[c]. Fitted on the fold: the page-sequence
        score, the device conversion rate (the global rate for a device the
        training fold lacks) and, when identified, the history block with each
        session's history read from journeys."""
        rows = np.asarray(rows, dtype=np.int64)
        lp = ctx.page_chain_purchase._log_probs
        ln = ctx.page_chain_nonpurchase._log_probs
        a, b = self.pairs[0, rows], self.pairs[1, rows]
        csum = np.concatenate([np.zeros((len(rows), 1)), np.cumsum(lp[a, b] - ln[a, b], axis=1)], axis=1)
        t = self.n_scored
        score = csum[:, t] / np.maximum(t, 1)  # 0 at t = 0
        conversion = [ctx.device_conversion.get(self.sessions[i].device, ctx.global_conversion) for i in rows]
        per_session = [self.static[rows], np.reshape(conversion, (-1, 1))]
        if self.setting == "identified":
            history = np.zeros((len(rows), len(HISTORY_FEATURES)))
            for r, i in enumerate(rows):
                s = self.sessions[i]
                j = journeys.get(s.customer_id)
                if j is None:
                    raise MissingJourney(f"no journey for session {s.session_id}")
                history[r] = _history_columns(s, j, ctx)
            per_session.append(history)
        dynamic = np.insert(self.dyn[rows], DYNAMIC_FEATURES.index("page_sequence_score"), score, axis=2)
        per_step = np.hstack(per_session)[:, None].repeat(len(self.steps), axis=1)
        return np.concatenate([dynamic, per_step], axis=2), self.labels[rows]

    def matrix(self, step: int, variant: str, fold):
        """(X, y) of fold's rows at one step, in feature_names(setting, variant)
        order; X is C-contiguous, as BLAS rounds an F-ordered X differently."""
        X, y = fold
        return X[:, self.steps.index(step)].take(self.columns[variant], axis=1), y
