"""Seeded synthetic clickstream generator.

Emits TSV event logs in the ingest wire format plus a truth.jsonl sidecar
with per-session labels, and is calibrated so that its categorical
marginals are reproduced within sampling noise at corpus scale: the
configured channel mix per label and anonymous share, and the paper's device
mix per label and multi-device ownership shares, which are fixed targets
(PURCHASE_DEVICE_MIX, NONPURCHASE_DEVICE_MIX, MULTI_DEVICE_SHARE_*), not
settings. Inter-session gaps always exceed 30 minutes and intra-session
gaps never do, so sessionization recovers the generated boundaries exactly.

Device assignment reconciles two targets at once: per-label device mixes and
per-customer multi-device shares. Customers are either sticky (one device
for every session) or roaming (devices drawn per session from the label
mix, with at least two distinct devices among their identified sessions).
Sticky purchasers draw their device from the purchase mix; the sticky
non-purchaser device distribution is solved from the exact pass-one session
counts so the non-purchase marginal lands on its target too.

All output is a pure function of (config, seed): per-customer RNG streams
make generation order-independent and byte-reproducible.
"""

from __future__ import annotations

import bisect
import math
import os
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .analytics import _EPOCH_WEEKDAY, CET_OFFSET_MS, MS_PER_DAY, MS_PER_HOUR
from .ingest import CHANNELS, DEVICES, IDLE_GAP_MS, PAGE_TYPES, InvalidConfig, check_fields, check_kind
from .ingest import MAX_SESSION_EVENTS, MIN_SESSION_EVENTS, check_known, check_numbers
from .sessions import compact_json

MS_PER_SECOND = 1000
MS_PER_MINUTE = 60_000

# 2019-10-01 00:00 CET
WINDOW_START_MS = int(datetime(2019, 9, 30, 23, 0, tzinfo=timezone.utc).timestamp() * 1000)


def _normalized(raw: dict) -> dict:
    total = sum(raw.values())
    return {k: v / total for k, v in raw.items()}


# Default per-label marginals, normalized so each mix sums to exactly 1.
PURCHASE_DEVICE_MIX = _normalized(
    {"Smartphone": 47.00, "PC": 44.97, "Tablet": 8.03, "GameConsole": 0.004, "TV": 0.001}
)
NONPURCHASE_DEVICE_MIX = _normalized(
    {"Smartphone": 58.09, "PC": 34.40, "Tablet": 7.50, "GameConsole": 0.004, "TV": 0.002}
)
PURCHASE_CHANNEL_MIX = _normalized(
    {"Direct": 71.07, "Paid": 16.74, "Organic": 11.78, "Other": 0.31}
)
NONPURCHASE_CHANNEL_MIX = _normalized(
    {"Direct": 77.30, "Paid": 12.92, "Organic": 7.83, "Other": 1.05}
)
# Mon..Sun; purchase top-3 (Thu, Tue, Wed) sums to 0.4855
PURCHASE_WEEKDAYS = (0.131, 0.162, 0.158, 0.1655, 0.128, 0.1285, 0.127)
NONPURCHASE_WEEKDAYS = (0.1955, 0.0985, 0.20, 0.19, 0.109, 0.105, 0.102)

_PURCHASE_HOURS_RAW = (
    1.0, 0.5, 0.4, 0.4, 0.5, 0.8, 1.5, 2.5, 3.5, 4.5, 5.0, 5.0,
    5.0, 5.0, 5.0, 5.0, 5.0, 5.5, 7.5, 7.5, 7.0, 5.5, 3.5, 2.0,
)
_NONPURCHASE_HOURS_RAW = (
    1.2, 0.6, 0.5, 0.5, 0.6, 1.0, 2.0, 3.0, 4.0, 4.8, 5.0, 5.0,
    5.0, 5.0, 5.0, 5.0, 5.0, 5.2, 6.5, 6.5, 6.2, 5.2, 3.8, 2.4,
)
PURCHASE_HOURS = tuple(v / sum(_PURCHASE_HOURS_RAW) for v in _PURCHASE_HOURS_RAW)
NONPURCHASE_HOURS = tuple(v / sum(_NONPURCHASE_HOURS_RAW) for v in _NONPURCHASE_HOURS_RAW)

MULTI_DEVICE_SHARE_PURCHASERS = 0.2405
MULTI_DEVICE_SHARE_NONPURCHASERS = 0.1622

# tablet rate chosen so the mix-weighted purchase average lands on 3.16
PURCHASE_QUERY_RATES = {"Smartphone": 4.0, "PC": 2.0, "Tablet": 4.74, "GameConsole": 0.0, "TV": 0.0}
NONPURCHASE_QUERY_RATES = {"Smartphone": 0.05, "PC": 0.09, "Tablet": 0.0003, "GameConsole": 0.0, "TV": 0.0}

INITIAL_PAGE_DIST = {"home": 0.6, "search": 0.2, "category": 0.1, "product": 0.1}

DWELL_MU = 3.0  # lognormal page dwell, seconds
LATE_LOGIN_SHARE = 0.2  # identified sessions whose first 1-3 events are anonymous
QUERY_VOCAB = 5000
COUNTRY = "NL"
WINDOW_DAYS = 28  # a customer's first session starts on one of these days


def _page_chain(bias: dict) -> dict:
    """Row-stochastic page-type chain: uniform base plus boosted targets."""
    chain = {}
    for src in PAGE_TYPES:
        row = {p: 1.0 for p in PAGE_TYPES}
        for dst, boost in bias.get(src, {}).items():
            row[dst] += boost
        chain[src] = _normalized(row)
    return chain


PURCHASE_PAGE_CHAIN = _page_chain(
    {
        "home": {"search": 4, "product": 2},
        "search": {"product": 5},
        "product": {"basket": 3, "product": 2},
        "category": {"product": 4},
        "basket": {"checkout": 4, "product": 2},
        "checkout": {"product": 2, "basket": 1},
        "account": {"home": 2},
        "other": {"home": 2},
    }
)
NONPURCHASE_PAGE_CHAIN = _page_chain(
    {
        "home": {"category": 3, "search": 2},
        "search": {"product": 3, "search": 2},
        "product": {"category": 2, "home": 2},
        "category": {"product": 2, "category": 2},
        "basket": {"home": 2},
        "checkout": {"home": 2},
        "account": {"home": 2},
        "other": {"home": 2},
    }
)

@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    n_customers: int = 1000
    anonymous_share: float = 0.565
    purchaser_share: float = 0.35
    # per-session purchase probability for purchaser customers (>=1 forced)
    purchase_rate: float = 0.30
    mean_sessions: float = 3.0
    purchase_length_mean: float = 48.14
    nonpurchase_length_mean: float = 6.16
    length_dispersion: float = 2.0
    min_session_length: int = MIN_SESSION_EVENTS
    purchase_channel_mix: dict = field(default_factory=lambda: PURCHASE_CHANNEL_MIX)
    nonpurchase_channel_mix: dict = field(default_factory=lambda: NONPURCHASE_CHANNEL_MIX)
    purchase_weekdays: tuple = PURCHASE_WEEKDAYS
    nonpurchase_weekdays: tuple = NONPURCHASE_WEEKDAYS
    device_transitions: dict | None = None  # optional planted chain, overrides mixes
    purchase_query_rates: dict = field(default_factory=lambda: PURCHASE_QUERY_RATES)
    nonpurchase_query_rates: dict = field(default_factory=lambda: NONPURCHASE_QUERY_RATES)
    purchase_page_chain: dict = field(default_factory=lambda: PURCHASE_PAGE_CHAIN)
    nonpurchase_page_chain: dict = field(default_factory=lambda: NONPURCHASE_PAGE_CHAIN)
    purchase_dwell_mu: float = DWELL_MU
    dwell_sigma: float = 0.9
    # per-session latent pace: one Bernoulli per session shifts its whole
    # dwell distribution, so a page or two reveals everything it carries
    dwell_pace_gap: float = 0.0
    pace_rate_purchase: float = 0.0
    pace_rate_nonpurchase: float = 0.0
    # history planting: short seeded first purchase per purchaser
    history_seed_sessions: bool = False

    def __post_init__(self):
        """Raise InvalidConfig naming the first bad key. check_fields gives
        every field its default's kind, mappings read-only (a mix changed later
        could sum to anything). Mixes, chain rows and query rates map known
        keys, probabilities sum to 1, and numbers are finite and in range."""
        check_fields(self)
        def check_mix(name, mix, keys=None):
            vals = list(mix.values() if keys else mix)
            check_numbers(name, vals, 0, 1)
            total = sum(vals)
            if abs(total - 1.0) > 1e-9:
                raise InvalidConfig(name, f"probabilities sum to {total:.6f}, expected 1")
            if keys:
                check_known(name, mix, keys)

        def check_chain(name, chain, states):
            if set(chain) != set(states):
                raise InvalidConfig(name, f"expected one row for each of {list(states)}")
            for src, row in chain.items():
                check_mix(f"{name}[{src}]", check_kind(f"{name}[{src}]", row, {}), states)

        check_mix("purchase_channel_mix", self.purchase_channel_mix, CHANNELS)
        check_mix("nonpurchase_channel_mix", self.nonpurchase_channel_mix, CHANNELS)
        for name in ("purchase_weekdays", "nonpurchase_weekdays"):
            vec = getattr(self, name)
            if len(vec) != 7:
                raise InvalidConfig(name, f"expected 7 entries (Mon..Sun), got {len(vec)}")
            check_mix(name, vec)
        check_chain("purchase_page_chain", self.purchase_page_chain, PAGE_TYPES)
        check_chain("nonpurchase_page_chain", self.nonpurchase_page_chain, PAGE_TYPES)
        if self.device_transitions is not None:
            check_chain("device_transitions", self.device_transitions, DEVICES)
        for name in ("purchase_query_rates", "nonpurchase_query_rates"):
            rates = getattr(self, name)
            check_known(name, rates, DEVICES)
            # a session holds at most MAX_SESSION_EVENTS events, queries included
            check_numbers(name, rates.values(), 0, MAX_SESSION_EVENTS)
        # counts; session lengths stay inside the ingest filter's bounds
        for name, low, high in (("seed", 0, math.inf), ("n_customers", 0, math.inf),
                                ("min_session_length", MIN_SESSION_EVENTS, MAX_SESSION_EVENTS)):
            check_numbers(name, [getattr(self, name)], low, high, integral=True)
        for name, low, high in (
            ("anonymous_share", 0, 1), ("purchaser_share", 0, 1), ("purchase_rate", 0, 1),
            ("pace_rate_purchase", 0, 1), ("pace_rate_nonpurchase", 0, 1),
            ("mean_sessions", 0, math.inf),
            ("purchase_length_mean", 0, MAX_SESSION_EVENTS),
            ("nonpurchase_length_mean", 0, MAX_SESSION_EVENTS),
            # numpy's negative binomial fails for a dispersion far below
            # 1e-6; far above 1e9, n / (n + extra_mean) rounds to 1 and
            # every session gets min_session_length events
            ("length_dispersion", 1e-6, 1e9),
            ("purchase_dwell_mu", -math.inf, math.inf),
            ("dwell_sigma", 0, math.inf), ("dwell_pace_gap", 0, math.inf),
        ):
            check_numbers(name, [getattr(self, name)], low, high)


class _Sampler:
    """Cumulative-probability sampler over a fixed key order."""

    def __init__(self, mix: dict, order):
        self.keys = [k for k in order if mix.get(k, 0.0) > 0.0]
        probs = np.array([mix[k] for k in self.keys])
        # the floats np.searchsorted(side="right") would search; bisect on a
        # list picks the same index without the per-call array overhead
        self.cum = np.cumsum(probs / probs.sum()).tolist()
        # the sum may round below 1.0; a draw at or above it would index
        # past keys, and every draw below it keeps its index
        self.cum[-1] = 1.0

    def draw(self, rng) -> str:
        return self.keys[bisect.bisect_right(self.cum, rng.random())]

    def draw_excluding(self, rng, excluded: str) -> str:
        if len(self.keys) < 2:
            return self.keys[0]
        for _ in range(64):
            k = self.draw(rng)
            if k != excluded:
                return k
        return next(k for k in self.keys if k != excluded)


@dataclass
class _CustomerPlan:
    index: int
    purchaser: bool
    sticky: bool
    labels: list  # per-session purchase flags
    anonymous: list  # per-session anonymity flags
    seed_flags: list  # per-session short-seed markers


def _session_count(rng, cfg: GenConfig) -> int:
    # geometric around the configured mean, floored at 1
    mean = max(cfg.mean_sessions, 1.0)
    return int(rng.geometric(1.0 / mean)) if mean > 1.0 else 1


def _plan_customer(idx: int, rng, cfg: GenConfig) -> _CustomerPlan:
    purchaser = rng.random() < cfg.purchaser_share
    multi_share = MULTI_DEVICE_SHARE_PURCHASERS if purchaser else MULTI_DEVICE_SHARE_NONPURCHASERS
    sticky = rng.random() >= multi_share
    n = max(_session_count(rng, cfg), 1 if sticky else 2)

    anonymous = [rng.random() < cfg.anonymous_share for _ in range(n)]
    need_identified = 1 if sticky else 2
    # iid flag appends keep the anonymous-share expectation exact (Wald)
    while sum(1 for a in anonymous if not a) < need_identified:
        anonymous.append(rng.random() < cfg.anonymous_share)
    n = len(anonymous)

    if purchaser:
        labels = [rng.random() < cfg.purchase_rate for _ in range(n)]
        identified_purchases = [i for i in range(n) if labels[i] and not anonymous[i]]
        if not identified_purchases:
            candidates = [i for i in range(n) if not anonymous[i]]
            labels[candidates[int(rng.integers(len(candidates)))]] = True
    else:
        labels = [False] * n

    seed_flags = [False] * n
    if purchaser and cfg.history_seed_sessions:
        labels.insert(0, True)
        anonymous.insert(0, False)
        seed_flags = [True] + seed_flags
    return _CustomerPlan(idx, purchaser, sticky, labels, anonymous, seed_flags)


def _roaming_session_laws(plan: _CustomerPlan, d_p: np.ndarray, d_n: np.ndarray):
    """Exact per-session device laws for a roaming customer, including the
    effect of the redraw that forces >= 2 distinct devices among identified
    sessions."""
    n = len(plan.labels)
    mixes = [d_p if plan.labels[i] else d_n for i in range(n)]
    ident = [i for i in range(n) if not plan.anonymous[i]]
    laws = [m.copy() for m in mixes]
    j = ident[-1]
    # q[d] = P(every identified session drew device d)
    q = np.ones_like(d_p)
    for i in ident:
        q = q * mixes[i]
    m_j = mixes[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(m_j < 1.0, q / (1.0 - m_j), 0.0)
    law_j = m_j - q + m_j * (ratio.sum() - ratio)
    laws[j] = law_j
    return laws


def _solve_sticky_mixes(plans):
    """Device distributions for sticky purchasers / non-purchasers such that
    both per-label device marginals match the target mixes exactly in
    expectation, absorbing the roaming redraw bias."""
    d_p = np.array([PURCHASE_DEVICE_MIX[d] for d in DEVICES])
    d_n = np.array([NONPURCHASE_DEVICE_MIX[d] for d in DEVICES])

    p_tot = 0  # purchase sessions overall
    n_tot = 0
    r_p = np.zeros(len(DEVICES))  # expected roaming device mass per label
    r_n = np.zeros(len(DEVICES))
    s_p = 0  # sticky purchasers: purchase / non-purchase session counts
    s_pn = 0
    s_n = 0  # sticky non-purchasers: all sessions
    for plan in plans:
        purchases = sum(1 for lab in plan.labels if lab)
        p_tot += purchases
        n_tot += len(plan.labels) - purchases
        if plan.sticky:
            if plan.purchaser:
                s_p += purchases
                s_pn += len(plan.labels) - purchases
            else:
                s_n += len(plan.labels)
        else:
            for law, lab in zip(_roaming_session_laws(plan, d_p, d_n), plan.labels):
                if lab:
                    r_p += law
                else:
                    r_n += law

    def _clip_norm(vec, fallback):
        vec = np.clip(vec, 0.0, None)
        total = vec.sum()
        if total <= 0:
            return fallback.copy()
        return vec / total

    sigma_p = _clip_norm(d_p * p_tot - r_p, d_p) if s_p else d_p.copy()
    sigma_n = (
        _clip_norm(d_n * n_tot - r_n - sigma_p * s_pn, d_n) if s_n else d_n.copy()
    )
    to_dict = lambda vec: {d: float(v) for d, v in zip(DEVICES, vec)}
    return to_dict(sigma_p), to_dict(sigma_n)


def _start_time(rng, prev_end: int | None, weekday: int, hour: int) -> int:
    """Earliest CET (weekday, hour) slot after the previous session plus gap."""
    if prev_end is None:
        floor_ms = WINDOW_START_MS + int(rng.integers(WINDOW_DAYS)) * MS_PER_DAY
    else:
        floor_ms = prev_end + IDLE_GAP_MS + MS_PER_MINUTE
    day_cet = (floor_ms + CET_OFFSET_MS) // MS_PER_DAY
    offset_in_day = (
        hour * MS_PER_HOUR
        + int(rng.integers(60)) * MS_PER_MINUTE
        + int(rng.integers(60)) * MS_PER_SECOND
        + int(rng.integers(1000))
    )
    day = day_cet + (weekday - day_cet - _EPOCH_WEEKDAY) % 7
    ts = day * MS_PER_DAY - CET_OFFSET_MS + offset_in_day
    # the slot on day_cet itself may lie before floor_ms; a week later cannot
    return ts if ts >= floor_ms else ts + 7 * MS_PER_DAY


def _dwell_ms(rng, mu: float, sigma: float) -> int:
    seconds = float(np.exp(rng.normal(mu, sigma)))
    seconds = min(max(seconds, 1.0), 1700.0)  # intra-session gaps stay under 30 min
    return int(seconds * MS_PER_SECOND)


def _session_length(rng, cfg: GenConfig, purchase: bool) -> int:
    mean = cfg.purchase_length_mean if purchase else cfg.nonpurchase_length_mean
    lo = cfg.min_session_length
    extra_mean = max(mean - lo, 0.05)
    n = cfg.length_dispersion
    p = n / (n + extra_mean)
    length = lo + int(rng.negative_binomial(n, p))
    return min(length, MAX_SESSION_EVENTS)


# event kinds: one PageView code per page type, then the three other actions
_PAGE_CODE = {page: code for code, page in enumerate(PAGE_TYPES)}
_QUERY, _BASKET, _PURCHASE = range(len(PAGE_TYPES), len(PAGE_TYPES) + 3)
# each kind's TSV columns from action to country, split where its value goes
_KIND_TEXT = (
    *((f"PageView\t{page}\t\t", f"\t{COUNTRY}\n") for page in PAGE_TYPES),
    ("Query\tsearch\tq", f"\t\t{COUNTRY}\n"),
    ("AddToBasket\tbasket\t\t", f"\t{COUNTRY}\n"),
    ("Purchase\tcheckout\t\t", f"\t{COUNTRY}\n"),
)
_WRITE_CHUNK = 4096  # events formatted per batch
# one session-table row; truth.jsonl writes each row under these keys
TRUTH_FIELDS = ("client_token", "customer_id", "device", "channel", "purchase",
                "start_ms", "end_ms", "n_events", "seed_session")


def _column(col: array) -> np.ndarray:
    return np.frombuffer(col, np.int64 if col.typecode == "q" else np.uint8)


class _EventLog:
    """Generated events as columns, in generation order, with their file
    order: by timestamp, then client token, then generation order.

    An event is 26 bytes here (timestamp, session index, kind code, value
    and whether it carries the session's customer id); a value is a query
    number or a price in cents, -1 for none. The session table holds one
    row per session in TRUTH_FIELDS order, and an event's session is its
    row's index. lines() is the one formatter of events.tsv, truth_lines()
    of truth.jsonl.
    """

    def __init__(self):
        self.ts = array("q")
        self.session = array("q")
        self.kind = array("B")
        self.value = array("q")
        self.identified = array("B")
        self.sessions = []
        self.order = None  # set by sort()

    def append(self, ts: int, session: int, kind: int, value: int, identified: bool) -> None:
        self.ts.append(ts)
        self.session.append(session)
        self.kind.append(kind)
        self.value.append(value)
        self.identified.append(identified)

    def __len__(self) -> int:
        return len(self.ts)

    def sort(self) -> None:
        """Set the file order with one stable sort; token ranks give string
        order ("c10d0" < "c2d0")."""
        tokens = [token for token, *_ in self.sessions]
        rank = {token: r for r, token in enumerate(sorted(set(tokens)))}
        session_rank = np.array([rank[token] for token in tokens], np.int64)
        self.order = np.lexsort((session_rank[_column(self.session)], _column(self.ts)))

    def lines(self):
        """Each event's TSV line, newline included, in file order."""
        heads = []  # per session: anonymous head, then identified head
        for token, customer_id, device, channel, *_ in self.sessions:
            anonymous = f"{token}\t\t{device}\t{channel}\t"
            heads += (anonymous, f"{token}\t{customer_id}\t{device}\t{channel}\t" if customer_id else anonymous)
        ts, session, kind, value, identified = map(
            _column, (self.ts, self.session, self.kind, self.value, self.identified)
        )
        for start in range(0, len(self.order), _WRITE_CHUNK):
            idx = self.order[start:start + _WRITE_CHUNK]
            for t, h, k, v in zip(
                ts[idx].tolist(), (2 * session[idx] + identified[idx]).tolist(),
                kind[idx].tolist(), value[idx].tolist(),
            ):
                pre, post = _KIND_TEXT[k]
                yield f"{t}\t{heads[h]}{pre}{'' if v < 0 else v}{post}"

    def truth_lines(self):
        """Each session's truth.jsonl line, newline included, in generation
        order."""
        for row in self.sessions:
            yield compact_json(dict(zip(TRUTH_FIELDS, row))) + "\n"


def _build_session_events(
    rng, cfg: GenConfig, samplers, log: _EventLog, session: int,
    purchase: bool, device: str, start_ms: int, is_seed: bool, identified: bool,
):
    """Append one session's events to log, the first at start_ms; returns
    the last event's timestamp and the event count."""
    if is_seed:
        length = int(rng.integers(4, 9))
    else:
        length = _session_length(rng, cfg, purchase)
    reserved = 2 if purchase else 0
    core = max(length - reserved, 1)
    rate = (cfg.purchase_query_rates if purchase else cfg.nonpurchase_query_rates).get(device, 0.0)
    n_queries = int(rng.poisson(rate)) if rate > 0 else 0
    n_queries = min(n_queries, core - 1) if core > 1 else 0
    n_pages = core - n_queries

    chain = samplers["page_chain_p"] if purchase else samplers["page_chain_n"]
    pages = []
    cur = samplers["initial_page"].draw(rng)
    for _ in range(n_pages):
        pages.append(cur)
        cur = chain[cur].draw(rng)

    query_slots = set(
        int(i) for i in rng.choice(core, size=n_queries, replace=False)
    ) if n_queries else set()

    mu = cfg.purchase_dwell_mu if purchase else DWELL_MU
    if cfg.dwell_pace_gap > 0:
        pace_rate = cfg.pace_rate_purchase if purchase else cfg.pace_rate_nonpurchase
        if rng.random() < pace_rate:
            mu += cfg.dwell_pace_gap
    late_from = 0
    if identified and length >= 2 and rng.random() < LATE_LOGIN_SHARE:
        late_from = int(rng.integers(1, min(4, length)))

    append = log.append
    ts = start_ms
    page_i = 0
    for slot in range(core):
        if slot in query_slots:
            append(ts, session, _QUERY, int(rng.integers(QUERY_VOCAB)), identified and slot >= late_from)
        else:
            page = pages[page_i]
            page_i += 1
            price = int(rng.integers(500, 250_000)) if page == "product" else -1
            append(ts, session, _PAGE_CODE[page], price, identified and slot >= late_from)
        last = ts
        ts += _dwell_ms(rng, mu, cfg.dwell_sigma)
    if purchase:
        append(ts, session, _BASKET, -1, identified and core >= late_from)
        ts += _dwell_ms(rng, mu, cfg.dwell_sigma)
        append(ts, session, _PURCHASE, int(rng.integers(500, 250_000)), identified and core + 1 >= late_from)
        last = ts
    return last, core + reserved


def _compile_samplers(cfg: GenConfig) -> dict:
    return {
        "device_p": _Sampler(PURCHASE_DEVICE_MIX, DEVICES),
        "device_n": _Sampler(NONPURCHASE_DEVICE_MIX, DEVICES),
        "channel_p": _Sampler(cfg.purchase_channel_mix, CHANNELS),
        "channel_n": _Sampler(cfg.nonpurchase_channel_mix, CHANNELS),
        "weekday_p": _Sampler(dict(enumerate(cfg.purchase_weekdays)), range(7)),
        "weekday_n": _Sampler(dict(enumerate(cfg.nonpurchase_weekdays)), range(7)),
        "hour_p": _Sampler(dict(enumerate(PURCHASE_HOURS)), range(24)),
        "hour_n": _Sampler(dict(enumerate(NONPURCHASE_HOURS)), range(24)),
        "initial_page": _Sampler(INITIAL_PAGE_DIST, PAGE_TYPES),
        "page_chain_p": {s: _Sampler(cfg.purchase_page_chain[s], PAGE_TYPES) for s in PAGE_TYPES},
        "page_chain_n": {s: _Sampler(cfg.nonpurchase_page_chain[s], PAGE_TYPES) for s in PAGE_TYPES},
        "transitions": (
            {s: _Sampler(cfg.device_transitions[s], DEVICES) for s in cfg.device_transitions}
            if cfg.device_transitions
            else None
        ),
    }


def generate_events(cfg: GenConfig) -> _EventLog:
    """Generate every session and its events into one _EventLog, sorted
    into file order and ready for its lines() and truth_lines()."""
    samplers = _compile_samplers(cfg)

    plans = []
    for idx in range(cfg.n_customers):
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(idx, 0)))
        plans.append(_plan_customer(idx, rng, cfg))

    sigma_p, sigma_n = _solve_sticky_mixes(plans)
    sticky_p = _Sampler(sigma_p, DEVICES)
    sticky_np = _Sampler(sigma_n, DEVICES)
    device_index = {d: i for i, d in enumerate(DEVICES)}

    log = _EventLog()
    for plan in plans:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(plan.index, 1)))
        n = len(plan.labels)
        customer_id = f"u{plan.index}"

        if samplers["transitions"] is not None:
            devices = []
            cur = DEVICES[int(rng.integers(len(DEVICES)))]
            for _ in range(n):
                devices.append(cur)
                cur = samplers["transitions"][cur].draw(rng)
        elif plan.sticky:
            sampler = sticky_p if plan.purchaser else sticky_np
            devices = [sampler.draw(rng)] * n
        else:
            devices = [
                (samplers["device_p"] if lab else samplers["device_n"]).draw(rng)
                for lab in plan.labels
            ]
            ident = [i for i in range(n) if not plan.anonymous[i]]
            if len({devices[i] for i in ident}) < 2:
                last = ident[-1]
                sampler = samplers["device_p"] if plan.labels[last] else samplers["device_n"]
                devices[last] = sampler.draw_excluding(rng, devices[last])

        prev_end = None
        for k in range(n):
            purchase = plan.labels[k]
            anonymous = plan.anonymous[k]
            is_seed = plan.seed_flags[k]
            device = devices[k]
            channel = (samplers["channel_p"] if purchase else samplers["channel_n"]).draw(rng)
            weekday = int((samplers["weekday_p"] if purchase else samplers["weekday_n"]).draw(rng))
            hour = int((samplers["hour_p"] if purchase else samplers["hour_n"]).draw(rng))
            start_ms = _start_time(rng, prev_end, weekday, hour)
            token = f"c{plan.index}d{device_index[device]}"
            prev_end, n_events = _build_session_events(
                rng, cfg, samplers, log, len(log.sessions), purchase, device, start_ms, is_seed, not anonymous,
            )
            log.sessions.append((
                token, None if anonymous else customer_id, device, channel,
                purchase, start_ms, prev_end, n_events, is_seed,
            ))

    log.sort()
    return log


def generate(cfg: GenConfig, out_dir) -> dict:
    """Write events.tsv + truth.jsonl; byte-identical for identical (cfg, seed)."""
    log = generate_events(cfg)
    os.makedirs(out_dir, exist_ok=True)
    events_path = os.path.join(out_dir, "events.tsv")
    truth_path = os.path.join(out_dir, "truth.jsonl")
    with open(events_path, "w", encoding="utf-8") as fh:
        fh.writelines(log.lines())
    with open(truth_path, "w", encoding="utf-8") as fh:
        fh.writelines(log.truth_lines())
    return {
        "events_path": events_path,
        "truth_path": truth_path,
        "n_events": len(log),
        "n_sessions": len(log.sessions),
    }

