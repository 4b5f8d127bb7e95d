"""Shared test oracles, corpus builders and generator presets.

The oracles are deliberately naive and independent of the library's own
algorithms: dict counting, explicit loops, no shared helpers, so the tests
compare two separately derived answers. The in-memory corpus
(generate_sessions), presets (plant_signal), report readers (static_share,
spearman_rank_correlation) and the fitted-state serializer (fold_artifacts,
model_to_json) serve only the tests and the acceptance criteria; the
pipeline never calls them.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np

from shopstream import evaluation, markov
from shopstream.features import DYNAMIC_FEATURES, feature_names
from shopstream.ingest import CHANNELS, DEVICES, PAGE_TYPES, RawEvent, parse_event_line, sessionize
from shopstream.models.mlp import MLPClassifier
from shopstream.models.trees import _BinnedDesign, _Tree
from shopstream.sessions import Session
from shopstream.synthgen import TRUTH_FIELDS, GenConfig, _normalized, generate_events

MS = 1000
MINUTE = 60 * MS
IDLE_MS = 30 * MINUTE
DAY_MS = 86_400_000
CET = timezone(timedelta(hours=1))  # fixed UTC+1, no daylight saving


def mk_event(
    ts,
    token="C1",
    customer=None,
    device="PC",
    channel="Direct",
    action="PageView",
    page="home",
    query=None,
    price=None,
    country="NL",
):
    return RawEvent(
        timestamp=int(ts),
        client_token=token,
        customer_id=customer,
        device=device,
        channel=channel,
        action=action,
        page_type=page,
        query_text=query,
        price=price,
        country=country,
    )


def event_to_tsv(e: RawEvent) -> str:
    """One event's TSV line, without its newline, field by field."""
    return "\t".join(
        (
            str(e.timestamp),
            e.client_token,
            e.customer_id or "",
            e.device,
            e.channel,
            e.action,
            e.page_type,
            e.query_text or "",
            "" if e.price is None else str(e.price),
            e.country,
        )
    )


def mk_session(
    events,
    session_id="s0",
    customer=None,
    device=None,
    channel=None,
    purchase=None,
):
    """A Session holding the given RawEvents' columns."""
    events = tuple(events)
    actions = tuple(e.action for e in events)
    return Session(
        session_id=session_id,
        client_token=events[0].client_token,
        customer_id=customer,
        device=device or events[0].device,
        channel=channel or events[0].channel,
        timestamps=tuple(e.timestamp for e in events),
        actions=actions,
        page_types=tuple(e.page_type for e in events),
        queries=tuple(e.query_text for e in events),
        prices=tuple(e.price for e in events),
        purchase="Purchase" in actions if purchase is None else purchase,
        country=events[0].country,
    )


def events_of(s):
    """A session's events rebuilt as RawEvents from its columns, each
    carrying the session's token, customer, device, channel and country."""
    return tuple(
        RawEvent(ts, s.client_token, s.customer_id, s.device, s.channel, action, page, query, price,
                 s.country)
        for ts, action, page, query, price in zip(
            s.timestamps, s.actions, s.page_types, s.queries, s.prices, strict=True
        )
    )


def pageview_session(times_s, session_id="s0", customer=None, device="PC",
                     channel="Direct", page="home", extra=None):
    """Session of page views at the given second offsets plus optional extras."""
    events = [
        mk_event(t * MS, customer=customer, device=device, channel=channel, page=page)
        for t in times_s
    ]
    if extra:
        events += list(extra)
    events.sort(key=lambda e: e.timestamp)
    return mk_session(events, session_id=session_id, customer=customer,
                      device=device, channel=channel)


def brute_force_sessionize(events, idle_gap_ms=IDLE_MS, min_events=2, max_events=2000):
    """Reference splitter: per-client chronological scan with explicit state.

    Returns a set of session signatures:
    (token, first_ts, event timestamps tuple, customer_id, purchase).
    """
    by_token = {}
    for e in events:
        by_token.setdefault(e.client_token, []).append(e)
    signatures = set()
    for token, evs in by_token.items():
        evs = sorted(evs, key=lambda e: e.timestamp)
        current = []
        groups = []
        for e in evs:
            if current and e.timestamp - current[-1].timestamp > idle_gap_ms:
                groups.append(current)
                current = []
            current.append(e)
        if current:
            groups.append(current)
        for g in groups:
            if len(g) < min_events or len(g) > max_events:
                continue
            customer = None
            for e in g:
                if e.customer_id is not None:
                    customer = e.customer_id
                    break
            purchase = False
            for e in g:
                if e.action == "Purchase":
                    purchase = True
            signatures.add(
                (token, g[0].timestamp, tuple(e.timestamp for e in g), customer, purchase)
            )
    return signatures


def session_signatures(sessions):
    return {
        (
            s.client_token,
            s.start_time,
            tuple(e.timestamp for e in events_of(s)),
            s.customer_id,
            s.purchase,
        )
        for s in sessions
    }


def random_event_stream(rng, max_events=500):
    """A random multi-client stream with gaps straddling the 30-minute rule."""
    n_clients = int(rng.integers(1, 6))
    events = []
    for c in range(n_clients):
        token = f"T{c}"
        n = int(rng.integers(1, max(2, max_events // n_clients)))
        ts = int(rng.integers(0, 10**9))
        customer = f"u{c}" if rng.random() < 0.5 else None
        for _ in range(n):
            action = ["PageView", "Query", "AddToBasket", "Purchase"][int(rng.integers(4))]
            events.append(
                mk_event(
                    ts,
                    token=token,
                    customer=customer if rng.random() < 0.3 else None,
                    action=action,
                    page="search" if action == "Query" else "home",
                    query="q1" if action == "Query" else None,
                )
            )
            # gaps concentrated around the boundary: exactly 30 min sometimes
            choice = rng.random()
            if choice < 0.2:
                gap = IDLE_MS  # exactly at the boundary: stays in-session
            elif choice < 0.4:
                gap = IDLE_MS + 1  # just over: new session
            else:
                gap = int(rng.integers(1, 2 * IDLE_MS))
            ts += gap
    events.sort(key=lambda e: (e.timestamp, e.client_token))
    return events


def brute_force_prf(y_true, y_pred):
    tp = fp = fn = 0
    for t, p in zip(y_true, y_pred):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 1:
            fn += 1
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def reference_row(s, journey, step, setting, variant, ctx):
    """One session's feature row at one step, in column order, derived from
    the events without the library's encoders: page views and their dwells
    by an explicit scan, a two-pass population std, datetime for the CET
    start, and a recount of the journey's sessions that ended before s.
    Sequence scores come from markov.class_score, which test_markov checks
    against brute_force_chain_probs."""
    dwells = []
    pages = []
    events = events_of(s)
    for i, e in enumerate(events):
        if e.action != "PageView":
            continue
        if len(pages) < step and i + 1 < len(events):
            dwells.append((events[i + 1].timestamp - e.timestamp) / 1000.0)
        pages.append(e.page_type)
    mean = sum(dwells) / len(dwells) if dwells else 0.0
    std = math.sqrt(sum((d - mean) ** 2 for d in dwells) / len(dwells)) if dwells else 0.0
    page_score = markov.class_score(ctx.page_chain_purchase, ctx.page_chain_nonpurchase, pages[:step])
    row = [mean, std, page_score, float(step), float(len(dwells))]
    if variant == "extended":
        start = datetime.fromtimestamp(s.start_time / 1000, tz=CET)
        row += [1.0 if s.channel == c else 0.0 for c in CHANNELS]
        row.append(float(start.hour))
        row += [1.0 if start.weekday() == w else 0.0 for w in range(7)]
        row += [1.0 if s.device == d else 0.0 for d in DEVICES]
        row.append(ctx.device_conversion.get(s.device, ctx.global_conversion))
    if setting == "identified":
        prior = sorted(
            (p for p in journey if events_of(p)[-1].timestamp < s.start_time),
            key=lambda p: (p.start_time, p.session_id),
        )
        orders = 0
        last_purchase_end = None
        for p in prior:
            if p.purchase:
                orders += 1
                end = events_of(p)[-1].timestamp
                if last_purchase_end is None or end > last_purchase_end:
                    last_purchase_end = end
        days = -1.0 if last_purchase_end is None else (s.start_time - last_purchase_end) / DAY_MS
        devices = [p.device for p in prior]
        switches = 0
        for a, b in zip(devices, devices[1:]):
            if a != b:
                switches += 1
        history = [
            float(orders),
            days,
            float(len(prior)),
            float(len(set(devices))),
            markov.class_score(ctx.device_chain_purchase, ctx.device_chain_nonpurchase,
                               devices + [s.device]),
            switches / (len(devices) - 1) if len(devices) > 1 else 0.0,
        ]
        row += history if variant == "extended" else history[:2]
    return np.array(row)


def brute_force_chain_probs(sequences, alphabet, alpha):
    counts = {a: {b: 0 for b in alphabet} for a in alphabet}
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            counts[a][b] += 1
    probs = {}
    k = len(alphabet)
    for a in alphabet:
        row_total = sum(counts[a].values())
        probs[a] = {b: (counts[a][b] + alpha) / (row_total + alpha * k) for b in alphabet}
    return probs


def sample_chain_sequences(rng, chain_dict, initial, length, count, page_types):
    """Draw symbol sequences from a dict-of-dicts transition chain."""
    out = []
    init_keys = list(initial.keys())
    init_p = np.array([initial[k] for k in init_keys])
    init_p = init_p / init_p.sum()
    rows = {
        src: (list(row.keys()), np.array(list(row.values())) / sum(row.values()))
        for src, row in chain_dict.items()
    }
    for _ in range(count):
        cur = init_keys[int(rng.choice(len(init_keys), p=init_p))]
        seq = [cur]
        for _ in range(length - 1):
            keys, p = rows[cur]
            cur = keys[int(rng.choice(len(keys), p=p))]
            seq.append(cur)
        out.append(seq)
    return out


# --- in-memory corpus ----------------------------------------------------------

def parsed_events(log):
    """A generated event log's RawEvents in file order, parsed from the
    lines generate writes to events.tsv."""
    return map(parse_event_line, log.lines())


def generate_sessions(cfg: GenConfig):
    """Generate and sessionize in memory; returns (sessions, truth), truth
    as the dicts truth.jsonl holds."""
    log = generate_events(cfg)
    return sessionize(parsed_events(log)), [dict(zip(TRUTH_FIELDS, row)) for row in log.sessions]


# --- generator presets ---------------------------------------------------------

def _strong_chain(successors: dict) -> dict:
    """Row-stochastic page chain: 0.9 on one successor, the rest spread evenly."""
    chain = {}
    for src in PAGE_TYPES:
        row = {p: 0.1 / (len(PAGE_TYPES) - 1) for p in PAGE_TYPES}
        row.pop(successors[src])
        row[successors[src]] = 0.9
        chain[src] = row
    return chain


# disjoint high-probability chains that plant_signal("dynamic", ...) moves towards
_DYNAMIC_PURCHASE_TARGET = _strong_chain(
    {
        "home": "search", "search": "product", "product": "basket",
        "basket": "checkout", "checkout": "product", "category": "product",
        "account": "home", "other": "search",
    }
)
_DYNAMIC_NONPURCHASE_TARGET = _strong_chain(
    {
        "home": "category", "search": "home", "product": "category",
        "basket": "home", "checkout": "home", "category": "home",
        "account": "other", "other": "account",
    }
)

_STATIC_PURCHASE_CHANNELS = {"Direct": 0.05, "Paid": 0.70, "Organic": 0.25, "Other": 0.0}
_STATIC_NONPURCHASE_CHANNELS = {"Direct": 0.90, "Paid": 0.0, "Organic": 0.0, "Other": 0.10}
_STATIC_PURCHASE_WEEKDAYS = (0.04, 0.25, 0.21, 0.30, 0.08, 0.06, 0.06)
_STATIC_NONPURCHASE_WEEKDAYS = (0.24, 0.04, 0.22, 0.04, 0.16, 0.15, 0.15)

# Example transition chain with a pronounced TV-to-PC switching pattern.
DEVICE_TRANSITIONS_EXAMPLE = {
    "PC": {"PC": 0.70, "Smartphone": 0.20, "Tablet": 0.08, "GameConsole": 0.01, "TV": 0.01},
    "Smartphone": {"PC": 0.22, "Smartphone": 0.65, "Tablet": 0.10, "GameConsole": 0.02, "TV": 0.01},
    "Tablet": {"PC": 0.25, "Smartphone": 0.15, "Tablet": 0.58, "GameConsole": 0.01, "TV": 0.01},
    "GameConsole": {"PC": 0.30, "Smartphone": 0.32, "Tablet": 0.03, "GameConsole": 0.33, "TV": 0.02},
    "TV": {"PC": 0.4375, "Smartphone": 0.25, "Tablet": 0.0625, "GameConsole": 0.0625, "TV": 0.1875},
}


def _lerp_dict(a: dict, b: dict, s: float) -> dict:
    keys = list(a.keys())
    out = {k: (1 - s) * a[k] + s * b.get(k, 0.0) for k in keys}
    return _normalized(out)


def _lerp_tuple(a, b, s: float) -> tuple:
    out = [(1 - s) * x + s * y for x, y in zip(a, b)]
    total = sum(out)
    return tuple(v / total for v in out)


def plant_signal(cfg: GenConfig, kind: str, strength: float) -> GenConfig:
    """Correlate labels with static, dynamic or history structure.

    Effect size is monotone in strength; strength 0 returns an equal config.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError("strength must be in [0, 1]")
    if strength == 0.0:
        return replace(cfg)
    if kind == "static":
        return replace(
            cfg,
            purchase_channel_mix=_lerp_dict(cfg.purchase_channel_mix, _STATIC_PURCHASE_CHANNELS, strength),
            nonpurchase_channel_mix=_lerp_dict(cfg.nonpurchase_channel_mix, _STATIC_NONPURCHASE_CHANNELS, strength),
            purchase_weekdays=_lerp_tuple(cfg.purchase_weekdays, _STATIC_PURCHASE_WEEKDAYS, strength),
            nonpurchase_weekdays=_lerp_tuple(cfg.nonpurchase_weekdays, _STATIC_NONPURCHASE_WEEKDAYS, strength),
        )
    if kind == "dynamic":
        purchase_chain = {
            src: _lerp_dict(cfg.purchase_page_chain[src], _DYNAMIC_PURCHASE_TARGET[src], strength)
            for src in PAGE_TYPES
        }
        nonpurchase_chain = {
            src: _lerp_dict(cfg.nonpurchase_page_chain[src], _DYNAMIC_NONPURCHASE_TARGET[src], strength)
            for src in PAGE_TYPES
        }
        return replace(
            cfg,
            purchase_page_chain=purchase_chain,
            nonpurchase_page_chain=nonpurchase_chain,
            purchase_dwell_mu=cfg.purchase_dwell_mu + 0.8 * strength,
        )
    if kind == "history":
        return replace(
            cfg,
            history_seed_sessions=True,
            purchase_rate=0.4 + 0.6 * strength,
        )
    raise ValueError(f"unknown signal kind {kind!r}")


# --- report readers ------------------------------------------------------------

def rows_by_key(report) -> dict:
    """A ProtocolReport's rows keyed by (model, setting, variant, step)."""
    return {(r.model, r.setting, r.variant, r.step): r for r in report.rows}


def static_mask(setting: str, variant: str) -> np.ndarray:
    return np.array([name not in DYNAMIC_FEATURES for name in feature_names(setting, variant)])


def static_share(report, model: str, setting: str, step: int) -> float:
    """Summed importance of static features (extended variant)."""
    r = rows_by_key(report)[model, setting, "extended", step]
    mask = static_mask(setting, "extended")
    total = float(r.importance.sum())
    if total <= 0:
        return 1.0
    # complement form: zero dynamic importance gives exactly 1.0
    dynamic = float(r.importance[~mask].sum())
    return 1.0 - dynamic / total


def static_share_curve(report, model: str, setting: str, steps=None) -> list[float]:
    steps = steps if steps is not None else sorted(
        {r.step for r in report.rows if r.model == model and r.setting == setting}
    )
    return [static_share(report, model, setting, step) for step in steps]


def spearman_rank_correlation(xs, ys) -> float:
    """Spearman rho with average ranks for ties."""

    def ranks(values):
        arr = np.asarray(values, dtype=np.float64)
        order = np.argsort(arr, kind="stable")
        rk = np.empty(arr.size)
        rk[order] = np.arange(1, arr.size + 1)
        for v in np.unique(arr):
            mask = arr == v
            rk[mask] = rk[mask].mean()
        return rk

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0


# --- model oracles -------------------------------------------------------------

def mlp_loss_and_grad(params: dict, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray):
    """The MLP's weighted-mean cross-entropy and its gradients, built from
    the model's own _forward and _backward, for checks against finite
    differences. params holds w1 (d,h), b1 (h,), w2 (h,), b2 (scalar)."""
    sw = sample_weight / sample_weight.sum()
    h, p = MLPClassifier._forward(X, params["w1"], params["b1"], params["w2"], params["b2"])
    eps = 1e-12
    loss = -float(np.sum(sw * (y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))))
    gw1, gb1, gw2, gb2 = MLPClassifier._backward(X, h, sw * (p - y), params["w2"])
    return loss, {"w1": gw1, "b1": gb1, "w2": gw2, "b2": float(gb2)}


def grow_tree_reference(
    design: _BinnedDesign,
    rows: np.ndarray,
    response: np.ndarray,
    weights: np.ndarray,
    *,
    criterion: str,
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    feature_rng=None,
    max_features: int = 0,
):
    """One tree grown alone, level-wise: a per-tree loop kept as the oracle
    for the grouped grower. Returns the tree and each row's leaf id.

    criterion "gini" treats response as 0/1 labels and stores the weighted
    positive fraction in leaves; "mse" fits weighted means of the response.
    Gains are weighted impurity decreases, accumulated per feature as the
    importance vector.

    Each level's nodes are numbered consecutively after the previous level's,
    so the active nodes are the id range [lo, hi) and a row whose node id is
    below lo sits in a finished leaf.
    """
    codes = design.codes[rows]  # subset-relative copy; all row indices below are local
    bins = design.bins
    n_feat = design.n_features
    max_thr = bins - 1
    thr_ok = np.arange(max_thr) < design.n_thr[:, None]  # (n_feat, max_thr)
    r = response[rows]
    w = weights[rows]

    levels = []  # per level: (feature, threshold, left, right, value) arrays
    importance = np.zeros(n_feat)
    node_of_row = np.zeros(rows.size, dtype=np.int64)
    lo, hi = 0, 1

    for depth in range(max_depth + 1):
        n_active = hi - lo
        if n_active == 0:
            break
        live_rows = np.nonzero(node_of_row >= lo)[0]
        rs = node_of_row[live_rows] - lo
        lw = w[live_rows]
        lr_ = r[live_rows]
        lwr = lw * lr_

        sw = np.bincount(rs, weights=lw, minlength=n_active)
        swr = np.bincount(rs, weights=lwr, minlength=n_active)
        cnt = np.bincount(rs, minlength=n_active)
        value = swr / sw  # positive fraction (gini) or weighted mean (mse)
        if depth == max_depth or max_thr == 0:  # leaves only
            leaf = np.full(n_active, -1, dtype=np.int64)
            levels.append((leaf, np.zeros(n_active), leaf, leaf, value))
            break

        # splittable check: enough rows and impure
        if criterion == "gini":
            impure = (swr > 1e-12) & (sw - swr > 1e-12)
        else:
            swr2 = np.bincount(rs, weights=lwr * lr_, minlength=n_active)
            impure = (swr2 - swr * swr / np.maximum(sw, 1e-300)) > 1e-12
        splittable = (cnt >= min_samples_split) & impure

        # Only splittable nodes get histograms: one per (node, allowed
        # feature, bin), all from one bincount. Rows enter each bin in row
        # order, as a per-feature bincount would add them.
        cand = np.nonzero(splittable)[0]
        n_cand = cand.size
        slot = np.full(n_active, -1, dtype=np.int64)
        slot[cand] = np.arange(n_cand)
        cs = slot[rs]
        in_cand = cs >= 0
        cs = cs[in_cand]
        crows = live_rows[in_cand]
        if max_features and feature_rng is not None:
            keys = feature_rng.random((n_active, n_feat))  # drawn for every active node
            order = np.argsort(keys, axis=1, kind="stable")
            feats = np.sort(order[cand, :max_features], axis=1)  # ascending per node
            row_codes = np.take_along_axis(codes[crows], feats[cs], axis=1)
        else:
            feats = np.broadcast_to(np.arange(n_feat), (n_cand, n_feat))
            row_codes = codes[crows]
        m = feats.shape[1]
        key = (((cs * m)[:, None] + np.arange(m)) * bins + row_codes).ravel()
        size = n_cand * m * bins
        shape = (n_cand, m, bins)
        hw = np.bincount(key, weights=np.repeat(lw[in_cand], m), minlength=size).reshape(shape)
        hwr = np.bincount(key, weights=np.repeat(lwr[in_cand], m), minlength=size).reshape(shape)
        wl = np.cumsum(hw, axis=2)[:, :, :max_thr]
        wrl = np.cumsum(hwr, axis=2)[:, :, :max_thr]
        csw = sw[cand][:, None, None]
        cswr = swr[cand][:, None, None]
        wr_ = csw - wl
        wrr = cswr - wrl

        hn = np.bincount(key, minlength=size).reshape(shape)
        nl = np.cumsum(hn, axis=2)[:, :, :max_thr]
        nr = cnt[cand][:, None, None] - nl
        least = max(1, min_samples_leaf)
        valid = (nl >= least) & (nr >= least) & thr_ok[feats]
        with np.errstate(divide="ignore", invalid="ignore"):
            if criterion == "gini":
                parent = 2.0 * cswr * (csw - cswr) / csw
                child = 2.0 * wrl * (wl - wrl) / wl + 2.0 * wrr * (wr_ - wrr) / wr_
                gain = parent - child
            else:
                gain = wrl * wrl / wl + wrr * wrr / wr_ - cswr * cswr / csw
        gain = np.where(valid, gain, -np.inf).reshape(n_cand, m * max_thr)
        # first max in feature-major order: lowest feature, then lowest threshold
        best = np.argmax(gain, axis=1)
        cand_gain = gain[np.arange(n_cand), best]
        col, cand_bin = np.divmod(best, max_thr)
        best_gain = np.zeros(n_active)
        best_gain[cand] = cand_gain
        best_feat = np.zeros(n_active, dtype=np.int64)
        best_feat[cand] = feats[np.arange(n_cand), col]
        best_bin = np.zeros(n_active, dtype=np.int64)
        best_bin[cand] = cand_bin
        split = best_gain > 1e-12

        first = hi + 2 * (np.cumsum(split) - 1)  # left child id; right is first + 1
        feature = np.where(split, best_feat, -1)
        left = np.where(split, first, -1)
        right = np.where(split, first + 1, -1)
        threshold = np.where(split, design.thr_table[best_feat, best_bin], 0.0)
        levels.append((feature, threshold, left, right, value))
        np.add.at(importance, best_feat[split], best_gain[split])  # in node order

        has_split = split[rs]
        srows = live_rows[has_split]
        s_slot = rs[has_split]
        go_left = codes[srows, best_feat[s_slot]] <= best_bin[s_slot]
        node_of_row[srows] = np.where(go_left, left[s_slot], right[s_slot])
        lo, hi = hi, hi + 2 * int(split.sum())

    feature, threshold, left, right, value = (np.concatenate(a) for a in zip(*levels))
    tree = _Tree(
        feature.astype(np.int32),
        threshold,
        left.astype(np.int32),
        right.astype(np.int32),
        value,
        importance,
    )
    return tree, node_of_row


def rf_fit_reference(model, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray):
    """RandomForestClassifier.fit, one tree at a time with grow_tree_reference."""
    n, f = X.shape
    model.n_features = f
    design = _BinnedDesign(X, model.max_bins)
    max_features = max(1, int(np.sqrt(f)))
    model.trees = []
    total_importance = np.zeros(f)
    for t in range(model.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(model.seed, spawn_key=(t,)))
        boot = np.bincount(rng.integers(0, n, n), minlength=n)
        rows = np.nonzero(boot)[0]
        tree, _ = grow_tree_reference(
            design,
            rows,
            y.astype(np.float64),
            sample_weight * boot,
            criterion="gini",
            max_depth=model.max_depth,
            min_samples_split=model.min_samples_split,
            min_samples_leaf=model.min_samples_leaf,
            feature_rng=rng,
            max_features=max_features,
        )
        model.trees.append(tree)
        total_importance += tree.importance
    s = total_importance.sum()
    model.feature_importances_ = total_importance / s if s > 0 else total_importance
    return model


# --- fitted-state serializer ---------------------------------------------------

# attributes recomputed from the serialized ones, or reports about the fit
_DERIVED = frozenset(
    {"n_features_in_", "feature_importances_", "importance", "index", "probs", "_log_probs"}
)


def fitted_state(obj):
    """An object's fitted state as JSON-ready values: its attributes (slots
    for _Tree) keyed without a trailing "_", arrays and tuples as lists, and
    the _DERIVED attributes left out."""
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [fitted_state(v) for v in obj]
    if isinstance(obj, dict):
        return {k: fitted_state(v) for k, v in obj.items()}
    names = getattr(obj, "__slots__", None) or vars(obj)
    return {n.removesuffix("_"): fitted_state(getattr(obj, n)) for n in names if n not in _DERIVED}


def _compact(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def model_to_json(model) -> str:
    """A fitted model as versioned JSON text; the envelope keeps the fields
    whose bytes the golden digests pin."""
    return _compact({
        "version": 1,
        "kind": model.kind,
        "feature_names": None,
        "n_features_in": getattr(model, "n_features_in_", None),
        "params": fitted_state(model),
    })


def _capturing(fn, sink):
    def wrapped(*args, **kwargs):
        sink.append(fn(*args, **kwargs))
        return sink[-1]
    return wrapped


def fold_artifacts(sessions, cfg, setting: str = "anonymous", fold_index: int = 0) -> str:
    """One fold's fitted state (Markov chains, conversion table, scalers,
    models) as JSON text, for the leakage check.

    Runs the real evaluation._run_fold while the three names it fits through
    (fit_feature_context, Scaler.fit, fit_model) record what they return.
    Scalers are keyed step/variant and models step/variant/kind in loop
    order; a fold that fits anything less than one context, one scaler per
    (step, variant) and one model per (step, variant, kind) fails an assert,
    so the comparison can never be of empty captures.
    """
    sessions = list(sessions)
    pool, folds = evaluation._folds(sessions, setting, cfg)
    builder = evaluation.StepMatrixBuilder(pool, setting, cfg.steps)
    contexts, scalers, models = [], [], []
    saved = (evaluation.fit_feature_context, vars(evaluation.Scaler)["fit"], evaluation.fit_model)
    evaluation.fit_feature_context = _capturing(evaluation.fit_feature_context, contexts)
    evaluation.Scaler.fit = staticmethod(_capturing(evaluation.Scaler.fit, scalers))
    evaluation.fit_model = _capturing(evaluation.fit_model, models)
    try:
        evaluation._run_fold(evaluation.build_journeys(sessions), builder,
                             folds[fold_index], fold_index, cfg)
    finally:
        evaluation.fit_feature_context, evaluation.Scaler.fit, evaluation.fit_model = saved
    pairs = [f"{step}/{variant}" for step in cfg.steps for variant in cfg.variants]
    keys = [f"{pair}/{kind}" for pair in pairs for kind in cfg.models]
    assert len(contexts) == 1, f"captured {len(contexts)} feature contexts"
    assert len(scalers) == len(pairs), f"captured {len(scalers)} scalers for {pairs}"
    assert [m.kind for m in models] == list(cfg.models) * len(pairs), (
        f"captured models {[m.kind for m in models]} for {keys}"
    )
    return _compact({
        "context": fitted_state(contexts[0]),
        "scalers": dict(zip(pairs, map(fitted_state, scalers))),
        "models": dict(zip(keys, map(model_to_json, models))),
    })
