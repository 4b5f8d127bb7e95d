import math

import numpy as np
import pytest

from helpers import mk_event, mk_session
from shopstream.analytics import (
    channel_mix,
    conversion_rates,
    device_ownership,
    query_stats,
    session_length_ccdf,
    session_start_cet,
    standardize_rates,
    temporal_profile,
    transition_matrix,
)
from shopstream.ingest import DEVICES
from shopstream.sessions import build_journeys

MS = 1000
HOUR_MS = 3_600_000
DAY_MS = 86_400_000


def _session(device="PC", channel="Direct", purchase=False, n_events=2, start=0,
             customer=None, queries=0, sid=None, query_texts=None):
    events = []
    t = start
    for i in range(n_events - queries):
        events.append(mk_event(t, customer=customer, device=device, channel=channel))
        t += 10 * MS
    for i in range(queries):
        text = query_texts[i] if query_texts else f"q{i}"
        events.append(mk_event(t, customer=customer, device=device, channel=channel,
                               action="Query", page="search", query=text))
        t += 10 * MS
    if purchase:
        events.append(mk_event(t, customer=customer, device=device, channel=channel,
                               action="Purchase", page="checkout"))
    return mk_session(events, session_id=sid or f"s{start}", customer=customer,
                      device=device, channel=channel)


def test_standardize_worked_example():
    z = standardize_rates({"a": 0.5, "b": 0.2, "c": 0.3})
    assert z["a"] == pytest.approx(1.34, abs=0.01)
    assert z["b"] == pytest.approx(-1.07, abs=0.01)
    assert z["c"] == pytest.approx(-0.27, abs=0.01)


def test_standardize_mean_zero_std_one():
    rng = np.random.default_rng(4)
    rates = {f"k{i}": float(r) for i, r in enumerate(rng.random(6))}
    z = list(standardize_rates(rates).values())
    assert np.mean(z) == pytest.approx(0.0, abs=1e-9)
    assert np.std(z) == pytest.approx(1.0, abs=1e-9)


def test_standardize_degenerate_is_nan():
    z = standardize_rates({"a": 0.5, "b": 0.5})
    assert all(math.isnan(v) for v in z.values())


def test_conversion_rates_simple():
    sessions = [_session(purchase=(i < 3), start=i * 10**7, sid=f"p{i}") for i in range(10)]
    rows = conversion_rates(sessions)
    assert {r.key: r.conversion_rate for r in rows}["PC"] == pytest.approx(0.3)
    assert rows[0].purchase_sessions == 3
    assert rows[0].total_sessions == 10
    assert all(math.isnan(r.standardized_rate) for r in rows)  # single key


def test_conversion_rates_standardized_across_devices():
    sessions = []
    for device, (buys, total) in {"PC": (5, 10), "Smartphone": (2, 10), "Tablet": (3, 10)}.items():
        for i in range(total):
            sessions.append(_session(device=device, purchase=(i < buys), start=len(sessions) * 10**7))
    rows = conversion_rates(sessions)
    standardized = {r.key: r.standardized_rate for r in rows}
    assert standardized["PC"] == pytest.approx(1.34, abs=0.01)
    assert standardized["Smartphone"] == pytest.approx(-1.07, abs=0.01)
    assert standardized["Tablet"] == pytest.approx(-0.27, abs=0.01)
    assert not any(math.isnan(r.standardized_rate) for r in rows)


def test_ccdf_hand_example():
    sessions = []
    for n, count in ((1, 1), (2, 2), (5, 1)):
        for _ in range(count):
            sessions.append(_session(n_events=n, start=len(sessions) * 10**7))
    ccdf = session_length_ccdf(sessions)[("PC", False)]
    assert ccdf.support == [1, 2, 5]
    assert ccdf.tail[0] == 1.0
    assert ccdf.tail[ccdf.support.index(2)] == pytest.approx(0.75)
    # non-increasing tail
    assert all(a >= b for a, b in zip(ccdf.tail, ccdf.tail[1:]))


def test_ccdf_all_equal_lengths():
    sessions = [_session(n_events=3, start=i * 10**7) for i in range(4)]
    ccdf = session_length_ccdf(sessions)[("PC", False)]
    assert ccdf.support == [3] and ccdf.tail == [1.0]


def test_ccdf_matches_brute_force():
    rng = np.random.default_rng(12)
    lengths = [int(n) for n in rng.integers(1, 30, size=100)]
    sessions = [_session(n_events=n, start=i * 10**7) for i, n in enumerate(lengths)]
    ccdf = session_length_ccdf(sessions)[("PC", False)]
    for x, tail in zip(ccdf.support, ccdf.tail):
        assert tail == pytest.approx(sum(1 for n in lengths if n >= x) / len(lengths))


def test_session_start_cet_conversion():
    # 1970-01-01 00:30 UTC = 01:30 CET, a Thursday
    s = _session(start=30 * 60 * MS)
    weekday, hour = session_start_cet(s)
    assert (weekday, hour) == (3, 1)


def test_temporal_profile_one_hot_weekday():
    # all sessions start on a Wednesday (1970-01-07)
    desired = 6 * DAY_MS + 10 * HOUR_MS
    sessions = [_session(start=desired + i * HOUR_MS // 4, sid=f"w{i}") for i in range(5)]
    profile = temporal_profile(sessions, "weekday")
    assert profile[False][2] == 1.0
    assert sum(profile[False]) == pytest.approx(1.0, abs=1e-9)


def test_temporal_profile_hour_histogram_matches_brute_force():
    rng = np.random.default_rng(9)
    sessions = []
    hours = []
    for i in range(200):
        h = int(rng.integers(24))
        hours.append(h)
        # build a UTC timestamp whose CET hour is h
        start = i * DAY_MS + h * HOUR_MS - HOUR_MS
        sessions.append(_session(start=start, sid=f"h{i}"))
    profile = temporal_profile(sessions, "hour")[False]
    for h in range(24):
        assert profile[h] == pytest.approx(hours.count(h) / len(hours))


def test_channel_mix_single_channel():
    sessions = [_session(channel="Paid", start=i * 10**7) for i in range(5)]
    mix = channel_mix(sessions)
    assert mix[False]["Paid"] == 1.0
    assert mix[False]["Direct"] == 0.0


def test_channel_mix_matches_tally():
    rng = np.random.default_rng(14)
    channels = ["Direct", "Paid", "Organic", "Other"]
    sessions = []
    tally = {True: {c: 0 for c in channels}, False: {c: 0 for c in channels}}
    for i in range(300):
        c = channels[int(rng.integers(4))]
        buy = bool(rng.random() < 0.3)
        tally[buy][c] += 1
        sessions.append(_session(channel=c, purchase=buy, start=i * 10**7))
    mix = channel_mix(sessions)
    for label in (True, False):
        total = sum(tally[label].values())
        for c in channels:
            assert mix[label][c] == pytest.approx(tally[label][c] / total)
        assert sum(mix[label].values()) == pytest.approx(1.0, abs=1e-9)


def test_device_ownership_single_device_users():
    journeys = build_journeys([
        _session(customer="u1", start=0, sid="a"),
        _session(customer="u1", start=10**9, sid="b"),
        _session(customer="u2", purchase=True, start=0, sid="c"),
    ])
    own = device_ownership(journeys)
    assert own["purchasers"]["multi_share"] == 0.0
    assert own["non_purchasers"]["multi_share"] == 0.0
    assert own["purchasers"]["fractions"]["1"] == 1.0


def test_device_ownership_matches_brute_force():
    rng = np.random.default_rng(15)
    devices = ["PC", "Smartphone", "Tablet", "TV"]
    sessions = []
    per_customer = {}
    for c in range(60):
        cid = f"u{c}"
        n = int(rng.integers(1, 6))
        per_customer[cid] = {"devices": set(), "purchase": False}
        for k in range(n):
            dev = devices[int(rng.integers(4))]
            buy = bool(rng.random() < 0.2)
            per_customer[cid]["devices"].add(dev)
            per_customer[cid]["purchase"] |= buy
            sessions.append(
                _session(device=dev, customer=cid, purchase=buy, start=(c * 10 + k) * 10**8,
                         sid=f"{cid}:{k}")
            )
    own = device_ownership(build_journeys(sessions))
    for group, flag in (("purchasers", True), ("non_purchasers", False)):
        members = [v for v in per_customer.values() if v["purchase"] is flag]
        if not members:
            continue
        expected_multi = sum(1 for m in members if len(m["devices"]) > 1) / len(members)
        assert own[group]["multi_share"] == pytest.approx(expected_multi)
        assert own[group]["customers"] == len(members)


def test_query_stats_no_queries():
    sessions = [_session(start=i * 10**7) for i in range(3)]
    qs = query_stats(sessions)
    assert qs["rows"][("PC", False)]["queries_per_session"] == 0.0
    assert qs["rows"][("PC", False)]["unique_queries"] == 0
    assert qs["avg"][False] == 0.0


def test_query_stats_counts_and_dedup():
    sessions = [
        _session(queries=2, n_events=4, query_texts=["shoes", "boots"], start=0, sid="q1"),
        _session(queries=1, n_events=3, query_texts=["shoes"], start=10**9, sid="q2"),
        _session(device="Tablet", purchase=True, queries=3, n_events=5,
                 query_texts=["tv", "tv", "hdmi"], start=2 * 10**9, sid="q3"),
    ]
    qs = query_stats(sessions)
    assert qs["rows"][("PC", False)]["queries_per_session"] == pytest.approx(1.5)
    assert qs["rows"][("PC", False)]["unique_queries"] == 2  # shoes, boots
    assert qs["rows"][("Tablet", True)]["unique_queries"] == 2  # tv, hdmi
    assert qs["avg"][True] == pytest.approx(3.0)
    assert qs["avg"][False] == pytest.approx(1.5)


def test_reports_are_order_insensitive():
    rng = np.random.default_rng(16)
    sessions = [
        _session(device=["PC", "Smartphone"][int(rng.integers(2))],
                 channel=["Direct", "Paid"][int(rng.integers(2))],
                 purchase=bool(rng.random() < 0.4), start=i * 10**7, sid=f"o{i}")
        for i in range(50)
    ]
    shuffled = list(sessions)
    rng.shuffle(shuffled)
    a = conversion_rates(sessions)
    b = conversion_rates(shuffled)
    assert [(r.key, r.conversion_rate) for r in a] == [(r.key, r.conversion_rate) for r in b]
    assert temporal_profile(sessions, "hour") == temporal_profile(shuffled, "hour")


def _mini_journey(customer, devices, purchase_mask):
    sessions = []
    for i, (dev, buy) in enumerate(zip(devices, purchase_mask)):
        start = i * 10**8
        events = [
            mk_event(start, token=customer, customer=customer, device=dev),
            mk_event(start + 1000, token=customer, customer=customer, device=dev,
                     action="Purchase" if buy else "PageView",
                     page="checkout" if buy else "home"),
        ]
        sessions.append(mk_session(events, session_id=f"{customer}:{i}", customer=customer))
    return sessions


def test_transition_matrix_degenerate_support():
    journeys = {
        "u1": _mini_journey("u1", ["TV", "PC"], [False, True]),
        "u2": _mini_journey("u2", ["TV", "PC"], [False, True]),
    }
    matrix, support = transition_matrix(journeys)
    tv, pc = 4, 0
    assert matrix[tv][pc] == 1.0
    assert support[tv] == 2
    # rows without support are undefined, not uniform
    assert np.isnan(matrix[1]).all()


def test_transition_matrix_matches_brute_force():
    rng = np.random.default_rng(31)
    devices = ["PC", "Smartphone", "Tablet"]
    journeys = {}
    for c in range(40):
        n = int(rng.integers(2, 8))
        devs = [devices[int(i)] for i in rng.integers(0, 3, size=n)]
        buys = [bool(rng.random() < 0.4) for _ in range(n)]
        journeys[f"u{c}"] = _mini_journey(f"u{c}", devs, buys)
    matrix, support = transition_matrix(journeys)
    counts = {(a, b): 0 for a in DEVICES for b in DEVICES}
    for j in journeys.values():
        for prev, nxt in zip(j, j[1:]):
            if nxt.purchase:
                counts[(prev.device, nxt.device)] += 1
    for i, a in enumerate(DEVICES):
        row_total = sum(counts[(a, b)] for b in DEVICES)
        assert support[i] == row_total
        for k, b in enumerate(DEVICES):
            if row_total:
                assert matrix[i][k] == pytest.approx(counts[(a, b)] / row_total)
            else:
                assert math.isnan(matrix[i][k])
