import numpy as np
import pytest

from helpers import MS, events_of, generate_sessions, mk_event, mk_session, pageview_session
from shopstream.features import StepMatrixBuilder, feature_names, fit_feature_context
from shopstream.ingest import ACTIONS, PAGE_TYPES
from shopstream.sessions import (
    build_journeys,
    dwell_times,
    history_snapshot,
    read_sessions,
    session_from_json,
    session_to_json,
    write_sessions,
)
from shopstream.synthgen import GenConfig

DAY_MS = 86_400_000


def test_dwell_times_basic():
    s = mk_session([
        mk_event(0),
        mk_event(30 * MS),
        mk_event(45 * MS, action="Query", page="search", query="q"),
    ])
    assert dwell_times(s) == [30.0, 15.0]


def test_dwell_times_single_page_view():
    s = mk_session([mk_event(0)])
    assert dwell_times(s) == []


def test_dwell_times_matches_pairwise_differences():
    rng = np.random.default_rng(17)
    times = np.cumsum(rng.integers(1, 60, size=10)) * MS
    actions = ["PageView"] * 6 + ["Query", "AddToBasket", "PageView", "PageView"]
    rng.shuffle(actions)
    events = [
        mk_event(t, action=a, page="search" if a == "Query" else "home",
                 query="q" if a == "Query" else None)
        for t, a in zip(times, actions)
    ]
    s = mk_session(events)
    expected = []
    for i in range(len(events) - 1):
        if events[i].action == "PageView":
            expected.append((events[i + 1].timestamp - events[i].timestamp) / 1000.0)
    assert dwell_times(s) == expected


def _dwell_columns(s, step):
    """(dwell_mean, dwell_std, n_pages, dwell_count) of s at one step, as the
    protocol's feature builder encodes them."""
    builder = StepMatrixBuilder([s], "anonymous", [step])
    fold = builder.fold([0], {}, fit_feature_context(builder, [0], {}))
    row = dict(zip(feature_names("anonymous", "baseline"), builder.matrix(step, "baseline", fold)[0][0]))
    return [row[n] for n in ("dwell_mean", "dwell_std", "n_pages", "dwell_count")]


def test_dwell_stats_hand_example():
    s = mk_session([
        mk_event(0),
        mk_event(30 * MS),
        mk_event(45 * MS, action="Query", page="search", query="q"),
    ])
    mean, std, n_pages, count = _dwell_columns(s, 2)
    assert mean == pytest.approx(22.5)
    assert std == pytest.approx(7.5)
    assert n_pages == count == 2


def test_dwell_stats_step_zero_sentinel():
    s = pageview_session([0, 30])
    assert _dwell_columns(s, 0) == [0.0, 0.0, 0.0, 0.0]


def test_dwell_stats_single_sample():
    s = pageview_session([0, 30])
    mean, std, _, count = _dwell_columns(s, 1)
    assert mean == pytest.approx(30.0) and std == 0.0 and count == 1


def test_dwell_stats_expanding_window_consistency():
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.integers(1, 90, size=12)).tolist()
    s = pageview_session(times)
    dwells = dwell_times(s)
    for k in range(s.n_page_views + 1):
        window = dwells[:k]
        mean, std, n_pages, count = _dwell_columns(s, k)
        assert n_pages == k and count == len(window)
        if window:
            assert mean == pytest.approx(np.mean(window))
            assert std == pytest.approx(np.std(window))
        else:
            assert (mean, std) == (0.0, 0.0)


def _journey(devices, customer="u1", purchases=(), day_starts=None):
    sessions = []
    for i, dev in enumerate(devices):
        start = (day_starts[i] if day_starts else i) * DAY_MS
        sessions.append(
            mk_session(
                [mk_event(start, customer=customer, device=dev),
                 mk_event(start + 60 * MS, customer=customer, device=dev,
                          action="Purchase" if i in purchases else "PageView",
                          page="checkout" if i in purchases else "home")],
                session_id=f"{customer}-{i}",
                customer=customer,
            )
        )
    return sessions


def _switch_probability(j):
    """The journey's device switch probability after its last session."""
    return history_snapshot(j, j[-1].end_time + 1).switch_probability


def test_device_switches_counts_pairs():
    # pairs (PC, PC) and (PC, Smartphone): one switch in two
    j = _journey(["PC", "PC", "Smartphone"])
    assert _switch_probability(j) == pytest.approx(0.5)


def test_device_switches_single_session():
    j = _journey(["PC"])
    assert _switch_probability(j) == 0.0


def test_device_switches_matches_brute_force():
    rng = np.random.default_rng(8)
    devices = [str(d) for d in rng.choice(["PC", "Smartphone", "Tablet"], size=50)]
    j = _journey(devices)
    expected = sum(1 for a, b in zip(devices, devices[1:]) if a != b) / 49
    assert _switch_probability(j) == pytest.approx(expected)
    # alternating two-device journey switches every time
    j2 = _journey(["PC", "TV"] * 10)
    assert _switch_probability(j2) == 1.0


def test_history_snapshot_counts():
    j = _journey(
        ["PC", "PC", "Tablet", "PC", "PC", "Tablet", "PC"],
        purchases=(2, 4),
        day_starts=[0, 1, 2, 5, 9, 10, 11],
    )
    at = 12 * DAY_MS + 1
    hist = history_snapshot(j, at)
    assert hist.orders == 2
    assert hist.n_sessions == 7
    assert hist.n_devices == 2
    # most recent purchase ended on day 9 + 60 s
    expected_days = (at - (9 * DAY_MS + 60 * MS)) / DAY_MS
    assert hist.days_since_last_purchase == pytest.approx(expected_days)
    assert hist.device_sequence == ["PC", "PC", "Tablet", "PC", "PC", "Tablet", "PC"]


def test_history_snapshot_no_purchase_sentinel():
    j = _journey(["PC", "PC"])
    hist = history_snapshot(j, 10 * DAY_MS)
    assert hist.days_since_last_purchase == -1.0
    assert hist.orders == 0


def test_history_snapshot_strictly_before():
    j = _journey(["PC", "Tablet", "TV"], purchases=(2,))
    # timestamp right at the second session's start: only session 0 ended before
    hist = history_snapshot(j, 1 * DAY_MS)
    assert hist.n_sessions == 1 and hist.orders == 0
    # appending later sessions must not change the snapshot (no leakage)
    extended = j + _journey(["TV"], day_starts=[100])
    assert history_snapshot(extended, 1 * DAY_MS) == hist


def test_history_snapshot_missing_journey():
    hist = history_snapshot(None, 123)
    assert hist == (0, -1.0, 0, 0, [], 0.0)


def test_history_snapshot_matches_recount():
    rng = np.random.default_rng(21)
    devices = [str(d) for d in rng.choice(["PC", "Smartphone", "Tablet"], size=20)]
    purchases = tuple(int(i) for i in rng.choice(20, size=5, replace=False))
    j = _journey(devices, purchases=purchases, day_starts=list(range(20)))
    at = 10 * DAY_MS + 30 * MS  # mid-window cut
    hist = history_snapshot(j, at)
    prior = [s for s in j if events_of(s)[-1].timestamp < at]
    assert hist.n_sessions == len(prior)
    assert hist.orders == sum(1 for s in prior if s.purchase)
    assert hist.n_devices == len({s.device for s in prior})
    switches = sum(1 for a, b in zip(prior, prior[1:]) if a.device != b.device)
    expected_prob = switches / (len(prior) - 1) if len(prior) > 1 else 0.0
    assert hist.switch_probability == pytest.approx(expected_prob)


def test_journey_gaps_and_build():
    s1 = pageview_session([0, 60], session_id="a", customer="u1")
    s2 = pageview_session([4000, 4100], session_id="b", customer="u1")
    s3 = pageview_session([100, 200], session_id="c", customer="u2")
    anon = pageview_session([5, 10], session_id="d")
    journeys = build_journeys([s2, s1, s3, anon])
    assert set(journeys) == {"u1", "u2"}
    j = journeys["u1"]
    assert [s.session_id for s in j] == ["a", "b"]


def test_session_json_round_trip(tmp_path):
    s = mk_session(
        [
            mk_event(0, customer="u1", device="Tablet", channel="Paid"),
            mk_event(5000, customer="u1", device="Tablet", channel="Paid",
                     action="Query", page="search", query="shoes"),
            mk_event(9000, customer="u1", device="Tablet", channel="Paid",
                     action="Purchase", page="checkout", price=1999),
        ],
        session_id="sx",
        customer="u1",
    )
    back = session_from_json(session_to_json(s))
    assert back.session_id == s.session_id
    assert back.customer_id == "u1"
    assert back.purchase
    assert [e.timestamp for e in events_of(back)] == [e.timestamp for e in events_of(s)]
    assert events_of(back)[1].query_text == "shoes"
    assert events_of(back)[2].price == 1999

    path = tmp_path / "sessions.jsonl"
    write_sessions(path, [s, s])
    loaded = read_sessions(path)
    assert len(loaded) == 2 and loaded[0].session_id == "sx"


def test_ingested_sessions_round_trip_through_json():
    # late logins included: a session's customer is that of its first
    # logged-in event, which the record stores once
    sessions, _ = generate_sessions(GenConfig(seed=7, n_customers=300))
    for s in sessions:
        assert session_from_json(session_to_json(s)) == s, s.session_id


def test_read_sessions_shares_alphabet_strings(tmp_path):
    events = [mk_event(0), mk_event(5000, action="Query", page="search", query="shoes"),
              mk_event(9000, action="Purchase", page="checkout", price=1999)]
    path = tmp_path / "sessions.jsonl"
    write_sessions(path, [mk_session(events)] * 2)
    for s in read_sessions(path):
        for e in events_of(s):
            assert e.action is ACTIONS[ACTIONS.index(e.action)]
            assert e.page_type is PAGE_TYPES[PAGE_TYPES.index(e.page_type)]
