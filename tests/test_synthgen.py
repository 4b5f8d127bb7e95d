import bisect
import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    DEVICE_TRANSITIONS_EXAMPLE,
    event_to_tsv,
    events_of,
    generate_sessions,
    parsed_events,
    plant_signal,
    sample_chain_sequences,
)
from shopstream import markov
from shopstream.analytics import transition_matrix
from shopstream.ingest import DEVICES, PAGE_TYPES, parse_event_line
from shopstream.sessions import build_journeys, history_snapshot
from shopstream.synthgen import (
    GenConfig,
    INITIAL_PAGE_DIST,
    InvalidConfig,
    NONPURCHASE_CHANNEL_MIX,
    PURCHASE_CHANNEL_MIX,
    _EventLog,
    _Sampler,
    _compile_samplers,
    generate,
    generate_events,
)


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class _FixedRng:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def _default_samplers():
    samplers = []
    for entry in _compile_samplers(GenConfig()).values():
        samplers += entry.values() if isinstance(entry, dict) else [entry] if entry else []
    assert len(samplers) == 25
    return samplers


def test_sampler_picks_searchsorted_index():
    """_Sampler.draw bisects a list; it must pick np.searchsorted's
    side="right" index at every boundary and on both sides of it."""
    for sampler in _default_samplers():
        cum = np.asarray(sampler.cum)
        probes = [0.0, *cum, *np.nextafter(cum, 0.0), *np.nextafter(cum, 2.0)]
        for x in probes:
            i = int(np.searchsorted(cum, x, side="right"))
            assert bisect.bisect_right(sampler.cum, x) == i
            if i < len(sampler.keys):
                assert sampler.draw(_FixedRng(x)) == sampler.keys[i]


def test_sampler_top_draw_picks_last_key():
    """The largest double below 1.0 draws the last key. Some default
    page-chain rows sum to less than 1.0 in floating point; pinning their
    last bound to 1.0 moves no other bound."""
    for sampler in _default_samplers():
        assert sampler.draw(_FixedRng(1 - 2**-53)) == sampler.keys[-1]
    cfg = GenConfig()
    rounded_low = 0
    for row in (*cfg.purchase_page_chain.values(), *cfg.nonpurchase_page_chain.values()):
        probs = np.array([row[k] for k in PAGE_TYPES if row.get(k, 0.0) > 0.0])
        unpinned = np.cumsum(probs / probs.sum())
        cum = _Sampler(row, PAGE_TYPES).cum
        assert cum == [*unpinned[:-1].tolist(), 1.0]
        rounded_low += unpinned[-1] < 1.0
    assert rounded_low > 0


def test_events_sorted_by_timestamp_then_token():
    log = generate_events(GenConfig(seed=5, n_customers=80))
    keys = [(e.timestamp, e.client_token) for e in parsed_events(log)]
    assert keys == sorted(keys)


def test_event_log_order_is_timestamp_then_token_string():
    """One stable lexsort on (timestamp, token rank) is the order of a sort
    by (timestamp, token): ranks follow string order, so "c10d0" comes
    before "c2d0", and ties on both keep generation order."""
    log = _EventLog()
    tokens = ["c2d0", "c10d0", "c2d1", "c10d0"]
    log.sessions = [(t, None, "PC", "Direct", False, 0, 0, 0, False) for t in tokens]
    events = [(500, 0), (500, 1), (500, 2), (100, 2), (500, 3), (100, 0), (300, 1), (100, 1), (300, 3)]
    for ts, s in events:
        log.append(ts, s, 0, -1, False)
    log.sort()
    want = sorted(range(len(events)), key=lambda i: (events[i][0], tokens[events[i][1]]))
    assert log.order.tolist() == want
    assert [(e.timestamp, e.client_token) for e in parsed_events(log)] == [
        (events[i][0], tokens[events[i][1]]) for i in want
    ]


def test_events_tsv_lines_match_field_by_field_oracle(tmp_path):
    res = generate(GenConfig(seed=3, n_customers=60), tmp_path)
    with open(res["events_path"], encoding="utf-8") as fh:
        lines = fh.readlines()
    assert len(lines) == res["n_events"] > 0
    for line in lines:
        assert event_to_tsv(parse_event_line(line)) + "\n" == line


def test_generate_peak_memory_per_event(tmp_path):
    """Events are held as columns until the sorted write, not as one tuple
    per event: the traced peak stays well under a RawEvent's cost."""
    tracemalloc.start()
    try:
        res = generate(GenConfig(n_customers=300, seed=7), tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / res["n_events"] < 145


def test_determinism_byte_identical(tmp_path):
    cfg = GenConfig(seed=99, n_customers=120)
    a = generate(cfg, tmp_path / "a")
    b = generate(cfg, tmp_path / "b")
    assert _sha(a["events_path"]) == _sha(b["events_path"])
    assert _sha(a["truth_path"]) == _sha(b["truth_path"])
    c = generate(GenConfig(seed=100, n_customers=120), tmp_path / "c")
    assert _sha(a["events_path"]) != _sha(c["events_path"])


def test_empty_config(tmp_path):
    res = generate(GenConfig(seed=1, n_customers=0), tmp_path)
    assert res["n_events"] == 0 and res["n_sessions"] == 0
    assert open(res["events_path"]).read() == ""


def test_invalid_config_names_key():
    with pytest.raises(InvalidConfig) as err:
        GenConfig(purchase_channel_mix={"Direct": 0.5, "Paid": 0.4})
    assert "purchase_channel_mix" in str(err.value)

    with pytest.raises(InvalidConfig, match="anonymous_share"):
        GenConfig(anonymous_share=1.5)
    with pytest.raises(InvalidConfig, match="min_session_length"):
        GenConfig(min_session_length=1)
    with pytest.raises(InvalidConfig, match="purchase_query_rates"):
        GenConfig(purchase_query_rates={"PC": -1.0})
    # wrongly typed values the CLI's JSON type check would catch
    with pytest.raises(InvalidConfig, match="purchase_weekdays"):
        GenConfig(purchase_weekdays={i: 1 / 7 for i in range(7)})
    with pytest.raises(InvalidConfig, match="purchase_channel_mix"):
        GenConfig(purchase_channel_mix=[0.25] * 4)
    with pytest.raises(InvalidConfig, match="nonpurchase_query_rates"):
        GenConfig(nonpurchase_query_rates=["PC"])
    with pytest.raises(InvalidConfig, match="history_seed_sessions"):
        GenConfig(history_seed_sessions="no")


def test_built_config_mappings_are_read_only():
    g = GenConfig(n_customers=5, device_transitions={d: {d: 1.0} for d in DEVICES})
    with pytest.raises(TypeError):
        g.purchase_channel_mix["Direct"] = 5.0
    with pytest.raises(TypeError):
        g.purchase_page_chain["home"]["home"] = 1.0
    with pytest.raises(TypeError):
        g.device_transitions["PC"]["TV"] = 1.0
    # a default is a read-only copy, so the module's own table cannot change
    with pytest.raises(TypeError):
        GenConfig().purchase_page_chain["home"]["home"] = 1.0
    assert replace(g, n_customers=6).purchase_page_chain == g.purchase_page_chain


def test_plant_signal_zero_is_noop():
    cfg = GenConfig(seed=5)
    for kind in ("static", "dynamic", "history"):
        assert plant_signal(cfg, kind, 0.0) == cfg


def test_plant_signal_static_monotone():
    cfg = GenConfig()
    weak = plant_signal(cfg, "static", 0.3)
    strong = plant_signal(cfg, "static", 0.9)
    base_paid = cfg.purchase_channel_mix["Paid"]
    assert base_paid < weak.purchase_channel_mix["Paid"] < strong.purchase_channel_mix["Paid"]
    for planted in (weak, strong):  # replace() builds, and so checks, each one
        assert sum(planted.purchase_channel_mix.values()) == pytest.approx(1.0, abs=1e-9)


def test_plant_signal_dynamic_chains_separate():
    cfg = plant_signal(GenConfig(), "dynamic", 1.0)
    rng = np.random.default_rng(17)
    train_p = sample_chain_sequences(rng, cfg.purchase_page_chain, INITIAL_PAGE_DIST, 20, 300, PAGE_TYPES)
    train_n = sample_chain_sequences(rng, cfg.nonpurchase_page_chain, INITIAL_PAGE_DIST, 20, 300, PAGE_TYPES)
    chain_p = markov.fit(train_p, PAGE_TYPES, 1.0)
    chain_n = markov.fit(train_n, PAGE_TYPES, 1.0)
    test_p = sample_chain_sequences(rng, cfg.purchase_page_chain, INITIAL_PAGE_DIST, 20, 200, PAGE_TYPES)
    test_n = sample_chain_sequences(rng, cfg.nonpurchase_page_chain, INITIAL_PAGE_DIST, 20, 200, PAGE_TYPES)
    scores = [markov.class_score(chain_p, chain_n, s) for s in test_p + test_n]
    labels = [1] * len(test_p) + [0] * len(test_n)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores)); ranks[order] = np.arange(1, len(scores) + 1)
    pos = [r for r, l in zip(ranks, labels) if l == 1]
    n_pos, n_neg = len(test_p), len(test_n)
    auc = (sum(pos) - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    assert auc >= 0.9


def test_plant_signal_history_dominance():
    cfg = plant_signal(
        GenConfig(seed=31, n_customers=400, anonymous_share=0.0, purchaser_share=0.5),
        "history", 1.0,
    )
    sessions, _ = generate_sessions(cfg)
    journeys = build_journeys(sessions)
    purchaser_orders, non_orders = [], []
    for j in journeys.values():
        purchaser = any(s.purchase for s in j)
        for s in j:
            orders = history_snapshot(j, s.start_time).orders
            (purchaser_orders if purchaser else non_orders).append(orders)
    # stochastic dominance: purchaser CDF never above non-purchaser CDF
    grid = range(0, max(purchaser_orders) + 1)
    for x in grid:
        cdf_p = sum(1 for v in purchaser_orders if v <= x) / len(purchaser_orders)
        cdf_n = sum(1 for v in non_orders if v <= x) / len(non_orders)
        assert cdf_p <= cdf_n + 1e-12
    assert max(non_orders) == 0


def test_plant_signal_bad_args():
    with pytest.raises(ValueError):
        plant_signal(GenConfig(), "static", 1.5)
    with pytest.raises(ValueError):
        plant_signal(GenConfig(), "sideways", 0.5)


def test_round_trip_small():
    cfg = GenConfig(seed=7, n_customers=150)
    sessions, truth = generate_sessions(cfg)
    assert len(sessions) == len(truth)
    by_key = {(t["client_token"], t["start_ms"]): t for t in truth}
    for s in sessions:
        t = by_key[(s.client_token, s.start_time)]
        assert t["n_events"] == len(events_of(s))
        assert t["purchase"] == s.purchase
        assert t["customer_id"] == s.customer_id
        assert t["device"] == s.device and t["channel"] == s.channel


def test_intra_and_inter_session_gaps():
    cfg = GenConfig(seed=8, n_customers=80)
    sessions, _ = generate_sessions(cfg)
    idle = 30 * 60 * 1000
    for s in sessions:
        ts = [e.timestamp for e in events_of(s)]
        assert all(b - a <= idle for a, b in zip(ts, ts[1:]))
    by_token = {}
    for s in sessions:
        by_token.setdefault(s.client_token, []).append(s)
    for group in by_token.values():
        group.sort(key=lambda s: s.start_time)
        for prev, nxt in zip(group, group[1:]):
            assert nxt.start_time - prev.end_time > idle


def test_event_invariants():
    cfg = GenConfig(seed=9, n_customers=60)
    log = generate_events(cfg)
    for e in parsed_events(log):
        if e.action == "Query":
            assert e.query_text
        if e.action == "PageView" and e.page_type == "product":
            assert e.price is not None and e.price >= 0
        assert e.country == "NL"


def test_marginals_at_small_scale():
    cfg = GenConfig(seed=10, n_customers=6000, purchase_length_mean=8.0, nonpurchase_length_mean=4.0)
    sessions, _ = generate_sessions(cfg)
    anon = sum(1 for s in sessions if s.customer_id is None) / len(sessions)
    assert anon == pytest.approx(0.565, abs=0.03)
    for label, target in ((True, PURCHASE_CHANNEL_MIX), (False, NONPURCHASE_CHANNEL_MIX)):
        subset = [s for s in sessions if s.purchase is label]
        for channel, expected in target.items():
            got = sum(1 for s in subset if s.channel == channel) / len(subset)
            assert got == pytest.approx(expected, abs=0.03)
    # the default mixes put more purchase mass on PC/Tablet than non-purchase,
    # so the standardized conversion ranking comes out PC > Tablet > Smartphone
    # with signs (+, +, -)
    from shopstream.analytics import conversion_rates

    standardized = {r.key: r.standardized_rate for r in conversion_rates(sessions)}
    pc, tablet, phone = (standardized[d] for d in ("PC", "Tablet", "Smartphone"))
    assert pc > tablet > phone
    assert pc > 0 and tablet > 0 and phone < 0


def test_session_length_separation_with_default_means():
    # default length calibration: purchase sessions run far longer
    cfg = GenConfig(seed=14, n_customers=2000)
    sessions, _ = generate_sessions(cfg)
    purchase = sorted(s.length for s in sessions if s.purchase)
    nonpurchase = sorted(s.length for s in sessions if not s.purchase)
    median = lambda xs: xs[len(xs) // 2]
    assert median(purchase) > median(nonpurchase)
    assert np.mean(purchase) > 4 * np.mean(nonpurchase)


def test_query_rate_calibration():
    # default per-device rates average out to 3.16 queries per purchase
    # session; long sessions keep the per-session query cap out of play
    cfg = GenConfig(seed=15, n_customers=9000, purchaser_share=0.5, purchase_rate=0.5,
                    purchase_length_mean=30.0, nonpurchase_length_mean=16.0,
                    min_session_length=14, length_dispersion=3.0)
    sessions, _ = generate_sessions(cfg)
    from shopstream.analytics import query_stats

    qs = query_stats(sessions)
    assert qs["avg"][True] == pytest.approx(3.16, abs=0.05)
    assert qs["avg"][False] == pytest.approx(0.06, abs=0.02)


def test_weekday_planting():
    cfg = GenConfig(seed=11, n_customers=4000, purchase_length_mean=6.0, nonpurchase_length_mean=4.0)
    sessions, _ = generate_sessions(cfg)
    from shopstream.analytics import temporal_profile

    profile = temporal_profile(sessions, "weekday")
    for label, target in ((True, cfg.purchase_weekdays), (False, cfg.nonpurchase_weekdays)):
        for day in range(7):
            assert profile[label][day] == pytest.approx(target[day], abs=0.035)


def test_transitions_planting_matches_configured_rate():
    cfg = GenConfig(seed=888, n_customers=20000, anonymous_share=0.0, purchaser_share=1.0,
                    purchase_rate=0.5, mean_sessions=6.0,
                    purchase_length_mean=4.0, nonpurchase_length_mean=3.0,
                    device_transitions={k: dict(v) for k, v in DEVICE_TRANSITIONS_EXAMPLE.items()})
    sessions, _ = generate_sessions(cfg)
    journeys = build_journeys(sessions)
    matrix, support = transition_matrix(journeys)
    tv, pc = DEVICES.index("TV"), DEVICES.index("PC")
    assert sum(support) >= 50_000
    assert matrix[tv][pc] == pytest.approx(0.4375, abs=0.02)


def test_truth_sidecar_fields(tmp_path):
    res = generate(GenConfig(seed=13, n_customers=30), tmp_path)
    records = [json.loads(line) for line in open(res["truth_path"])]
    assert len(records) == res["n_sessions"]
    for rec in records:
        assert set(rec) >= {"client_token", "customer_id", "device", "channel",
                            "purchase", "start_ms", "end_ms", "n_events"}
