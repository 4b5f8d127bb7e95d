import numpy as np
import pytest

from helpers import DAY_MS, MS, events_of, fitted_state, mk_event, mk_session, reference_row, static_mask
from shopstream import markov
from shopstream.features import (
    DYNAMIC_FEATURES,
    MissingJourney,
    ShortSession,
    StepMatrixBuilder,
    feature_names,
    fit_feature_context,
)
from shopstream.sessions import build_journeys, history_snapshot
from shopstream.ingest import CHANNELS, DEVICES, PAGE_TYPES

HOUR_MS = 3_600_000


def _session(times_s, pages=None, device="PC", channel="Direct", customer=None,
             purchase=False, sid="s0", start_offset=0):
    pages = pages or ["home"] * len(times_s)
    events = [
        mk_event(start_offset + t * MS, customer=customer, device=device,
                 channel=channel, page=p)
        for t, p in zip(times_s, pages)
    ]
    if purchase:
        last = events[-1].timestamp + 5 * MS
        events.append(mk_event(last, customer=customer, device=device, channel=channel,
                               action="Purchase", page="checkout"))
    return mk_session(events, session_id=sid, customer=customer, device=device, channel=channel)


def _encode(sessions, step, setting, variant, ctx, journeys=None):
    """Rows of sessions at one step, as the protocol's builder encodes them."""
    builder = StepMatrixBuilder(sessions, setting, [step])
    return builder.matrix(step, variant, builder.fold(np.arange(len(sessions)), journeys or {}, ctx))[0]


def _context(sessions, journeys):
    """The feature context fitted on every one of sessions."""
    builder = StepMatrixBuilder(sessions, "anonymous", [0])
    return fit_feature_context(builder, np.arange(len(sessions)), journeys)


@pytest.fixture()
def ctx():
    train = [
        _session([0, 10, 20], pages=["home", "search", "product"], sid="t1", purchase=True),
        _session([0, 30], pages=["home", "category"], sid="t2"),
        _session([0, 5, 9], pages=["search", "product", "basket"], device="Tablet", sid="t3"),
    ]
    return _context(train, {})


def test_catalog_baseline_and_exclusions():
    anon_base = feature_names("anonymous", "baseline")
    assert anon_base == ["dwell_mean", "dwell_std", "page_sequence_score", "n_pages", "dwell_count"]
    anon_ext = feature_names("anonymous", "extended")
    assert set(anon_base) < set(anon_ext)
    iden_base = feature_names("identified", "baseline")
    assert iden_base == anon_base + ["orders", "days_since_last_purchase"]
    iden_ext = feature_names("identified", "extended")
    assert set(iden_base) < set(iden_ext)
    for names in (anon_ext, iden_ext):
        assert not any("previous" in n for n in names)
    assert "device_sequence_score" in iden_ext and "switch_probability" in iden_ext
    # dynamic block is exactly the four features plus the count indicator
    assert list(DYNAMIC_FEATURES) == anon_base


def test_catalog_widths():
    assert len(feature_names("anonymous", "extended")) == 5 + len(CHANNELS) + 1 + 7 + len(DEVICES) + 1
    assert len(feature_names("identified", "extended")) == len(feature_names("anonymous", "extended")) + 6


def test_static_mask_marks_dynamics_false():
    mask = static_mask("anonymous", "extended")
    names = feature_names("anonymous", "extended")
    for name, m in zip(names, mask):
        expected_static = name not in ("dwell_mean", "dwell_std", "page_sequence_score", "n_pages", "dwell_count")
        assert m == expected_static


def test_extract_step0_sentinels(ctx):
    s = _session(list(range(0, 130, 10)))
    vec = _encode([s], 0, "anonymous", "baseline", ctx)[0]
    assert vec.shape == (5,)
    assert np.array_equal(vec, np.zeros(5))


def test_extract_hand_example_step3(ctx):
    # dwells 30, 15, 45 over the first three page views
    s = _session([0, 30, 45, 90], pages=["home", "search", "product", "home"], channel="Paid")
    vec = _encode([s], 3, "anonymous", "extended", ctx)[0]
    names = feature_names("anonymous", "extended")
    row = dict(zip(names, vec))
    assert row["dwell_mean"] == pytest.approx(30.0)
    assert row["dwell_std"] == pytest.approx(12.247, abs=1e-3)
    assert row["n_pages"] == 3.0
    assert row["dwell_count"] == 3.0
    expected_score = markov.class_score(
        ctx.page_chain_purchase, ctx.page_chain_nonpurchase, ["home", "search", "product"]
    )
    assert row["page_sequence_score"] == pytest.approx(expected_score, abs=1e-12)
    assert row["channel=Paid"] == 1.0 and row["channel=Direct"] == 0.0
    assert row["device=PC"] == 1.0
    assert row["start_hour"] == 1.0  # epoch is 00:00 UTC = 01:00 CET
    assert row["weekday=Thu"] == 1.0  # 1970-01-01
    assert row["device_conversion_rate"] == pytest.approx(ctx.device_conversion["PC"])
    assert not np.isnan(vec).any()


def test_extract_identified_matches_recount(ctx):
    customer = "u9"
    older = [
        _session([0, 20], customer=customer, device="Tablet", purchase=True,
                 sid="h1", start_offset=0),
        _session([0, 40], customer=customer, device="PC", sid="h2", start_offset=3 * DAY_MS),
    ]
    current = _session([0, 10, 25, 60], customer=customer, device="PC", sid="cur",
                       start_offset=10 * DAY_MS)
    journey = build_journeys(older + [current])[customer]
    vec = _encode([current], 2, "identified", "extended", ctx, {customer: journey})[0]
    row = dict(zip(feature_names("identified", "extended"), vec))
    hist = history_snapshot(journey, current.start_time)
    assert row["orders"] == hist.orders == 1
    assert row["days_since_last_purchase"] == pytest.approx(hist.days_since_last_purchase)
    assert row["n_sessions"] == 2.0
    assert row["n_devices"] == 2.0
    assert row["switch_probability"] == 1.0  # Tablet -> PC
    expected = markov.class_score(
        ctx.device_chain_purchase, ctx.device_chain_nonpurchase, ["Tablet", "PC", "PC"]
    )
    assert row["device_sequence_score"] == pytest.approx(expected, abs=1e-12)


def test_extract_errors(ctx):
    s = _session([0, 10, 20])
    with pytest.raises(ShortSession):
        StepMatrixBuilder([s], "anonymous", [4])
    # at step 13 a 12-page-view session would get n_pages 13 from 11 dwells
    twelve = _session(list(range(0, 120, 10)))
    assert twelve.n_page_views == 12
    StepMatrixBuilder([twelve], "anonymous", [12])
    with pytest.raises(ShortSession):
        StepMatrixBuilder([twelve], "anonymous", [0, 13])
    with pytest.raises(MissingJourney):
        StepMatrixBuilder([s], "identified", [1]).fold([0], {}, ctx)


def test_extract_reads_nothing_past_step(ctx):
    # the dwell of page view k needs the action that closes it, so the
    # frontier at step 3 is event index 3; everything beyond may change freely
    times = list(range(0, 140, 10))
    s1 = _session(times, sid="same")
    events = list(events_of(s1)[:4])
    t = events[-1].timestamp
    for i in range(8):
        t += (37 + 11 * i) * MS
        events.append(mk_event(t, page="basket", device="PC"))
    s2 = mk_session(events, session_id="same")
    v1, v2 = _encode([s1, s2], 3, "anonymous", "extended", ctx)
    assert np.array_equal(v1, v2)


def test_device_conversion_feature_value_and_fallback():
    # training fold with a planted PC conversion of 0.1114 = 557/5000
    sessions = []
    for i in range(5000):
        sessions.append(_session([0, 10], device="PC", purchase=(i < 557), sid=f"c{i}",
                                 start_offset=i * 10**7))
    ctx = _context(sessions, {})
    assert ctx.global_conversion == pytest.approx(557 / 5000)
    # the builder's column: PC's training rate, and the global rate for TV,
    # a device the training fold lacks
    held_out = [_session([0, 10], device=d, sid=d) for d in ("PC", "TV")]
    column = feature_names("anonymous", "extended").index("device_conversion_rate")
    pc, tv = _encode(held_out, 1, "anonymous", "extended", ctx)[:, column]
    assert pc == pytest.approx(0.1114)
    assert tv == ctx.global_conversion


def _random_corpus(rng, n, customer_share=0.5):
    # starts 53 hours apart: any 24 consecutive sessions start in 24 different CET hours
    sessions = []
    for i in range(n):
        n_pages = int(rng.integers(13, 20))
        times = np.cumsum(rng.integers(1, 50, size=n_pages)).tolist()
        pages = [PAGE_TYPES[int(p)] for p in rng.integers(0, len(PAGE_TYPES), size=n_pages)]
        customer = f"u{int(rng.integers(0, max(2, n // 4)))}" if rng.random() < customer_share else None
        sessions.append(
            _session(times, pages=pages,
                     device=DEVICES[int(rng.integers(len(DEVICES)))],
                     channel=CHANNELS[int(rng.integers(len(CHANNELS)))],
                     customer=customer, purchase=bool(rng.random() < 0.3),
                     sid=f"r{i}", start_offset=i * (2 * DAY_MS + 5 * HOUR_MS))
        )
    return sessions


def test_builder_matches_reference_all_configs():
    rng = np.random.default_rng(123)
    sessions = _random_corpus(rng, 30)
    journeys = build_journeys(sessions)
    ctx = _context(sessions, journeys)
    steps = list(range(11))
    for setting in ("anonymous", "identified"):
        subset = sessions if setting == "anonymous" else [s for s in sessions if s.customer_id]
        builder = StepMatrixBuilder(subset, setting, steps)
        fold = builder.fold(np.arange(len(subset)), journeys, ctx)
        for variant in ("baseline", "extended"):
            for step in (0, 1, 5, 10):
                X, y = builder.matrix(step, variant, fold)
                assert np.array_equal(y, [1 if s.purchase else 0 for s in subset])
                for i, s in enumerate(subset):
                    j = journeys.get(s.customer_id) if s.customer_id else None
                    ref = reference_row(s, j, step, setting, variant, ctx)
                    assert np.allclose(X[i], ref, atol=1e-12), (setting, variant, step, i)


def test_builder_fold_rows_match_reference_with_their_journeys():
    # built once over the corpus; a fold's training rows read journeys built
    # without the held-out sessions, its held-out rows the full journeys
    rng = np.random.default_rng(321)
    sessions = _random_corpus(rng, 36)
    held = {s.session_id for i, s in enumerate(sessions) if i % 4 == 1}
    full_journeys = build_journeys(sessions)
    train_journeys = build_journeys(s for s in sessions if s.session_id not in held)
    steps = (1, 2, 7, 12)
    for setting in ("anonymous", "identified"):
        pool = sessions if setting == "anonymous" else [s for s in sessions if s.customer_id]
        builder = StepMatrixBuilder(pool, setting, steps)
        train_rows = [i for i, s in enumerate(pool) if s.session_id not in held]
        held_rows = [i for i, s in enumerate(pool) if s.session_id in held]
        assert train_rows != list(range(len(train_rows)))  # not a contiguous block
        ctx = fit_feature_context(builder, train_rows, train_journeys)
        for rows, journeys in ((train_rows, train_journeys), (held_rows, full_journeys)):
            fold = builder.fold(rows, journeys, ctx)
            for variant in ("baseline", "extended"):
                for step in steps:
                    X, y = builder.matrix(step, variant, fold)
                    assert X.shape == (len(rows), len(feature_names(setting, variant)))
                    assert np.array_equal(y, [1 if pool[i].purchase else 0 for i in rows])
                    for r, i in enumerate(rows):
                        s = pool[i]
                        j = journeys.get(s.customer_id) if s.customer_id else None
                        ref = reference_row(s, j, step, setting, variant, ctx)
                        assert np.allclose(X[r], ref, atol=1e-12), (setting, variant, step, i)


def test_variant_matrix_is_extended_columns_by_name():
    # a fold is one (rows, steps, features) array in extended order; each
    # variant's matrix is its feature_names columns, as a C-contiguous copy
    rng = np.random.default_rng(77)
    sessions = _random_corpus(rng, 24)
    journeys = build_journeys(sessions)
    ctx = _context(sessions, journeys)
    steps = (0, 3, 10)
    for setting in ("anonymous", "identified"):
        pool = sessions if setting == "anonymous" else [s for s in sessions if s.customer_id]
        builder = StepMatrixBuilder(pool, setting, steps)
        fold = builder.fold(np.arange(len(pool)), journeys, ctx)
        extended = feature_names(setting, "extended")
        assert fold[0].shape == (len(pool), len(steps), len(extended))
        for step in steps:
            X_ext, _ = builder.matrix(step, "extended", fold)
            for variant in ("baseline", "extended"):
                X, y = builder.matrix(step, variant, fold)
                assert X.flags.c_contiguous, (setting, variant, step)
                cols = [extended.index(name) for name in feature_names(setting, variant)]
                assert np.array_equal(X, X_ext[:, cols]), (setting, variant, step)
                assert np.array_equal(y, [1 if s.purchase else 0 for s in pool])


def test_builder_errors():
    rng = np.random.default_rng(9)
    sessions = _random_corpus(rng, 4, customer_share=0.0)
    with pytest.raises(ShortSession):  # 13 to 19 page views each
        StepMatrixBuilder(sessions, "anonymous", (0, 20))
    builder = StepMatrixBuilder(sessions, "identified", (0, 5))
    ctx = fit_feature_context(builder, np.arange(len(sessions)), {})
    with pytest.raises(MissingJourney):
        builder.fold([0], {}, ctx)


def test_builder_step_monotonicity():
    rng = np.random.default_rng(5)
    sessions = _random_corpus(rng, 12, customer_share=0.0)
    builder = StepMatrixBuilder(sessions, "anonymous", list(range(11)))
    ctx = fit_feature_context(builder, np.arange(len(sessions)), {})
    fold = builder.fold(np.arange(len(sessions)), {}, ctx)
    names = feature_names("anonymous", "extended")
    static_cols = [i for i, n in enumerate(names) if static_mask("anonymous", "extended")[i]]
    count_col = names.index("dwell_count")
    prev = None
    for step in range(11):
        X, _ = builder.matrix(step, "extended", fold)
        if prev is not None:
            assert np.array_equal(X[:, static_cols], prev[:, static_cols])
            assert (X[:, count_col] >= prev[:, count_col]).all()
        prev = X


def test_context_serialization_is_deterministic():
    rng = np.random.default_rng(6)
    sessions = _random_corpus(rng, 10)
    journeys = build_journeys(sessions)
    a = fitted_state(_context(sessions, journeys))
    b = fitted_state(_context(sessions, journeys))
    assert a == b
