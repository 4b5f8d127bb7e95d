from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from helpers import (
    brute_force_prf,
    events_of,
    fold_artifacts,
    generate_sessions,
    mk_event,
    mk_session,
    plant_signal,
    rows_by_key,
    spearman_rank_correlation,
    static_share,
    static_share_curve,
)
from shopstream.evaluation import (
    ProtocolConfig,
    Scaler,
    TooFewSessions,
    f1_score,
    kfold_split,
    run_protocol,
)
from shopstream.features import feature_names
from shopstream.ingest import CHANNELS, DEVICES, PAGE_TYPES, BotFilterConfig, InvalidConfig
from shopstream.models import LengthMismatch, TrainConfig
from shopstream.synthgen import GenConfig

MS = 1000
DAY_MS = 86_400_000


def test_f1_hand_example():
    y_true = [1] * 12 + [0] * 8
    y_pred = [1] * 8 + [0] * 4 + [1] * 2 + [0] * 6
    precision, recall, f1 = f1_score(y_true, y_pred)
    assert precision == pytest.approx(0.8)
    assert recall == pytest.approx(2 / 3, abs=1e-4)
    assert f1 == pytest.approx(0.7273, abs=1e-4)


def test_f1_perfect_and_sentinel():
    assert f1_score([1, 0, 1], [1, 0, 1]) == (1.0, 1.0, 1.0)
    assert f1_score([1, 1, 0], [0, 0, 0]) == (0.0, 0.0, 0.0)


def test_f1_length_mismatch():
    with pytest.raises(LengthMismatch):
        f1_score([1, 0], [1])


def test_f1_matches_brute_force_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        y_true = rng.integers(0, 2, size=n)
        y_pred = rng.integers(0, 2, size=n)
        assert f1_score(y_true, y_pred) == pytest.approx(brute_force_prf(y_true, y_pred))


def test_kfold_even_split():
    ids = [f"s{i}" for i in range(100)]
    labels = [i % 2 for i in range(100)]
    folds = kfold_split(ids, labels, 10, seed=1)
    assert [len(f) for f in folds] == [10] * 10
    assert sorted(x for f in folds for x in f) == sorted(ids)


def test_kfold_stratification_exact():
    ids = [f"s{i}" for i in range(20)]
    labels = [1] * 4 + [0] * 16
    folds = kfold_split(ids, labels, 4, seed=5)
    positive = set(ids[:4])
    for fold in folds:
        assert sum(1 for x in fold if x in positive) == 1


def test_kfold_partition_and_balance_random():
    rng = np.random.default_rng(9)
    for trial in range(50):
        n = int(rng.integers(12, 120))
        k = int(rng.integers(2, 9))
        ids = [f"x{i}" for i in range(n)]
        labels = [int(v) for v in rng.random(n) < rng.random()]
        folds = kfold_split(ids, labels, k, seed=trial)
        flat = [x for f in folds for x in f]
        assert sorted(flat) == sorted(ids)
        assert len(set(flat)) == n
        pos = set(i for i, lab in zip(ids, labels) if lab == 1)
        counts = [sum(1 for x in f if x in pos) for f in folds]
        assert max(counts) - min(counts) <= 1


def test_kfold_too_few():
    with pytest.raises(TooFewSessions):
        kfold_split(["a"], [1], 2, seed=0)


def test_scaler_constant_columns_passthrough():
    X = np.column_stack([np.zeros(10), np.arange(10, dtype=float)])
    sc = Scaler.fit(X)
    Z = sc.transform(X)
    assert np.array_equal(Z[:, 0], np.zeros(10))
    assert Z[:, 1].std() == pytest.approx(1.0)


def test_spearman():
    assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman_rank_correlation([1, 2, 3], [5, 3, 1]) == pytest.approx(-1.0)
    assert spearman_rank_correlation([1, 1, 1], [1, 2, 3]) == 0.0


def _corpus(rng, n_sessions=80, n_pages=15, customers=True, signal="channel"):
    sessions = []
    for i in range(n_sessions):
        purchase = bool(rng.random() < 0.4)
        channel = ("Paid" if purchase else "Direct") if signal == "channel" else CHANNELS[int(rng.integers(4))]
        if signal == "channel" and rng.random() < 0.15:
            channel = CHANNELS[int(rng.integers(4))]  # noise
        device = DEVICES[int(rng.integers(3))]
        customer = f"u{i % (n_sessions // 4)}" if customers else None
        start = i * 3 * DAY_MS
        times = np.cumsum(rng.integers(2, 60, size=n_pages)) * MS + start
        events = [
            mk_event(int(t), token=f"tok{i}", customer=customer, device=device,
                     channel=channel, page=PAGE_TYPES[int(rng.integers(len(PAGE_TYPES)))])
            for t in times
        ]
        if purchase:
            events.append(mk_event(int(times[-1] + 5 * MS), token=f"tok{i}", customer=customer,
                                   device=device, channel=channel, action="Purchase",
                                   page="checkout"))
        sessions.append(mk_session(events, session_id=f"s{i}", customer=customer,
                                   device=device, channel=channel))
    return sessions


def _small_train():
    return TrainConfig(n_trees=10, max_depth=4, min_samples_leaf=5, gbdt_rounds=15,
                       epochs=80, mlp_epochs=60, knn_k=5)


def test_run_protocol_shapes_all_models():
    rng = np.random.default_rng(40)
    sessions = _corpus(rng, n_sessions=90)
    cfg = ProtocolConfig(steps=(0, 1, 2), folds=3, seed=11, train=_small_train())
    report = run_protocol(sessions, cfg)
    # rows: settings x variants x steps x models
    assert len(report.rows) == 2 * 2 * 3 * 6
    for row in report.rows:
        assert row.n_folds == 3, (row.model, row.errors)
        assert 0.0 <= row.f1_mean <= 1.0
        assert row.importance.shape == (len(feature_names(row.setting, row.variant)),)
    # baseline columns are a strict subset of extended columns
    assert set(feature_names("anonymous", "baseline")) < set(feature_names("anonymous", "extended"))


def test_one_step_matrix_builder_per_setting(monkeypatch):
    from shopstream import evaluation

    built = []
    real = evaluation.StepMatrixBuilder

    def counting(sessions, setting, *args, **kwargs):
        built.append(setting)
        return real(sessions, setting, *args, **kwargs)

    monkeypatch.setattr(evaluation, "StepMatrixBuilder", counting)
    sessions = _corpus(np.random.default_rng(49), n_sessions=40)
    cfg = ProtocolConfig(steps=(0, 2), folds=4, models=("lr",), seed=3, train=_small_train())
    run_protocol(sessions, cfg)
    assert built == ["anonymous", "identified"]
    fold_artifacts(sessions, cfg, "identified", 1)
    assert built[2:] == ["identified"]


def test_journeys_built_once_and_filtered_per_fold(monkeypatch):
    from shopstream import evaluation
    from shopstream.sessions import build_journeys

    calls, tables = [], []
    real_build, real_fit = evaluation.build_journeys, evaluation.fit_feature_context

    def counting_build(sessions):
        calls.append(1)
        return real_build(sessions)

    def capturing_fit(builder, train_rows, train_journeys):
        tables.append(train_journeys)
        return real_fit(builder, train_rows, train_journeys)

    monkeypatch.setattr(evaluation, "build_journeys", counting_build)
    monkeypatch.setattr(evaluation, "fit_feature_context", capturing_fit)
    # sessions below the page filter are history only, never protocol rows
    short = [
        mk_session(events_of(s), session_id=f"short{i}", customer=s.customer_id)
        for i, s in enumerate(_corpus(np.random.default_rng(51), n_sessions=12, n_pages=2))
    ]
    sessions = _corpus(np.random.default_rng(50), n_sessions=36) + short
    cfg = ProtocolConfig(steps=(0, 2), folds=3, models=("lr",), seed=5, train=_small_train())
    run_protocol(sessions, cfg)

    assert len(calls) == 1
    # one fitted context per (setting, fold), in run order
    folds = [set(ids) for setting in cfg.settings
             for ids in evaluation._folds(sessions, setting, cfg)[1]]
    assert len(tables) == len(folds) == 2 * cfg.folds
    for table, held in zip(tables, folds):
        want = build_journeys(s for s in sessions if s.session_id not in held)
        got = {customer: journey for customer, journey in table.items() if journey}
        assert got.keys() == want.keys()
        for customer, journey in want.items():
            assert [s.session_id for s in got[customer]] == [s.session_id for s in journey]


def test_page_chains_are_summed_builder_counts(monkeypatch):
    # a fold fits only its two device chains; its page chains sum the
    # builder's per-session counts and equal chains fitted on its training
    # rows' page-view sequences
    from shopstream import evaluation, markov

    real_fit, real_context = markov.fit, evaluation.fit_feature_context
    folds = []

    def counting_fit(*args):
        folds[-1]["fits"] += 1
        return real_fit(*args)

    def checked_context(builder, train_rows, train_journeys):
        folds.append({"fits": 0})
        ctx = real_context(builder, train_rows, train_journeys)
        for label, chain in ((True, ctx.page_chain_purchase), (False, ctx.page_chain_nonpurchase)):
            pages = [[e.page_type for e in events_of(s) if e.action == "PageView"]
                     for s in (builder.sessions[i] for i in train_rows) if s.purchase == label]
            want = real_fit(pages, PAGE_TYPES)
            folds[-1][label] = (chain.alphabet == want.alphabet and chain.counts.dtype == want.counts.dtype
                                and np.array_equal(chain.counts, want.counts)
                                and np.array_equal(chain._log_probs, want._log_probs))
        return ctx

    monkeypatch.setattr(markov, "fit", counting_fit)
    monkeypatch.setattr(evaluation, "fit_feature_context", checked_context)
    # every fourth event a basket action, so not every event is a page view
    sessions = [
        mk_session([e._replace(action="AddToBasket") if k % 4 == 3 else e for k, e in enumerate(events_of(s))],
                   session_id=s.session_id, customer=s.customer_id)
        for s in _corpus(np.random.default_rng(52), n_sessions=36)
    ]
    cfg = ProtocolConfig(steps=(0, 2), folds=3, models=("lr",), seed=7, train=_small_train())
    run_protocol(sessions, cfg)
    assert folds == [{"fits": 2, True: True, False: True}] * (len(cfg.settings) * cfg.folds)


def test_run_protocol_learns_planted_channel_signal():
    rng = np.random.default_rng(41)
    sessions = _corpus(rng, n_sessions=120, signal="channel")
    cfg = ProtocolConfig(steps=(0,), folds=4, settings=("anonymous",), models=("rf",),
                         seed=2, train=_small_train())
    report = run_protocol(sessions, cfg)
    rows = rows_by_key(report)
    extended = rows["rf", "anonymous", "extended", 0]
    baseline = rows["rf", "anonymous", "baseline", 0]
    assert extended.f1_mean > baseline.f1_mean + 0.1


def test_static_share_exactly_one_at_step_zero():
    rng = np.random.default_rng(42)
    sessions = _corpus(rng, n_sessions=80)
    cfg = ProtocolConfig(steps=(0, 1), folds=3, settings=("anonymous",), models=("rf", "lr"),
                         seed=3, train=_small_train())
    report = run_protocol(sessions, cfg)
    for model in ("rf", "lr"):
        assert static_share(report, model, "anonymous", 0) == 1.0
    curve = static_share_curve(report, "rf", "anonymous", steps=(0, 1))
    assert curve[0] == 1.0 and 0.0 <= curve[1] <= 1.0


def test_step0_reproducible_under_rerun():
    rng = np.random.default_rng(43)
    sessions = _corpus(rng, n_sessions=60)
    cfg = ProtocolConfig(steps=(0,), folds=3, settings=("anonymous",), seed=9,
                         train=_small_train())
    a = run_protocol(sessions, cfg)
    b = run_protocol(sessions, cfg)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.f1_mean == rb.f1_mean
        assert np.array_equal(ra.importance, rb.importance)


def test_failed_cells_reported_not_fatal():
    rng = np.random.default_rng(45)
    sessions = _corpus(rng, n_sessions=40)
    # exactly one positive: one fold's training set is single-class
    for i, s in enumerate(sessions):
        events = tuple(e for e in events_of(s) if e.action != "Purchase")
        sessions[i] = mk_session(events, session_id=s.session_id, customer=s.customer_id,
                                 device=s.device, channel=s.channel)
    buy = sessions[0]
    events = events_of(buy) + (mk_event(events_of(buy)[-1].timestamp + MS, token=buy.client_token,
                                    customer=buy.customer_id, device=buy.device,
                                    channel=buy.channel, action="Purchase", page="checkout"),)
    sessions[0] = mk_session(events, session_id=buy.session_id, customer=buy.customer_id,
                             device=buy.device, channel=buy.channel)
    cfg = ProtocolConfig(steps=(0,), folds=2, settings=("anonymous",), models=("lr",),
                         variants=("baseline",), seed=5, train=_small_train())
    report = run_protocol(sessions, cfg)
    (row,) = report.rows
    assert row.n_folds == 1
    assert any("SingleClassTraining" in e for e in row.errors)


def test_too_few_sessions_raises():
    rng = np.random.default_rng(46)
    sessions = _corpus(rng, n_sessions=5)
    cfg = ProtocolConfig(steps=(0,), folds=10, settings=("anonymous",), train=_small_train())
    with pytest.raises(TooFewSessions):
        run_protocol(sessions, cfg)


def test_min_pages_filter_applied():
    # steps (0, 1) with the 2-page buffer exclude sessions under 3 page views
    rng = np.random.default_rng(47)
    long_sessions = _corpus(rng, n_sessions=40, n_pages=15)
    short_sessions = _corpus(rng, n_sessions=40, n_pages=2)
    for i, s in enumerate(short_sessions):
        short_sessions[i] = mk_session(events_of(s), session_id=f"short{i}",
                                       customer=s.customer_id, device=s.device, channel=s.channel)
    cfg = ProtocolConfig(steps=(0, 1), folds=4, settings=("anonymous",), models=("rf",),
                         seed=6, train=_small_train())
    a = run_protocol(long_sessions, cfg)
    b = run_protocol(long_sessions + short_sessions, cfg)
    # short sessions are excluded before splitting, so results are identical
    assert a.step_report_csv() == b.step_report_csv()


def test_fold_artifacts_ignore_heldout_mutations():
    rng = np.random.default_rng(48)
    sessions = _corpus(rng, n_sessions=50)
    cfg = ProtocolConfig(steps=(0, 1), folds=3, settings=("anonymous",),
                         models=("rf", "lr", "svm", "knn", "gbdt", "mlp"),
                         seed=7, train=_small_train())
    baseline = fold_artifacts(sessions, cfg, "anonymous", fold_index=0)

    pool_ids = [s.session_id for s in sessions if s.n_page_views >= cfg.min_pages]
    labels = [1 if s.purchase else 0 for s in sessions if s.n_page_views >= cfg.min_pages]
    fold0 = set(kfold_split(pool_ids, labels, cfg.folds, cfg.seed)[0])

    mutated = []
    for s in sessions:
        if s.session_id in fold0:
            events = tuple(
                mk_event(e.timestamp + 250, token=e.client_token, customer=e.customer_id,
                         device=e.device, channel=e.channel, action=e.action,
                         page="other" if e.action == "PageView" else e.page_type,
                         query=e.query_text, price=e.price)
                for e in events_of(s)
            )
            mutated.append(mk_session(events, session_id=s.session_id, customer=s.customer_id,
                                      device=s.device, channel=s.channel))
        else:
            mutated.append(s)
    assert fold_artifacts(mutated, cfg, "anonymous", fold_index=0) == baseline


def test_fold_artifacts_refuse_an_empty_capture(monkeypatch):
    from shopstream import evaluation

    monkeypatch.setattr(evaluation, "_run_fold", lambda *args, **kwargs: {})
    sessions = _corpus(np.random.default_rng(48), n_sessions=20)
    cfg = ProtocolConfig(steps=(0,), folds=2, settings=("anonymous",), models=("lr",),
                         train=_small_train())
    with pytest.raises(AssertionError, match="captured 0 feature contexts"):
        fold_artifacts(sessions, cfg)


def test_static_share_stays_high_without_dynamic_signal():
    # control corpus: label lives in channel/weekday only, dynamics are noise
    from shopstream.ingest import DEVICES as ALL_DEVICES
    from shopstream.synthgen import NONPURCHASE_PAGE_CHAIN

    zero = {d: 0.0 for d in ALL_DEVICES}
    shared = {k: dict(v) for k, v in NONPURCHASE_PAGE_CHAIN.items()}
    base = GenConfig(seed=515, n_customers=1200, purchaser_share=0.45, purchase_rate=0.55,
                     mean_sessions=3.0, purchase_length_mean=17.0, nonpurchase_length_mean=17.0,
                     min_session_length=14, length_dispersion=3.0,
                     purchase_query_rates=zero, nonpurchase_query_rates=zero,
                     purchase_page_chain=shared,
                     nonpurchase_page_chain={k: dict(v) for k, v in shared.items()})
    sessions, _ = generate_sessions(plant_signal(base, "static", 0.9))
    cfg = ProtocolConfig(steps=tuple(range(11)), folds=4, settings=("anonymous",),
                         variants=("extended",), models=("rf",), seed=16,
                         train=TrainConfig(n_trees=20, max_depth=5, min_samples_leaf=25))
    report = run_protocol(sessions, cfg)
    curve = static_share_curve(report, "rf", "anonymous", steps=range(11))
    assert curve[0] == 1.0
    assert all(share >= 0.8 for share in curve), curve


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(folds=1)
    with pytest.raises(ValueError):
        ProtocolConfig(settings=("nope",))
    with pytest.raises(ValueError):
        ProtocolConfig(models=("catboost",))
    assert ProtocolConfig().min_pages == 12


@pytest.mark.parametrize("cls,key,value", [
    (TrainConfig, "n_trees", float("nan")),
    (TrainConfig, "knn_k", True),
    (TrainConfig, "hidden", float("inf")),
    (TrainConfig, "kind", "xgb"),
    (ProtocolConfig, "folds", float("nan")),
    (BotFilterConfig, "allowed_countries", "NLDE"),  # would keep country "LD"
    (BotFilterConfig, "allowed_devices", "PCTV"),
])
def test_config_checks_itself(cls, key, value):
    # the Python API and the CLI share one rule: the class checks itself
    with pytest.raises(InvalidConfig) as err:
        cls(**{key: value})
    assert err.value.key == key
    assert repr(value) in str(err.value)


@pytest.mark.parametrize("cfg", [GenConfig(), BotFilterConfig(allowed_devices=["PC"]), TrainConfig(),
                                 ProtocolConfig(steps=[10])])
def test_built_config_is_frozen(cfg):
    key = fields(cfg)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, key, getattr(cfg, key))
    # a list builds the config that a tuple or a frozenset builds
    twin = {
        BotFilterConfig: BotFilterConfig(allowed_devices=frozenset({"PC"})),
        ProtocolConfig: ProtocolConfig(steps=(10,)),
    }.get(type(cfg), replace(cfg))
    assert cfg == twin
    if not isinstance(cfg, GenConfig):  # GenConfig's read-only mappings have no hash
        assert hash(cfg) == hash(twin)


def test_csv_outputs_shape():
    rng = np.random.default_rng(49)
    sessions = _corpus(rng, n_sessions=60)
    cfg = ProtocolConfig(steps=(0, 1), folds=3, settings=("anonymous",), models=("rf",),
                         seed=8, train=_small_train())
    report = run_protocol(sessions, cfg)
    step_lines = report.step_report_csv().strip().splitlines()
    assert step_lines[0] == "model,setting,variant,step,f1_mean,f1_std,precision,recall"
    assert len(step_lines) == 1 + 2 * 2  # variants x steps
    imp_lines = report.importance_csv().strip().splitlines()
    n_features = len(feature_names("anonymous", "extended"))
    assert len(imp_lines) == 1 + 2 * n_features  # extended rows only, per step
