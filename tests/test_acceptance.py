"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line,
and one more for criterion 6 that checks what its artifacts hold.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete. The protocol-scale criteria (7, 8, 9, 10) generate their
corpora from fixed seeds, so every run exercises identical data.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from helpers import (
    brute_force_chain_probs,
    brute_force_prf,
    brute_force_sessionize,
    events_of,
    fold_artifacts,
    generate_sessions,
    mk_event,
    mk_session,
    mlp_loss_and_grad,
    plant_signal,
    random_event_stream,
    rows_by_key,
    session_signatures,
    spearman_rank_correlation,
    static_share_curve,
)
from shopstream import markov
from shopstream.analytics import device_ownership, standardize_rates, temporal_profile
from shopstream.cli import main as cli_main
from shopstream.evaluation import (
    ProtocolConfig,
    f1_score,
    kfold_split,
    run_protocol,
)
from shopstream.ingest import (
    DEVICES,
    BotFilterConfig,
    filter_events,
    read_events,
    sessionize,
)
from shopstream.models import TrainConfig, fit, importance, predict
from shopstream.sessions import build_journeys
from shopstream.synthgen import (
    GenConfig,
    NONPURCHASE_CHANNEL_MIX,
    NONPURCHASE_DEVICE_MIX,
    NONPURCHASE_HOURS,
    NONPURCHASE_PAGE_CHAIN,
    PURCHASE_CHANNEL_MIX,
    PURCHASE_DEVICE_MIX,
    PURCHASE_HOURS,
    generate,
)

ZERO_RATES = {d: 0.0 for d in DEVICES}


def _verdict(num, passed, detail=""):
    print(f"\ncriterion {num:>2}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def test_c01_sessionization_oracle():
    rng = np.random.default_rng(20191)
    streams = [random_event_stream(rng, max_events=500) for _ in range(1000)]
    inputs = [list(events) for events in streams]  # sessionize empties its list
    started = time.time()
    results = [sessionize(events) for events in inputs]
    elapsed = time.time() - started
    mismatches = 0
    for events, sessions in zip(streams, results):
        if session_signatures(sessions) != brute_force_sessionize(events):
            mismatches += 1
    _verdict(1, mismatches == 0 and elapsed < 10.0,
             f"{mismatches} mismatches over 1000 streams, sessionize took {elapsed:.2f}s")


def test_c02_standardized_conversion_worked_example():
    z = standardize_rates({"a": 0.5, "b": 0.2, "c": 0.3})
    ok = (abs(z["a"] - 1.34) <= 0.01 and abs(z["b"] + 1.07) <= 0.01
          and abs(z["c"] + 0.27) <= 0.01)
    _verdict(2, ok, f"standardized rates {z}")


def test_c03_metric_oracle():
    rng = np.random.default_rng(303)
    bad = 0
    for trial in range(1000):
        n = int(rng.integers(1, 60))
        y_true = rng.integers(0, 2, size=n)
        if trial % 5 == 0:
            y_pred = np.zeros(n, dtype=int)  # exercise the P+R=0 sentinel
        else:
            y_pred = rng.integers(0, 2, size=n)
        if f1_score(y_true, y_pred) != brute_force_prf(y_true, y_pred):
            bad += 1
    _verdict(3, bad == 0, f"{bad} of 1000 vectors disagreed with brute force")


def test_c04_markov_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    antisym_ok = True
    for trial in range(50):
        k = int(rng.integers(2, 6))
        alphabet = [f"s{i}" for i in range(k)]
        alpha = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
        seqs = [
            [alphabet[int(i)] for i in rng.integers(0, k, size=rng.integers(1, 15))]
            for _ in range(int(rng.integers(1, 25)))
        ]
        chain = markov.fit(seqs, alphabet, alpha)
        expected = brute_force_chain_probs(seqs, alphabet, alpha)
        for i, a in enumerate(alphabet):
            for j, b in enumerate(alphabet):
                worst = max(worst, abs(chain.probs[i, j] - expected[a][b]))
        other = markov.fit(seqs[::-1][:max(1, len(seqs) // 2)], alphabet, alpha)
        for _ in range(5):
            seq = [alphabet[int(i)] for i in rng.integers(0, k, size=int(rng.integers(1, 10)))]
            # brute-force average log-likelihood
            if len(seq) >= 2:
                total = sum(
                    math.log(expected[a][b]) for a, b in zip(seq, seq[1:])
                ) / (len(seq) - 1)
            else:
                total = 0.0
            worst = max(worst, abs(markov.log_likelihood(chain, seq) - total))
            if markov.class_score(chain, other, seq) != -markov.class_score(other, chain, seq):
                antisym_ok = False
    _verdict(4, worst <= 1e-9 and antisym_ok,
             f"worst probability/score error {worst:.2e}, antisymmetry exact: {antisym_ok}")


def test_c05_fold_properties():
    rng = np.random.default_rng(505)
    failures = 0
    for trial in range(200):
        n = int(rng.integers(10, 200))
        ids = [f"id{i}" for i in range(n)]
        labels = [int(v) for v in rng.random(n) < rng.random()]
        folds = kfold_split(ids, labels, 10, seed=trial) if n >= 10 else None
        if folds is None:
            continue
        flat = [x for f in folds for x in f]
        if sorted(flat) != sorted(ids) or len(set(flat)) != n:
            failures += 1
            continue
        pos = {i for i, lab in zip(ids, labels) if lab == 1}
        counts = [sum(1 for x in f if x in pos) for f in folds]
        n_pos = len(pos)
        lo, hi = n_pos // 10, -(-n_pos // 10)
        if not all(lo <= c <= hi for c in counts):
            failures += 1
    _verdict(5, failures == 0, f"{failures} of 200 corpora violated partition/stratification")


def _leakage_corpus():
    cfg = GenConfig(seed=606, n_customers=120, purchase_length_mean=9.0,
                    nonpurchase_length_mean=8.0, min_session_length=7,
                    purchaser_share=0.5, purchase_rate=0.5)
    sessions, _ = generate_sessions(cfg)
    return sessions


def _leakage_cfg():
    return ProtocolConfig(
        steps=(0, 1, 2), folds=3, settings=("anonymous",),
        models=("rf", "lr", "svm", "knn", "gbdt", "mlp"), seed=66,
        train=TrainConfig(n_trees=8, max_depth=4, min_samples_leaf=4,
                          gbdt_rounds=10, epochs=60, mlp_epochs=50, knn_k=5),
    )


def test_c06_leakage_freedom():
    sessions = _leakage_corpus()
    cfg = _leakage_cfg()
    before = fold_artifacts(sessions, cfg, "anonymous", fold_index=0)

    pool = [s for s in sessions if s.n_page_views >= cfg.min_pages]
    folds = kfold_split([s.session_id for s in pool],
                        [1 if s.purchase else 0 for s in pool], cfg.folds, cfg.seed)
    heldout = set(folds[0])
    mutated = []
    for s in sessions:
        if s.session_id in heldout:
            events = tuple(
                mk_event(e.timestamp + 777, token=e.client_token, customer=e.customer_id,
                         device=e.device, channel=e.channel, action=e.action,
                         page="other" if e.action == "PageView" else e.page_type,
                         query=e.query_text, price=e.price)
                for e in events_of(s)
            )
            mutated.append(mk_session(events, session_id=s.session_id, customer=s.customer_id,
                                      device=s.device, channel=s.channel, purchase=s.purchase))
        else:
            mutated.append(s)
    after = fold_artifacts(mutated, cfg, "anonymous", fold_index=0)
    same = before == after
    _verdict(6, same and len(heldout) > 0,
             f"serialized artifacts identical after mutating {len(heldout)} held-out sessions: {same}")


def test_c06_artifacts_hold_every_fitted_state():
    # criterion 6 compares these texts, so they must hold every fold-fitted
    # statistic: the context, a scaler per (step, variant), a model per kind
    artifacts = json.loads(fold_artifacts(_leakage_corpus(), _leakage_cfg(), "anonymous", 0))
    assert set(artifacts) == {"context", "scalers", "models"}
    assert set(artifacts["context"]) == {
        "page_chain_purchase", "page_chain_nonpurchase", "device_chain_purchase",
        "device_chain_nonpurchase", "device_conversion", "global_conversion",
    }
    pairs = {f"{step}/{variant}" for step in (0, 1, 2) for variant in ("baseline", "extended")}
    assert set(artifacts["scalers"]) == pairs
    assert set(artifacts["models"]) == {
        f"{pair}/{kind}" for pair in pairs for kind in ("rf", "lr", "svm", "knn", "gbdt", "mlp")
    }


def _protocol_train():
    return TrainConfig(n_trees=30, max_depth=5, min_samples_leaf=40)


def test_c07_anonymous_qualitative():
    started = time.time()
    shared_chain = {k: dict(v) for k, v in NONPURCHASE_PAGE_CHAIN.items()}
    base = GenConfig(
        seed=1007, n_customers=4700, purchaser_share=0.45, purchase_rate=0.55,
        mean_sessions=3.4, purchase_length_mean=17.0, nonpurchase_length_mean=17.0,
        min_session_length=14, length_dispersion=3.0,
        purchase_query_rates=ZERO_RATES, nonpurchase_query_rates=ZERO_RATES,
        purchase_page_chain=shared_chain,
        nonpurchase_page_chain={k: dict(v) for k, v in shared_chain.items()},
        dwell_sigma=0.6, dwell_pace_gap=3.0,
        pace_rate_purchase=0.6, pace_rate_nonpurchase=0.12,
    )
    cfg = plant_signal(base, "static", 0.8)
    sessions, _ = generate_sessions(cfg)
    n_eligible = sum(1 for s in sessions if s.n_page_views >= 12)
    pcfg = ProtocolConfig(steps=tuple(range(11)), folds=10, settings=("anonymous",),
                          models=("rf",), seed=42, train=_protocol_train())
    report = run_protocol(sessions, pcfg)
    elapsed = time.time() - started

    rows = rows_by_key(report)
    base_curve = [rows["rf", "anonymous", "baseline", s].f1_mean for s in range(11)]
    ext_curve = [rows["rf", "anonymous", "extended", s].f1_mean for s in range(11)]
    gap0 = ext_curve[0] - base_curve[0]
    max_delta = max(
        abs(curve[k] - curve[k - 1])
        for curve in (base_curve, ext_curve)
        for k in range(2, 11)
    )
    ok = gap0 >= 0.05 and max_delta <= 0.02 and elapsed < 300.0
    _verdict(7, ok,
             f"{n_eligible} sessions >=12 pages; step-0 gap {gap0:.3f} (need >=0.05); "
             f"max step-over-step change {max_delta:.4f} (need <=0.02); {elapsed:.0f}s (< 300s)")


def test_c08_identified_qualitative():
    base = GenConfig(
        seed=2029, n_customers=1400, anonymous_share=0.0, purchaser_share=0.45,
        mean_sessions=4.5, purchase_length_mean=17.0, nonpurchase_length_mean=17.0,
        min_session_length=14, length_dispersion=3.0,
        purchase_query_rates=ZERO_RATES, nonpurchase_query_rates=ZERO_RATES,
    )
    cfg = plant_signal(base, "history", 0.8)
    sessions, _ = generate_sessions(cfg)
    n_eligible = sum(1 for s in sessions if s.n_page_views >= 12 and s.customer_id)
    pcfg = ProtocolConfig(steps=tuple(range(11)), folds=10, settings=("identified",),
                          models=("rf",), seed=77, train=_protocol_train())
    report = run_protocol(sessions, pcfg)
    rows = rows_by_key(report)
    ext = [rows["rf", "identified", "extended", s].f1_mean for s in range(11)]
    base_curve = [rows["rf", "identified", "baseline", s].f1_mean for s in range(11)]
    min_ext = min(ext)
    max_gap = max(abs(e - b) for e, b in zip(ext[1:], base_curve[1:]))
    ok = min_ext >= 0.90 and max_gap <= 0.03
    _verdict(8, ok,
             f"{n_eligible} identified sessions; min extended F1 {min_ext:.3f} (need >=0.90); "
             f"max extended-baseline gap at steps>=1 {max_gap:.3f} (need <=0.03)")


def test_c09_static_share_decay():
    base = GenConfig(
        seed=3031, n_customers=2000, purchaser_share=0.45, purchase_rate=0.55,
        mean_sessions=3.2, purchase_length_mean=17.0, nonpurchase_length_mean=17.0,
        min_session_length=14, length_dispersion=3.0,
        purchase_query_rates=ZERO_RATES, nonpurchase_query_rates=ZERO_RATES,
    )
    cfg = plant_signal(base, "dynamic", 1.0)
    sessions, _ = generate_sessions(cfg)
    pcfg = ProtocolConfig(steps=tuple(range(11)), folds=10, settings=("anonymous",),
                          variants=("extended",), models=("rf",), seed=55,
                          train=_protocol_train())
    report = run_protocol(sessions, pcfg)
    curve = static_share_curve(report, "rf", "anonymous", steps=range(11))
    rho = spearman_rank_correlation(list(range(1, 11)), curve[1:])
    ok = curve[0] == 1.0 and rho < 0.0
    _verdict(9, ok,
             f"share(0)={curve[0]} (need exactly 1.0); spearman(share, step)={rho:.3f} (need < 0); "
             f"curve {['%.3f' % v for v in curve]}")


def test_c10_generator_calibration(tmp_path):
    cfg = GenConfig(seed=20191001, n_customers=34000, purchaser_share=0.5,
                    purchase_rate=0.5, purchase_length_mean=10.0,
                    nonpurchase_length_mean=4.0)
    res = generate(cfg, tmp_path)
    events = list(read_events(res["events_path"]))
    kept, dropped = filter_events(events, BotFilterConfig())
    sessions = sessionize(kept)
    truth = [json.loads(line) for line in open(res["truth_path"])]

    by_key = {(t["client_token"], t["start_ms"]): t for t in truth}
    round_trip = len(sessions) == len(truth) and dropped == 0
    for s in sessions:
        t = by_key.get((s.client_token, s.start_time))
        if t is None or t["n_events"] != len(events_of(s)) or t["purchase"] != s.purchase \
                or t["customer_id"] != s.customer_id:
            round_trip = False
            break

    worst = ("", 0.0)

    def check(name, got, target):
        nonlocal worst
        if abs(got - target) > worst[1]:
            worst = (name, abs(got - target))
        return abs(got - target) <= 0.01

    ok = round_trip
    n_anonymous = sum(1 for s in sessions if s.customer_id is None)
    ok &= check("anonymous_share", n_anonymous / len(sessions), 0.565)
    for label, mixes in ((True, (PURCHASE_DEVICE_MIX, PURCHASE_CHANNEL_MIX)),
                         (False, (NONPURCHASE_DEVICE_MIX, NONPURCHASE_CHANNEL_MIX))):
        subset = [s for s in sessions if s.purchase is label]
        for d, target in mixes[0].items():
            ok &= check(f"device[{label}]{d}", sum(1 for s in subset if s.device == d) / len(subset), target)
        for c, target in mixes[1].items():
            ok &= check(f"channel[{label}]{c}", sum(1 for s in subset if s.channel == c) / len(subset), target)
    ownership = device_ownership(build_journeys(sessions))
    ok &= check("multi_purchasers", ownership["purchasers"]["multi_share"], 0.2405)
    ok &= check("multi_non_purchasers", ownership["non_purchasers"]["multi_share"], 0.1622)
    weekday = temporal_profile(sessions, "weekday")
    hour = temporal_profile(sessions, "hour")
    for label, wd_target, h_target in ((True, cfg.purchase_weekdays, PURCHASE_HOURS),
                                       (False, cfg.nonpurchase_weekdays, NONPURCHASE_HOURS)):
        for day in range(7):
            ok &= check(f"weekday[{label}][{day}]", weekday[label][day], wd_target[day])
        for h in range(24):
            ok &= check(f"hour[{label}][{h}]", hour[label][h], h_target[h])
    top3 = sum(sorted(weekday[True], reverse=True)[:3])
    ok &= check("weekday_top3_purchase", top3, 0.4855)
    _verdict(10, ok,
             f"{len(sessions)} sessions; round trip exact: {round_trip}; "
             f"worst marginal gap {worst[0]} {worst[1]:.4f} (need <= 0.01)")


def test_c11_model_sanity():
    rng = np.random.default_rng(1111)
    n = 400
    y = (rng.random(n) < 0.5).astype(np.int64)
    X = rng.normal(size=(n, 4))
    X[y == 1] += 2.0
    cfg = dict(n_trees=40, max_depth=8, min_samples_leaf=2, gbdt_rounds=80,
               epochs=300, mlp_epochs=250)
    blob_accs = {}
    for kind in ("lr", "knn", "svm", "rf", "gbdt", "mlp"):
        model = fit(X, y, TrainConfig(kind=kind, seed=1, **cfg))
        blob_accs[kind] = float((predict(model, X) == y).mean())

    a = (rng.random(n) < 0.5).astype(np.int64)
    b = (rng.random(n) < 0.5).astype(np.int64)
    X_xor = np.column_stack([a + rng.normal(scale=0.05, size=n),
                             b + rng.normal(scale=0.05, size=n)])
    y_xor = (a ^ b).astype(np.int64)
    xor_accs = {}
    for kind in ("rf", "gbdt"):
        model = fit(X_xor, y_xor, TrainConfig(kind=kind, seed=2, **cfg))
        xor_accs[kind] = float((predict(model, X_xor) == y_xor).mean())

    # gradient check on a small random network
    params = {
        "w1": rng.normal(size=(4, 5)) * 0.7,
        "b1": rng.normal(size=5) * 0.3,
        "w2": rng.normal(size=5) * 0.7,
        "b2": 0.2,
    }
    Xg = rng.normal(size=(25, 4))
    yg = (rng.random(25) < 0.5).astype(np.float64)
    wg = rng.random(25) + 0.5
    _, grads = mlp_loss_and_grad(params, Xg, yg, wg)
    eps = 1e-5
    grad_ok = True
    worst_rel = 0.0
    for key in ("w1", "b1", "w2", "b2"):
        arr = np.atleast_1d(np.array(params[key], dtype=np.float64))
        g_arr = np.atleast_1d(np.asarray(grads[key], dtype=np.float64))
        for idx in np.ndindex(arr.shape):
            up = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
            dn = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
            np.atleast_1d(up[key])[idx] = arr[idx] + eps
            np.atleast_1d(dn[key])[idx] = arr[idx] - eps
            fd = (mlp_loss_and_grad(up, Xg, yg, wg)[0]
                  - mlp_loss_and_grad(dn, Xg, yg, wg)[0]) / (2 * eps)
            rel = abs(g_arr[idx] - fd) / max(1.0, abs(g_arr[idx]))
            worst_rel = max(worst_rel, rel)
            if rel > 1e-4:
                grad_ok = False

    imp_rf = importance(fit(X, y, TrainConfig(kind="rf", seed=3, **cfg)))
    imp_gb = importance(fit(X, y, TrainConfig(kind="gbdt", seed=3, **cfg)))
    sums_ok = (abs(imp_rf.sum() - 1.0) <= 1e-9 and abs(imp_gb.sum() - 1.0) <= 1e-9
               and (imp_rf >= 0).all() and (imp_gb >= 0).all())

    ok = (all(acc >= 0.95 for acc in blob_accs.values())
          and all(acc >= 0.95 for acc in xor_accs.values())
          and grad_ok and sums_ok)
    _verdict(11, ok,
             f"blob accs {blob_accs}; xor accs {xor_accs}; "
             f"worst grad rel err {worst_rel:.2e}; importance sums ok: {sums_ok}")


def test_c12_evaluate_determinism(tmp_path):
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(
        "n_customers = 220\nseed = 91\nmin_session_length = 14\n"
        "purchase_length_mean = 16\nnonpurchase_length_mean = 16\n"
        "purchaser_share = 0.5\npurchase_rate = 0.5\nlength_dispersion = 3.0\n"
    )
    gen_out = tmp_path / "gen"
    assert cli_main(["generate", "--config", str(gen_cfg), "--out", str(gen_out)]) == 0
    ing_out = tmp_path / "ing"
    assert cli_main(["ingest", str(gen_out / "events.tsv"), "--out", str(ing_out)]) == 0

    def run(out):
        code = cli_main([
            "evaluate", str(ing_out / "sessions.jsonl"), "--out", str(out),
            "--seed", "5", "--threads", "2",
            "--set", 'models=["rf","lr"]',
            "--set", "n_trees=15", "--set", "max_depth=5", "--set", "min_samples_leaf=10",
            "--set", "epochs=100",
        ])
        assert code == 0
        step = hashlib.sha256((out / "step_report.csv").read_bytes()).hexdigest()
        imp = hashlib.sha256((out / "importance.csv").read_bytes()).hexdigest()
        return step, imp

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    lines = (tmp_path / "run1" / "step_report.csv").read_text().strip().splitlines()
    expected_rows = 1 + 2 * 2 * 11 * 2  # header + settings x variants x steps x models
    ok = first == second and len(lines) == expected_rows
    _verdict(12, ok,
             f"step_report/importance hashes equal across runs: {first == second}; "
             f"{len(lines)} report lines (expected {expected_rows})")
