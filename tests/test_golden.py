"""Golden-output regression: a small seeded protocol over every model family,
both settings, both variants and three steps must reproduce these exact
CSV bytes, and so must one at the score's edge steps (step 1 scores no page
transition, step 2 one), and fold_artifacts must reproduce these exact fold-fitted
statistics. Tree ensembles fitted on a seeded matrix of one-hot, constant,
small-integer and continuous columns must reproduce their exact artifacts,
importances and probabilities. A refactor or speed-up that moves any digit of
step_report.csv, importance.csv, a fold's artifacts or a tree changes a digest;
update them only for an intended change of behaviour, and say so.
"""

import hashlib

import numpy as np
import pytest

from helpers import fold_artifacts, generate_sessions, model_to_json
from shopstream.evaluation import ProtocolConfig, run_protocol
from shopstream.models import MODEL_KINDS, TrainConfig, fit, predict_proba
from shopstream.synthgen import GenConfig

STEP_REPORT_SHA256 = "6588b48dc701967a812e2df355422e712e0a4eca9e0f2e1c778cd2eeaa5e2e81"
IMPORTANCE_SHA256 = "2ac7f7342700ea611df04cfe3f811a0f04c7877951c336f15ed61546d9d4d430"
EDGE_STEP_REPORT_SHA256 = "7b459fb3ef9ad428a247aa783a753159c0deedefda7dbe101104d11692f73e98"
EDGE_IMPORTANCE_SHA256 = "96f71399ddb93e943ba9dc33159eff641a14cc843e59fd28938101fd8a0414d8"
FOLD_ARTIFACTS_SHA256 = {
    ("anonymous", 0): "763531c5024942d408ca74085b8a70e97a6e521f20264c6c02e227aff2c51efe",
    ("identified", 2): "32feca05b151f78d3170280d4dcb08d755567ccb2aec8a0dcdff7b4fbf124fc9",
}

TREE_FIT_SHA256 = {
    ("rf", "default"):
        "570bc2dd7510f936d73532ded0b59d84f73bc2c1feb88ce2d9fff87d8619e6c4",
    ("rf", "min_samples_leaf=3"):
        "54f1b9eed7d6b31d83e0b6049b2a37fd0ee95cba0c4958946e7420052515ac39",
    ("rf", "max_bins=8"):
        "e5f8cecfaecd48ef06cfdbdc5571803c60682950d2ccf8db2cbbacaf89beae77",
    ("gbdt", "default"):
        "36f8e866e15449903388d4231e0b7430261cd81949b32cf64967949b89d74bad",
    ("gbdt", "min_samples_leaf=3"):
        "3c54a8fd74ad23202f23e419f870aa7aeedb4003c16d4fcf70458ff645f683e0",
    ("gbdt", "max_bins=8"):
        "ce05cc935a3d70d3a472ac48166086d6a7a2390b2cbd9a7ed17a02e7d14fbe3e",
}
TREE_SETTINGS = {
    "default": {},
    "min_samples_leaf=3": {"min_samples_leaf": 3},
    "max_bins=8": {"max_bins": 8},
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def sessions():
    return generate_sessions(
        GenConfig(seed=7, n_customers=120, purchaser_share=0.5, purchase_rate=0.5,
                  purchase_length_mean=18.0, nonpurchase_length_mean=14.0,
                  min_session_length=13)
    )[0]


def _cfg(steps=(0, 5, 10), models=MODEL_KINDS) -> ProtocolConfig:
    return ProtocolConfig(
        steps=steps, folds=3, models=models, seed=7,
        train=TrainConfig(n_trees=4, max_depth=4, min_samples_leaf=3, gbdt_rounds=5,
                          epochs=30, knn_k=5, hidden=8, mlp_epochs=20),
    )


def test_protocol_outputs_match_golden_digests(sessions):
    cfg = _cfg()
    report = run_protocol(sessions, cfg)
    assert all(r.n_folds == cfg.folds for r in report.rows), [
        (r.model, r.setting, r.variant, r.step, r.errors) for r in report.rows if r.errors
    ]
    assert _sha(report.step_report_csv()) == STEP_REPORT_SHA256
    assert _sha(report.importance_csv()) == IMPORTANCE_SHA256


def test_edge_step_outputs_match_golden_digests(sessions):
    cfg = _cfg(steps=(1, 2, 7), models=("lr", "knn"))
    report = run_protocol(sessions, cfg)
    assert all(r.n_folds == cfg.folds for r in report.rows)
    assert _sha(report.step_report_csv()) == EDGE_STEP_REPORT_SHA256
    assert _sha(report.importance_csv()) == EDGE_IMPORTANCE_SHA256


@pytest.mark.parametrize("setting,fold", sorted(FOLD_ARTIFACTS_SHA256))
def test_fold_artifacts_match_golden_digests(sessions, setting, fold):
    text = fold_artifacts(sessions, _cfg(), setting, fold)
    assert _sha(text) == FOLD_ARTIFACTS_SHA256[(setting, fold)]


def _tree_matrix(seed: int = 11, n: int = 300):
    """One-hot, constant, small-integer, coarse and continuous columns, with
    labels from a noisy mix of them, so splits tie and bins saturate."""
    rng = np.random.default_rng(seed)
    cat = rng.integers(0, 4, n)
    one_hot = (cat[:, None] == np.arange(4)).astype(np.float64)
    const = np.full((n, 1), 2.5)
    small_int = rng.integers(0, 5, (n, 1)).astype(np.float64)
    coarse = np.round(rng.normal(size=(n, 1)), 1)
    cont = rng.normal(size=(n, 3))
    X = np.hstack([one_hot, const, small_int, coarse, cont])
    logit = 1.5 * one_hot[:, 1] - one_hot[:, 3] + 0.4 * small_int[:, 0] + cont[:, 0] - 0.8
    y = (logit + rng.normal(scale=0.8, size=n) > 0).astype(np.int64)
    return X, y


@pytest.mark.parametrize("kind,setting", sorted(TREE_FIT_SHA256))
def test_tree_fits_match_golden_digests(kind, setting):
    X, y = _tree_matrix()
    cfg = TrainConfig(kind=kind, seed=3, n_trees=25, gbdt_rounds=30, **TREE_SETTINGS[setting])
    model = fit(X, y, cfg)
    probes = np.vstack([X[:40], np.random.default_rng(5).normal(size=(20, X.shape[1]))])
    h = hashlib.sha256(model_to_json(model).encode("utf-8"))
    h.update(model.feature_importances_.tobytes())
    h.update(predict_proba(model, probes).tobytes())
    assert h.hexdigest() == TREE_FIT_SHA256[(kind, setting)]
