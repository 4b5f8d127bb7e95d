"""Golden-output regression: a small seeded protocol over every model family,
both settings, both variants and three steps must reproduce these exact
CSV bytes, and so must one at the score's edge steps (step 1 scores no page
transition, step 2 one), and fold_artifacts must reproduce these exact fold-fitted
statistics. A refactor or speed-up that moves any digit of step_report.csv,
importance.csv or a fold's artifacts changes a digest; update them only for
an intended change of behaviour, and say so.
"""

import hashlib

import pytest

from shopstream.evaluation import ProtocolConfig, fold_artifacts, run_protocol
from shopstream.models import MODEL_KINDS, TrainConfig
from shopstream.synthgen import GenConfig, generate_sessions

STEP_REPORT_SHA256 = "6588b48dc701967a812e2df355422e712e0a4eca9e0f2e1c778cd2eeaa5e2e81"
IMPORTANCE_SHA256 = "2ac7f7342700ea611df04cfe3f811a0f04c7877951c336f15ed61546d9d4d430"
EDGE_STEP_REPORT_SHA256 = "7b459fb3ef9ad428a247aa783a753159c0deedefda7dbe101104d11692f73e98"
EDGE_IMPORTANCE_SHA256 = "96f71399ddb93e943ba9dc33159eff641a14cc843e59fd28938101fd8a0414d8"
FOLD_ARTIFACTS_SHA256 = {
    ("anonymous", 0): "763531c5024942d408ca74085b8a70e97a6e521f20264c6c02e227aff2c51efe",
    ("identified", 2): "32feca05b151f78d3170280d4dcb08d755567ccb2aec8a0dcdff7b4fbf124fc9",
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
