"""Golden-output regression: a small seeded protocol over every model family,
both settings, both variants and three steps must reproduce these exact
CSV bytes. A refactor or speed-up that moves any digit of step_report.csv or
importance.csv changes a digest; update them only for an intended change of
behaviour, and say so.
"""

import hashlib

from shopstream.evaluation import ProtocolConfig, run_protocol
from shopstream.models import MODEL_KINDS, TrainConfig
from shopstream.synthgen import GenConfig, generate_sessions

STEP_REPORT_SHA256 = "6588b48dc701967a812e2df355422e712e0a4eca9e0f2e1c778cd2eeaa5e2e81"
IMPORTANCE_SHA256 = "2ac7f7342700ea611df04cfe3f811a0f04c7877951c336f15ed61546d9d4d430"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_protocol_outputs_match_golden_digests():
    sessions, _ = generate_sessions(
        GenConfig(seed=7, n_customers=120, purchaser_share=0.5, purchase_rate=0.5,
                  purchase_length_mean=18.0, nonpurchase_length_mean=14.0,
                  min_session_length=13)
    )
    cfg = ProtocolConfig(
        steps=(0, 5, 10), folds=3, models=MODEL_KINDS, seed=7,
        train=TrainConfig(n_trees=4, max_depth=4, min_samples_leaf=3, gbdt_rounds=5,
                          epochs=30, knn_k=5, hidden=8, mlp_epochs=20),
    )
    report = run_protocol(sessions, cfg)
    assert all(r.n_folds == cfg.folds for r in report.rows), [
        (r.model, r.setting, r.variant, r.step, r.errors) for r in report.rows if r.errors
    ]
    assert _sha(report.step_report_csv()) == STEP_REPORT_SHA256
    assert _sha(report.importance_csv()) == IMPORTANCE_SHA256
