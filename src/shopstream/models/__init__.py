"""Six classifier families behind one fit/predict_proba interface.

Class weighting is inverse-frequency: w_c = N / (2 * N_c); the weight of
example i is w over its own class and enters every loss and split criterion
(KNN applies it to votes). Decisions use a fixed 0.5 threshold.

Fitted state lives in plain attributes with no serializer of its own; the
leakage check's generic JSON serializer lives in tests/helpers.py, and
nothing loads a model back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..ingest import check_fields, check_known, check_numbers
from .linear import LinearSVM, LogisticRegression
from .mlp import MLPClassifier
from .neighbors import KNNClassifier
from .trees import GradientBoostingClassifier, RandomForestClassifier

MODEL_KINDS = ("lr", "knn", "svm", "rf", "gbdt", "mlp")

# models whose features should be z-scored by the caller
SCALED_KINDS = frozenset({"lr", "svm", "knn", "mlp"})
# shuffles per feature in permutation importance
N_SHUFFLES = 5


class SingleClassTraining(ValueError):
    pass


class NonFiniteInput(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    kind: str = "rf"
    seed: int = 0
    # trees
    n_trees: int = 200
    max_depth: int = 12
    min_samples_leaf: int = 1
    max_bins: int = 32
    # gbdt
    gbdt_rounds: int = 200
    # knn
    knn_k: int = 15
    # lr / svm
    epochs: int = 400
    # mlp
    hidden: int = 32
    mlp_epochs: int = 300

    def __post_init__(self):
        """After check_fields, kind is a known model kind and counts and
        sizes are positive integers; each error names its key. Rates, l2,
        gbdt depth and the split minimum are model constants, not settings."""
        check_fields(self)
        check_known("kind", [self.kind], MODEL_KINDS)
        for key, low in (
            ("seed", 0), ("n_trees", 1), ("gbdt_rounds", 1), ("knn_k", 1), ("epochs", 1),
            ("mlp_epochs", 1), ("hidden", 1), ("max_depth", 1),
            ("min_samples_leaf", 1), ("max_bins", 2),
        ):
            check_numbers(key, [getattr(self, key)], low, math.inf, integral=True)


def class_weights(y: np.ndarray) -> dict:
    """Inverse-frequency weights: w_c = N / (K * N_c) with K = 2 classes."""
    n = y.size
    weights = {}
    for c in (0, 1):
        n_c = int((y == c).sum())
        if n_c:
            weights[c] = n / (2.0 * n_c)
    return weights


def sample_weights(y: np.ndarray) -> np.ndarray:
    cw = class_weights(y)
    return np.where(y == 1, cw.get(1, 0.0), cw.get(0, 0.0))


def _build(cfg: TrainConfig):
    if cfg.kind == "lr":
        return LogisticRegression(epochs=cfg.epochs, seed=cfg.seed)
    if cfg.kind == "svm":
        return LinearSVM(epochs=cfg.epochs, seed=cfg.seed)
    if cfg.kind == "knn":
        return KNNClassifier(k=cfg.knn_k, seed=cfg.seed)
    if cfg.kind == "rf":
        return RandomForestClassifier(
            n_trees=cfg.n_trees, max_depth=cfg.max_depth,
            min_samples_leaf=cfg.min_samples_leaf, max_bins=cfg.max_bins, seed=cfg.seed,
        )
    if cfg.kind == "gbdt":
        return GradientBoostingClassifier(
            n_rounds=cfg.gbdt_rounds, min_samples_leaf=cfg.min_samples_leaf,
            max_bins=cfg.max_bins, seed=cfg.seed,
        )
    return MLPClassifier(hidden=cfg.hidden, epochs=cfg.mlp_epochs, seed=cfg.seed)


def fit(X: np.ndarray, y: np.ndarray, cfg: TrainConfig):
    """Train one classifier; deterministic given (X, y, cfg)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not np.isfinite(X).all():
        raise NonFiniteInput("feature matrix contains NaN or inf")
    if np.unique(y).size < 2:
        raise SingleClassTraining("training labels contain a single class")
    if not np.isin(y, (0, 1)).all():  # sample_weights weighs any other label as class 0
        raise ValueError("training labels must be 0 or 1")
    sw = sample_weights(y)
    model = _build(cfg)
    model.fit(X, y, sw)
    model.n_features_in_ = X.shape[1]
    return model


def predict_proba(model, X: np.ndarray) -> np.ndarray:
    """Positive-class probabilities; features are the last axis of X."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    expected = getattr(model, "n_features_in_", None)
    if expected is not None and X.shape[-1] != expected:
        raise DimensionMismatch(f"expected {expected} features, got {X.shape[-1]}")
    return model.predict_proba(X)


def predict(model, X: np.ndarray) -> np.ndarray:
    return (predict_proba(model, X) >= 0.5).astype(np.int64)


def _f1_from_counts(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def f1_score(y_true, y_pred) -> tuple[float, float, float]:
    """(precision, recall, f1) on the positive class; 0 sentinel at P+R=0."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch(f"{y_true.shape} vs {y_pred.shape}")
    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
    return _f1_from_counts(tp, fp, fn)


def permutation_importance(model, X: np.ndarray, y: np.ndarray, seed: int = 0) -> np.ndarray:
    """Mean F1 drop per shuffled feature, clipped at 0 and normalized.

    Permutations are drawn feature by feature, shuffle by shuffle, and the
    drops are summed in that order. The model's own predict_shuffled scores
    the shuffled copies of X, each bit-equal to a predict_proba call; KNN
    and MLP, the kinds importance() permutes, define one.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    proba = predict_proba(model, X)
    base = f1_score(y, (proba >= 0.5).astype(np.int64))[2]
    rng = np.random.default_rng(seed)
    n, d = X.shape
    order = rng.permuted(np.tile(np.arange(n), (d * N_SHUFFLES, 1)), axis=1)
    columns = X[order.reshape(d, N_SHUFFLES, n), np.arange(d)[:, None, None]]
    del order  # the shuffled copies are scored with only columns held
    hit = model.predict_shuffled(X, proba, columns) >= 0.5
    pos, neg = y == 1, y == 0
    tp = np.count_nonzero(hit & pos, axis=2).tolist()
    fp = np.count_nonzero(hit & neg, axis=2).tolist()
    fn = np.count_nonzero(~hit & pos, axis=2).tolist()
    drops = np.zeros(d)
    for j in range(d):
        acc = 0.0
        for s in range(N_SHUFFLES):
            acc += base - _f1_from_counts(tp[j][s], fp[j][s], fn[j][s])[2]
        drops[j] = acc / N_SHUFFLES
    drops = np.clip(drops, 0.0, None)
    total = drops.sum()
    return drops / total if total > 0 else drops


def importance(model, X_holdout=None, y_holdout=None, seed: int = 0) -> np.ndarray:
    """Normalized importance vector for any model kind.

    Trees report mean decrease in weighted impurity; linear models the
    absolute coefficients (meaningful over standardized features); KNN and
    MLP need held-out data for permutation importance, which the others ignore.
    """
    kind = model.kind
    if kind in ("rf", "gbdt"):
        return np.array(model.feature_importances_)
    if kind in ("lr", "svm"):
        mag = np.abs(model.coef_)
        total = mag.sum()
        return mag / total if total > 0 else mag
    if X_holdout is None or y_holdout is None:
        raise ValueError(f"{kind} importances require held-out data")
    return permutation_importance(model, X_holdout, y_holdout, seed)
