import numpy as np
import pytest

from shopstream.models import (
    MODEL_KINDS,
    DimensionMismatch,
    NonFiniteInput,
    SingleClassTraining,
    TrainConfig,
    class_weights,
    fit,
    importance,
    neighbors,
    permutation_importance,
    predict,
    predict_proba,
    sample_weights,
)
from shopstream.models.linear import LogisticRegression
from shopstream.models.mlp import MLPClassifier
from shopstream.models.neighbors import KNNClassifier, _nearest
from shopstream.models.trees import GradientBoostingClassifier


def _fast_cfg(kind, seed=0, **kw):
    base = dict(
        kind=kind, seed=seed, n_trees=40, max_depth=8, min_samples_leaf=2,
        gbdt_rounds=80, epochs=300, mlp_epochs=250,
    )
    base.update(kw)
    return TrainConfig(**base)


def blobs(seed=0, n=400, d=4, gap=2.0):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(np.int64)
    X = rng.normal(size=(n, d))
    X[y == 1] += gap
    return X, y


def xor_data(seed=0, n=400):
    rng = np.random.default_rng(seed)
    a = (rng.random(n) < 0.5).astype(np.int64)
    b = (rng.random(n) < 0.5).astype(np.int64)
    X = np.column_stack([a + rng.normal(scale=0.05, size=n), b + rng.normal(scale=0.05, size=n)])
    return X, (a ^ b).astype(np.int64)


def test_class_weight_formula():
    y = np.array([1] * 10 + [0] * 90)
    cw = class_weights(y)
    assert cw[1] == pytest.approx(5.0)
    assert cw[0] == pytest.approx(100 / 180)
    sw = sample_weights(y, True)
    assert sw[0] == pytest.approx(5.0) and sw[-1] == pytest.approx(0.5556, abs=1e-4)
    assert np.array_equal(sample_weights(y, False), np.ones(100))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_all_models_fit_separable_blobs(kind):
    X, y = blobs(seed=3)
    model = fit(X, y, _fast_cfg(kind))
    acc = (predict(model, X) == y).mean()
    assert acc >= 0.95, f"{kind}: {acc}"


def test_trees_solve_xor_linear_does_not():
    X, y = xor_data(seed=5)
    for kind in ("rf", "gbdt"):
        model = fit(X, y, _fast_cfg(kind))
        assert (predict(model, X) == y).mean() >= 0.95
    lr = fit(X, y, _fast_cfg("lr"))
    assert (predict(lr, X) == y).mean() <= 0.6


def test_probabilities_bounded():
    X, y = blobs(seed=9, n=200)
    rng = np.random.default_rng(0)
    probes = rng.normal(scale=5, size=(50, X.shape[1]))
    for kind in MODEL_KINDS:
        model = fit(X, y, _fast_cfg(kind))
        p = predict_proba(model, probes)
        assert ((p >= 0) & (p <= 1)).all(), kind


def test_rf_unanimous_vote_is_one():
    X, y = blobs(seed=13, gap=6.0)
    model = fit(X, y, _fast_cfg("rf"))
    deep_in_class1 = np.full((1, X.shape[1]), 6.0)
    assert predict_proba(model, deep_in_class1)[0] == pytest.approx(1.0)


def test_lr_zero_weights_gives_half():
    m = LogisticRegression()
    m.coef_ = np.zeros(3)
    m.intercept_ = 0.0
    assert m.predict_proba(np.zeros((1, 3)))[0] == pytest.approx(0.5)


def test_knn_vote_counting():
    m = KNNClassifier(k=3)
    X = np.array([[0.0], [1.0], [2.0], [10.0]])
    y = np.array([1, 1, 0, 0])
    m.fit(X, y, np.ones(4))
    # neighbors of 0.5 are rows 0,1,2 with labels 1,1,0 and unit weights
    assert m.predict_proba(np.array([[0.5]]))[0] == pytest.approx(2 / 3)


def test_knn_weighted_votes():
    m = KNNClassifier(k=3)
    X = np.array([[0.0], [1.0], [2.0], [10.0]])
    y = np.array([1, 1, 0, 0])
    m.fit(X, y, np.array([1.0, 1.0, 4.0, 4.0]))
    assert m.predict_proba(np.array([[0.5]]))[0] == pytest.approx(2 / 6)


def _tie_heavy(seed=0, n=60):
    """One-hot, 0/1 and half-integer columns, queries partly copied from the
    training rows, so many distances tie, also at the k-th neighbour."""
    rng = np.random.default_rng(seed)
    cat = rng.integers(0, 3, n)
    X = np.hstack([(cat[:, None] == np.arange(3)).astype(float),
                   rng.integers(0, 2, (n, 2)).astype(float), rng.integers(0, 4, (n, 1)) / 2])
    y = rng.integers(0, 2, n)
    Q = np.vstack([X[rng.integers(0, n, 25)], rng.integers(0, 2, (10, X.shape[1]))])
    return X, y, np.where(y == 1, 1.7, 0.6), Q


def _stable_argsort_nearest(d2, k):
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


@pytest.mark.parametrize("k", [1, 5, 15, 60, 63])
def test_knn_nearest_matches_stable_argsort(k):
    X, y, w, Q = _tie_heavy()
    d2 = np.einsum("ij,ij->i", X, X)[None, :] - 2.0 * (Q @ X.T)
    if k < X.shape[0]:
        # both paths run: rows without a tie at the k-th distance, and rows with one
        kth = np.sort(d2, axis=1)[:, k - 1 : k]
        n_at_or_below = (d2 <= kth).sum(axis=1)
        assert (n_at_or_below == k).any() and (n_at_or_below > k).any()
    assert np.array_equal(_nearest(d2, k), _stable_argsort_nearest(d2, k))
    # continuous distances never tie, so below n_train only the partition path runs
    d2 = np.random.default_rng(k).normal(size=(30, X.shape[0]))
    assert np.array_equal(_nearest(d2, k), _stable_argsort_nearest(d2, k))


@pytest.mark.parametrize("k", [1, 5, 60, 63])
def test_knn_predict_proba_bit_equal_to_argsort_path(k, monkeypatch):
    X, y, w, Q = _tie_heavy(seed=2)
    got = KNNClassifier(k=k).fit(X, y, w).predict_proba(Q)
    monkeypatch.setattr(neighbors, "_nearest", _stable_argsort_nearest)
    want = KNNClassifier(k=k).fit(X, y, w).predict_proba(Q)
    assert got.tobytes() == want.tobytes()


def test_determinism_same_seed_same_predictions():
    X, y = blobs(seed=21)
    probes = np.random.default_rng(1).normal(size=(30, X.shape[1]))
    for kind in MODEL_KINDS:
        a = predict_proba(fit(X, y, _fast_cfg(kind, seed=7)), probes)
        b = predict_proba(fit(X, y, _fast_cfg(kind, seed=7)), probes)
        assert np.array_equal(a, b), kind


def test_lr_weighting_equals_duplication():
    rng = np.random.default_rng(33)
    n_pos, n_neg = 20, 180
    X_pos = rng.normal(size=(n_pos, 3)) + 1.0
    X_neg = rng.normal(size=(n_neg, 3))
    X = np.vstack([X_pos, X_neg])
    y = np.array([1] * n_pos + [0] * n_neg)

    weighted = fit(X, y, TrainConfig(kind="lr", class_weighting=True, epochs=800))
    X_dup = np.vstack([np.repeat(X_pos, 9, axis=0), X_neg])
    y_dup = np.array([1] * (9 * n_pos) + [0] * n_neg)
    duplicated = fit(X_dup, y_dup, TrainConfig(kind="lr", class_weighting=False, epochs=800))
    assert np.abs(weighted.coef_ - duplicated.coef_).max() <= 1e-3
    assert abs(weighted.intercept_ - duplicated.intercept_) <= 1e-3


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(77)
    n, d, h = 20, 4, 5
    X = rng.normal(size=(n, d))
    y = (rng.random(n) < 0.5).astype(np.float64)
    w = rng.random(n) + 0.5
    params = {
        "w1": rng.normal(size=(d, h)) * 0.7,
        "b1": rng.normal(size=h) * 0.3,
        "w2": rng.normal(size=h) * 0.7,
        "b2": 0.1,
    }
    _, grads = MLPClassifier.loss_and_grad(params, X, y, w)
    eps = 1e-5

    def loss_at(p):
        return MLPClassifier.loss_and_grad(p, X, y, w)[0]

    for key in ("w1", "b1", "w2"):
        flat = np.array(params[key], dtype=np.float64)
        it = np.nditer(flat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            up = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
            dn = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
            up[key][idx] += eps
            dn[key][idx] -= eps
            fd = (loss_at(up) - loss_at(dn)) / (2 * eps)
            g = grads[key][idx]
            assert abs(g - fd) <= 1e-4 * max(1.0, abs(g)), (key, idx, g, fd)
    up = dict(params, b2=params["b2"] + eps)
    dn = dict(params, b2=params["b2"] - eps)
    fd = (loss_at(up) - loss_at(dn)) / (2 * eps)
    assert abs(grads["b2"] - fd) <= 1e-4 * max(1.0, abs(grads["b2"]))


def test_single_feature_importance_is_one():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(300, 1))
    y = (X[:, 0] > 0).astype(np.int64)
    for kind in ("rf", "gbdt", "lr", "svm"):
        model = fit(X, y, _fast_cfg(kind))
        imp = importance(model)
        assert imp.shape == (1,)
        assert imp[0] == pytest.approx(1.0)


def test_rf_importance_planted_signal():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(500, 5))
    y = (X[:, 1] > 0).astype(np.int64)
    model = fit(X, y, _fast_cfg("rf"))
    imp = importance(model)
    assert imp[1] >= 0.9
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)
    assert (imp >= 0).all()


def test_gbdt_importance_sums_to_one():
    X, y = blobs(seed=55)
    model = fit(X, y, _fast_cfg("gbdt"))
    imp = importance(model)
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)


def test_permutation_importance_noise_feature_small():
    rng = np.random.default_rng(71)
    X = rng.normal(size=(400, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    X_test = rng.normal(size=(200, 3))
    y_test = (X_test[:, 0] > 0).astype(np.int64)
    model = fit(X, y, _fast_cfg("mlp"))
    imp = permutation_importance(model, X_test, y_test, seed=3)
    assert imp[0] >= 0.8
    assert imp[1] <= 0.05 and imp[2] <= 0.05


def test_knn_importance_requires_holdout():
    X, y = blobs(seed=4, n=100)
    model = fit(X, y, _fast_cfg("knn"))
    with pytest.raises(ValueError):
        importance(model)
    imp = importance(model, X, y, seed=1)
    assert imp.shape == (X.shape[1],)


def test_fit_error_cases():
    X = np.zeros((10, 2))
    with pytest.raises(SingleClassTraining):
        fit(X, np.zeros(10, dtype=int), _fast_cfg("lr"))
    X_bad = X.copy()
    X_bad[0, 0] = np.nan
    with pytest.raises(NonFiniteInput):
        fit(X_bad, np.array([0, 1] * 5), _fast_cfg("lr"))


def test_predict_dimension_mismatch():
    X, y = blobs(seed=6, n=100)
    model = fit(X, y, _fast_cfg("lr"))
    with pytest.raises(DimensionMismatch):
        predict_proba(model, np.zeros((2, X.shape[1] + 1)))


def test_tree_tie_break_prefers_lowest_feature_and_threshold():
    # four identical columns: gbdt considers every feature at every node, so
    # equal-gain ties must resolve to feature 0
    base = np.array([[0.0], [0.0], [1.0], [1.0]])
    X = np.repeat(np.repeat(base, 4, axis=1), 10, axis=0)
    y = np.repeat(np.array([0, 0, 1, 1]), 10)
    gb = GradientBoostingClassifier(n_rounds=5, max_depth=2, seed=5)
    gb.fit(X, y, np.ones(40))
    split_features = {int(f) for tree in gb.trees for f in tree.feature if f >= 0}
    assert split_features == {0}


def test_gbdt_monotone_loss_improvement():
    X, y = blobs(seed=10, n=300, gap=1.0)
    few = fit(X, y, _fast_cfg("gbdt", gbdt_rounds=5))
    many = fit(X, y, _fast_cfg("gbdt", gbdt_rounds=80))
    acc_few = (predict(few, X) == y).mean()
    acc_many = (predict(many, X) == y).mean()
    assert acc_many >= acc_few
