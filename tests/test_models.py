import inspect

import numpy as np
import pytest

import tracemalloc

from helpers import grow_tree_reference, mlp_loss_and_grad, rf_fit_reference
from shopstream.models import (
    MODEL_KINDS,
    DimensionMismatch,
    NonFiniteInput,
    SingleClassTraining,
    TrainConfig,
    N_SHUFFLES,
    class_weights,
    f1_score,
    fit,
    importance,
    neighbors,
    permutation_importance,
    predict,
    predict_proba,
    sample_weights,
)
from shopstream.models.linear import LinearSVM, LogisticRegression, _sigmoid
from shopstream.models.mlp import MLPClassifier
from shopstream.models.neighbors import KNNClassifier, _nearest
from shopstream.models import trees
from shopstream.models.trees import GradientBoostingClassifier, RandomForestClassifier


def test_model_constructors_take_only_settable_options():
    """A model's constructor takes only what TrainConfig sets: the rates,
    l2, gbdt depth and the split minimum are constants of the classes."""
    expected = {
        LogisticRegression: ("epochs", "seed"),
        LinearSVM: ("epochs", "seed"),
        KNNClassifier: ("k", "seed"),
        RandomForestClassifier: ("n_trees", "max_depth", "min_samples_leaf", "max_bins", "seed"),
        GradientBoostingClassifier: ("n_rounds", "min_samples_leaf", "max_bins", "seed"),
        MLPClassifier: ("hidden", "epochs", "seed"),
    }
    assert sorted(cls.kind for cls in expected) == sorted(MODEL_KINDS)
    for cls, names in expected.items():
        assert tuple(inspect.signature(cls).parameters) == names, cls.__name__


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
    sw = sample_weights(y)
    assert sw[0] == pytest.approx(5.0) and sw[-1] == pytest.approx(0.5556, abs=1e-4)


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

    weighted = fit(X, y, TrainConfig(kind="lr", epochs=800))
    X_dup = np.vstack([np.repeat(X_pos, 9, axis=0), X_neg])
    y_dup = np.array([1] * (9 * n_pos) + [0] * n_neg)
    # the same learner, fitted without class weights
    duplicated = LogisticRegression(epochs=800).fit(X_dup, y_dup, np.ones(len(y_dup)))
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
    _, grads = mlp_loss_and_grad(params, X, y, w)
    eps = 1e-5

    def loss_at(p):
        return mlp_loss_and_grad(p, X, y, w)[0]

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
    with pytest.raises(ValueError, match="0 or 1"):
        fit(X, np.array([0, 2] * 5), _fast_cfg("lr"))
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
    gb = GradientBoostingClassifier(n_rounds=5, seed=5)
    gb.fit(X, y, np.ones(40))
    split_features = {int(f) for tree in gb.trees for f in tree.feature if f >= 0}
    assert split_features == {0}


@pytest.mark.parametrize("criterion", ["gini", "mse"])
def test_split_never_leaves_a_child_empty(criterion):
    # A node whose rows sit in two bins with the same weighted label mix, so
    # no real split gains anything, and a third bin above them that only a
    # row outside the tree fills. A threshold above both bins leaves the
    # right child empty, but the node's bincount total and the bins' cumsum
    # round differently, so its weight can come out a few ulps above 0. The
    # seed is one where it does, and weights alone once let that split pass.
    rng = np.random.default_rng(492)
    m = 72
    w_half = rng.choice([1.1, 2.7], m) * rng.integers(1, 6, m)
    y_half = (rng.random(m) < 0.5).astype(np.float64)
    perm = rng.permutation(m)
    order = rng.permutation(2 * m)
    w = np.concatenate([w_half, w_half[perm]])[order]
    y = np.concatenate([np.concatenate([y_half, y_half[perm]])[order], [0.0]])
    x = np.concatenate([np.repeat([0.0, 1.0], m)[order], [2.0]])[:, None]
    (tree,), node_of_row = trees._grow_trees(
        trees._BinnedDesign(x, 32), [np.arange(2 * m)], y, w, criterion=criterion, max_depth=12,
        min_samples_split=2, min_samples_leaf=1, rngs=[np.random.default_rng(0)], max_features=1,
    )
    leaves = np.flatnonzero(tree.feature < 0)
    assert set(node_of_row.tolist()) == set(leaves.tolist())  # every leaf holds a training row
    assert np.isfinite(tree.value).all()


def test_tree_predict_walks_past_64_levels():
    # a 70-level chain: internal node 2i splits x <= i + 0.5 into leaf 2i + 1
    # (value i) and internal node 2i + 2; node 140 is the last leaf (value 70)
    depth = 70
    n_nodes = 2 * depth + 1
    inner = np.arange(0, 2 * depth, 2)
    feature = np.full(n_nodes, -1, dtype=np.int32)
    feature[inner] = 0
    threshold = np.zeros(n_nodes)
    threshold[inner] = np.arange(depth) + 0.5
    left = np.full(n_nodes, -1, dtype=np.int32)
    left[inner] = inner + 1
    right = np.full(n_nodes, -1, dtype=np.int32)
    right[inner] = inner + 2
    value = np.full(n_nodes, -1.0)  # internal nodes: no row may end here
    value[inner + 1] = np.arange(depth)
    value[-1] = depth
    tree = trees._Tree(feature, threshold, left, right, value, np.zeros(1))
    X = np.arange(depth + 1, dtype=np.float64)[::-1, None]
    assert tree.predict(X).tolist() == X[:, 0].tolist()


def test_gbdt_monotone_loss_improvement():
    X, y = blobs(seed=10, n=300, gap=1.0)
    few = fit(X, y, _fast_cfg("gbdt", gbdt_rounds=5))
    many = fit(X, y, _fast_cfg("gbdt", gbdt_rounds=80))
    acc_few = (predict(few, X) == y).mean()
    acc_many = (predict(many, X) == y).mean()
    assert acc_many >= acc_few


# --- batched paths against the per-call reference loops ----------------------


def _permutation_importance_reference(model, X, y, seed=0):
    """One 2-D predict per shuffled copy of X, drops summed shuffle by shuffle."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    base = f1_score(y, predict(model, X))[2]
    rng = np.random.default_rng(seed)
    drops = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        acc = 0.0
        for _ in range(N_SHUFFLES):
            Xp = X.copy()
            Xp[:, j] = Xp[rng.permutation(X.shape[0]), j]
            acc += base - f1_score(y, predict(model, Xp))[2]
        drops[j] = acc / N_SHUFFLES
    drops = np.clip(drops, 0.0, None)
    total = drops.sum()
    return drops / total if total > 0 else drops


def _mlp_fit_reference(X, y, sample_weight, hidden, epochs, learning_rate, seed):
    """Per-parameter dict Adam on the loss and gradients of every epoch."""
    n, d = X.shape
    rng = np.random.default_rng(seed)
    params = {
        "w1": rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, hidden)),
        "b1": np.zeros(hidden),
        "w2": rng.normal(0.0, 1.0 / np.sqrt(hidden), size=hidden),
        "b2": 0.0,
    }
    yf = y.astype(np.float64)
    m = {k: np.zeros_like(np.asarray(v, dtype=np.float64)) for k, v in params.items()}
    v = {k: np.zeros_like(np.asarray(vv, dtype=np.float64)) for k, vv in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for t in range(1, epochs + 1):
        sw = sample_weight / sample_weight.sum()
        h = np.tanh(X @ params["w1"] + params["b1"])
        p = _sigmoid(h @ params["w2"] + params["b2"])
        _loss = -float(np.sum(sw * (yf * np.log(p + 1e-12) + (1 - yf) * np.log(1 - p + 1e-12))))
        dz = sw * (p - yf)
        dh = np.outer(dz, params["w2"]) * (1.0 - h * h)
        grads = {"w1": X.T @ dh, "b1": dh.sum(axis=0), "w2": h.T @ dz, "b2": float(dz.sum())}
        for k in params:
            m[k] = beta1 * m[k] + (1 - beta1) * grads[k]
            v[k] = beta2 * v[k] + (1 - beta2) * np.square(grads[k])
            m_hat = m[k] / (1 - beta1 ** t)
            v_hat = v[k] / (1 - beta2 ** t)
            params[k] = params[k] - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return params


def _knn_holdout_cases():
    """(X, y, w, Q, y_q) with 60 training rows: tie-heavy data, whose
    products are exact, and continuous data, whose products round."""
    for seed in range(3):
        X, y, w, Q = _tie_heavy(seed=seed)
        yield X, y, w, Q, np.random.default_rng(seed + 100).integers(0, 2, Q.shape[0])
        X, y = blobs(seed=seed, n=95, d=6, gap=0.7)
        yield X[:60], y[:60], np.where(y[:60] == 1, 1.3, 0.8), X[60:], y[60:]


# (DISTANCE_BUDGET, STACK_BUDGET) over 60 training rows: the defaults stack
# every slice; 420 gives 7-row chunks, all 5 slices stacked; 1680 and 1680
# give 28- and 7-row chunks, one slice per product, then 4 and 1; 1 stacks none
_BUDGETS = [None, (420, None), (1680, 1680), (None, 1)]


def _set_budgets(monkeypatch, budgets):
    for name, value in zip(("DISTANCE_BUDGET", "STACK_BUDGET"), budgets or ()):
        if value is not None:
            monkeypatch.setattr(neighbors, name, value)


@pytest.mark.parametrize("budgets", _BUDGETS)
@pytest.mark.parametrize("k", [1, 5, 60, 63])
def test_knn_permutation_importance_bit_equal_to_reference(k, budgets, monkeypatch):
    _set_budgets(monkeypatch, budgets)
    seen_nonzero = False
    for i, (X, y, w, Q, y_q) in enumerate(_knn_holdout_cases()):
        model = KNNClassifier(k=k).fit(X, y, w)
        got = permutation_importance(model, Q, y_q, seed=i)
        want = _permutation_importance_reference(model, Q, y_q, seed=i)
        assert got.tobytes() == want.tobytes(), (i, got, want)
        seen_nonzero |= bool(got.any())
    # with k >= n_train every query gets the same vote, so nothing matters
    assert seen_nonzero == (k < 60)


def test_mlp_permutation_importance_bit_equal_to_reference():
    for seed in range(3):
        X, y = blobs(seed=seed, n=120, d=5, gap=0.8)
        X_test, y_test = blobs(seed=seed + 50, n=60, d=5, gap=0.8)
        model = fit(X, y, _fast_cfg("mlp", seed=seed, hidden=6, mlp_epochs=40))
        got = permutation_importance(model, X_test, y_test, seed=seed)
        want = _permutation_importance_reference(model, X_test, y_test, seed=seed)
        assert got.tobytes() == want.tobytes(), (seed, got, want)
        assert got.any()


def test_mlp_batched_predict_proba_bit_equal_per_slice():
    X, y = blobs(seed=4, n=150, d=23, gap=0.5)
    model = fit(X[:100], y[:100], _fast_cfg("mlp", hidden=32, mlp_epochs=20))
    stack = np.stack([np.random.default_rng(i).permutation(X[100:]) for i in range(5)])
    got = predict_proba(model, stack)
    assert got.shape == stack.shape[:2]
    for i in range(stack.shape[0]):
        assert got[i].tobytes() == predict_proba(model, stack[i]).tobytes()


@pytest.mark.parametrize("n, d, hidden, epochs", [(20, 3, 4, 1), (57, 6, 5, 30), (200, 23, 32, 100), (9, 1, 1, 7)])
def test_mlp_fit_bit_equal_to_reference(n, d, hidden, epochs):
    X, y = blobs(seed=n + d, n=n, d=d, gap=0.5)
    y[:2] = (0, 1)
    sw = sample_weights(y)
    model = MLPClassifier(hidden, epochs, seed=d).fit(X, y, sw)
    want = _mlp_fit_reference(X, y, sw, hidden, epochs, 0.02, seed=d)
    for key in ("w1", "b1", "w2"):
        assert getattr(model, key).tobytes() == want[key].tobytes(), key
    assert model.b2 == float(want["b2"])
    assert isinstance(model.b2, float)


@pytest.mark.parametrize("kind", ["knn", "mlp"])
def test_permutation_importance_one_predict_per_feature(kind, monkeypatch):
    X, y = blobs(seed=8, n=120, d=6)
    X[:, 1] = np.round(X[:, 1])  # repeated values, so some shuffled rows keep theirs
    model = fit(X, y, _fast_cfg(kind, mlp_epochs=5))
    calls, ranked = [], []
    real = model.predict_proba

    def counting(X):
        calls.append(X.shape)
        return real(X)

    real_nearest = neighbors._nearest

    def nearest(d2, k):
        ranked.append(d2.shape[0])
        return real_nearest(d2, k)

    model.predict_proba = counting
    monkeypatch.setattr(neighbors, "_nearest", nearest)
    if kind == "knn":
        monkeypatch.setattr(neighbors, "MOVED_BUDGET", 7 * model.X_.shape[0])
    permutation_importance(model, X[:40], y[:40], seed=1)
    if kind == "mlp":
        # the unshuffled baseline, then one stack of N_SHUFFLES copies per feature
        assert calls == [(40, X.shape[1])] + [(N_SHUFFLES, 40, X.shape[1])] * X.shape[1]
        return
    # the unshuffled baseline only; then the rows whose shuffled value moved,
    # drawn as permutation_importance draws them, are ranked 7 at a time
    assert calls == [(40, X.shape[1])]
    rng = np.random.default_rng(1)
    n_moved = 0
    for j in range(X.shape[1]):
        for _ in range(N_SHUFFLES):
            n_moved += np.count_nonzero(X[:40][rng.permutation(40), j] != X[:40, j])
    assert n_moved < N_SHUFFLES * 40 * X.shape[1]
    assert ranked == [40] + [7] * (n_moved // 7) + ([n_moved % 7] if n_moved % 7 else [])


def test_knn_permutation_importance_one_moved_row_per_buffer(monkeypatch):
    monkeypatch.setattr(neighbors, "MOVED_BUDGET", 1)
    for i, (X, y, w, Q, y_q) in enumerate(_knn_holdout_cases()):
        for k in (1, 5):
            model = KNNClassifier(k=k).fit(X, y, w)
            got = permutation_importance(model, Q, y_q, seed=i)
            want = _permutation_importance_reference(model, Q, y_q, seed=i)
            assert got.tobytes() == want.tobytes(), (i, k)


def test_knn_permutation_importance_constant_column(monkeypatch):
    # no shuffle moves a constant column: its rows keep the unshuffled
    # prediction, it is never ranked, and its drop is exactly 0
    X, y, w, Q = _tie_heavy(seed=4)
    Q = Q.copy()
    Q[:, 2] = 1.0
    y_q = np.random.default_rng(104).integers(0, 2, Q.shape[0])
    model = KNNClassifier(k=5).fit(X, y, w)
    want = _permutation_importance_reference(model, Q, y_q, seed=3)
    ranked = []
    real_nearest = neighbors._nearest

    def nearest(d2, k):
        ranked.append(d2.shape[0])
        return real_nearest(d2, k)

    monkeypatch.setattr(neighbors, "_nearest", nearest)
    monkeypatch.setattr(neighbors, "MOVED_BUDGET", 1)
    got = permutation_importance(model, Q, y_q, seed=3)
    assert got.tobytes() == want.tobytes()
    assert got[2] == 0.0 and got.any()
    rng = np.random.default_rng(3)
    moved = sum(np.count_nonzero(Q[rng.permutation(len(Q)), j] != Q[:, j])
                for j in range(Q.shape[1]) for _ in range(N_SHUFFLES))
    assert len(ranked) == 1 + moved  # the baseline's one call, then one per moved row


def test_knn_permutation_importance_peak_memory_within_reference():
    # a default-size fold: 780 training rows, 87 held out, 23 features
    X, y = blobs(seed=21, n=867, d=23, gap=0.4)
    model = fit(X[:780], y[:780], _fast_cfg("knn"))
    Q, y_q = X[780:], y[780:]
    peaks = []
    for path in (permutation_importance, _permutation_importance_reference):
        path(model, Q, y_q, seed=4)
        tracemalloc.start()
        try:
            path(model, Q, y_q, seed=4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


# --- rf trees grown as a group against one tree at a time ---------------------


def _assert_same_forest(got, want, X_probe):
    assert len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        for key in ("feature", "threshold", "left", "right", "value", "importance"):
            assert getattr(a, key).dtype == getattr(b, key).dtype, key
            assert getattr(a, key).tobytes() == getattr(b, key).tobytes(), key
    assert got.feature_importances_.tobytes() == want.feature_importances_.tobytes()
    assert got.predict_proba(X_probe).tobytes() == want.predict_proba(X_probe).tobytes()


def _depth(tree) -> int:
    depth = np.zeros(tree.feature.size, dtype=np.int64)
    for node in range(tree.feature.size):  # children come after their parent
        if tree.feature[node] >= 0:
            depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


_RF_CASES = ["default", "min_samples_leaf=3", "constant column", "all columns constant",
             "max_depth=1", "uneven depths", "integer columns, 4 bins"]


def _rf_case(name):
    """(X, y, forest parameters) of one rf comparison case."""
    X, y = blobs(seed=31, n=150, d=6, gap=0.8)
    if name == "min_samples_leaf=3":
        return X, y, {"min_samples_leaf": 3}
    if name == "constant column":
        X[:, 2] = 4.0
    if name == "all columns constant":  # max_thr == 0: every tree is one leaf
        return np.ones((40, 3)), y[:40], {}
    if name == "max_depth=1":
        return X, y, {"max_depth": 1}
    if name == "uneven depths":
        X, y = blobs(seed=32, n=80, d=3, gap=3.0)
        return X, y, {"max_depth": 6}
    if name == "integer columns, 4 bins":
        return np.round(X * 2), y, {"max_bins": 4}
    return X, y, {}


@pytest.mark.parametrize("name", _RF_CASES)
def test_rf_grown_as_group_bit_equal_to_per_tree_reference(name):
    X, y, params = _rf_case(name)
    sw = sample_weights(y)
    seed = _RF_CASES.index(name)
    params = {"n_trees": 9, "max_depth": 8, "seed": seed, **params}
    got = RandomForestClassifier(**params).fit(X, y, sw)
    want = rf_fit_reference(RandomForestClassifier(**params), X, y, sw)
    _assert_same_forest(got, want, np.random.default_rng(seed).normal(size=(25, X.shape[1])) + X.mean(axis=0))
    if name == "uneven depths":
        assert len({_depth(t) for t in got.trees}) > 1
    if name == "all columns constant":
        assert all(t.feature.tolist() == [-1] for t in got.trees)


def test_rf_groups_capped_by_histogram_budget(monkeypatch):
    X, y = blobs(seed=33, n=120, d=9, gap=0.6)
    sw = sample_weights(y)
    # a tree of this fit may split min(2^11, 120 // 2) nodes, each with a
    # 3-feature x 32-bin histogram
    monkeypatch.setattr(trees, "HIST_BUDGET", 3 * 60 * 3 * 32)
    groups = []
    real = trees._grow_trees

    def counting(design, rows, *args, **kw):
        groups.append(len(rows))
        return real(design, rows, *args, **kw)

    monkeypatch.setattr(trees, "_grow_trees", counting)
    got = RandomForestClassifier(n_trees=7, seed=4).fit(X, y, sw)
    assert groups == [3, 3, 1]
    want = rf_fit_reference(RandomForestClassifier(n_trees=7, seed=4), X, y, sw)
    _assert_same_forest(got, want, X[:30] + 0.1)


@pytest.mark.parametrize("min_samples_leaf", [1, 3])
def test_gbdt_shared_grower_bit_equal_to_per_tree_reference(min_samples_leaf, monkeypatch):
    X, y = blobs(seed=34, n=160, d=5, gap=0.5)
    X[:, 3] = 2.0
    sw = sample_weights(y)
    got = GradientBoostingClassifier(n_rounds=12, min_samples_leaf=min_samples_leaf).fit(X, y, sw)

    def reference(design, rows, response, weights, **kw):
        assert rows is None
        tree, leaf_of_row = grow_tree_reference(design, np.arange(response.size), response, weights, **kw)
        return [tree], leaf_of_row

    monkeypatch.setattr(trees, "_grow_trees", reference)
    want = GradientBoostingClassifier(n_rounds=12, min_samples_leaf=min_samples_leaf).fit(X, y, sw)
    _assert_same_forest(got, want, X[:40] - 0.2)
    assert got.f0 == want.f0
