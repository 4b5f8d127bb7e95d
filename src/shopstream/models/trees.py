"""Decision-tree ensembles: random forest and gradient-boosted trees.

Trees are grown level-wise on quantile-binned features; histograms for every
node of a level come from single bincount calls, which keeps fitting fast
without native extensions. Binning is exact whenever a column has at most
max_bins distinct values (one-hots, small integer counts), and quantile
thresholds otherwise.

Split tie-breaking is deterministic: at equal gain the lowest feature index
wins, then the lowest threshold.
"""

from __future__ import annotations

import numpy as np

from .linear import _sigmoid


def _bin_thresholds(col: np.ndarray, max_bins: int) -> np.ndarray:
    """Candidate split thresholds for one column (sorted, possibly empty)."""
    uniq = np.unique(col)
    if uniq.size <= 1:
        return np.empty(0)
    if uniq.size <= max_bins:
        return (uniq[:-1] + uniq[1:]) / 2.0
    qs = np.quantile(col, np.linspace(0.0, 1.0, max_bins + 1)[1:-1])
    return np.unique(qs)


class _BinnedDesign:
    """Per-feature thresholds plus integer codes for every training row."""

    def __init__(self, X: np.ndarray, max_bins: int):
        n, f = X.shape
        self.thresholds = [_bin_thresholds(X[:, j], max_bins) for j in range(f)]
        self.n_features = f
        # code c means: x <= thresholds[c] (and x > thresholds[c-1])
        self.bins = max((t.size for t in self.thresholds), default=0) + 1
        self.codes = np.zeros((n, f), dtype=np.int32)
        for j, thr in enumerate(self.thresholds):
            if thr.size:
                self.codes[:, j] = np.searchsorted(thr, X[:, j], side="left")


class _Tree:
    """Flat-array binary tree; feature == -1 marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "value", "importance")

    def __init__(self, feature, threshold, left, right, value, importance):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.importance = importance

    def predict(self, X: np.ndarray) -> np.ndarray:
        cur = np.zeros(X.shape[0], dtype=np.int32)
        for _ in range(64):
            feat = self.feature[cur]
            active = feat >= 0
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            f = feat[rows]
            go_left = X[rows, f] <= self.threshold[cur[rows]]
            cur[rows] = np.where(go_left, self.left[cur[rows]], self.right[cur[rows]])
        return self.value[cur]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "_Tree":
        return cls(
            np.array(d["feature"], dtype=np.int32),
            np.array(d["threshold"], dtype=np.float64),
            np.array(d["left"], dtype=np.int32),
            np.array(d["right"], dtype=np.int32),
            np.array(d["value"], dtype=np.float64),
            np.zeros(n_features),
        )


def _grow_tree(
    design: _BinnedDesign,
    rows: np.ndarray,
    response: np.ndarray,
    weights: np.ndarray,
    *,
    criterion: str,
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    feature_rng=None,
    max_features: int = 0,
) -> tuple[_Tree, np.ndarray]:
    """Grow one tree level-wise; returns the tree and each row's leaf id.

    criterion "gini" treats response as 0/1 labels and stores the weighted
    positive fraction in leaves; "mse" fits weighted means of the response.
    Gains are weighted impurity decreases, accumulated per feature as the
    importance vector.
    """
    codes = design.codes[rows]  # subset-relative copy; all row indices below are local
    bins = design.bins
    n_feat = design.n_features
    r = response[rows]
    w = weights[rows]

    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    value = [0.0]
    importance = np.zeros(n_feat)

    node_of_row = np.zeros(rows.size, dtype=np.int64)
    active_nodes = [0]

    def node_value(sw, swr):
        return swr / sw  # positive fraction (gini) or weighted mean (mse)

    for depth in range(max_depth + 1):
        if not active_nodes:
            break
        remap = {nid: i for i, nid in enumerate(active_nodes)}
        n_active = len(active_nodes)
        slot = np.full(len(feature), -1, dtype=np.int64)
        for nid, i in remap.items():
            slot[nid] = i
        row_slot = slot[node_of_row]
        live = row_slot >= 0
        live_rows = np.nonzero(live)[0]
        rs = row_slot[live_rows]
        lw = w[live_rows]
        lr_ = r[live_rows]
        lwr = lw * lr_

        sw = np.bincount(rs, weights=lw, minlength=n_active)
        swr = np.bincount(rs, weights=lwr, minlength=n_active)
        cnt = np.bincount(rs, minlength=n_active)
        if criterion == "mse":
            swr2 = np.bincount(rs, weights=lwr * lr_, minlength=n_active)

        for i, nid in enumerate(active_nodes):
            value[nid] = node_value(sw[i], swr[i])

        if depth == max_depth:
            break

        # splittable check: enough rows and impure
        if criterion == "gini":
            impure = (swr > 1e-12) & (sw - swr > 1e-12)
        else:
            impure = (swr2 - swr * swr / np.maximum(sw, 1e-300)) > 1e-12
        splittable = (cnt >= min_samples_split) & impure

        if max_features and feature_rng is not None:
            keys = feature_rng.random((n_active, n_feat))
            order = np.argsort(keys, axis=1, kind="stable")
            allowed = np.zeros((n_active, n_feat), dtype=bool)
            np.put_along_axis(allowed, order[:, :max_features], True, axis=1)
        else:
            allowed = np.ones((n_active, n_feat), dtype=bool)

        best_gain = np.zeros(n_active)
        best_feat = np.full(n_active, -1, dtype=np.int64)
        best_bin = np.zeros(n_active, dtype=np.int64)

        base = rs * bins
        check_counts = min_samples_leaf > 1
        for f in range(n_feat):
            n_thr = design.thresholds[f].size
            if n_thr == 0 or not allowed[:, f].any():
                continue
            key = base + codes[live_rows, f]
            hw = np.bincount(key, weights=lw, minlength=n_active * bins).reshape(n_active, bins)
            hwr = np.bincount(key, weights=lwr, minlength=n_active * bins).reshape(n_active, bins)

            wl = np.cumsum(hw, axis=1)[:, :n_thr]
            wrl = np.cumsum(hwr, axis=1)[:, :n_thr]
            wr_ = sw[:, None] - wl
            wrr = swr[:, None] - wrl

            valid = (
                (wl > 0)
                & (wr_ > 0)
                & allowed[:, f : f + 1]
                & splittable[:, None]
            )
            if check_counts:
                hn = np.bincount(key, minlength=n_active * bins).reshape(n_active, bins)
                nl = np.cumsum(hn, axis=1)[:, :n_thr]
                nr = cnt[:, None] - nl
                valid &= (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
            with np.errstate(divide="ignore", invalid="ignore"):
                if criterion == "gini":
                    parent = 2.0 * swr * (sw - swr) / sw
                    child = 2.0 * wrl * (wl - wrl) / wl + 2.0 * wrr * (wr_ - wrr) / wr_
                    gain = parent[:, None] - child
                else:
                    gain = wrl * wrl / wl + wrr * wrr / wr_ - (swr * swr / sw)[:, None]
            gain = np.where(valid, gain, -np.inf)
            fb = np.argmax(gain, axis=1)  # first max: lowest threshold wins ties
            fg = gain[np.arange(n_active), fb]
            better = fg > best_gain  # strict: earlier feature wins ties
            best_gain = np.where(better, fg, best_gain)
            best_feat = np.where(better, f, best_feat)
            best_bin = np.where(better, fb, best_bin)

        next_active = []
        split_feat = np.full(n_active, -1, dtype=np.int64)
        split_code = np.zeros(n_active, dtype=np.int64)
        goes_left_child = np.zeros(n_active, dtype=np.int64)
        goes_right_child = np.zeros(n_active, dtype=np.int64)
        for i, nid in enumerate(active_nodes):
            if best_feat[i] < 0 or best_gain[i] <= 1e-12:
                continue
            f = int(best_feat[i])
            b = int(best_bin[i])
            feature[nid] = f
            threshold[nid] = float(design.thresholds[f][b])
            importance[f] += best_gain[i]
            lid = len(feature)
            feature.extend([-1, -1])
            threshold.extend([0.0, 0.0])
            left.extend([-1, -1])
            right.extend([-1, -1])
            value.extend([0.0, 0.0])
            left[nid] = lid
            right[nid] = lid + 1
            split_feat[i] = f
            split_code[i] = b
            goes_left_child[i] = lid
            goes_right_child[i] = lid + 1
            next_active.extend([lid, lid + 1])

        has_split = split_feat[rs] >= 0
        srows = live_rows[has_split]
        s_slot = rs[has_split]
        go_left = codes[srows, split_feat[s_slot]] <= split_code[s_slot]
        node_of_row[srows] = np.where(
            go_left, goes_left_child[s_slot], goes_right_child[s_slot]
        )
        active_nodes = next_active

    tree = _Tree(
        np.array(feature, dtype=np.int32),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int32),
        np.array(right, dtype=np.int32),
        np.array(value, dtype=np.float64),
        importance,
    )
    return tree, node_of_row


class RandomForestClassifier:
    """Bagged gini trees with per-node feature subsampling and sample weights."""

    kind = "rf"

    def __init__(
        self,
        n_trees: int = 200,
        max_depth: int = 12,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        max_bins: int = 32,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_bins = max_bins
        self.seed = seed
        self.trees: list[_Tree] = []
        self.n_features = 0
        self.feature_importances_ = None

    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray):
        n, f = X.shape
        self.n_features = f
        design = _BinnedDesign(X, self.max_bins)
        max_features = max(1, int(np.sqrt(f)))
        self.trees = []
        total_importance = np.zeros(f)
        for t in range(self.n_trees):
            rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(t,)))
            boot = np.bincount(rng.integers(0, n, n), minlength=n)
            rows = np.nonzero(boot)[0]
            tree, _ = _grow_tree(
                design,
                rows,
                y.astype(np.float64),
                sample_weight * boot,  # bootstrap multiplicity folded into weights
                criterion="gini",
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                feature_rng=rng,
                max_features=max_features,
            )
            self.trees.append(tree)
            total_importance += tree.importance
        s = total_importance.sum()
        self.feature_importances_ = total_importance / s if s > 0 else total_importance
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "min_samples_split": self.min_samples_split,
            "max_bins": self.max_bins,
            "seed": self.seed,
            "n_features": self.n_features,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RandomForestClassifier":
        m = cls(
            d["n_trees"], d["max_depth"], d["min_samples_leaf"],
            d["min_samples_split"], d["max_bins"], d["seed"],
        )
        m.n_features = d["n_features"]
        m.trees = [_Tree.from_dict(t, m.n_features) for t in d["trees"]]
        return m


class GradientBoostingClassifier:
    """Log-loss boosting with depth-limited regression trees and Newton leaves."""

    kind = "gbdt"

    def __init__(
        self,
        n_rounds: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        max_bins: int = 32,
        seed: int = 0,
    ):
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_bins = max_bins
        self.seed = seed
        self.trees: list[_Tree] = []
        self.f0 = 0.0
        self.n_features = 0
        self.feature_importances_ = None

    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray):
        n, f = X.shape
        self.n_features = f
        design = _BinnedDesign(X, self.max_bins)
        rows = np.arange(n)
        wsum = sample_weight.sum()
        p0 = float(np.clip((sample_weight * y).sum() / wsum, 1e-12, 1 - 1e-12))
        self.f0 = float(np.log(p0 / (1 - p0)))
        margin = np.full(n, self.f0)
        total_importance = np.zeros(f)
        self.trees = []
        yf = y.astype(np.float64)
        for _ in range(self.n_rounds):
            p = _sigmoid(margin)
            residual = yf - p
            tree, leaf_of_row = _grow_tree(
                design,
                rows,
                residual,
                sample_weight,
                criterion="mse",
                max_depth=self.max_depth,
                min_samples_split=2 * self.min_samples_leaf,
                min_samples_leaf=self.min_samples_leaf,
            )
            # Newton step per leaf: sum(w*r) / sum(w*p*(1-p))
            n_nodes = tree.value.size
            num = np.bincount(leaf_of_row, weights=sample_weight * residual, minlength=n_nodes)
            den = np.bincount(leaf_of_row, weights=sample_weight * p * (1 - p), minlength=n_nodes)
            newton = np.where(den > 1e-12, num / np.maximum(den, 1e-12), 0.0)
            tree.value = np.where(tree.feature < 0, newton, 0.0)
            margin += self.learning_rate * tree.value[leaf_of_row]
            self.trees.append(tree)
            total_importance += tree.importance
        s = total_importance.sum()
        self.feature_importances_ = total_importance / s if s > 0 else total_importance
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        margin = np.full(X.shape[0], self.f0)
        for tree in self.trees:
            margin += self.learning_rate * tree.predict(X)
        return margin

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def to_dict(self) -> dict:
        return {
            "n_rounds": self.n_rounds,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_bins": self.max_bins,
            "seed": self.seed,
            "f0": self.f0,
            "n_features": self.n_features,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GradientBoostingClassifier":
        m = cls(
            d["n_rounds"], d["learning_rate"], d["max_depth"],
            d["min_samples_leaf"], d["max_bins"], d["seed"],
        )
        m.f0 = d["f0"]
        m.n_features = d["n_features"]
        m.trees = [_Tree.from_dict(t, m.n_features) for t in d["trees"]]
        return m
