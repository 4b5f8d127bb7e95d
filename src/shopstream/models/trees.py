"""Decision-tree ensembles: random forest and gradient-boosted trees.

Trees are grown level-wise on quantile-binned features, a group of trees at
a time: a random forest grows up to HIST_BUDGET's worth of trees together,
gradient boosting one per round. Per level, one bincount over (tree, node,
feature, bin) keys gives every splittable node's histograms for all the
features it may split on (one more bincount each for the weighted response
and, with min_samples_leaf > 1, the row counts), and one argmax over the
feature-major gains picks every node's split. Each bin adds its rows in row
order, so sums, and therefore trees, are bit-for-bit those of one bincount
per feature of one tree; histogram subtraction (sibling = parent - child) is
left out because it would change low-order bits. Binning is exact whenever
a column has at most max_bins distinct values (one-hots, small integer
counts), and quantile thresholds otherwise.

Split tie-breaking is deterministic: at equal gain the lowest feature index
wins, then the lowest threshold.
"""

from __future__ import annotations

import numpy as np

from .linear import _sigmoid

# float64 entries of one level histogram of a group of rf trees grown
# together (8 MiB), if each splits as many nodes as it can. A default fit
# (200 trees, 781 rows, 4 of 23 features) groups 21 trees: 2.1-3.0x faster
# than one tree at a time, at a 7 MB traced peak against 1.8 MB; groups of
# 16 to 64 trees ran about as fast, and one of all 200 slower, at 54 MB.
HIST_BUDGET = 1 << 20


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
        thresholds = [_bin_thresholds(X[:, j], max_bins) for j in range(f)]
        self.n_features = f
        self.n_thr = np.array([t.size for t in thresholds], dtype=np.int64)
        # code c means: x <= thresholds[c] (and x > thresholds[c-1])
        self.bins = int(self.n_thr.max(initial=0)) + 1
        # thr_table[j, c] is thresholds[j][c], zero-padded past n_thr[j]
        self.thr_table = np.zeros((f, self.bins - 1))
        self.codes = np.zeros((n, f), dtype=np.int32)
        for j, thr in enumerate(thresholds):
            if thr.size:
                self.thr_table[j, : thr.size] = thr
                self.codes[:, j] = np.searchsorted(thr, X[:, j], side="left")
        # feature * bins + code: each row's key part per (feature, bin)
        self.feature_keys = self.codes + np.arange(f) * self.bins


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
        """Leaf value per row of X: rows step down a level at a time until
        none sits at an internal node, however deep the tree."""
        cur = np.zeros(X.shape[0], dtype=np.int32)
        while True:
            feat = self.feature[cur]
            active = feat >= 0
            if not active.any():
                return self.value[cur]
            rows = np.nonzero(active)[0]
            f = feat[rows]
            go_left = X[rows, f] <= self.threshold[cur[rows]]
            cur[rows] = np.where(go_left, self.left[cur[rows]], self.right[cur[rows]])


def _grow_trees(
    design: _BinnedDesign,
    rows: list | None,
    response: np.ndarray,
    weights: np.ndarray,
    *,
    criterion: str,
    max_depth: int,
    min_samples_split: int,
    min_samples_leaf: int,
    rngs: list | None = None,
    max_features: int = 0,
) -> tuple[list[_Tree], np.ndarray]:
    """Grow a group of trees level-wise, together; returns the trees and
    each training row's node id (the tree's own id in a group of one).

    rows and rngs come together or not at all. A forest group passes both:
    rows[t] holds tree t's training rows in ascending order, and rngs[t]
    draws tree t's keys for max_features of its features per node, one
    block per level at which it still has nodes. A boosting round passes
    neither: one tree on every row, and every node may split on every
    feature. weights holds the rows' weights, tree after tree. criterion
    "gini" treats response as 0/1 labels and stores the weighted positive
    fraction in leaves; "mse" fits weighted means of the response. Gains are
    weighted impurity decreases, accumulated per feature in node order as
    each tree's importance vector.

    Each level's nodes, tree after tree, are numbered consecutively after
    the previous level's, so the active nodes are the id range [lo, hi) and
    a row whose node id is below lo sits in a finished leaf. Rows are laid
    out tree after tree, so each (node, feature, bin) key of a level's
    bincount adds its tree's rows in row order, as the tree grown alone
    would. A tree's own ids are its nodes' ranks in that numbering.
    """
    if rows is None:
        n_trees = 1
        codes, feature_keys, r, w = design.codes, design.feature_keys, response, weights
        node_of_row = np.zeros(codes.shape[0], dtype=np.int64)
    else:
        n_trees = len(rows)
        all_rows = np.concatenate(rows)  # row positions below index all_rows
        codes, r, w = design.codes[all_rows], response[all_rows], weights
        node_of_row = np.repeat(np.arange(n_trees), [t.size for t in rows])
    bins = design.bins
    n_feat = design.n_features
    max_thr = bins - 1
    thr_ok = np.arange(max_thr) < design.n_thr[:, None]  # (n_feat, max_thr)

    levels = []  # per level: (tree, feature, threshold, left, right, value) arrays
    importance = np.zeros((n_trees, n_feat))
    tree_of_node = np.arange(n_trees)
    lo, hi = 0, n_trees

    for depth in range(max_depth + 1):
        n_active = hi - lo
        if n_active == 0:
            break
        live_rows = np.nonzero(node_of_row >= lo)[0]
        rs = node_of_row[live_rows] - lo
        lw = w[live_rows]
        lr_ = r[live_rows]
        lwr = lw * lr_

        sw = np.bincount(rs, weights=lw, minlength=n_active)
        swr = np.bincount(rs, weights=lwr, minlength=n_active)
        cnt = np.bincount(rs, minlength=n_active)
        value = swr / sw  # positive fraction (gini) or weighted mean (mse)
        if depth == max_depth or max_thr == 0:  # leaves only
            leaf = np.full(n_active, -1, dtype=np.int64)
            levels.append((tree_of_node, leaf, np.zeros(n_active), leaf, leaf, value))
            break

        # splittable check: enough rows and impure
        if criterion == "gini":
            impure = (swr > 1e-12) & (sw - swr > 1e-12)
        else:
            swr2 = np.bincount(rs, weights=lwr * lr_, minlength=n_active)
            impure = (swr2 - swr * swr / np.maximum(sw, 1e-300)) > 1e-12
        splittable = (cnt >= min_samples_split) & impure

        # Only splittable nodes get histograms: one per (node, allowed
        # feature, bin), all from one bincount.
        cand = np.nonzero(splittable)[0]
        n_cand = cand.size
        slot = np.full(n_active, -1, dtype=np.int64)
        slot[cand] = np.arange(n_cand)
        cs = slot[rs]
        in_cand = cs >= 0
        cs = cs[in_cand]
        crows = live_rows[in_cand]
        if rngs:
            per_tree = np.bincount(tree_of_node, minlength=n_trees).tolist()
            keys = np.concatenate([rngs[t].random((c, n_feat)) for t, c in enumerate(per_tree) if c])
            order = np.argsort(keys, axis=1, kind="stable")
            feats = np.sort(order[cand, :max_features], axis=1)  # ascending per node
            m = max_features
            row_codes = np.take_along_axis(codes[crows], feats[cs], axis=1)
            key = (((cs * m)[:, None] + np.arange(m)) * bins + row_codes).ravel()
            feat_ok = thr_ok[feats]
        else:
            m = n_feat
            key = ((cs * (m * bins))[:, None] + feature_keys[crows]).ravel()
            feat_ok = thr_ok
        size = n_cand * m * bins
        shape = (n_cand, m, bins)
        hw = np.bincount(key, weights=np.repeat(lw[in_cand], m), minlength=size).reshape(shape)
        hwr = np.bincount(key, weights=np.repeat(lwr[in_cand], m), minlength=size).reshape(shape)
        wl = np.cumsum(hw, axis=2)[:, :, :max_thr]
        wrl = np.cumsum(hwr, axis=2)[:, :, :max_thr]
        csw = sw[cand][:, None, None]
        cswr = swr[cand][:, None, None]
        wr_ = csw - wl
        wrr = cswr - wrl

        # counts decide: csw and wl round differently, so an empty side's weight can pass 0
        hn = np.bincount(key, minlength=size).reshape(shape)
        nl = np.cumsum(hn, axis=2)[:, :, :max_thr]
        nr = cnt[cand][:, None, None] - nl
        least = max(1, min_samples_leaf)
        valid = (nl >= least) & (nr >= least) & feat_ok
        with np.errstate(divide="ignore", invalid="ignore"):
            if criterion == "gini":
                parent = 2.0 * cswr * (csw - cswr) / csw
                child = 2.0 * wrl * (wl - wrl) / wl + 2.0 * wrr * (wr_ - wrr) / wr_
                gain = parent - child
            else:
                gain = wrl * wrl / wl + wrr * wrr / wr_ - cswr * cswr / csw
        gain = np.where(valid, gain, -np.inf).reshape(n_cand, m * max_thr)
        # first max in feature-major order: lowest feature, then lowest threshold
        best = np.argmax(gain, axis=1)
        cand_gain = gain[np.arange(n_cand), best]
        col, cand_bin = np.divmod(best, max_thr)
        best_gain = np.zeros(n_active)
        best_gain[cand] = cand_gain
        best_feat = np.zeros(n_active, dtype=np.int64)
        best_feat[cand] = feats[np.arange(n_cand), col] if rngs else col
        best_bin = np.zeros(n_active, dtype=np.int64)
        best_bin[cand] = cand_bin
        split = best_gain > 1e-12

        first = hi + 2 * (np.cumsum(split) - 1)  # left child id; right is first + 1
        feature = np.where(split, best_feat, -1)
        left = np.where(split, first, -1)
        right = np.where(split, first + 1, -1)
        threshold = np.where(split, design.thr_table[best_feat, best_bin], 0.0)
        levels.append((tree_of_node, feature, threshold, left, right, value))
        np.add.at(importance, (tree_of_node[split], best_feat[split]), best_gain[split])

        has_split = split[rs]
        srows = live_rows[has_split]
        s_slot = rs[has_split]
        go_left = codes[srows, best_feat[s_slot]] <= best_bin[s_slot]
        node_of_row[srows] = np.where(go_left, left[s_slot], right[s_slot])
        tree_of_node = np.repeat(tree_of_node[split], 2)
        lo, hi = hi, hi + 2 * int(split.sum())

    tree, *arrays = (np.concatenate(a) for a in zip(*levels))
    if n_trees == 1:
        per_tree = [arrays]
    else:  # regroup the nodes tree by tree and renumber them within their tree
        sizes = np.bincount(tree, minlength=n_trees)
        order = np.argsort(tree, kind="stable")
        own_id = np.empty_like(order)
        own_id[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        feature, threshold, left, right, value = arrays
        left = np.where(left >= 0, own_id[left], -1)
        right = np.where(right >= 0, own_id[right], -1)
        ends = np.cumsum(sizes)[:-1]
        per_tree = zip(*(np.split(a[order], ends) for a in (feature, threshold, left, right, value)))
    trees = [
        _Tree(feature.astype(np.int32), threshold, left.astype(np.int32), right.astype(np.int32), value, imp)
        for (feature, threshold, left, right, value), imp in zip(per_tree, importance)
    ]
    return trees, node_of_row


class RandomForestClassifier:
    """Bagged gini trees with per-node feature subsampling and sample weights."""

    kind = "rf"

    def __init__(
        self,
        n_trees: int = 200,
        max_depth: int = 12,
        min_samples_leaf: int = 1,
        max_bins: int = 32,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = 2
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
        yf = y.astype(np.float64)
        # every tree of a group may split min(2^(max_depth-1), n // min_samples_split)
        # nodes on one level, each with a max_features x bins histogram
        widest = min(2 ** (self.max_depth - 1), n // self.min_samples_split)
        group = max(1, HIST_BUDGET // max(1, widest * max_features * design.bins))
        self.trees = []
        for start in range(0, self.n_trees, group):
            rngs, rows, weights = [], [], []
            for t in range(start, min(start + group, self.n_trees)):
                rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(t,)))
                boot = np.bincount(rng.integers(0, n, n), minlength=n)
                rows.append(np.nonzero(boot)[0])
                # bootstrap multiplicity folded into weights
                weights.append((sample_weight * boot)[rows[-1]])
                rngs.append(rng)
            trees, _ = _grow_trees(
                design,
                rows,
                yf,
                np.concatenate(weights),
                criterion="gini",
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                rngs=rngs,
                max_features=max_features,
            )
            self.trees += trees
        total_importance = np.zeros(f)
        for tree in self.trees:
            total_importance += tree.importance
        s = total_importance.sum()
        self.feature_importances_ = total_importance / s if s > 0 else total_importance
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)


class GradientBoostingClassifier:
    """Log-loss boosting with depth-limited regression trees and Newton leaves."""

    kind = "gbdt"

    def __init__(
        self,
        n_rounds: int = 200,
        min_samples_leaf: int = 1,
        max_bins: int = 32,
        seed: int = 0,
    ):
        self.n_rounds = n_rounds
        self.learning_rate = 0.1
        self.max_depth = 3
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
            (tree,), leaf_of_row = _grow_trees(
                design,
                None,
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
