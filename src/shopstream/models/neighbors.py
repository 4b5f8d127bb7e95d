"""K-nearest neighbors with class-weighted votes."""

from __future__ import annotations

import math

import numpy as np

# float64 entries per query-train distance block of one query set
DISTANCE_BUDGET = 4_000_000
# float64 entries per block stacked over query sets: 128 KiB, glibc's default
# mmap threshold. Larger temporaries come back as fresh pages on every call,
# and their page faults cost more than stacking saves: stacking all five
# shuffles at 1,200 training and 130 held-out rows took 35k faults per
# permutation_importance call and 1.3x the time of one product per shuffle.
STACK_BUDGET = 16_384


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest entries of d2, in the order
    ``np.argsort(d2, axis=1, kind="stable")[:, :k]`` gives them.

    A partition picks k smallest entries per row and only those are sorted,
    stably from ascending index, so equal distances keep the lower index
    first. Rows where more than k entries tie at or below the k-th smallest
    value, and every row when k is not below the column count, take the full
    stable argsort instead, since the partition may have picked a higher index.
    """
    if not 0 < k < d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    r = np.arange(d2.shape[0])[:, None]
    part = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
    vals = d2[r, part]
    nn = part[r, np.argsort(vals, axis=1, kind="stable")]
    tied = np.count_nonzero(d2 <= vals.max(axis=1, keepdims=True), axis=1) != k
    if tied.any():
        nn[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
    return nn


class KNNClassifier:
    """Euclidean KNN; each neighbor votes with its class weight so rare-class
    neighbors are not drowned out. The k nearest training rows are those a
    stable argsort of squared distances puts first (equal distances go to the
    lower training index), and votes are summed in that order; _nearest finds
    them without sorting whole rows.
    """

    kind = "knn"

    def __init__(self, k: int = 15, seed: int = 0):
        self.k = k
        self.seed = seed
        self.X_ = None
        self.y_ = None
        self.vote_weight_ = None

    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray):
        self.X_ = np.asarray(X, dtype=np.float64)
        self.y_ = np.asarray(y, dtype=np.float64)
        self.vote_weight_ = np.asarray(sample_weight, dtype=np.float64)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(y=1) for each row of X, whose last axis holds the features; any
        leading axes are a batch of query sets.

        Every (rows, d) slice goes through the same row chunks, so the same
        GEMM shapes, as a 2-D call, and each stacked product is slice for
        slice bit-equal to the 2-D one; a product stacks as many slices as
        fit in STACK_BUDGET.
        """
        X = np.asarray(X, dtype=np.float64)
        n_train = self.X_.shape[0]
        k = min(self.k, n_train)
        train_sq = np.einsum("ij,ij->i", self.X_, self.X_)
        n, d = X.shape[-2:]
        Xs = X.reshape(math.prod(X.shape[:-2]), n, d)
        out = np.empty(Xs.shape[:2])
        chunk = max(1, DISTANCE_BUDGET // max(n_train, 1))
        for start in range(0, n, chunk):
            rows = min(chunk, n - start)
            group = max(1, STACK_BUDGET // (rows * max(n_train, 1)))
            for g in range(0, Xs.shape[0], group):
                q = Xs[g : g + group, start : start + chunk]
                # train_sq - 2 q.x, in place; query norms cancel in the ranking
                d2 = q @ self.X_.T
                d2 *= -2.0
                d2 += train_sq
                nn = _nearest(d2.reshape(-1, n_train), k)
                wv = self.vote_weight_[nn]
                yv = self.y_[nn]
                p = (wv * yv).sum(axis=1) / wv.sum(axis=1)
                out[g : g + group, start : start + chunk] = p.reshape(q.shape[:2])
        return out.reshape(X.shape[:-1])

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "X": self.X_.tolist(),
            "y": self.y_.tolist(),
            "vote_weight": self.vote_weight_.tolist(),
        }
