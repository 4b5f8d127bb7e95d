"""K-nearest neighbors with class-weighted votes."""

from __future__ import annotations

import numpy as np


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
        X = np.asarray(X, dtype=np.float64)
        k = min(self.k, self.X_.shape[0])
        train_sq = np.einsum("ij,ij->i", self.X_, self.X_)
        out = np.empty(X.shape[0])
        chunk = max(1, int(4_000_000 // max(self.X_.shape[0], 1)))
        for start in range(0, X.shape[0], chunk):
            q = X[start : start + chunk]
            d2 = train_sq[None, :] - 2.0 * (q @ self.X_.T)
            # query norms cancel in the ranking; ties go to the lower index
            nn = _nearest(d2, k)
            wv = self.vote_weight_[nn]
            yv = self.y_[nn]
            out[start : start + chunk] = (wv * yv).sum(axis=1) / wv.sum(axis=1)
        return out

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "X": self.X_.tolist(),
            "y": self.y_.tolist(),
            "vote_weight": self.vote_weight_.tolist(),
        }
