"""K-nearest neighbors with class-weighted votes."""

from __future__ import annotations

import numpy as np

# float64 entries per query-train distance block
DISTANCE_BUDGET = 4_000_000
# float64 entries per block stacked over shuffled copies: 128 KiB, glibc's default
# mmap threshold. Larger temporaries come back as fresh pages on every call,
# and their page faults cost more than stacking saves: stacking all five
# shuffles at 1,200 training and 130 held-out rows took 35k faults per
# permutation_importance call and 1.3x the time of one product per shuffle.
STACK_BUDGET = 16_384
# float64 distances of moved rows buffered between _nearest calls in
# predict_shuffled (128 KiB). With the distance block and _nearest's own
# index and mask temporaries, its peak stays below that of ranking every row
# of one (780 x 87) block.
MOVED_BUDGET = 16_384


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

    def _votes(self, nn: np.ndarray) -> np.ndarray:
        """Class-weighted positive share of the votes of each row's
        neighbours nn."""
        wv = self.vote_weight_[nn]
        return (wv * self.y_[nn]).sum(axis=1) / wv.sum(axis=1)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(y=1) for each row of X, ranked in row chunks of at most
        DISTANCE_BUDGET distances."""
        X = np.asarray(X, dtype=np.float64)
        n_train = self.X_.shape[0]
        k = min(self.k, n_train)
        train_sq = np.einsum("ij,ij->i", self.X_, self.X_)
        out = np.empty(X.shape[0])
        chunk = max(1, DISTANCE_BUDGET // n_train)
        for start in range(0, X.shape[0], chunk):
            # train_sq - 2 q.x, in place; query norms cancel in the ranking
            d2 = X[start : start + chunk] @ self.X_.T
            d2 *= -2.0
            d2 += train_sq
            out[start : start + chunk] = self._votes(_nearest(d2, k))
        return out

    def predict_shuffled(self, X: np.ndarray, proba: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """P(y=1) of every copy of X whose column j holds columns[j, s]
        instead: out[j, s] is bit for bit predict_proba of that copy, given
        proba = predict_proba(X).

        Each copy goes through predict_proba's row chunks, so every GEMM
        keeps its shape and a row its distances; one matmul covers as many
        copies as fit in STACK_BUDGET, into a reused buffer. Only rows whose
        value moved are ranked: their distance rows are buffered, across
        shuffles and features, up to MOVED_BUDGET entries, and one _nearest
        call ranks each buffer. _nearest and the votes are row-local, and the
        other rows keep proba.
        """
        n_train = self.X_.shape[0]
        k = min(self.k, n_train)
        train_sq = np.einsum("ij,ij->i", self.X_, self.X_)
        train_t = self.X_.T
        n_feat, n_copies, n = columns.shape
        out = np.empty(columns.shape)
        out[...] = proba
        moved = columns != X.T[:, None, :]
        chunk = max(1, DISTANCE_BUDGET // n_train)
        block = min(chunk, n)
        group = min(n_copies, max(1, STACK_BUDGET // (block * n_train)))
        stack = np.empty((n_copies, block, X.shape[1]))
        dist = np.empty(group * block * n_train)
        cap = max(1, MOVED_BUDGET // n_train)
        buf = np.empty((cap, n_train))
        at = np.empty(cap, dtype=np.intp)  # flat index into out of each buffered row
        filled = 0

        def flush():
            out.flat[at[:filled]] = self._votes(_nearest(buf[:filled], k))

        for j in range(n_feat):
            for start in range(0, n, chunk):
                rows = min(chunk, n - start)
                q = stack[:, :rows]
                q[:] = X[start : start + rows]
                q[:, :, j] = columns[j, :, start : start + rows]
                for g in range(0, n_copies, group):
                    q_g = q[g : g + group]
                    sel = np.flatnonzero(moved[j, g : g + group, start : start + rows])
                    if sel.size == 0:
                        continue
                    d2 = dist[: q_g.shape[0] * rows * n_train].reshape(q_g.shape[0], rows, n_train)
                    np.matmul(q_g, train_t, out=d2)
                    d2 *= -2.0
                    d2 += train_sq
                    d2 = d2.reshape(-1, n_train)
                    copy, row = np.divmod(sel, rows)
                    flat = (j * n_copies + g + copy) * n + start + row
                    while sel.size:
                        take = min(sel.size, cap - filled)
                        np.take(d2, sel[:take], axis=0, out=buf[filled : filled + take], mode="clip")
                        at[filled : filled + take] = flat[:take]
                        filled += take
                        sel, flat = sel[take:], flat[take:]
                        if filled == cap:
                            flush()
                            filled = 0
        if filled:
            flush()
        return out
