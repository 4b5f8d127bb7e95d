"""Linear classifiers: logistic regression and a linear SVM.

Both minimize a weighted-mean loss plus an L2 penalty with deterministic
full-batch gradient descent, so identical objectives (e.g. duplicated
examples vs equivalent sample weights) converge to identical coefficients.
Inputs are expected roughly unit-scale; the evaluation pipeline z-scores
features before fitting these models.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


class LogisticRegression:
    kind = "lr"

    def __init__(self, epochs: int = 400, seed: int = 0):
        self.learning_rate = 0.5
        self.epochs = epochs
        self.l2 = 1e-4
        self.seed = seed
        self.coef_ = None
        self.intercept_ = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray):
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        sw = sample_weight / sample_weight.sum()
        yf = y.astype(np.float64)
        for _ in range(self.epochs):
            p = _sigmoid(X @ w + b)
            err = sw * (p - yf)
            grad_w = X.T @ err + self.l2 * w
            grad_b = err.sum()
            w -= self.learning_rate * grad_w
            b -= self.learning_rate * grad_b
        self.coef_ = w
        self.intercept_ = float(b)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(X))


def _platt_fit(margins: np.ndarray, y: np.ndarray, sample_weight: np.ndarray) -> tuple[float, float]:
    """1-D logistic calibration of decision margins (weighted)."""
    a, b = 1.0, 0.0
    sw = sample_weight / sample_weight.sum()
    yf = y.astype(np.float64)
    scale = max(float(np.abs(margins).mean()), 1e-12)
    m = margins / scale
    for _ in range(300):
        p = _sigmoid(a * m + b)
        err = sw * (p - yf)
        ga = float(err @ m)
        gb = float(err.sum())
        a -= 0.2 * ga
        b -= 0.2 * gb
    return a / scale, b


class LinearSVM:
    """Hinge-loss linear classifier; probabilities via Platt-style calibration
    of the training margins."""

    kind = "svm"

    def __init__(self, epochs: int = 400, seed: int = 0):
        self.learning_rate = 0.5
        self.epochs = epochs
        self.l2 = 1e-4
        self.seed = seed
        self.coef_ = None
        self.intercept_ = 0.0
        self.platt_a = 1.0
        self.platt_b = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray):
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        sw = sample_weight / sample_weight.sum()
        s = np.where(y == 1, 1.0, -1.0)
        for t in range(self.epochs):
            lr_t = self.learning_rate / (1.0 + 0.01 * t)
            margin = s * (X @ w + b)
            viol = margin < 1.0
            coef = sw * s * viol
            grad_w = -(X.T @ coef) + self.l2 * w
            grad_b = -coef.sum()
            w -= lr_t * grad_w
            b -= lr_t * grad_b
        self.coef_ = w
        self.intercept_ = float(b)
        self.platt_a, self.platt_b = _platt_fit(self.decision_function(X), y, sample_weight)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.platt_a * self.decision_function(X) + self.platt_b)
