"""Single-hidden-layer perceptron with a logistic output.

tanh hidden units keep the loss smooth everywhere, which lets the gradient
check against central finite differences hold tightly. Training is
full-batch Adam on the weighted-mean cross-entropy.
"""

from __future__ import annotations

import numpy as np

from .linear import _sigmoid


class MLPClassifier:
    kind = "mlp"

    def __init__(self, hidden: int = 32, epochs: int = 300, seed: int = 0):
        self.hidden = hidden
        self.epochs = epochs
        self.learning_rate = 0.02
        self.seed = seed
        self.w1 = None
        self.b1 = None
        self.w2 = None
        self.b2 = 0.0

    @staticmethod
    def _forward(X, w1, b1, w2, b2):
        """Hidden activations and output probabilities."""
        h = np.tanh(X @ w1 + b1)
        return h, _sigmoid(h @ w2 + b2)

    @staticmethod
    def _backward(X, h, dz, w2):
        """Gradients (w1, b1, w2, b2) given dz, the loss gradient at the logits."""
        dh = dz[:, None] * w2 * (1.0 - h * h)
        return X.T @ dh, dh.sum(axis=0), h.T @ dz, dz.sum()

    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray):
        """Full-batch Adam on one flat parameter vector; w1, b1, w2 and b2 are
        views into it, so each weight takes the same steps it would alone.
        Epochs compute gradients only, never the loss."""
        d = X.shape[1]
        hid = self.hidden
        rng = np.random.default_rng(self.seed)
        theta = np.zeros(d * hid + 2 * hid + 1)
        w1 = theta[: d * hid].reshape(d, hid)
        b1 = theta[d * hid : d * hid + hid]
        w2 = theta[d * hid + hid : -1]
        b2 = theta[-1:]
        w1[...] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, hid))
        w2[...] = rng.normal(0.0, 1.0 / np.sqrt(hid), size=hid)
        yf = y.astype(np.float64)
        sw = sample_weight / sample_weight.sum()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for t in range(1, self.epochs + 1):
            h, p = self._forward(X, w1, b1, w2, b2)
            gw1, gb1, gw2, gb2 = self._backward(X, h, sw * (p - yf), w2)
            g = np.concatenate((gw1.ravel(), gb1, gw2, (gb2,)))
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * np.square(g)
            m_hat = m / (1 - beta1 ** t)
            v_hat = v / (1 - beta2 ** t)
            theta -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        self.w1 = w1.copy()
        self.b1 = b1.copy()
        self.w2 = w2.copy()
        self.b2 = float(b2[0])
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(y=1) for each row of X; leading axes are a batch, and each
        stacked product is slice for slice bit-equal to a 2-D call."""
        return self._forward(X, self.w1, self.b1, self.w2, self.b2)[1]

    def predict_shuffled(self, X: np.ndarray, proba: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """P(y=1) of every copy of X whose column j holds columns[j, s]
        instead: one predict_proba call per feature j on its stack of copies.
        Every row is scored again, so proba, predict_proba(X), goes unused."""
        stack = np.repeat(X[None], columns.shape[1], axis=0)
        out = np.empty(columns.shape)
        for j in range(columns.shape[0]):
            stack[:, :, j] = columns[j]
            out[j] = self.predict_proba(stack)
            stack[:, :, j] = X[:, j]
        return out
