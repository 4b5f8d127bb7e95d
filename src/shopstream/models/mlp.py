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

    def __init__(self, hidden: int = 32, epochs: int = 300, learning_rate: float = 0.02, seed: int = 0):
        self.hidden = hidden
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self.w1 = None
        self.b1 = None
        self.w2 = None
        self.b2 = 0.0

    @staticmethod
    def loss_and_grad(params: dict, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray):
        """Weighted-mean cross-entropy and its exact gradients.

        params holds w1 (d,h), b1 (h,), w2 (h,), b2 (scalar). Exposed so the
        gradients can be verified against finite differences.
        """
        w1, b1, w2, b2 = params["w1"], params["b1"], params["w2"], params["b2"]
        sw = sample_weight / sample_weight.sum()
        h = np.tanh(X @ w1 + b1)
        z = h @ w2 + b2
        p = _sigmoid(z)
        eps = 1e-12
        loss = -float(np.sum(sw * (y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))))
        dz = sw * (p - y)
        gw2 = h.T @ dz
        gb2 = float(dz.sum())
        dh = np.outer(dz, w2) * (1.0 - h * h)
        gw1 = X.T @ dh
        gb1 = dh.sum(axis=0)
        return loss, {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}

    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray):
        n, d = X.shape
        rng = np.random.default_rng(self.seed)
        params = {
            "w1": rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, self.hidden)),
            "b1": np.zeros(self.hidden),
            "w2": rng.normal(0.0, 1.0 / np.sqrt(self.hidden), size=self.hidden),
            "b2": 0.0,
        }
        yf = y.astype(np.float64)
        m = {k: np.zeros_like(np.asarray(v, dtype=np.float64)) for k, v in params.items()}
        v = {k: np.zeros_like(np.asarray(vv, dtype=np.float64)) for k, vv in params.items()}
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for t in range(1, self.epochs + 1):
            _, grads = self.loss_and_grad(params, X, yf, sample_weight)
            for k in params:
                m[k] = beta1 * m[k] + (1 - beta1) * grads[k]
                v[k] = beta2 * v[k] + (1 - beta2) * np.square(grads[k])
                m_hat = m[k] / (1 - beta1 ** t)
                v_hat = v[k] / (1 - beta2 ** t)
                params[k] = params[k] - self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        self.w1 = params["w1"]
        self.b1 = params["b1"]
        self.w2 = params["w2"]
        self.b2 = float(params["b2"])
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        h = np.tanh(X @ self.w1 + self.b1)
        return _sigmoid(h @ self.w2 + self.b2)

    def to_dict(self) -> dict:
        return {
            "hidden": self.hidden,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
            "w1": self.w1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2,
        }
