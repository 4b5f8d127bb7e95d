"""First-order Markov chains over finite alphabets.

Class-conditional chains fitted on page-type or device sequences produce the
page/device sequence scores: the average per-transition log-likelihood ratio
between the purchase and non-purchase chains. Laplace smoothing keeps every
transition probability positive so scores stay finite.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .analytics import pair_counts


class UnknownSymbol(KeyError):
    pass


class AlphabetMismatch(ValueError):
    pass


class MarkovChain:
    """Row-stochastic first-order transition model with Laplace smoothing.

    probs[i, j] = (counts[i, j] + alpha) / (row_total_i + alpha * |A|)
    """

    def __init__(self, alphabet: Sequence[str], counts=None, alpha: float = 1.0):
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        self.alphabet = tuple(alphabet)
        self.index = {sym: i for i, sym in enumerate(self.alphabet)}
        n = len(self.alphabet)
        if counts is None:
            counts = np.zeros((n, n), dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        if self.counts.shape != (n, n):
            raise ValueError("counts must be |A| x |A|")
        self.alpha = float(alpha)
        row_totals = self.counts.sum(axis=1, keepdims=True)
        self.probs = (self.counts + self.alpha) / (row_totals + self.alpha * n)
        self._log_probs = np.log(self.probs)

    def _encode(self, seq) -> list[int]:
        try:
            return [self.index[s] for s in seq]
        except KeyError as exc:
            raise UnknownSymbol(f"symbol {exc.args[0]!r} not in alphabet") from None


def fit(sequences, alphabet: Sequence[str], alpha: float = 1.0) -> MarkovChain:
    """Count adjacent symbol pairs across all sequences.

    Raises UnknownSymbol for symbols outside the alphabet. An empty training
    set yields uniform rows (smoothing only).
    """
    chain = MarkovChain(alphabet, alpha=alpha)
    counts = np.zeros((len(chain.alphabet),) * 2, dtype=np.int64)
    pairs = pair_counts(chain._encode(seq) for seq in sequences)
    if pairs:
        counts[tuple(zip(*pairs))] = list(pairs.values())
    return MarkovChain(chain.alphabet, counts, alpha)


def log_likelihood(chain: MarkovChain, seq) -> float:
    """Average per-transition log-likelihood of seq; 0 for fewer than 2 symbols."""
    idx = chain._encode(seq)
    if len(idx) < 2:
        return 0.0
    total = 0.0
    for a, b in zip(idx, idx[1:]):
        total += chain._log_probs[a, b]
    return total / (len(idx) - 1)


def class_score(purchase_chain: MarkovChain, nonpurchase_chain: MarkovChain, seq) -> float:
    """Log-likelihood ratio per transition; positive means purchase-like.

    Both chains must share an alphabet. Sequences shorter than 2 symbols get
    the 0 sentinel.
    """
    if purchase_chain.alphabet != nonpurchase_chain.alphabet:
        raise AlphabetMismatch("chains must share an alphabet")
    return log_likelihood(purchase_chain, seq) - log_likelihood(nonpurchase_chain, seq)
