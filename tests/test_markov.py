import math

import numpy as np
import pytest

from helpers import brute_force_chain_probs
from shopstream import markov
from shopstream.markov import (
    AlphabetMismatch,
    MarkovChain,
    UnknownSymbol,
    class_score,
    fit,
    log_likelihood,
)


def test_fit_hand_counts():
    chain = fit([["A", "B", "A", "B"]], ["A", "B"], alpha=1.0)
    # A->B twice of 2 A-exits: (2+1)/(2+2); B->A once of 1 B-exit: (1+1)/(1+2)
    assert chain.probs[0, 1] == pytest.approx(0.75)
    assert chain.probs[1, 0] == pytest.approx(2 / 3)


def test_fit_empty_is_uniform():
    chain = fit([], ["A", "B", "C"], alpha=1.0)
    assert np.allclose(chain.probs, 1 / 3)


def test_fit_matches_brute_force():
    rng = np.random.default_rng(42)
    alphabet = ["x", "y", "z"]
    seqs = [
        [alphabet[int(i)] for i in rng.integers(0, 3, size=rng.integers(1, 20))]
        for _ in range(50)
    ]
    chain = fit(seqs, alphabet, alpha=0.5)
    expected = brute_force_chain_probs(seqs, alphabet, 0.5)
    for i, a in enumerate(alphabet):
        for j, b in enumerate(alphabet):
            assert chain.probs[i, j] == pytest.approx(expected[a][b], abs=1e-12)


def test_fit_unknown_symbol():
    with pytest.raises(UnknownSymbol):
        fit([["A", "Q"]], ["A", "B"])


def test_rows_stochastic_for_various_alpha():
    rng = np.random.default_rng(7)
    alphabet = list("abcde")
    seqs = [[alphabet[int(i)] for i in rng.integers(0, 5, size=30)] for _ in range(20)]
    for alpha in (1e-6, 0.1, 1.0, 10.0):
        chain = fit(seqs, alphabet, alpha)
        assert np.allclose(chain.probs.sum(axis=1), 1.0, atol=1e-9)
        assert (chain.probs > 0).all()


def test_fit_order_insensitive():
    seqs = [["A", "B"], ["B", "B", "A"], ["A", "A"]]
    a = fit(seqs, ["A", "B"]).probs
    b = fit(list(reversed(seqs)), ["A", "B"]).probs
    assert np.array_equal(a, b)


def test_duplicated_corpus_leaves_probs_near_fixed():
    seqs = [["A", "B", "A"], ["B", "A"]]
    once = fit(seqs, ["A", "B"], alpha=1e-9).probs
    thrice = fit(seqs * 3, ["A", "B"], alpha=1e-9).probs
    assert np.allclose(once, thrice, atol=1e-6)


def test_log_likelihood_hand_value():
    chain = fit([["A", "B", "A", "B"]], ["A", "B"], alpha=1.0)
    ll = log_likelihood(chain, ["A", "B", "A"])
    assert ll == pytest.approx((math.log(0.75) + math.log(2 / 3)) / 2, abs=1e-4)
    assert ll == pytest.approx(-0.3466, abs=1e-4)


def test_log_likelihood_sentinels():
    chain = fit([], ["A", "B"])
    assert log_likelihood(chain, ["A"]) == 0.0
    assert log_likelihood(chain, []) == 0.0


def test_log_likelihood_uniform_chain():
    chain = fit([], ["A", "B"])
    assert log_likelihood(chain, ["A", "B", "B"]) == pytest.approx(math.log(0.5))


def test_class_score_identical_chains_zero():
    chain = fit([["A", "B", "A"]], ["A", "B"])
    other = MarkovChain(chain.alphabet, chain.counts.copy(), chain.alpha)
    for seq in (["A", "B"], ["B", "B", "A", "A"], ["A"]):
        assert class_score(chain, other, seq) == 0.0


def test_class_score_antisymmetric_exactly():
    rng = np.random.default_rng(11)
    alphabet = list("abc")
    p = fit([[alphabet[int(i)] for i in rng.integers(0, 3, size=15)] for _ in range(5)], alphabet)
    q = fit([[alphabet[int(i)] for i in rng.integers(0, 3, size=15)] for _ in range(5)], alphabet)
    for _ in range(20):
        seq = [alphabet[int(i)] for i in rng.integers(0, 3, size=10)]
        assert class_score(p, q, seq) == -class_score(q, p, seq)


def test_class_score_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        class_score(fit([], ["A", "B"]), fit([], ["A", "C"]), ["A"])


def test_class_score_separates_distinct_dynamics():
    # sequences drawn from a strongly cyclic chain score positive vs a reversed one
    rng = np.random.default_rng(2024)
    purchase = MarkovChain(["A", "B", "C"], np.array([[1, 96, 3], [2, 2, 96], [96, 2, 2]]), alpha=1.0)
    nonpurchase = MarkovChain(["A", "B", "C"], np.array([[1, 3, 96], [96, 2, 2], [2, 96, 2]]), alpha=1.0)
    positive = 0
    for _ in range(1000):
        state = int(rng.integers(3))
        seq = []
        for _ in range(20):
            seq.append(purchase.alphabet[state])
            state = int(rng.choice(3, p=purchase.probs[state]))
        if class_score(purchase, nonpurchase, seq) > 0:
            positive += 1
    assert positive >= 950


def test_alpha_must_be_positive():
    with pytest.raises(ValueError):
        MarkovChain(["A"], alpha=0.0)
