"""ROUGE-L and BLEU against independent oracles."""

import math
from collections import Counter

import numpy as np
import pytest

from claimforge.numerics import Rng
from claimforge.pipeline import bleu, rouge_l


def lcs_oracle(a, b):
    """Quadratic dynamic program, full table (independent of the rolling-row
    implementation under test)."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def rouge_oracle(ref, cand, beta=1.2):
    if not ref or not cand:
        return (0.0, 0.0, 0.0)
    lcs = lcs_oracle(ref, cand)
    r = lcs / len(ref)
    p = lcs / len(cand)
    if p + r == 0:
        return (p, r, 0.0)
    f = (1 + beta * beta) * p * r / (r + beta * beta * p)
    return (p, r, f)


def bleu_oracle(ref, cand, max_n=4):
    """Hash-map n-gram counting oracle mirroring the documented smoothing:
    zero unigram overlap -> 0; add-1 smoothing only at orders >= 2."""
    if not cand or not ref:
        return 0.0

    def counts(tokens, n):
        return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

    uni = counts(cand, 1)
    matches1 = sum(min(c, counts(ref, 1)[g]) for g, c in uni.items())
    if matches1 == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand_n = counts(cand, n)
        total = sum(cand_n.values())
        ref_n = counts(ref, n)
        matched = sum(min(c, ref_n[g]) for g, c in cand_n.items())
        if matched > 0 and total > 0:
            prec = matched / total
        else:
            prec = (matched + 1.0) / (total + 1.0)
        log_sum += math.log(prec)
    geo = math.exp(log_sum / max_n)
    bp = 1.0 if len(cand) >= len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return bp * geo


def random_tokens(rng, n, vocab=12):
    return [f"t{int(i)}" for i in rng.integers(0, vocab, size=n)]


class TestRougeL:
    def test_identical(self):
        p, r, f = rouge_l(["a", "b", "c"], ["a", "b", "c"])
        assert (p, r, f) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        assert rouge_l(["a", "b"], ["x", "y"]) == (0.0, 0.0, 0.0)

    def test_spec_example(self):
        p, r, f = rouge_l(["a", "b", "c", "d"], ["a", "c", "d"])
        assert p == pytest.approx(1.0)
        assert r == pytest.approx(0.75)

    def test_empty_inputs(self):
        assert rouge_l([], ["a"]) == (0.0, 0.0, 0.0)
        assert rouge_l(["a"], []) == (0.0, 0.0, 0.0)
        assert rouge_l([], []) == (0.0, 0.0, 0.0)

    def test_oracle_100_random_pairs(self):
        rng = Rng(0, ("rouge",))
        for _ in range(100):
            ref = random_tokens(rng, int(rng.integers(1, 25)))
            cand = random_tokens(rng, int(rng.integers(1, 25)))
            got = rouge_l(ref, cand)
            expected = rouge_oracle(ref, cand)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_identity_property_100_random(self):
        rng = Rng(1, ("rouge-id",))
        for _ in range(100):
            x = random_tokens(rng, int(rng.integers(4, 20)))
            _, _, f = rouge_l(x, x)
            assert f == 1.0


class TestBleu:
    def test_identical_length_four_plus(self):
        assert bleu(["a", "b", "c", "d"], ["a", "b", "c", "d"]) == pytest.approx(1.0)

    def test_no_unigram_overlap_is_zero(self):
        score = bleu(["a", "b", "c", "d"], ["x", "y", "z", "w"])
        assert score == 0.0
        assert score < 0.05

    def test_empty_candidate(self):
        assert bleu(["a", "b"], []) == 0.0

    def test_oracle_100_random_pairs(self):
        rng = Rng(2, ("bleu",))
        for _ in range(100):
            ref = random_tokens(rng, int(rng.integers(1, 25)))
            cand = random_tokens(rng, int(rng.integers(1, 25)))
            assert abs(bleu(ref, cand) - bleu_oracle(ref, cand)) < 1e-10

    def test_identity_property_100_random(self):
        rng = Rng(3, ("bleu-id",))
        for _ in range(100):
            x = random_tokens(rng, int(rng.integers(4, 20)))
            assert bleu(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_brevity_penalty_applies(self):
        ref = ["a", "b", "c", "d", "e", "f"]
        cand = ["a", "b", "c"]
        full = bleu(ref, ref)
        short = bleu(ref, cand)
        assert short < full

    def test_in_unit_interval(self):
        rng = Rng(4, ("bleu-range",))
        for _ in range(50):
            ref = random_tokens(rng, int(rng.integers(1, 15)))
            cand = random_tokens(rng, int(rng.integers(1, 15)))
            assert 0.0 <= bleu(ref, cand) <= 1.0

