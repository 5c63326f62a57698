"""Desk-scale text metrics: ROUGE-L and BLEU."""

from __future__ import annotations

import math
from collections import Counter

BLEU_MAX_N = 4


def _lcs_length(a: list, b: list) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(reference: list, candidate: list) -> tuple[float, float, float]:
    """LCS-based (precision, recall, F with beta 1.2); zeros when either side is empty."""
    if not reference or not candidate:
        return 0.0, 0.0, 0.0
    lcs = _lcs_length(reference, candidate)
    recall = lcs / len(reference)
    precision = lcs / len(candidate)
    if precision + recall == 0:
        return precision, recall, 0.0
    b2 = 1.2 * 1.2
    f = (1 + b2) * precision * recall / (recall + b2 * precision)
    return precision, recall, f


def _ngram_counts(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(reference: list, candidate: list) -> float:
    """Geometric mean of clipped n-gram precisions, n <= BLEU_MAX_N, with brevity penalty.

    Add-1 smoothing is applied at orders >= 2 with zero matches (or zero
    candidate n-grams), so short-but-correct candidates do not collapse to 0;
    zero unigram overlap still scores exactly 0.
    """
    if not reference or not candidate:
        return 0.0
    log_sum = 0.0
    for n in range(1, BLEU_MAX_N + 1):
        cand = _ngram_counts(candidate, n)
        ref = _ngram_counts(reference, n)
        total = sum(cand.values())
        matched = sum(min(count, ref[gram]) for gram, count in cand.items())
        if matched == 0 and n == 1:
            return 0.0
        if total == 0 or matched == 0:
            precision = (matched + 1.0) / (total + 1.0)
        else:
            precision = matched / total
        log_sum += math.log(precision)
    bp = 1.0 if len(candidate) >= len(reference) else math.exp(1.0 - len(reference) / len(candidate))
    return bp * math.exp(log_sum / BLEU_MAX_N)


def claim_metrics(reference: list, candidate: list) -> dict:
    """The metrics row of a reference and a candidate token list: ROUGE-L
    ``{precision, recall, f}`` and BLEU."""
    p, r, f = rouge_l(reference, candidate)
    return {"rouge_l": {"precision": p, "recall": r, "f": f}, "bleu": bleu(reference, candidate)}
