"""Margin-ranking training on (reference, better, worse) claim tuples."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from claimforge.numerics import Settings, Tensor, backward
from claimforge.evaluator.aspects import (
    EvaluatorModel,
    adaptive_margin,
    aspect_scores,
    encode_pairs,
    score_pair,
)
from claimforge.generator.adapters import DOMAINS
from claimforge.training import AdamW, clip_grad_norm


@dataclass
class EvaluatorTrainConfig(Settings):
    lr: float = 1e-3
    epochs: int = 10
    batch_size: int = 8


def domain_one_hot(domain: str) -> np.ndarray:
    alpha = np.zeros(len(DOMAINS))
    alpha[DOMAINS.index(domain)] = 1.0
    return alpha


def _batch_loss(batch: list[tuple[list[int], list[int], list[int], str]],
                model: EvaluatorModel, enc_params: dict[str, Tensor]) -> Tensor:
    """Batch mean of each tuple's summed per-aspect hinge; the better and the
    worse pair of every tuple go through the encoder in one call."""
    n = len(batch)
    pairs = [(ref, better) for ref, better, _, _ in batch]
    pairs += [(ref, worse) for ref, _, worse, _ in batch]
    states, lengths = encode_pairs(pairs, model.cfg, enc_params)
    scores, _ = aspect_scores(states, model, lengths)
    margins = adaptive_margin(np.stack([domain_one_hot(d) for *_, d in batch]), model)
    return (margins - scores[:n] + scores[n:]).relu().sum() * (1.0 / n)


def train_evaluator(tuples: list[tuple[list[int], list[int], list[int], str]],
                    model: EvaluatorModel, enc_params: dict[str, Tensor],
                    train_cfg: EvaluatorTrainConfig = EvaluatorTrainConfig(),
                    log_fn: Callable[[dict], None] | None = None) -> list[float]:
    """Minimize the summed per-aspect hinge over better/worse score gaps.

    Each tuple is (reference ids, better generation ids, worse generation ids,
    domain label). Degenerate tuples (better == worse) are skipped. ``log_fn``,
    if given, gets {step, loss, grad_norm} after every step.
    """
    if not tuples:
        raise ValueError("empty corpus")
    usable = []
    for ref, better, worse, domain in tuples:
        if better == worse:
            warnings.warn("skipping degenerate tuple with identical better/worse claims")
            continue
        usable.append((ref, better, worse, domain))
    if not usable:
        raise ValueError("no usable tuples after skipping degenerates")

    trainable = {
        k: v for k, v in model.params.items() if k != "eval/aspect_logits"
    }
    trainable.update(enc_params)
    opt = AdamW(trainable, lr=train_cfg.lr)

    history: list[float] = []
    for _ in range(train_cfg.epochs):
        for start in range(0, len(usable), train_cfg.batch_size):
            loss = _batch_loss(usable[start:start + train_cfg.batch_size], model, enc_params)
            grads = backward(loss, trainable)
            norm = clip_grad_norm(grads)
            opt.step(grads)
            history.append(loss.item())
            if log_fn is not None:
                log_fn({"step": len(history) - 1, "loss": history[-1], "grad_norm": norm})
    return history


def ordering_accuracy(tuples: list[tuple[list[int], list[int], list[int], str]],
                      model: EvaluatorModel, enc_params: dict[str, Tensor]) -> float:
    """Fraction of tuples whose better claim outranks the worse on ``score_pair``'s `overall`."""
    correct = 0
    for ref, better, worse, domain in tuples:
        o_b, o_w = (score_pair(ref, side, domain_one_hot(domain), model, enc_params).overall
                    for side in (better, worse))
        correct += o_b > o_w
    return correct / len(tuples)
