"""Contrastive training of the chunk encoder and head bank.

Positives are labeled related (claim chunk, doc chunk) pairs; negatives are
the other documents in the batch. When relationship labels exist, an
auxiliary cross-entropy pushes head-weight mass onto the label's designated
head pair, enforcing the specialization the head groups name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from claimforge.numerics import Settings, Tensor, backward
from claimforge.similarity.heads import (
    NUM_HEADS,
    RELATIONSHIP_GROUPS,
    HeadBank,
    head_weights,
)
from claimforge.textcore import EncoderConfig, encode_sequence, mean_pool
from claimforge.training import AdamW, clip_grad_norm, contrastive_loss

ROW_NORM_EPS = 1e-12


@dataclass
class SimilarityTrainConfig(Settings):
    temperature: float = 0.1
    aux_weight: float = 0.5
    lr: float = 1e-3
    batch_size: int = 8
    epochs: int = 5


def _row_normalize(z: Tensor) -> Tensor:
    norms = ((z * z).sum(axis=1, keepdims=True) + ROW_NORM_EPS).sqrt()
    return z / norms


def _batch_loss(batch: list[tuple[list[int], list[int], str | None]], cfg: EncoderConfig,
                enc_params: dict[str, Tensor], bank: HeadBank,
                train_cfg: SimilarityTrainConfig) -> Tensor:
    """In-batch contrastive loss of one batch, plus the auxiliary group term
    over its labeled pairs; the batch's claims, then its docs, go through the
    encoder in one call."""
    seqs = [claim_ids for claim_ids, _, _ in batch] + [doc_ids for _, doc_ids, _ in batch]
    lengths = [len(ids) for ids in seqs]
    pooled = mean_pool(encode_sequence([t for ids in seqs for t in ids], cfg, enc_params,
                                       lengths=lengths), lengths)
    n = len(batch)
    loss = contrastive_loss(_row_normalize(pooled[:n]) @ _row_normalize(pooled[n:]).T,
                            train_cfg.temperature)

    # the labeled pairs' head weights in one pass; each row's mass on the two
    # heads of its label
    labeled = [i for i, (_, _, label) in enumerate(batch) if label is not None]
    if not labeled:
        return loss
    groups = np.zeros((len(labeled), NUM_HEADS))
    for row, i in enumerate(labeled):
        label = batch[i][2]
        if label not in RELATIONSHIP_GROUPS:
            raise ValueError(f"unknown relationship label {label!r}")
        groups[row, [h - 1 for h in RELATIONSHIP_GROUPS[label]]] = 1.0
    rows = np.array(labeled)
    mass = (head_weights(pooled[rows], pooled[rows + n], bank) * Tensor(groups)).sum(axis=1)
    aux = (-(mass + 1e-12).log()).sum()
    return loss + (train_cfg.aux_weight / len(labeled)) * aux


def train_similarity(pairs: list[tuple[list[int], list[int], str | None]],
                     cfg: EncoderConfig, enc_params: dict[str, Tensor],
                     bank: HeadBank,
                     train_cfg: SimilarityTrainConfig = SimilarityTrainConfig(),
                     log_fn: Callable[[dict], None] | None = None) -> list[float]:
    """Minimize in-batch contrastive loss (+ auxiliary group supervision).

    ``pairs`` holds (claim token ids, doc token ids, relationship label or
    None). Returns the per-step loss history; parameters update in place.
    ``log_fn``, if given, gets {step, loss, grad_norm} after every step.
    """
    if len(pairs) < 2:
        raise ValueError("need at least 2 positive pairs per batch")

    # head projections get no gradient from either loss term; only the
    # head-weight MLP (when labels exist) and the encoder are optimized
    has_labels = any(label is not None for _, _, label in pairs)
    trainable = {k: v for k, v in bank.params.items() if k.startswith("sim/phi/")} if has_labels else {}
    trainable.update(enc_params)
    opt = AdamW(trainable, lr=train_cfg.lr)
    history: list[float] = []

    for _ in range(train_cfg.epochs):
        for start in range(0, len(pairs), train_cfg.batch_size):
            batch = pairs[start:start + train_cfg.batch_size]
            if len(batch) < 2:
                continue
            loss = _batch_loss(batch, cfg, enc_params, bank, train_cfg)
            grads = backward(loss, trainable)
            norm = clip_grad_norm(grads)
            opt.step(grads)
            history.append(loss.item())
            if log_fn is not None:
                log_fn({"step": len(history) - 1, "loss": history[-1], "grad_norm": norm})
    return history
