"""Contrastive training of the chunk encoder and head bank.

Positives are labeled related (claim chunk, doc chunk) pairs; negatives are
the other documents in the batch. When relationship labels exist, an
auxiliary cross-entropy pushes head-weight mass onto the label's designated
head pair, enforcing the specialization the head groups name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from claimforge.numerics import Tensor, backward, concat
from claimforge.similarity.heads import (
    RELATIONSHIP_GROUPS,
    HeadBank,
    head_weights,
)
from claimforge.textcore import EncoderConfig, encode_sequence, mean_pool
from claimforge.training import AdamW, clip_grad_norm, contrastive_loss


@dataclass
class SimilarityTrainConfig:
    temperature: float = 0.1
    aux_weight: float = 0.5
    lr: float = 1e-3
    weight_decay: float = 0.01
    batch_size: int = 8
    epochs: int = 5
    grad_clip: float = 1.0


def _stack_pooled(vectors: list[Tensor]) -> Tensor:
    return concat([v.reshape(1, -1) for v in vectors], axis=0)


def _row_normalize(z: Tensor, eps: float = 1e-12) -> Tensor:
    norms = ((z * z).sum(axis=1, keepdims=True) + eps).sqrt()
    return z / norms


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
    if train_cfg.temperature <= 0:
        raise ValueError("temperature must be positive")
    if len(pairs) < 2:
        raise ValueError("need at least 2 positive pairs per batch")

    # head projections get no gradient from either loss term; only the
    # head-weight MLP (when labels exist) and the encoder are optimized
    has_labels = any(label is not None for _, _, label in pairs)
    trainable = {k: v for k, v in bank.params.items() if k.startswith("sim/phi/")} if has_labels else {}
    trainable.update(enc_params)
    opt = AdamW(trainable, lr=train_cfg.lr, weight_decay=train_cfg.weight_decay)
    history: list[float] = []

    for _ in range(train_cfg.epochs):
        for start in range(0, len(pairs), train_cfg.batch_size):
            batch = pairs[start:start + train_cfg.batch_size]
            if len(batch) < 2:
                continue
            claim_pools, doc_pools = [], []
            for claim_ids, doc_ids, _ in batch:
                claim_pools.append(mean_pool(encode_sequence(claim_ids, cfg, enc_params)))
                doc_pools.append(mean_pool(encode_sequence(doc_ids, cfg, enc_params)))
            zc = _row_normalize(_stack_pooled(claim_pools))
            zd = _row_normalize(_stack_pooled(doc_pools))
            loss = contrastive_loss(zc @ zd.T, train_cfg.temperature)

            aux_terms = []
            for (claim_ids, doc_ids, label), cp, dp in zip(batch, claim_pools, doc_pools):
                if label is None:
                    continue
                if label not in RELATIONSHIP_GROUPS:
                    raise ValueError(f"unknown relationship label {label!r}")
                w = head_weights(cp, dp, bank)
                mass = sum(w[h - 1] for h in RELATIONSHIP_GROUPS[label])
                aux_terms.append(-(mass + 1e-12).log())
            if aux_terms:
                aux = aux_terms[0]
                for term in aux_terms[1:]:
                    aux = aux + term
                loss = loss + (train_cfg.aux_weight / len(aux_terms)) * aux

            grads = backward(loss, trainable)
            norm = clip_grad_norm(grads, train_cfg.grad_clip)
            opt.step(grads)
            history.append(loss.item())
            if log_fn is not None:
                log_fn({"step": len(history) - 1, "loss": history[-1], "grad_norm": norm})
    return history
