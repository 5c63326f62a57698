"""Loss registry: in-batch contrastive, hinge margin, token cross-entropy."""

from __future__ import annotations

import numpy as np

from claimforge.numerics import Tensor, log_softmax


def contrastive_loss(sim_matrix: Tensor, temperature: float) -> Tensor:
    """In-batch contrastive loss with positives on the diagonal.

    ``sim_matrix[i, k]`` is the similarity between anchor i and candidate k;
    candidate i is the positive, all others are in-batch negatives.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    n = sim_matrix.shape[0]
    if sim_matrix.shape != (n, n) or n < 1:
        raise ValueError(f"similarity matrix must be square and nonempty, got {sim_matrix.shape}")
    logits = sim_matrix * (1.0 / temperature)
    logp = log_softmax(logits, axis=-1)
    diag = logp[np.arange(n), np.arange(n)]
    return -diag.mean()


def margin_loss(margin: float, s_pos: float, s_neg: float) -> float:
    """Scalar hinge value, exactly zero when s_pos - s_neg >= margin."""
    return max(0.0, margin - s_pos + s_neg)


def sequence_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean next-token negative log likelihood; logits (len, vocab)."""
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(len(targets)), targets]
    return -picked.mean()
