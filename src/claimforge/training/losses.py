"""Loss registry: in-batch contrastive, hinge margin, token cross-entropy."""

from __future__ import annotations

import numpy as np

# the token cross-entropy is a fused numerics op beside cross_entropy_logits;
# it is re-exported here with the other losses
from claimforge.numerics import Tensor, check_settings, sequence_cross_entropy


def contrastive_loss(sim_matrix: Tensor, temperature: float) -> Tensor:
    """In-batch contrastive loss with positives on the diagonal.

    ``sim_matrix[i, k]`` is the similarity between anchor i and candidate k;
    candidate i is the positive, all others are in-batch negatives.
    """
    check_settings(temperature=temperature)
    n = sim_matrix.shape[0]
    if sim_matrix.shape != (n, n) or n < 1:
        raise ValueError(f"similarity matrix must be square and nonempty, got {sim_matrix.shape}")
    return sequence_cross_entropy(sim_matrix * (1.0 / temperature), np.arange(n))


def margin_loss(margin: float, s_pos: float, s_neg: float) -> float:
    """Scalar hinge value, exactly zero when s_pos - s_neg >= margin."""
    return max(0.0, margin - s_pos + s_neg)
