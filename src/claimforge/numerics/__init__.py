"""Dense float64 tensor core with reverse-mode gradient accumulation."""

from claimforge.numerics.tensor import (
    Tensor,
    NonFiniteError,
    no_grad,
    backward,
    concat,
    take_rows,
    softmax,
    log_softmax,
    layer_norm,
    scaled_dot_attention,
    cross_entropy_logits,
)
from claimforge.numerics.rng import Rng
from claimforge.numerics.checkpoint import save_checkpoint, load_checkpoint, CheckpointError

__all__ = [
    "Tensor",
    "NonFiniteError",
    "no_grad",
    "backward",
    "concat",
    "take_rows",
    "softmax",
    "log_softmax",
    "layer_norm",
    "scaled_dot_attention",
    "cross_entropy_logits",
    "Rng",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]
