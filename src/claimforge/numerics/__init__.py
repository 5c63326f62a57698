"""Dense float64 tensor core with reverse-mode gradient accumulation.

The composite ops the trainers run most are fused: each tapes one node with
an analytic backward, and its forward keeps the numpy expressions, in their
order, of the composite it replaced, so inference gives the same bits. They
are ``softmax``, ``log_softmax``, ``layer_norm`` (parents x, gain, bias),
``scaled_dot_attention`` (parents q, k, v; an optional plain-array mask),
the encoder's two pre-norm residual blocks, ``attention_sublayer`` (parents
x, layer-norm gain and bias, wq, wk, wv, wo) and ``ffn_sublayer`` (parents x,
layer-norm gain and bias, w1, b1, w2, b2), both over one sequence or a
padded batch of them, ``cross_entropy_logits`` and
``sequence_cross_entropy``. The adapter merge,
``claimforge.generator.adapters.effective_projection``, is fused the same way.
``softmax_array`` and ``attention_array`` are the softmax and attention
forwards over plain arrays, for inference that builds no tape. Attention
runs its scale, mask add and softmax inside the scores buffer that
``q @ k^T`` returns, with the same ufuncs in the same order, and its
backward builds the score gradient inside the buffer of ``g @ v^T``; no
input array is written.

``backward`` takes one scalar loss or an iterable of them, walked one at a
time as it yields them; a walk frees each op node's gradient once its
backward has used it, while leaves accumulate theirs.
"""

from claimforge.numerics.tensor import (
    Tensor,
    NonFiniteError,
    no_grad,
    backward,
    concat,
    logistic,
    softmax,
    softmax_array,
    log_softmax,
    layer_norm,
    scaled_dot_attention,
    attention_array,
    attention_sublayer,
    ffn_sublayer,
    cross_entropy_logits,
    sequence_cross_entropy,
)
from claimforge.numerics.rng import Rng
from claimforge.numerics.params import ParamSource, Params
from claimforge.numerics.checkpoint import save_checkpoint, load_checkpoint, CheckpointError
from claimforge.numerics.settings import SettingError, Settings, check_settings

__all__ = [
    "Tensor",
    "NonFiniteError",
    "no_grad",
    "backward",
    "concat",
    "logistic",
    "softmax",
    "softmax_array",
    "log_softmax",
    "layer_norm",
    "scaled_dot_attention",
    "attention_array",
    "attention_sublayer",
    "ffn_sublayer",
    "cross_entropy_logits",
    "sequence_cross_entropy",
    "Rng",
    "ParamSource",
    "Params",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "SettingError",
    "Settings",
    "check_settings",
]
