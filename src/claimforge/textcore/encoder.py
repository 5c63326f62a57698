"""Small pre-norm transformer encoder shared by every pipeline stage.

Full attention stands in for the long-context encoder: desk-scale sequences
stay under ``max_seq_len`` tokens, where full attention is exact. Positions
are fixed sinusoidal. Residual blocks are pre-norm, so zeroing every layer
weight matrix reduces the stack to token + positional embeddings.

Each residual block is one autodiff node with an analytic backward, the
numerics kernels ``attention_sublayer`` (layer norm, multi-head attention,
output projection, residual) and ``ffn_sublayer`` (layer norm, relu MLP,
residual), so an encoder call tapes the embedding lookup, the position add
and two nodes per layer. Training and inference run the same code; under
``no_grad()`` the nodes record nothing. The similarity and evaluator trainers
encode a whole batch in one call, as a padded (batch, length, dim) stack under
a key-padding mask; inference and the generator encode one sequence a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from claimforge.numerics import (ParamSource, Params, SettingError, Settings, Tensor,
                                 attention_sublayer, ffn_sublayer)
from claimforge.textcore.vocab import PAD_ID


@dataclass(frozen=True)
class EncoderConfig(Settings):
    model_dim: int = 512
    num_heads: int = 8
    head_dim: int = 64
    num_layers: int = 2
    max_seq_len: int = 1024

    def __post_init__(self):
        super().__post_init__()
        if self.num_heads * self.head_dim != self.model_dim:
            raise SettingError("num_heads", f"* head_dim must equal model_dim: {self.num_heads} "
                                            f"* {self.head_dim} != {self.model_dim}")


@lru_cache(maxsize=32)
def _positional_encoding_cached(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    pe = np.zeros((length, dim))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    pe.flags.writeable = False  # shared by every caller
    return pe


@dataclass
class KVCache:
    """Per-layer attention keys and values of the positions encoded so far.

    Each entry is a plain (num_heads, length, head_dim) ndarray, one per
    layer; ``encode_sequence`` appends the new positions' rows on every call.
    """

    keys: list[np.ndarray] = field(default_factory=list)
    values: list[np.ndarray] = field(default_factory=list)

    @property
    def length(self) -> int:
        return self.keys[0].shape[1] if self.keys else 0


def init_encoder_params(vocab_size: int, cfg: EncoderConfig, rng: ParamSource,
                        prefix: str = "enc") -> dict[str, Tensor]:
    d = cfg.model_dim
    p = Params(rng)
    p.normal(f"{prefix}/embed", (vocab_size, d), 0.02)
    for layer in range(cfg.num_layers):
        pre = f"{prefix}/l{layer}"
        p.fill(f"{pre}/ln1/g", (d,), 1.0)
        p.fill(f"{pre}/ln1/b", (d,), 0.0)
        for proj in ("wq", "wk", "wv", "wo"):
            p.normal(f"{pre}/attn/{proj}", (d, d), 0.02)
        p.fill(f"{pre}/ln2/g", (d,), 1.0)
        p.fill(f"{pre}/ln2/b", (d,), 0.0)
        p.normal(f"{pre}/ffn/w1", (d, 4 * d), 0.02)
        p.fill(f"{pre}/ffn/b1", (4 * d,), 0.0)
        p.normal(f"{pre}/ffn/w2", (4 * d, d), 0.02)
        p.fill(f"{pre}/ffn/b2", (d,), 0.0)
    return p.tensors


def encode_sequence(ids, cfg: EncoderConfig, params: dict[str, Tensor],
                    prefix: str = "enc", causal: bool = False,
                    cache: KVCache | None = None, lengths: list[int] | None = None) -> Tensor:
    """Run the transformer stack over a token id sequence.

    ``params`` holds the weights the stack runs, keyed ``{prefix}/{name}``; the
    generator passes its adapter-merged projections in place of the base ones.
    Returns the (len, model_dim) hidden-state matrix.

    With a ``cache`` (causal only), ``ids`` are the positions that follow the
    ``cache.length`` already encoded: they are placed from that offset, attend
    to the cached keys and values as well as to each other, and their own
    keys and values are appended to the cache. The result holds the new rows
    only. The cache is for inference: cached keys and values are plain
    arrays, so no gradient flows into earlier positions through them.

    With ``lengths`` (bidirectional, no cache), ``ids`` is the concatenation
    of ``len(lengths)`` sequences, each encoded as if alone but all in one
    pass: the result is the (len(lengths), max(lengths), model_dim) stack of
    their states, each sequence padded with ``PAD_ID`` after its own ids, and
    no position attends to padding. Padded rows hold states of their own;
    a loss that skips them, as ``mean_pool(states, lengths)`` does, sends
    them no gradient.
    """
    ids = list(ids)
    if not ids:
        raise ValueError("empty sequence")
    if cache is not None and not causal:
        raise ValueError("a KV cache needs causal attention")
    if lengths is not None:
        if causal:
            raise ValueError("a padded batch needs bidirectional attention, without a KV cache")
        lengths = list(lengths)
        if min(lengths) < 1 or sum(lengths) != len(ids):
            raise ValueError(f"lengths {lengths} must be positive and sum to the "
                             f"{len(ids)} ids given")
    offset = cache.length if cache is not None else 0
    length = len(ids) if lengths is None else max(lengths)
    total = offset + length
    if total > cfg.max_seq_len:
        raise ValueError(f"sequence length {total} exceeds max_seq_len {cfg.max_seq_len}")

    def get(name: str) -> Tensor:
        return params[f"{prefix}/{name}"]

    embed = get("embed")
    vocab_size = embed.shape[0]
    if min(ids) < 0 or max(ids) >= vocab_size:
        raise ValueError(f"token id out of vocabulary range [0, {vocab_size})")

    if lengths is None:
        tokens = ids
        mask = None
        # a single new position may attend to every key: its causal mask is all zeros
        if causal and length > 1:
            mask = np.triu(np.full((length, total), -1e9), k=offset + 1)
    else:
        mask = key_padding_mask(lengths)
        tokens = np.full(mask.shape, PAD_ID)
        tokens[mask == 0.0] = ids  # each sequence at the start of its own row
        mask = mask[:, None, None, :]
    # Each row depends only on its position, so a table of the next power of
    # two rows at or above ``total`` holds the rows of the full one.
    rows = min(cfg.max_seq_len, 1 << (total - 1).bit_length())
    positions = _positional_encoding_cached(rows, cfg.model_dim)[offset:total]
    # a constant, as Tensor._wrap makes one: the cached table is finite and read-only
    x = embed[np.asarray(tokens)] + Tensor._from_op(positions, (), None)

    for layer in range(cfg.num_layers):
        p = f"l{layer}"
        x = attention_sublayer(
            x, get(f"{p}/ln1/g"), get(f"{p}/ln1/b"), get(f"{p}/attn/wq"), get(f"{p}/attn/wk"),
            get(f"{p}/attn/wv"), get(f"{p}/attn/wo"), cfg.num_heads, mask,
            None if cache is None else partial(_extend_cache, cache, layer))
        x = ffn_sublayer(x, get(f"{p}/ln2/g"), get(f"{p}/ln2/b"), get(f"{p}/ffn/w1"),
                         get(f"{p}/ffn/b1"), get(f"{p}/ffn/w2"), get(f"{p}/ffn/b2"))
    return x


def key_padding_mask(lengths: list[int]) -> np.ndarray:
    """(len(lengths), max(lengths)) additive attention mask of a padded stack:
    0 at each sequence's first lengths[i] positions, -1e9 at its padding."""
    lengths = np.asarray(lengths)
    return np.where(np.arange(lengths.max()) < lengths[:, None], 0.0, -1e9)


def _extend_cache(cache: KVCache, layer: int, k: np.ndarray,
                  v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Append one layer's new keys and values; return that layer's full K and V."""
    if layer == len(cache.keys):
        cache.keys.append(k)
        cache.values.append(v)
    else:
        cache.keys[layer] = np.concatenate([cache.keys[layer], k], axis=1)
        cache.values[layer] = np.concatenate([cache.values[layer], v], axis=1)
    return cache.keys[layer], cache.values[layer]


def mean_pool(states: Tensor, lengths: list[int] | None = None) -> Tensor:
    """Column mean of a (len, dim) hidden-state matrix.

    With ``lengths``, the (batch, dim) means of a padded (batch, len, dim)
    stack, each over its sequence's first lengths[i] rows: padded rows add
    zeros to the sum and get no gradient.
    """
    if lengths is None:
        return states.mean(axis=0)
    lengths = np.asarray(lengths)
    valid = np.arange(states.shape[1]) < lengths[:, None]
    return ((states * Tensor(valid[:, :, None].astype(np.float64))).sum(axis=1)
            * Tensor(1.0 / lengths[:, None]))
