"""Tokenization, vocabulary, and the shared transformer text encoder."""

from claimforge.textcore.vocab import (
    Vocabulary,
    tokenize,
    PAD_ID,
    UNK_ID,
    BOS_ID,
    EOS_ID,
    SEP_ID,
    NUM_RESERVED,
)
from claimforge.textcore.segment import sentence_boundaries
from claimforge.textcore.encoder import (
    EncoderConfig,
    KVCache,
    init_encoder_params,
    encode_sequence,
    key_padding_mask,
    mean_pool,
)

__all__ = [
    "Vocabulary",
    "tokenize",
    "PAD_ID",
    "UNK_ID",
    "BOS_ID",
    "EOS_ID",
    "SEP_ID",
    "NUM_RESERVED",
    "sentence_boundaries",
    "EncoderConfig",
    "KVCache",
    "init_encoder_params",
    "encode_sequence",
    "key_padding_mask",
    "mean_pool",
]
