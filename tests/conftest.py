"""Shared fixtures: compact model geometry so tests stay fast."""

import pytest

from claimforge.numerics import Rng
from claimforge.textcore import EncoderConfig, Vocabulary, init_encoder_params


@pytest.fixture
def small_cfg():
    return EncoderConfig(model_dim=16, num_heads=2, head_dim=8,
                         num_layers=1, max_seq_len=64)


@pytest.fixture
def small_vocab():
    words = [f"w{i}" for i in range(40)]
    return Vocabulary.build([" ".join(words)], cap=128)


@pytest.fixture
def small_enc(small_cfg, small_vocab):
    rng = Rng(0, ("test-enc",))
    return init_encoder_params(len(small_vocab), small_cfg, rng)
