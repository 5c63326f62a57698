"""Decoder-only language model with adapter-modified projections."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from claimforge.numerics import ParamSource, Params, Tensor, check_settings, no_grad
from claimforge.generator.adapters import AdapterBank, effective_overrides
from claimforge.generator.classify import DomainClassifier, classify_domain, pool_embedding
from claimforge.textcore import (BOS_ID, EOS_ID, SEP_ID, EncoderConfig, KVCache,
                                 encode_sequence, init_encoder_params)


@dataclass
class GeneratorModel:
    cfg: EncoderConfig
    params: dict[str, Tensor] = field(default_factory=dict)

    @classmethod
    def init(cls, vocab_size: int, cfg: EncoderConfig, rng: ParamSource) -> "GeneratorModel":
        p = Params(rng)
        p.tensors.update(init_encoder_params(vocab_size, cfg, rng, prefix="dec"))
        p.normal("dec/out_w", (cfg.model_dim, vocab_size), 1.0 / np.sqrt(cfg.model_dim))
        p.fill("dec/out_b", (vocab_size,), 0.0)
        return cls(cfg=cfg, params=p.tensors)

    @property
    def embed(self) -> Tensor:
        return self.params["dec/embed"]


def decoder_logits(ids: list[int], model: GeneratorModel,
                   overrides: dict[str, Tensor] | None = None,
                   cache: KVCache | None = None) -> Tensor:
    """Next-token logits at every position of ``ids`` (causal self-attention).

    With a ``cache``, ``ids`` continue the positions it holds, and only
    their logits are returned.
    """
    params = {**model.params, **overrides} if overrides else model.params
    states = encode_sequence(ids, model.cfg, params, prefix="dec", causal=True, cache=cache)
    return states @ model.params["dec/out_w"] + model.params["dec/out_b"]


@no_grad()
def generate(description_ids: list[int], model: GeneratorModel,
             bank: AdapterBank, classifier: DomainClassifier,
             max_len: int) -> tuple[list[int], np.ndarray, str]:
    """Greedy autoregressive decoding conditioned on the description prefix.

    The domain mixture alpha is computed once per document, before decoding.
    One causal pass over the prefix (BOS, description, SEP) fills a per-layer
    KV cache and gives the first token's logits; each later step feeds only
    the newest token, so a step computes one position, not the whole prefix.
    Returns (generated token ids, alpha, domain label).
    """
    if not description_ids:
        raise ValueError("empty document")
    check_settings(max_len=max_len)
    if max_len + 2 >= model.cfg.max_seq_len:
        raise ValueError(f"max_len + 2 must be below max_seq_len, so the decoder has room "
                         f"for a description: {max_len} + 2 >= {model.cfg.max_seq_len}")

    alpha, label, _ = classify_domain(pool_embedding(description_ids, model.embed), classifier)
    overrides = effective_overrides(model.params, bank, alpha)

    budget = model.cfg.max_seq_len - max_len - 2
    prefix = [BOS_ID] + list(description_ids)[:budget] + [SEP_ID]
    cache = KVCache()
    logits = decoder_logits(prefix, model, overrides, cache=cache).data[-1]
    out: list[int] = []
    for step in range(max_len):
        nxt = int(np.argmax(logits))
        if nxt == EOS_ID:
            break
        out.append(nxt)
        if step + 1 < max_len:
            logits = decoder_logits([nxt], model, overrides, cache=cache).data[-1]
    return out, alpha, label
