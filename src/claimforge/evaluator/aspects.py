"""Shared pair encoding, per-aspect cross-attention scores, adaptive margins."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from claimforge.numerics import ParamSource, Params, Tensor, no_grad, scaled_dot_attention, softmax
from claimforge.generator.adapters import DOMAINS
from claimforge.textcore import (BOS_ID, EOS_ID, SEP_ID, EncoderConfig, encode_sequence,
                                 key_padding_mask)

ASPECTS = ("completeness", "clarity", "terminology", "logic", "overall")

DEFAULT_BASE_MARGIN = 0.3  # strongest fixed-margin setting, kept as the default base
DEFAULT_ADAPT_STRENGTH = 0.1
DOMAIN_EMBED_DIM = 16


@dataclass
class EvaluatorModel:
    """Aspect query embeddings, score projections, and the margin adapter."""

    cfg: EncoderConfig
    params: dict[str, Tensor] = field(default_factory=dict)

    @classmethod
    def init(cls, cfg: EncoderConfig, rng: ParamSource) -> "EvaluatorModel":
        k = len(ASPECTS)
        d = cfg.model_dim
        p = Params(rng)
        # aspect queries start as rows of a random orthonormal matrix so the
        # five aspects are distinguishable from step 0; the copy lets the
        # (d, d) Q factor go
        p.add("eval/queries", (k, d), lambda r: np.linalg.qr(r.normal((d, d)))[0][:k].copy())
        p.normal("eval/score_w", (k, d), 1.0 / np.sqrt(d))
        p.fill("eval/score_b", (k,), 0.0)
        p.fill("eval/aspect_logits", (k,), 0.0)
        p.normal("eval/margin/e_dom", (len(DOMAINS), DOMAIN_EMBED_DIM), 0.1)
        p.normal("eval/margin/w", (DOMAIN_EMBED_DIM, k), 0.1)
        p.fill("eval/margin/b", (k,), 0.0)
        return cls(cfg=cfg, params=p.tensors)


@dataclass
class QualityReport:
    aspect_scores: dict[str, float]
    aspect_weights: dict[str, float]
    overall: float
    display_scores: dict[str, float]
    margins: dict[str, float]
    domain_mixture: list[float]

    def to_record(self) -> dict:
        return dict(vars(self))


def _pair_ids(ref_ids: list[int], gen_ids: list[int], cfg: EncoderConfig) -> list[int]:
    """[BOS] reference [SEP] generated [EOS], checked against ``max_seq_len``."""
    if not ref_ids and not gen_ids:
        raise ValueError("empty claim pair")
    total = len(ref_ids) + len(gen_ids) + 3
    if total > cfg.max_seq_len:
        excess = total - cfg.max_seq_len
        raise ValueError(
            f"claim pair length {total} exceeds max_seq_len {cfg.max_seq_len}; "
            f"truncate inputs by {excess} tokens total"
        )
    return [BOS_ID] + list(ref_ids) + [SEP_ID] + list(gen_ids) + [EOS_ID]


def encode_pair(ref_ids: list[int], gen_ids: list[int], cfg: EncoderConfig,
                enc_params: dict[str, Tensor]) -> Tensor:
    """Encoder states over [BOS] reference [SEP] generated [EOS]."""
    return encode_sequence(_pair_ids(ref_ids, gen_ids, cfg), cfg, enc_params)


def encode_pairs(pairs: list[tuple[list[int], list[int]]], cfg: EncoderConfig,
                 enc_params: dict[str, Tensor]) -> tuple[Tensor, list[int]]:
    """``encode_pair`` of every (reference, generated) pair in one encoder call.

    Returns the padded (len(pairs), longest, model_dim) states and each
    pair's length, for ``aspect_scores``.
    """
    seqs = [_pair_ids(ref, gen, cfg) for ref, gen in pairs]
    lengths = [len(ids) for ids in seqs]
    states = encode_sequence([t for ids in seqs for t in ids], cfg, enc_params, lengths=lengths)
    return states, lengths


def aspect_scores(h_shared: Tensor, model: EvaluatorModel,
                  lengths: list[int] | None = None) -> tuple[Tensor, np.ndarray]:
    """Sigmoid scores per aspect via single-query cross-attention over h_shared.

    Returns (scores tensor of shape (5,), attention weight matrix (5, len)).
    With ``lengths``, h_shared is a padded (batch, len, d) stack from
    ``encode_pairs``, each pair attends to its own first lengths[i] rows only,
    and the scores are (batch, 5) and the weights (batch, 5, len).
    """
    if h_shared.shape[-2] == 0:
        raise ValueError("empty shared encoding")
    mask = None if lengths is None else key_padding_mask(lengths)[:, None, :]
    pooled, attn = scaled_dot_attention(model.params["eval/queries"], h_shared, h_shared, mask)
    logits = (pooled * model.params["eval/score_w"]).sum(axis=-1) + model.params["eval/score_b"]
    return logits.sigmoid(), attn.data


def overall_score(scores: Tensor, aspect_logits: Tensor) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted combination of the five aspect scores."""
    w = softmax(aspect_logits)
    return (w * scores).sum(), w.data


def adaptive_margin(alpha, model: EvaluatorModel) -> Tensor:
    """Per-aspect margin mu + beta * tanh(row_k of domain projection), with
    mu = ``DEFAULT_BASE_MARGIN`` and beta = ``DEFAULT_ADAPT_STRENGTH``.

    ``alpha`` is the domain mixture, or a (batch, domains) stack of them for
    (batch, 5) margins; the domain embedding is its soft mixture over the
    embedding table, so margins stay within mu +/- beta.
    """
    alpha = alpha if isinstance(alpha, Tensor) else Tensor(np.asarray(alpha, float))
    if alpha.shape[-1:] != (len(DOMAINS),) or len(alpha.shape) > 2:
        raise ValueError(f"domain mixture must have {len(DOMAINS)} entries")
    d_embed = alpha @ model.params["eval/margin/e_dom"]
    z = d_embed @ model.params["eval/margin/w"] + model.params["eval/margin/b"]
    return z.tanh() * DEFAULT_ADAPT_STRENGTH + DEFAULT_BASE_MARGIN


@no_grad()
def score_pair(ref_ids: list[int], gen_ids: list[int], alpha,
               model: EvaluatorModel, enc_params: dict[str, Tensor]) -> QualityReport:
    """Full quality report for one (reference, generated) claim pair."""
    h_shared = encode_pair(ref_ids, gen_ids, model.cfg, enc_params)
    scores, _ = aspect_scores(h_shared, model)
    overall, w = overall_score(scores, model.params["eval/aspect_logits"])
    margins = adaptive_margin(alpha, model).data
    s = scores.data
    return QualityReport(
        aspect_scores={a: float(s[i]) for i, a in enumerate(ASPECTS)},
        aspect_weights={a: float(w[i]) for i, a in enumerate(ASPECTS)},
        overall=float(overall.data),
        display_scores={a: float(10.0 * s[i]) for i, a in enumerate(ASPECTS)},
        margins={a: float(margins[i]) for i, a in enumerate(ASPECTS)},
        domain_mixture=[float(x) for x in np.asarray(alpha, float)],
    )
