"""Specialized-head similarity scoring between claim and document chunks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from claimforge.numerics import (ParamSource, Params, Tensor, attention_array, concat, softmax,
                                 softmax_array)

NUM_HEADS = 8
HEAD_DIM = 64
PHI_HIDDEN = 128  # hidden width of the head-weight MLP

# two heads per relationship group; order fixes argmax tie-breaking
RELATIONSHIP_GROUPS: dict[str, tuple[int, int]] = {
    "equivalence": (1, 2),
    "improvement": (3, 4),
    "contradiction": (5, 6),
    "technical": (7, 8),
}
RELATIONSHIP_ORDER = ("equivalence", "improvement", "contradiction", "technical")


@dataclass
class HeadBank:
    """Per-head projection triples plus the shared head-weight MLP."""

    model_dim: int
    params: dict[str, Tensor] = field(default_factory=dict)
    _stack: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def init(cls, model_dim: int, rng: ParamSource, head_dim: int = HEAD_DIM) -> "HeadBank":
        p = Params(rng)
        scale = 1.0 / np.sqrt(model_dim)
        for h in range(1, NUM_HEADS + 1):
            for proj in ("wq", "wk", "wv"):
                p.normal(f"sim/h{h}/{proj}", (model_dim, head_dim), scale)
        p.normal("sim/phi/w1", (3 * model_dim, PHI_HIDDEN), scale)
        p.fill("sim/phi/b1", (PHI_HIDDEN,), 0.0)
        p.normal("sim/phi/w2", (PHI_HIDDEN, NUM_HEADS), 1.0 / np.sqrt(PHI_HIDDEN))
        p.fill("sim/phi/b2", (NUM_HEADS,), 0.0)
        return cls(model_dim=model_dim, params=p.tensors)

    def stacked_projections(self) -> np.ndarray:
        """The heads' wq, wk and wv as one (3, NUM_HEADS, model_dim, head_dim) array.

        The weights are held once: each head's ``data`` becomes its view of
        the stack, and the same stack is returned while every head still is
        one. After a head's ``data`` was rebound (an optimizer step, a
        checkpoint load) the heads are stacked again.
        """
        heads = [[self.params[f"sim/h{h}/{proj}"] for h in range(1, NUM_HEADS + 1)]
                 for proj in ("wq", "wk", "wv")]
        if self._stack is None or any(t.data.base is not self._stack for row in heads for t in row):
            self._stack = np.stack([np.stack([t.data for t in row]) for row in heads])
            for p, row in enumerate(heads):
                for h, t in enumerate(row):
                    t.data = self._stack[p, h]
        return self._stack


@dataclass
class SimilarityReport:
    claim_chunk_id: str
    doc_chunk_id: str
    head_scores: list[float]
    head_weights: list[float]
    similarity: float
    relationship_label: str
    group_masses: dict[str, float]

    def to_record(self) -> dict:
        return dict(vars(self))


def head_weights(claim_repr: Tensor, doc_repr: Tensor, bank: HeadBank) -> Tensor:
    """Softmax over 8 logits from MLP([claim; doc; claim * doc]).

    The representations are (model_dim,) vectors, or (pairs, model_dim)
    stacks of them for (pairs, 8) weights.
    """
    if claim_repr.shape[-1:] != (bank.model_dim,) or doc_repr.shape != claim_repr.shape:
        raise ValueError(
            f"pooled representations must have dim {bank.model_dim}, "
            f"got {claim_repr.shape} and {doc_repr.shape}"
        )
    x = concat([claim_repr, doc_repr, claim_repr * doc_repr], axis=-1)
    h = (x @ bank.params["sim/phi/w1"] + bank.params["sim/phi/b1"]).relu()
    logits = h @ bank.params["sim/phi/w2"] + bank.params["sim/phi/b2"]
    return softmax(logits)


def head_weight_array(claim_pooled: np.ndarray, doc_pooled: np.ndarray,
                      bank: HeadBank) -> np.ndarray:
    """``head_weights`` in plain numpy for inference, with the same ops in the
    same order, so the same bits: concat, ``@ w1 + b1``, relu, ``@ w2 + b2``,
    ``softmax_array``."""
    p = bank.params
    x = np.concatenate([claim_pooled, doc_pooled, claim_pooled * doc_pooled])
    h = x @ p["sim/phi/w1"].data + p["sim/phi/b1"].data
    logits = (h * (h > 0)) @ p["sim/phi/w2"].data + p["sim/phi/b2"].data
    return softmax_array(logits, -1)


def _pool(x: np.ndarray, axis: int) -> np.ndarray:
    # sum times 1/n, the way mean_pool does: np.mean divides, which can
    # differ in the last bit and would move the report bytes
    return x.sum(axis=axis) * (1.0 / x.shape[axis])


def _check_states(states: np.ndarray) -> None:
    if states.shape[0] == 0:
        raise ValueError("empty states")


@dataclass(frozen=True)
class ClaimFeatures:
    """What scoring needs of a claim's states, whatever the doc chunk: the
    pooled states, the per-head queries ``q`` (NUM_HEADS, n, head_dim), their
    pooled rows ``q_pooled`` and the norms of those."""

    pooled: np.ndarray
    q: np.ndarray
    q_pooled: np.ndarray
    q_norm: np.ndarray


@dataclass(frozen=True)
class ChunkFeatures:
    """What scoring needs of a doc chunk's states, whatever the claim: the
    pooled states and the per-head keys and values (NUM_HEADS, m, head_dim)."""

    pooled: np.ndarray
    k: np.ndarray
    v: np.ndarray


def claim_features(states: np.ndarray, projections: np.ndarray) -> ClaimFeatures:
    """Features of (n, model_dim) claim states under ``HeadBank.stacked_projections``."""
    _check_states(states)
    q = states @ projections[0]
    q_pooled = _pool(q, 1)
    q_norm = np.sqrt((q_pooled * q_pooled).sum(axis=-1))
    return ClaimFeatures(_pool(states, 0), q, q_pooled, q_norm)


def chunk_features(states: np.ndarray, projections: np.ndarray) -> ChunkFeatures:
    """Features of (m, model_dim) doc-chunk states under ``HeadBank.stacked_projections``."""
    _check_states(states)
    return ChunkFeatures(_pool(states, 0), states @ projections[1], states @ projections[2])


def head_scores(claim: ClaimFeatures, doc: ChunkFeatures) -> np.ndarray:
    """Per-head cosine between the pooled attended output and the pooled query.

    All heads at once: per head, scaled dot-product attention
    (``attention_array``) of the claim's queries over the doc's keys and
    values, then mean pooling over rows. A
    head whose pooled vectors have a norm below 1e-12 scores 0. Returns shape
    (NUM_HEADS,). Pairs are scored one at a time: stacking rows of several
    pairs into one product can change the last bits.
    """
    a = _pool(attention_array(claim.q, doc.k, doc.v, None)[0], 1)
    norm_a = np.sqrt((a * a).sum(axis=-1))
    ok = (norm_a >= 1e-12) & (claim.q_norm >= 1e-12)
    return np.divide((a * claim.q_pooled).sum(axis=-1), norm_a * claim.q_norm,
                     out=np.zeros(len(a)), where=ok)


def group_masses_from_weights(w: np.ndarray | list[float]) -> dict[str, float]:
    return {
        name: float(sum(w[h - 1] for h in heads))
        for name, heads in RELATIONSHIP_GROUPS.items()
    }


def label_from_masses(masses: dict[str, float]) -> str:
    # argmax with fixed tie-break order
    best = RELATIONSHIP_ORDER[0]
    for name in RELATIONSHIP_ORDER:
        if masses[name] > masses[best]:
            best = name
    return best


def similarity(claim_chunk_id: str, doc_chunk_id: str,
               claim: ClaimFeatures | Tensor, doc: ChunkFeatures | Tensor,
               bank: HeadBank) -> SimilarityReport:
    """Head-weighted similarity report for one (claim chunk, doc chunk) pair.

    ``claim`` and ``doc`` are the texts' features, from ``claim_features`` and
    ``chunk_features``, or their raw encoder states, which are turned into
    features here, for this pair only. A caller scoring many pairs builds
    each text's features once and passes them.
    """
    if isinstance(claim, Tensor) or isinstance(doc, Tensor):
        projections = bank.stacked_projections()
        if isinstance(claim, Tensor):
            claim = claim_features(claim.data, projections)
        if isinstance(doc, Tensor):
            doc = chunk_features(doc.data, projections)
    w_np = head_weight_array(claim.pooled, doc.pooled, bank)
    score_np = head_scores(claim, doc)
    weights = w_np.tolist()
    masses = group_masses_from_weights(weights)
    return SimilarityReport(
        claim_chunk_id=claim_chunk_id,
        doc_chunk_id=doc_chunk_id,
        head_scores=score_np.tolist(),
        head_weights=weights,
        similarity=float(np.dot(w_np, score_np)),
        relationship_label=label_from_masses(masses),
        group_masses=masses,
    )
