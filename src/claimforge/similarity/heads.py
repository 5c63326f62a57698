"""Specialized-head similarity scoring between claim and document chunks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from claimforge.numerics import ParamSource, Params, Tensor, attention_array, softmax_array
from claimforge.numerics.tensor import _rows

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
    """Per-head projection triples plus the shared head-weight MLP. The heads'
    wq, wk and wv are held once, in one (3, NUM_HEADS, model_dim, head_dim)
    stack made with the bank, of which each ``sim/h{h}/w*`` holds its view."""

    model_dim: int
    params: dict[str, Tensor]
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [[f"sim/h{h}/{w}" for h in range(1, NUM_HEADS + 1)] for w in ("wq", "wk", "wv")]
        self._stack = np.array([[self.params[n].data for n in row] for row in names])
        for p, row in enumerate(names):
            for h, n in enumerate(row):
                self.params[n].data = self._stack[p, h]

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
        """The heads' wq, wk and wv as one (3, NUM_HEADS, model_dim, head_dim) array."""
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


def head_weight_array(claim_pooled: np.ndarray, doc_pooled: np.ndarray,
                      bank: HeadBank) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax over 8 logits from MLP([claim; doc; claim * doc]) with no tape:
    (weights, MLP input x, hidden activations h). The representations are
    (model_dim,) vectors, or (pairs, model_dim) stacks for (pairs, 8) weights.
    The MLP's one forward: inference calls it, ``head_weights`` tapes it."""
    p = bank.params
    x = np.concatenate([claim_pooled, doc_pooled, claim_pooled * doc_pooled], axis=-1)
    h = x @ p["sim/phi/w1"].data + p["sim/phi/b1"].data
    h *= h > 0
    return softmax_array(h @ p["sim/phi/w2"].data + p["sim/phi/b2"].data, -1), x, h


def head_weights(claim_repr: Tensor, doc_repr: Tensor, bank: HeadBank) -> Tensor:
    """``head_weight_array`` as one node over the two representations and the
    MLP's w1, b1, w2 and b2. The backward runs the per-op composite's gradient
    expressions in its walk order, so the same bits: softmax, ``@ w2.T`` where
    h > 0, ``@ w1.T`` split in three, the product's part added to each side last."""
    if claim_repr.shape[-1:] != (bank.model_dim,) or doc_repr.shape != claim_repr.shape:
        raise ValueError(
            f"pooled representations must have dim {bank.model_dim}, "
            f"got {claim_repr.shape} and {doc_repr.shape}"
        )
    c, d = claim_repr.data, doc_repr.data
    w1, b1, w2, b2 = (bank.params[f"sim/phi/{n}"] for n in ("w1", "b1", "w2", "b2"))
    y, x, h = head_weight_array(c, d, bank)

    def bwd(g, out):
        g = y * (g - (g * y).sum(axis=-1, keepdims=True))
        g_pre = (g @ w2.data.T) * (h > 0)
        g_c, g_d, g_m = np.split(g_pre @ w1.data.T, 3, axis=-1)
        return (g_c + g_m * d, g_d + g_m * c, _rows(x).T @ _rows(g_pre),
                _rows(g_pre).sum(axis=0), _rows(h).T @ _rows(g), _rows(g).sum(axis=0))

    return Tensor._from_op(y, (claim_repr, doc_repr, w1, b1, w2, b2), bwd)


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
    """Features of (n, model_dim) claim states under the bank's projection
    stack, ``HeadBank.stacked_projections()``: the queries."""
    _check_states(states)
    q = states @ projections[0]
    q_pooled = _pool(q, 1)
    q_norm = np.sqrt((q_pooled * q_pooled).sum(axis=-1))
    return ClaimFeatures(_pool(states, 0), q, q_pooled, q_norm)


def chunk_features(states: np.ndarray, projections: np.ndarray) -> ChunkFeatures:
    """Features of (m, model_dim) doc-chunk states under the bank's projection
    stack, ``HeadBank.stacked_projections()``: the keys and values."""
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
    w_np = head_weight_array(claim.pooled, doc.pooled, bank)[0]
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
