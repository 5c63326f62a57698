"""Specialized-head similarity scoring between claim and document chunks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from claimforge.numerics import NonFiniteError, Rng, Tensor, concat, softmax
from claimforge.textcore import mean_pool

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
    head_dim: int = HEAD_DIM
    params: dict[str, Tensor] = field(default_factory=dict)

    @classmethod
    def init(cls, model_dim: int, rng: Rng, head_dim: int = HEAD_DIM) -> "HeadBank":
        bank = cls(model_dim=model_dim, head_dim=head_dim)
        p = bank.params
        scale = 1.0 / np.sqrt(model_dim)
        for h in range(1, NUM_HEADS + 1):
            for proj in ("wq", "wk", "wv"):
                p[f"sim/h{h}/{proj}"] = Tensor(
                    rng.normal((model_dim, head_dim), scale), requires_grad=True
                )
        p["sim/phi/w1"] = Tensor(rng.normal((3 * model_dim, PHI_HIDDEN), scale), requires_grad=True)
        p["sim/phi/b1"] = Tensor(np.zeros(PHI_HIDDEN), requires_grad=True)
        p["sim/phi/w2"] = Tensor(
            rng.normal((PHI_HIDDEN, NUM_HEADS), 1.0 / np.sqrt(PHI_HIDDEN)), requires_grad=True
        )
        p["sim/phi/b2"] = Tensor(np.zeros(NUM_HEADS), requires_grad=True)
        return bank

    def stacked_projections(self) -> np.ndarray:
        """The heads' wq, wk and wv as one (3, NUM_HEADS, model_dim, head_dim) array.

        A copy: build it once per set of weights, not once per pair.
        """
        return np.stack([
            np.stack([self.params[f"sim/h{h}/{proj}"].data for h in range(1, NUM_HEADS + 1)])
            for proj in ("wq", "wk", "wv")
        ])


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
        return {
            "claim_chunk_id": self.claim_chunk_id,
            "doc_chunk_id": self.doc_chunk_id,
            "head_scores": self.head_scores,
            "head_weights": self.head_weights,
            "similarity": self.similarity,
            "relationship_label": self.relationship_label,
            "group_masses": self.group_masses,
        }


def head_weights(claim_repr: Tensor, doc_repr: Tensor, bank: HeadBank) -> Tensor:
    """Softmax over 8 logits from MLP([claim; doc; claim * doc])."""
    if claim_repr.shape != (bank.model_dim,) or doc_repr.shape != (bank.model_dim,):
        raise ValueError(
            f"pooled representations must have dim {bank.model_dim}, "
            f"got {claim_repr.shape} and {doc_repr.shape}"
        )
    x = concat([claim_repr, doc_repr, claim_repr * doc_repr])
    h = (x @ bank.params["sim/phi/w1"] + bank.params["sim/phi/b1"]).relu()
    logits = h @ bank.params["sim/phi/w2"] + bank.params["sim/phi/b2"]
    return softmax(logits)


def head_scores(claim_states: np.ndarray, doc_states: np.ndarray,
                projections: np.ndarray) -> np.ndarray:
    """Per-head cosine between the pooled attended output and the pooled query.

    All heads at once over ``projections`` from ``HeadBank.stacked_projections``:
    per head, scaled dot-product attention of the claim's queries over the
    doc's keys and values, then mean pooling over rows. A head whose pooled
    vectors have a norm below 1e-12 scores 0. Returns shape (NUM_HEADS,).
    """
    if claim_states.shape[0] == 0 or doc_states.shape[0] == 0:
        raise ValueError("empty states")
    wq, wk, wv = projections
    q = claim_states @ wq
    k = doc_states @ wk
    v = doc_states @ wv
    scores = (q @ np.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    if not np.all(np.isfinite(scores)):
        raise NonFiniteError("non-finite value in attention scores")
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    attended = (e / e.sum(axis=-1, keepdims=True)) @ v
    # pool as sum times 1/n, the way mean_pool does: np.mean divides, which
    # can differ in the last bit and would move the report bytes
    n = q.shape[1]
    a = attended.sum(axis=1) * (1.0 / n)
    b = q.sum(axis=1) * (1.0 / n)
    norm_a = np.sqrt((a * a).sum(axis=-1))
    norm_b = np.sqrt((b * b).sum(axis=-1))
    out = np.zeros(len(q))
    ok = (norm_a >= 1e-12) & (norm_b >= 1e-12)
    out[ok] = (a * b).sum(axis=-1)[ok] / (norm_a * norm_b)[ok]
    return out


def group_masses_from_weights(w: np.ndarray) -> dict[str, float]:
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
               claim_states: Tensor, doc_states: Tensor,
               bank: HeadBank, projections: np.ndarray | None = None) -> SimilarityReport:
    """Head-weighted similarity report for one (claim chunk, doc chunk) pair.

    ``projections`` is ``bank.stacked_projections()``; a caller scoring many
    pairs with one bank passes it, otherwise it is built for this pair.
    """
    if projections is None:
        projections = bank.stacked_projections()
    w = head_weights(mean_pool(claim_states), mean_pool(doc_states), bank)
    w_np = w.data
    score_np = head_scores(claim_states.data, doc_states.data, projections)
    masses = group_masses_from_weights(w_np)
    return SimilarityReport(
        claim_chunk_id=claim_chunk_id,
        doc_chunk_id=doc_chunk_id,
        head_scores=[float(s) for s in score_np],
        head_weights=[float(x) for x in w_np],
        similarity=float(np.dot(w_np, score_np)),
        relationship_label=label_from_masses(masses),
        group_masses=masses,
    )
