"""Stage 1b: relationship-aware similarity with 8 specialized attention heads."""

from claimforge.similarity.heads import (
    NUM_HEADS,
    HEAD_DIM,
    RELATIONSHIP_GROUPS,
    RELATIONSHIP_ORDER,
    ChunkFeatures,
    ClaimFeatures,
    HeadBank,
    SimilarityReport,
    chunk_features,
    claim_features,
    head_weights,
    head_scores,
    similarity,
)
from claimforge.similarity.train import train_similarity, SimilarityTrainConfig

__all__ = [
    "NUM_HEADS",
    "HEAD_DIM",
    "RELATIONSHIP_GROUPS",
    "RELATIONSHIP_ORDER",
    "ChunkFeatures",
    "ClaimFeatures",
    "HeadBank",
    "SimilarityReport",
    "chunk_features",
    "claim_features",
    "head_weights",
    "head_scores",
    "similarity",
    "train_similarity",
    "SimilarityTrainConfig",
]
