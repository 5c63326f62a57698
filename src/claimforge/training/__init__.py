"""Curriculum scheduling, difficulty bucketing, losses, and the optimizer."""

from claimforge.training.curriculum import (
    CurriculumSchedule,
    curriculum_progress,
    difficulty_level,
    bucket_corpus,
    sample_batch,
)
from claimforge.training.optimizer import AdamW, clip_grad_norm
from claimforge.training.losses import (
    contrastive_loss,
    margin_loss,
    sequence_cross_entropy,
)

__all__ = [
    "CurriculumSchedule",
    "curriculum_progress",
    "difficulty_level",
    "bucket_corpus",
    "sample_batch",
    "AdamW",
    "clip_grad_norm",
    "contrastive_loss",
    "margin_loss",
    "sequence_cross_entropy",
]
