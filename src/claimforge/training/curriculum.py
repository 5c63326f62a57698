"""Logistic curriculum progress, difficulty levels, and bucket sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from claimforge.numerics import Rng, logistic

LEVEL3_TAU_THRESHOLD = 0.999


@dataclass(frozen=True)
class CurriculumSchedule:
    gamma: float = 0.01
    t0: float = 5000.0
    verbatim_mode: bool = False

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.t0 < 0:
            raise ValueError("t0 must be non-negative")


def curriculum_progress(t: float, schedule: CurriculumSchedule = CurriculumSchedule()) -> float:
    """Logistic progress 1 / (1 + exp(-gamma * (t - t0)))."""
    if t < 0:
        raise ValueError("step must be non-negative")
    return logistic(schedule.gamma * (t - schedule.t0))


def difficulty_level(t: float, schedule: CurriculumSchedule = CurriculumSchedule()) -> int:
    """Map progress to level 1..3.

    The floor formula alone never emits level 3 while tau < 1 in exact
    arithmetic, so the default mode promotes to 3 once tau crosses
    ``LEVEL3_TAU_THRESHOLD``; verbatim mode keeps the formula as written.
    """
    tau = curriculum_progress(t, schedule)
    if not schedule.verbatim_mode and tau >= LEVEL3_TAU_THRESHOLD:
        return 3
    return min(3, int(math.floor(1.0 + 2.0 * tau)))


@dataclass
class DifficultyBucket:
    level: int
    sample_ids: list[str] = field(default_factory=list)


def difficulty_key(claim_token_length: int, dependent_claim_count: int) -> float:
    """Sample difficulty: target-claim token length x (1 + dependent-claim count)."""
    return float(claim_token_length) * (1.0 + dependent_claim_count)


def bucket_corpus(items: list[tuple[str, float]]) -> list[DifficultyBucket]:
    """Split (sample id, difficulty key) pairs into tercile buckets.

    Sorted by key with id as the deterministic tie-break; sizes as equal as
    possible, remainder going to the easier buckets.
    """
    if len(items) < 3:
        raise ValueError(f"corpus too small to bucket: {len(items)} < 3")
    ordered = sorted(items, key=lambda kv: (kv[1], kv[0]))
    n = len(ordered)
    base, rem = divmod(n, 3)
    sizes = [base + (1 if i < rem else 0) for i in range(3)]
    buckets = []
    start = 0
    for level, size in enumerate(sizes, start=1):
        buckets.append(DifficultyBucket(level, [sid for sid, _ in ordered[start:start + size]]))
        start += size
    return buckets


def sample_batch(buckets: list[DifficultyBucket], t: float,
                 schedule: CurriculumSchedule, batch_size: int, rng: Rng) -> list[str]:
    """Draw uniformly from the union of buckets 1..level(t) (cumulative curriculum)."""
    level = difficulty_level(t, schedule)
    pool: list[str] = []
    for bucket in buckets:
        if bucket.level <= level:
            if not bucket.sample_ids:
                raise ValueError(f"difficulty bucket {bucket.level} is empty")
            pool.extend(bucket.sample_ids)
    idx = rng.integers(0, len(pool), size=batch_size)
    return [pool[i] for i in idx]
