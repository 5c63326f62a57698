"""Logistic curriculum progress, difficulty levels, and bucket sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

from claimforge.numerics import Rng, Settings, logistic

LEVEL3_TAU_THRESHOLD = 0.999


@dataclass(frozen=True)
class CurriculumSchedule(Settings):
    gamma: float = 0.01
    t0: float = 5000.0
    verbatim_mode: bool = False


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


def difficulty_key(claim_token_length: int, dependent_claim_count: int) -> float:
    """Sample difficulty: target-claim token length x (1 + dependent-claim count)."""
    return float(claim_token_length) * (1.0 + dependent_claim_count)


def bucket_corpus(items: list[tuple[str, float]]) -> list[list[str]]:
    """Split (sample id, difficulty key) pairs into tercile buckets: the
    sample ids of levels 1, 2 and 3, in that order.

    Sorted by key with id as the deterministic tie-break; sizes as equal as
    possible, remainder going to the easier buckets.
    """
    if len(items) < 3:
        raise ValueError(f"corpus too small to bucket: {len(items)} < 3")
    ordered = [sid for sid, _ in sorted(items, key=lambda kv: (kv[1], kv[0]))]
    base, rem = divmod(len(ordered), 3)
    buckets = []
    start = 0
    for i in range(3):
        size = base + (1 if i < rem else 0)
        buckets.append(ordered[start:start + size])
        start += size
    return buckets


def sample_batch(buckets: list[list[str]], t: float,
                 schedule: CurriculumSchedule, batch_size: int, rng: Rng) -> list[str]:
    """Draw uniformly from the union of buckets 1..level(t) (cumulative curriculum)."""
    pool: list[str] = []
    for level, bucket in enumerate(buckets[:difficulty_level(t, schedule)], start=1):
        if not bucket:
            raise ValueError(f"difficulty bucket {level} is empty")
        pool.extend(bucket)
    idx = rng.integers(0, len(pool), size=batch_size)
    return [pool[i] for i in idx]
