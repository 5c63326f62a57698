"""Seeded counter-based randomness with named sub-streams.

All randomness in the pipeline flows from one root seed through named
sub-streams (e.g. "corpus", "init", "sampling") so that module-level
determinism composes: adding draws to one stream never shifts another.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _derive_key(seed: int, path: tuple[str, ...]) -> int:
    payload = (str(seed) + "/" + "/".join(path)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:16], "little")


class Rng:
    """Philox (counter-based) generator keyed by a root seed and a stream path."""

    def __init__(self, seed: int, _path: tuple[str, ...] = ()):
        self.seed = int(seed)
        self.path = _path
        self._gen = np.random.Generator(np.random.Philox(key=_derive_key(self.seed, _path)))

    def substream(self, name: str) -> "Rng":
        return Rng(self.seed, self.path + (name,))

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=shape)

    def uniform(self, shape) -> np.ndarray:
        """Draws from [0, 1)."""
        return self._gen.uniform(0.0, 1.0, size=shape)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def shuffle(self, items: list) -> None:
        self._gen.shuffle(items)
