"""Rank-8 low-rank adapter bank mixed by domain weights."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from claimforge.numerics import Rng, Tensor, concat

DOMAINS = ("mechanical", "electrical", "software", "chemical", "biotech")
ADAPTER_RANK = 8

# adapters attach to the decoder's attention query and value projections
ADAPTED_PROJECTIONS = ("wq", "wv")


@dataclass
class AdapterBank:
    """One (B, C) factor pair per domain per adapted projection.

    The delta for domain d is B_d @ C_d^T, rank at most ``ADAPTER_RANK``. B
    starts at zero so an untrained bank leaves the base model exactly unchanged.
    """

    params: dict[str, Tensor] = field(default_factory=dict)
    target_names: list[str] = field(default_factory=list)

    @classmethod
    def init(cls, num_layers: int, model_dim: int, rng: Rng) -> "AdapterBank":
        bank = cls()
        for layer in range(num_layers):
            for proj in ADAPTED_PROJECTIONS:
                target = f"dec/l{layer}/attn/{proj}"
                bank.target_names.append(target)
                for domain in DOMAINS:
                    base = f"adapter/{domain}/l{layer}/{proj}"
                    bank.params[f"{base}/B"] = Tensor(
                        np.zeros((model_dim, ADAPTER_RANK)), requires_grad=True
                    )
                    bank.params[f"{base}/C"] = Tensor(
                        rng.normal((model_dim, ADAPTER_RANK), 0.02), requires_grad=True
                    )
        return bank

    def factors(self, domain: str, target_name: str) -> tuple[Tensor, Tensor]:
        # target name "dec/l0/attn/wq" -> adapter key "adapter/<domain>/l0/wq"
        parts = target_name.split("/")
        layer, proj = parts[-3], parts[-1]
        base = f"adapter/{domain}/{layer}/{proj}"
        return self.params[f"{base}/B"], self.params[f"{base}/C"]

    def delta(self, domain: str, target_name: str) -> np.ndarray:
        b, c = self.factors(domain, target_name)
        return b.data @ c.data.T


def effective_projection(base: Tensor, bank: AdapterBank, alpha,
                         target_name: str) -> Tensor:
    """base + sum_d alpha_d * B_d C_d^T for one projection matrix.

    The domains' deltas are merged as one product,
    [alpha_1 B_1, ..., alpha_D B_D] @ [C_1, ..., C_D]^T, whose inner
    dimension is D * rank.
    """
    alpha = alpha if isinstance(alpha, Tensor) else Tensor(np.asarray(alpha, dtype=np.float64))
    scaled, factors_c = [], []
    for d, domain in enumerate(DOMAINS):
        b, c = bank.factors(domain, target_name)
        if b.shape[0] != base.shape[0] or c.shape[0] != base.shape[1]:
            raise ValueError(
                f"adapter shapes {b.shape} x {c.shape} incompatible with base {base.shape}"
            )
        scaled.append(b * alpha[d])
        factors_c.append(c)
    return base + concat(scaled, axis=1) @ concat(factors_c, axis=1).T


def effective_overrides(base_params: dict[str, Tensor], bank: AdapterBank,
                        alpha) -> dict[str, Tensor]:
    """Adapter-modified replacements for every targeted projection."""
    return {
        name: effective_projection(base_params[name], bank, alpha, name)
        for name in bank.target_names
    }
