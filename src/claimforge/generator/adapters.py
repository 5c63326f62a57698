"""Rank-8 low-rank adapter bank mixed by domain weights."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from claimforge.numerics import ParamSource, Params, Tensor

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
    def init(cls, num_layers: int, model_dim: int, rng: ParamSource) -> "AdapterBank":
        p = Params(rng)
        targets = []
        for layer in range(num_layers):
            for proj in ADAPTED_PROJECTIONS:
                targets.append(f"dec/l{layer}/attn/{proj}")
                for domain in DOMAINS:
                    base = f"adapter/{domain}/l{layer}/{proj}"
                    p.fill(f"{base}/B", (model_dim, ADAPTER_RANK), 0.0)
                    p.normal(f"{base}/C", (model_dim, ADAPTER_RANK), 0.02)
        return cls(params=p.tensors, target_names=targets)

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
    """base + sum_d alpha_d * B_d C_d^T for one projection matrix, one node.

    The domains' deltas are merged as one product,
    S @ C^T with S = [alpha_1 B_1, ..., alpha_D B_D] and C = [C_1, ..., C_D],
    whose inner dimension is D * rank. The backward splits g @ C and
    g^T @ S back into the domains' blocks: dB_d = alpha_d (g C)_d,
    dalpha_d = sum((g C)_d * B_d), dC_d = (g^T S)_d.
    """
    alpha = alpha if isinstance(alpha, Tensor) else Tensor(np.asarray(alpha, dtype=np.float64))
    bs, cs = [], []
    for domain in DOMAINS:
        b, c = bank.factors(domain, target_name)
        if b.shape[0] != base.shape[0] or c.shape[0] != base.shape[1]:
            raise ValueError(
                f"adapter shapes {b.shape} x {c.shape} incompatible with base {base.shape}"
            )
        bs.append(b)
        cs.append(c)
    a = alpha.data
    scaled = np.concatenate([b.data * a[d] for d, b in enumerate(bs)], axis=1)
    stacked_c = np.concatenate([c.data for c in cs], axis=1)

    def bwd(g, out):
        g_by_c, gt_by_s = g @ stacked_c, g.T @ scaled
        edges = list(itertools.accumulate((b.shape[1] for b in bs), initial=0))
        cols = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
        g_scaled = [g_by_c[:, c] for c in cols]
        g_c = [gt_by_s[:, c] for c in cols]
        g_alpha = np.array([(gs * b.data).sum() for gs, b in zip(g_scaled, bs)])
        g_b = [gs * a[d] for d, gs in enumerate(g_scaled)]
        return (g, g_alpha, *g_b, *g_c)

    merged = scaled @ stacked_c.T
    merged += base.data  # in place: the same bits as base + product, one buffer
    return Tensor._from_op(merged, (base, alpha, *bs, *cs), bwd)


def effective_overrides(base_params: dict[str, Tensor], bank: AdapterBank,
                        alpha) -> dict[str, Tensor]:
    """Adapter-modified replacements for every targeted projection."""
    return {
        name: effective_projection(base_params[name], bank, alpha, name)
        for name in bank.target_names
    }
