"""AdamW with decoupled weight decay, plus global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from claimforge.numerics import Tensor, check_settings


class AdamW:
    """Decoupled weight-decay Adam over a named parameter dict.

    The moments are kept as one flat vector each, in the dict's order, and a
    step runs the update once over all parameters concatenated; each
    parameter's ``data`` then becomes a view into the updated vector. The
    update is elementwise, so it gives the same bits as one parameter at a
    time.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 5e-5,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        check_settings(lr=lr, beta1=betas[0], beta2=betas[1], eps=eps, weight_decay=weight_decay)
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        size = sum(p.data.size for p in params.values())
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update; ``grads`` must hold a gradient for every parameter."""
        # validate everything first: a rejected step must leave no partial update
        for name in grads:
            if name not in self.params:
                raise KeyError(f"unknown parameter {name!r}")
        for name, p in self.params.items():
            if name not in grads:
                raise KeyError(f"no gradient for parameter {name!r}")
            if grads[name].shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {grads[name].shape} != parameter shape "
                    f"{p.data.shape} for {name!r}"
                )
        g = np.concatenate([grads[name].ravel() for name in self.params])
        if not np.isfinite(g).all():
            bad = next(name for name in self.params if not np.isfinite(grads[name]).all())
            raise ValueError(f"non-finite gradient for {bad!r}; step rejected")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        data = np.concatenate([p.data.ravel() for p in self.params.values()])
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * g
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
        m_hat = self.m / bc1
        v_hat = self.v / bc2
        data = data - self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * data)
        start = 0
        for p in self.params.values():
            end = start + p.data.size
            p.data = data[start:end].reshape(p.data.shape)
            start = end


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float = 1.0) -> float:
    """Scale gradients in place so their global L2 norm is at most max_norm."""
    check_settings(max_norm=max_norm)
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for name in grads:
            grads[name] = grads[name] * scale
    return total
