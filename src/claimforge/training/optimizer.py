"""AdamW with decoupled weight decay, plus global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from claimforge.numerics import Tensor, check_settings, pack


class AdamW:
    """Decoupled weight-decay Adam over a named parameter dict.

    The parameters are packed once, in the dict's order, into one flat
    buffer (``numerics.pack``), of which each holds its view; the moments
    are flat vectors in the same order. A step runs the update once over the
    whole buffer, in place, with the expressions of the per-parameter update
    in their order, so it gives the same bits as one parameter at a time. A
    parameter whose ``data`` was rebound after that rejects the step.
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
        self.data = pack(list(params.values()), (sum(p.data.size for p in params.values()),))
        self.m, self.v = np.zeros(self.data.size), np.zeros(self.data.size)
        self._g, self._s = np.empty_like(self.data), np.empty_like(self.data)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update; ``grads`` must hold a gradient for every parameter."""
        # validate everything first: a rejected step must leave no partial update
        for name in grads:
            if name not in self.params:
                raise KeyError(f"unknown parameter {name!r}")
        for name, p in self.params.items():
            if name not in grads:
                raise KeyError(f"no gradient for parameter {name!r}")
            if p.data.base is not self.data:
                raise ValueError(f"parameter {name!r} was rebound; step rejected")
            if grads[name].shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {grads[name].shape} != parameter shape "
                    f"{p.data.shape} for {name!r}"
                )
        g = np.concatenate([grads[name].ravel() for name in self.params], out=self._g)
        if not np.isfinite(g).all():
            bad = next(name for name in self.params if not np.isfinite(grads[name]).all())
            raise ValueError(f"non-finite gradient for {bad!r}; step rejected")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        data, m, v, s = self.data, self.m, self.v, self._s
        # m = beta1 * m + (1 - beta1) * g
        np.add(np.multiply(self.beta1, m, out=m), np.multiply(1.0 - self.beta1, g, out=s), out=m)
        # v = beta2 * v + (1 - beta2) * g * g
        np.multiply(1.0 - self.beta2, g, out=s)
        np.add(np.multiply(self.beta2, v, out=v), np.multiply(s, g, out=s), out=v)
        # data = data - lr * (m / bc1 / (sqrt(v / bc2) + eps) + weight_decay * data),
        # with g's buffer, no longer read, as the second scratch vector
        np.add(np.sqrt(np.divide(v, bc2, out=s), out=s), self.eps, out=s)
        np.divide(np.divide(m, bc1, out=g), s, out=g)
        np.add(g, np.multiply(self.weight_decay, data, out=s), out=g)
        np.subtract(data, np.multiply(self.lr, g, out=g), out=data)


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float = 1.0) -> float:
    """Scale gradients in place so their global L2 norm is at most max_norm."""
    check_settings(max_norm=max_norm)
    total = 0.0
    for g in grads.values():  # left to right: from Python 3.12, sum() of floats is compensated
        total += float(np.sum(g * g))
    total = math.sqrt(total)
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total
