"""Finite-difference verification of every registered differentiable op."""

from __future__ import annotations

from typing import Callable

import numpy as np

from claimforge.numerics.rng import Rng
from claimforge.numerics.tensor import (
    Tensor,
    attention_sublayer,
    concat,
    cross_entropy_logits,
    ffn_sublayer,
    layer_norm,
    log_softmax,
    scaled_dot_attention,
    sequence_cross_entropy,
    softmax,
)


def finite_difference_grad(f: Callable[[list[np.ndarray]], float],
                           inputs: list[np.ndarray],
                           step: float = 1e-5) -> list[np.ndarray]:
    """Central differences of a scalar function, one input entry at a time."""
    grads = []
    for i, x in enumerate(inputs):
        g = np.zeros_like(x)
        flat = g.reshape(-1)
        xs = [a.copy() for a in inputs]
        for j in range(x.size):
            orig = xs[i].reshape(-1)[j]
            xs[i].reshape(-1)[j] = orig + step
            hi = f(xs)
            xs[i].reshape(-1)[j] = orig - step
            lo = f(xs)
            xs[i].reshape(-1)[j] = orig
            flat[j] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float(np.max(diff / scale))


def check_op(build: Callable[[list[Tensor]], Tensor],
             inputs: list[np.ndarray],
             step: float = 1e-5) -> float:
    """Max relative error between reverse-mode and finite-difference gradients."""
    tensors = [Tensor(x, requires_grad=True) for x in inputs]
    loss = build(tensors)
    loss.backward()
    # an input the loss does not reach has no gradient buffer: its gradient is zero
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad for t in tensors]

    def scalar(xs: list[np.ndarray]) -> float:
        return float(build([Tensor(x) for x in xs]).data)

    numeric = finite_difference_grad(scalar, inputs, step=step)
    return max(relative_error(a, n) for a, n in zip(analytic, numeric))


def _weighted(t: Tensor, w: np.ndarray) -> Tensor:
    # reduce to a scalar with fixed random weights so every entry matters
    return (t * Tensor(w)).sum()


# Each case: name -> (builder over Tensor inputs -> scalar, input shape maker)
def op_cases(rng: Rng) -> list[tuple[str, Callable, list[np.ndarray]]]:
    cases = []

    def add_case(name, shapes, fn, scale=1.0):
        inputs = [rng.normal(s, scale) for s in shapes]
        cases.append((name, fn, inputs))

    def wvec(shape):
        return rng.normal(shape, 1.0)

    w23 = wvec((2, 3))
    add_case("add", [(2, 3), (2, 3)], lambda ts: _weighted(ts[0] + ts[1], w23))
    add_case("add_broadcast", [(2, 3), (3,)], lambda ts: _weighted(ts[0] + ts[1], w23))
    add_case("sub", [(2, 3), (2, 3)], lambda ts: _weighted(ts[0] - ts[1], w23))
    add_case("mul", [(2, 3), (2, 3)], lambda ts: _weighted(ts[0] * ts[1], w23))
    add_case("div", [(2, 3), (2, 3)], lambda ts: _weighted(ts[0] / (ts[1] * ts[1] + 1.0), w23))
    add_case("neg", [(2, 3)], lambda ts: _weighted(-ts[0], w23))

    w24 = wvec((2, 4))
    add_case("matmul", [(2, 3), (3, 4)], lambda ts: _weighted(ts[0] @ ts[1], w24))
    w224 = wvec((2, 2, 4))
    add_case("matmul_batched", [(2, 2, 3), (2, 3, 4)], lambda ts: _weighted(ts[0] @ ts[1], w224))
    w3 = wvec((3,))
    add_case("matvec", [(3, 4), (4,)], lambda ts: _weighted(ts[0] @ ts[1], w3))

    add_case("exp", [(2, 3)], lambda ts: _weighted(ts[0].exp(), w23), scale=0.5)
    add_case("log", [(2, 3)], lambda ts: _weighted((ts[0] * ts[0] + 1.0).log(), w23))
    add_case("sqrt", [(2, 3)], lambda ts: _weighted((ts[0] * ts[0] + 1.0).sqrt(), w23))
    add_case("tanh", [(2, 3)], lambda ts: _weighted(ts[0].tanh(), w23))
    add_case("sigmoid", [(2, 3)], lambda ts: _weighted(ts[0].sigmoid(), w23))

    add_case("sum_all", [(2, 3)], lambda ts: ts[0].sum())
    add_case("sum_axis", [(2, 3)], lambda ts: _weighted(ts[0].sum(axis=0), w3))
    w2 = wvec((2,))
    add_case("mean", [(2, 3)], lambda ts: _weighted(ts[0].mean(axis=1), w2))
    w6 = wvec((6,))
    add_case("reshape", [(2, 3)], lambda ts: _weighted(ts[0].reshape(6), w6))
    w32 = wvec((3, 2))
    add_case("transpose", [(2, 3)], lambda ts: _weighted(ts[0].T, w32))
    add_case("getitem", [(4, 3)], lambda ts: _weighted(ts[0][1:3], w23))
    w43 = wvec((4, 3))
    add_case("concat", [(2, 3), (2, 3)], lambda ts: _weighted(concat(ts, axis=0), w43))
    # an id array gathers rows; a repeated id accumulates both rows' gradients
    add_case("getitem_ids", [(5, 3)], lambda ts: _weighted(ts[0][np.array([2, 2])], w23))

    # the fused ops, each one taped node with an analytic backward
    add_case("softmax", [(2, 3)], lambda ts: _weighted(softmax(ts[0], axis=-1), w23))
    add_case("softmax_axis0", [(2, 3)], lambda ts: _weighted(softmax(ts[0], axis=0), w23))
    add_case("log_softmax", [(2, 3)], lambda ts: _weighted(log_softmax(ts[0], axis=-1), w23))
    add_case("log_softmax_axis0", [(2, 3)],
             lambda ts: _weighted(log_softmax(ts[0], axis=0), w23))
    add_case(
        "layer_norm",
        [(2, 3), (3,), (3,)],
        lambda ts: _weighted(layer_norm(ts[0], ts[1], ts[2]), w23),
    )
    w25 = wvec((2, 5))
    add_case(
        "attention",
        [(2, 3), (4, 3), (4, 5)],
        lambda ts: _weighted(scaled_dot_attention(ts[0], ts[1], ts[2])[0], w25),
    )
    # (heads, n, d) with a causal mask; then two new positions after two
    # cached ones, the mask the KV-cached decoder builds
    causal = np.triu(np.full((3, 3), -1e9), k=1)
    w235 = wvec((2, 3, 5))
    add_case(
        "attention_causal_heads",
        [(2, 3, 4), (2, 3, 4), (2, 3, 5)],
        lambda ts: _weighted(scaled_dot_attention(ts[0], ts[1], ts[2], causal)[0], w235),
    )
    offset = np.triu(np.full((2, 4), -1e9), k=3)
    w225 = wvec((2, 2, 5))
    add_case(
        "attention_causal_offset",
        [(2, 2, 4), (2, 4, 4), (2, 4, 5)],
        lambda ts: _weighted(scaled_dot_attention(ts[0], ts[1], ts[2], offset)[0], w225),
    )
    # the encoder's two sublayers over a padded (2, 3, 4) stack whose second
    # sequence is 2 long: its third key is masked out, and the loss skips its
    # third row, so that row gets no gradient
    padding = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1e9]])
    w234 = wvec((2, 3, 4)) * (padding == 0.0)[:, :, None]
    add_case(
        "attention_sublayer_padded",
        [(2, 3, 4), (4,), (4,), (4, 4), (4, 4), (4, 4), (4, 4)],
        lambda ts: _weighted(attention_sublayer(*ts, 2, padding[:, None, None, :]), w234),
    )
    add_case(
        "ffn_sublayer_padded",
        [(2, 3, 4), (4,), (4,), (4, 8), (8,), (8, 4), (4,)],
        lambda ts: _weighted(ffn_sublayer(*ts), w234),
    )
    add_case("cross_entropy_logits", [(5,)], lambda ts: cross_entropy_logits(ts[0], 3))
    add_case("sequence_cross_entropy", [(4, 6)],
             lambda ts: sequence_cross_entropy(ts[0], [5, 0, 2, 5]))
    add_case(
        "cosine",
        [(4,), (4,)],
        lambda ts: (
            ((ts[0] * ts[1]).sum())
            / ((ts[0] * ts[0]).sum().sqrt() * (ts[1] * ts[1]).sum().sqrt())
        ),
    )
    return cases


def run_gradient_suite(num_seeds: int = 2, tol: float = 1e-4) -> dict[str, float]:
    """Check every registered op across seeded input draws; returns worst errors."""
    worst: dict[str, float] = {}
    for seed in range(num_seeds):
        rng = Rng(seed, ("gradcheck",))
        for name, fn, inputs in op_cases(rng):
            err = check_op(fn, inputs)
            worst[name] = max(worst.get(name, 0.0), err)
    failures = {k: v for k, v in worst.items() if v >= tol}
    if failures:
        raise AssertionError(f"gradient check failures: {failures}")
    return worst
