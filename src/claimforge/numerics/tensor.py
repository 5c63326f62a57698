"""Minimal reverse-mode autodiff over numpy float64 arrays.

Tensors are immutable after forward construction: ops build new tensors and
record a backward closure. Calling ``backward(loss, params)`` (or
``loss.backward()``) walks the recorded graph once in reverse topological
order and accumulates gradients into every ``requires_grad`` tensor.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager

import numpy as np


class NonFiniteError(ValueError):
    """Raised when a NaN or Inf enters the graph."""


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Build no autodiff tape while active: for inference only.

    Ops inside record no parents, no backward closure and no gradient
    buffer, whatever their inputs. Nests, works as a decorator
    (``@no_grad()``), and restores the previous state on exit, also when an
    exception leaves the block. The flag is process-wide.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _check_finite(data: np.ndarray, where: str) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite value in {where}")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, "tensor construction")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None  # allocated by the first backward that reaches it
        self._parents: tuple = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple, backward_fn) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out.grad = None
        if out.requires_grad:
            out._parents = parents
            out._backward = backward_fn
        else:
            out._parents = ()
            out._backward = None
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _wrap(other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        if isinstance(other, (int, float)):
            # the finite check of a Python scalar, without a 0-d array round trip
            if not math.isfinite(other):
                raise NonFiniteError("non-finite value in tensor construction")
            return Tensor._from_op(np.asarray(other, dtype=np.float64), (), None)
        return Tensor(np.asarray(other, dtype=np.float64))

    def __add__(self, other):
        other = self._wrap(other)

        def bwd(g, out):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))

        return Tensor._from_op(self.data + other.data, (self, other), bwd)

    __radd__ = __add__

    def __neg__(self):
        def bwd(g, out):
            return (-g,)

        return Tensor._from_op(-self.data, (self,), bwd)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __mul__(self, other):
        other = self._wrap(other)

        def bwd(g, out):
            return (
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
            )

        return Tensor._from_op(self.data * other.data, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)

        def bwd(g, out):
            return (
                _unbroadcast(g / other.data, self.shape),
                _unbroadcast(-g * self.data / (other.data * other.data), other.shape),
            )

        return Tensor._from_op(self.data / other.data, (self, other), bwd)

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __pow__(self, exponent: float):
        e = float(exponent)

        def bwd(g, out):
            return (g * e * np.power(self.data, e - 1.0),)

        return Tensor._from_op(np.power(self.data, e), (self,), bwd)

    def __matmul__(self, other):
        other = self._wrap(other)

        def bwd(g, out):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                return (g * b, g * a)
            if a.ndim == 1:
                ga = g @ np.swapaxes(b, -1, -2)
                gb = np.outer(a, g)
                return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))
            if b.ndim == 1:
                ga = np.expand_dims(g, -1) * b
                gb = np.swapaxes(a, -1, -2) @ g
                return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        return Tensor._from_op(self.data @ other.data, (self, other), bwd)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def bwd(g, out):
            return (g * out.data,)

        return Tensor._from_op(out_data, (self,), bwd)

    def log(self):
        def bwd(g, out):
            return (g / self.data,)

        return Tensor._from_op(np.log(self.data), (self,), bwd)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def bwd(g, out):
            return (g * 0.5 / out.data,)

        return Tensor._from_op(out_data, (self,), bwd)

    def tanh(self):
        out_data = np.tanh(self.data)

        def bwd(g, out):
            return (g * (1.0 - out.data * out.data),)

        return Tensor._from_op(out_data, (self,), bwd)

    def sigmoid(self):
        # exp of -|x| only, so neither branch can overflow
        e = np.exp(-np.abs(self.data))
        out_data = np.where(self.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

        def bwd(g, out):
            return (g * out.data * (1.0 - out.data),)

        return Tensor._from_op(out_data, (self,), bwd)

    def relu(self):
        mask = self.data > 0

        def bwd(g, out):
            return (g * mask,)

        return Tensor._from_op(self.data * mask, (self,), bwd)

    # -- reductions and reshaping ---------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g, out):
            g = np.asarray(g)
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor._from_op(np.asarray(out_data, dtype=np.float64), (self,), bwd)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def bwd(g, out):
            return (g.reshape(self.shape),)

        return Tensor._from_op(self.data.reshape(shape), (self,), bwd)

    def swapaxes(self, a: int, b: int):
        def bwd(g, out):
            return (np.swapaxes(g, a, b),)

        return Tensor._from_op(np.swapaxes(self.data, a, b), (self,), bwd)

    def transpose(self):
        return self.swapaxes(-1, -2)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, idx):
        def bwd(g, out):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            return (full,)

        return Tensor._from_op(np.asarray(self.data[idx], dtype=np.float64), (self,), bwd)

    # -- backward -------------------------------------------------------------

    def backward(self) -> set[int]:
        """Accumulate gradients of this scalar into all reachable parameters;
        returns the ids of this tensor and of every tensor the walk reached."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        ones = np.ones_like(self.data)
        self.grad = ones if self.grad is None else self.grad + ones
        for node in reversed(order):
            if node._backward is None:
                continue
            grads = node._backward(node.grad, node)
            for parent, g in zip(node._parents, grads):
                if parent.requires_grad:
                    parent.grad = g if parent.grad is None else parent.grad + g
        return seen

    def zero_grad(self) -> None:
        self.grad = None


def backward(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Run reverse mode from ``loss`` and return a name -> gradient map.

    Parameters not reachable from the loss get a zero gradient and a warning.
    """
    for p in params.values():
        p.zero_grad()
    reachable = loss.backward()
    grads: dict[str, np.ndarray] = {}
    for name, p in params.items():
        if id(p) not in reachable:
            warnings.warn(f"parameter {name!r} not reachable from loss; gradient is zero")
        grads[name] = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
    return grads


# -- composite ops -----------------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g, out):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._from_op(out_data, tuple(tensors), bwd)


def take_rows(table: Tensor, ids) -> Tensor:
    """Embedding lookup: gather rows of ``table`` by integer index."""
    idx = np.asarray(ids, dtype=np.int64)

    def bwd(g, out):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return Tensor._from_op(table.data[idx].astype(np.float64), (table,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax (max subtraction is mandatory)."""
    if x.data.size == 0:
        raise ValueError("softmax of empty input")
    _check_finite(x.data, "softmax input")
    # the max of a finite input is finite: no second check
    shifted = x - Tensor._from_op(np.max(x.data, axis=axis, keepdims=True), (), None)
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if x.data.size == 0:
        raise ValueError("log_softmax of empty input")
    shifted = x - Tensor(np.max(x.data, axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gain + bias


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
    """Attention(Q, K, V); returns (output, attention weights).

    Q is (..., n, d_k), K is (..., m, d_k), V is (..., m, d_v).
    """
    d_k = q.shape[-1]
    if k.shape[-1] != d_k:
        raise ValueError(f"query dim {d_k} != key dim {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(f"key count {k.shape[-2]} != value count {v.shape[-2]}")
    if d_k <= 0:
        raise ValueError("head dimension must be positive")
    scores = (q @ k.transpose()) * (1.0 / np.sqrt(d_k))
    weights = softmax(scores, axis=-1)
    return weights @ v, weights


def cross_entropy_logits(logits: Tensor, target: int) -> Tensor:
    """Negative log likelihood of ``target`` under softmax(logits); logits 1-D."""
    return -log_softmax(logits)[int(target)]
