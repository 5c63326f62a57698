"""Minimal reverse-mode autodiff over numpy float64 arrays.

Tensors are immutable after forward construction: ops build new tensors and
record a backward closure. Calling ``backward(loss, params)`` (or
``loss.backward()``) walks the recorded graph once in reverse topological
order. Leaves (tensors made with ``requires_grad``) accumulate their gradient
across walks; an op node's gradient is freed as soon as its backward closure
has consumed it, so a walk holds no more gradient buffers than it needs, and
a graph that is kept can be walked again with the same result.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterable
from contextlib import contextmanager
from operator import attrgetter

import numpy as np


class NonFiniteError(ValueError):
    """Raised when a NaN or Inf enters the graph."""


_GRAD_ENABLED = True
LAYER_NORM_EPS = 1e-6
_next_seq = itertools.count(1).__next__


@contextmanager
def no_grad():
    """Build no autodiff tape while active: for inference only.

    Ops inside record no parents, no backward closure and no gradient
    buffer, whatever their inputs. Nests, works as a decorator
    (``@no_grad()``), and restores the previous state on exit, also when an
    exception leaves the block. The flag is process-wide, so that an op pays
    no thread-local lookup: a caller that runs inference on more than one
    thread holds one ``no_grad()`` over all of it and leaves it only after the
    other threads are done, as ``run_pipeline`` does around its stage-2 worker.
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
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, "tensor construction")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None  # allocated by the first backward that reaches it
        self._parents: tuple = ()
        self._backward = None
        self._seq = 0  # a leaf: no backward, so its place in the walk does not matter

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple, backward_fn) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        # creation order: every op node is made after its parents
        out._seq = _next_seq()
        if _GRAD_ENABLED:
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = parents
                    out._backward = backward_fn
                    return out
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

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

    def __matmul__(self, other):
        other = self._wrap(other)

        def bwd(g, out):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                return (g * b, g * a)
            if a.ndim == 1:
                ga = g @ b.swapaxes(-1, -2)
                gb = np.outer(a, g)
                return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))
            if b.ndim == 1:
                ga = np.expand_dims(g, -1) * b
                gb = a.swapaxes(-1, -2) @ g
                return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))
            ga = g @ b.swapaxes(-1, -2)
            gb = a.swapaxes(-1, -2) @ g
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
            if axis is not None and not keepdims:
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
            return (g.swapaxes(a, b),)

        return Tensor._from_op(self.data.swapaxes(a, b), (self,), bwd)

    @property
    def T(self):
        return self.swapaxes(-1, -2)

    def __getitem__(self, idx):
        def bwd(g, out):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            return (full,)

        return Tensor._from_op(np.asarray(self.data[idx], dtype=np.float64), (self,), bwd)

    # -- backward -------------------------------------------------------------

    def backward(self) -> dict[int, "Tensor"]:
        """Accumulate gradients of this scalar into all reachable leaves;
        returns this tensor and every tensor the walk reached, keyed by id.

        Each op node's gradient is set back to ``None`` once its backward
        closure has used it; leaves keep theirs, adding to what they held.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        reached = {id(self): self}
        stack = [self]
        while stack:
            for p in stack.pop()._parents:
                if p.requires_grad and id(p) not in reached:
                    reached[id(p)] = p
                    stack.append(p)
        ones = np.ones_like(self.data)
        self.grad = ones if self.grad is None else self.grad + ones
        # reverse creation order is a reverse topological order of the graph
        for node in sorted(reached.values(), key=attrgetter("_seq"), reverse=True):
            if node._backward is None:
                continue
            grads = node._backward(node.grad, node)
            node.grad = None
            for parent, g in zip(node._parents, grads):
                if parent.requires_grad:
                    parent.grad = g if parent.grad is None else parent.grad + g
        return reached

    def zero_grad(self) -> None:
        self.grad = None


def backward(loss: Tensor | Iterable[Tensor],
             params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Run reverse mode and return a name -> gradient map.

    ``loss`` is a scalar tensor or an iterable of them. The parameters are
    zeroed once; each loss is walked as the iterable yields it, and its
    gradients add to those of the losses before it. A caller that builds
    each loss only when asked for it keeps alive, while it builds one, only
    the graph walked last, not all of them. Parameters no loss reaches get a
    zero gradient and a warning.
    """
    for p in params.values():
        p.zero_grad()
    wanted = {id(p) for p in params.values()}
    reached: set[int] = set()
    for term in (loss,) if isinstance(loss, Tensor) else loss:
        reached |= wanted.intersection(term.backward())
    grads: dict[str, np.ndarray] = {}
    for name, p in params.items():
        if id(p) not in reached:
            warnings.warn(f"parameter {name!r} not reachable from loss; gradient is zero")
        grads[name] = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
    return grads


# -- composite and fused ops -------------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g, out):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._from_op(out_data, tuple(tensors), bwd)


def logistic(x: float) -> float:
    """1 / (1 + exp(-x)) of a Python float, without overflow for large |x|."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _softmax_into(out: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted softmax of ``x`` written into ``out`` (which may be ``x``
    itself); rejects an empty or non-finite input and returns ``out``.

    ``x + (-max)``, exp, sum, divide: the ops and order of the composite
    softmax this replaced, so the same bits.
    """
    if x.size == 0:
        raise ValueError("softmax of empty input")
    _check_finite(x, "softmax input")
    # the max of a finite input is finite: no second check
    np.add(x, -np.max(x, axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    return np.divide(out, out.sum(axis=axis, keepdims=True), out=out)


def softmax_array(x: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted softmax of a plain array (no tape) into a fresh array; ``x``
    is not written. Rejects an empty or non-finite input."""
    return _softmax_into(np.empty_like(x, dtype=np.float64), x, axis)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax (max subtraction is mandatory).

    One node: the backward is y * (g - sum(g * y)) along ``axis``.
    """

    def bwd(g, out):
        y = out.data
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return Tensor._from_op(softmax_array(x.data, axis), (x,), bwd)


def _log_softmax_parts(x: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward of ``log_softmax`` over a plain array, with what its backward needs.

    Returns (log-probabilities, exp of the shifted input, their sum along
    ``axis``); the probabilities are the last two divided.
    """
    if x.size == 0:
        raise ValueError("log_softmax of empty input")
    m = np.max(x, axis=axis, keepdims=True)
    _check_finite(m, "log_softmax input")
    shifted = x + (-m)
    e = np.exp(shifted)
    s = e.sum(axis=axis, keepdims=True)
    return shifted + (-np.log(s)), e, s


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """One node: the backward is g - softmax * sum(g) along ``axis``."""
    logp, e, s = _log_softmax_parts(x.data, axis)

    def bwd(g, out):
        return (g - (e / s) * g.sum(axis=axis, keepdims=True),)

    return Tensor._from_op(logp, (x,), bwd)


def _layer_norm_parts(x: np.ndarray, gain: np.ndarray,
                      bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward of ``layer_norm`` over plain arrays: (output, xhat, sigma)."""
    scale = 1.0 / x.shape[-1]
    centered = x + (-(x.sum(axis=-1, keepdims=True) * scale))
    var = (centered * centered).sum(axis=-1, keepdims=True) * scale
    sigma = np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered / sigma
    return xhat * gain + bias, xhat, sigma


def _layer_norm_grads(g: np.ndarray, x: Tensor, gain: Tensor, bias: Tensor,
                      xhat: np.ndarray, sigma: np.ndarray) -> tuple:
    """Backward of ``layer_norm``: the gradients of (x, gain, bias), each None
    where that parent needs none."""
    gx = ggain = gbias = None
    if x.requires_grad:
        scale = 1.0 / x.shape[-1]
        dxhat = g * gain.data
        gx = (dxhat - dxhat.sum(axis=-1, keepdims=True) * scale
              - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) * scale)) / sigma
    if gain.requires_grad:
        ggain = _unbroadcast(g * xhat, gain.shape)
    if bias.requires_grad:
        gbias = _unbroadcast(g, bias.shape)
    return gx, ggain, gbias


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """(x - mean) / sqrt(var + LAYER_NORM_EPS) * gain + bias over the last axis, one node.

    The backward is the analytic layer-norm gradient (Ba et al. 2016):
    dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / sigma, with
    dxhat = g * gain.
    """
    out, xhat, sigma = _layer_norm_parts(x.data, gain.data, bias.data)

    def bwd(g, out):
        return _layer_norm_grads(g, x, gain, bias, xhat, sigma)

    return Tensor._from_op(out, (x, gain, bias), bwd)


def attention_array(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                    mask: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, float]:
    """Forward of ``scaled_dot_attention`` over plain arrays: (output, weights, scale).

    The scale, the mask add and the softmax run inside the fresh array that
    ``q @ k^T`` returns, which becomes the weights; no input is written.
    """
    scale = 1.0 / np.sqrt(q.shape[-1])
    weights = q @ k.swapaxes(-1, -2)
    np.multiply(weights, scale, out=weights)
    if mask is not None:
        np.add(weights, mask, out=weights)
    _softmax_into(weights, weights, -1)
    return weights @ v, weights, scale


def _attention_grads(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     weights: np.ndarray, scale: float, wanted: tuple[bool, bool, bool]
                     ) -> tuple:
    """Backward of ``attention_array``: the gradients of (Q, K, V) from the
    output gradient ``g``, each None where ``wanted`` says it is not needed.

    With gs the gradient of the scaled scores, they are gs @ K, gs^T @ Q and
    weights^T @ g. gs is built inside the fresh buffer of g @ V^T; ``weights``
    is not written, so a retained graph can run its backward again.
    """
    gs = g @ v.swapaxes(-1, -2)
    np.subtract(gs, (gs * weights).sum(axis=-1, keepdims=True), out=gs)
    np.multiply(weights, gs, out=gs)
    np.multiply(gs, scale, out=gs)
    want_q, want_k, want_v = wanted
    return (gs @ k if want_q else None,
            gs.swapaxes(-1, -2) @ q if want_k else None,
            weights.swapaxes(-1, -2) @ g if want_v else None)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Attention(Q, K, V) as one node; returns (output, attention weights).

    Q is (..., n, d_k), K is (..., m, d_k), V is (..., m, d_v). ``mask`` is a
    plain array added to the scaled scores before the softmax (a large
    negative entry hides a key); it gets no gradient. The weights come back
    as a constant tensor: no gradient flows through them.
    """
    d_k = q.shape[-1]
    if k.shape[-1] != d_k:
        raise ValueError(f"query dim {d_k} != key dim {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(f"key count {k.shape[-2]} != value count {v.shape[-2]}")
    if d_k <= 0:
        raise ValueError("head dimension must be positive")
    out, weights, scale = attention_array(q.data, k.data, v.data, mask)

    def bwd(g, out):
        grads = _attention_grads(g, q.data, k.data, v.data, weights, scale,
                                 (q.requires_grad, k.requires_grad, v.requires_grad))
        return tuple(None if gp is None else _unbroadcast(gp, p.shape)
                     for gp, p in zip(grads, (q, k, v)))

    return Tensor._from_op(out, (q, k, v), bwd), Tensor._from_op(weights, (), None)


def _to_heads(a: np.ndarray, num_heads: int) -> np.ndarray:
    """(..., length, dim) -> (..., num_heads, length, dim // num_heads)."""
    *lead, length, dim = a.shape
    return a.reshape(*lead, length, num_heads, dim // num_heads).swapaxes(-3, -2)


def _from_heads(a: np.ndarray) -> np.ndarray:
    """(..., num_heads, length, head_dim) -> (..., length, num_heads * head_dim)."""
    *lead, num_heads, length, head_dim = a.shape
    return a.swapaxes(-3, -2).reshape(*lead, length, num_heads * head_dim)


def _rows(a: np.ndarray) -> np.ndarray:
    """The rows of every sequence of a (..., length, dim) stack as one
    (rows, dim) matrix; a 2-D array comes back as it is."""
    return a.reshape(-1, a.shape[-1])


def _residual_grads(g: np.ndarray, gh: np.ndarray, x: Tensor, gain: Tensor, bias: Tensor,
                    xhat: np.ndarray, sigma: np.ndarray) -> tuple:
    """Gradients of (x, gain, bias) for a pre-norm residual sublayer x + f(layer_norm(x)):
    ``g`` reaches x through the residual, then ``gh`` through the layer norm."""
    gx, ggain, gbias = _layer_norm_grads(gh, x, gain, bias, xhat, sigma)
    return (g if gx is None else g + gx), ggain, gbias


# A backward closure here captures fewer than 20 names: CPython 3.11 keeps
# every freed 20-item tuple (such as a closure's cells) on a free list that it
# never allocates from, so each call of a 20-name closure would strand 184
# bytes, up to 2000 times per process.


def attention_sublayer(x: Tensor, gain: Tensor, bias: Tensor, wq: Tensor, wk: Tensor,
                       wv: Tensor, wo: Tensor, num_heads: int, mask: np.ndarray | None,
                       extend_kv=None) -> Tensor:
    """x + attention(layer_norm(x)) @ wo, a pre-norm attention block, as one node.

    Parents x (length, dim), or a padded (batch, length, dim) stack, the
    layer-norm gain and bias, wq, wk, wv and wo. Layer norm, then Q, K and V
    split into ``num_heads`` heads, masked softmax attention (``mask`` is a
    plain array added to the (..., heads, length, keys) scaled scores, such as
    a (batch, 1, 1, keys) key-padding mask), the heads merged and projected by
    wo, and the residual add; the numpy expressions and their order are those
    of the per-op composite. The weight gradients sum over the rows of every
    sequence at once. With ``extend_kv``, a function that takes this call's K
    and V (heads, length, head_dim) and returns the keys and values to attend
    to (a KV cache: the earlier ones, then these), K and V are plain arrays,
    so wk and wv get no gradient from the call.
    """
    h, xhat, sigma = _layer_norm_parts(x.data, gain.data, bias.data)
    q, k, v = (_to_heads(h @ w.data, num_heads) for w in (wq, wk, wv))
    if extend_kv is not None:
        k, v = extend_kv(k, v)
    attended, weights, scale = attention_array(q, k, v, mask)
    merged = _from_heads(attended)
    trains_kv = extend_kv is None

    def bwd(g, out):
        gq, gk, gv = (None if gp is None else _from_heads(gp) for gp in _attention_grads(
            _to_heads(g @ wo.data.T, num_heads), q, k, v, weights, scale,
            (True, trains_kv, trains_kv)))
        gh = gq @ wq.data.T
        h_rows = _rows(h)
        gwk = gwv = None
        if trains_kv:
            # v, then k, then q: the order a per-op tape sums them in, so the same bits
            gh = (gv @ wv.data.T + gk @ wk.data.T) + gh
            gwk, gwv = h_rows.T @ _rows(gk), h_rows.T @ _rows(gv)
        return _residual_grads(g, gh, x, gain, bias, xhat, sigma) + (
            h_rows.T @ _rows(gq), gwk, gwv, _rows(merged).T @ _rows(g))

    return Tensor._from_op(x.data + merged @ wo.data, (x, gain, bias, wq, wk, wv, wo), bwd)


def ffn_sublayer(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """x + relu(layer_norm(x) @ w1 + b1) @ w2 + b2, a pre-norm MLP block, as one node.

    Parents x (length, dim) or (batch, length, dim), the layer-norm gain and
    bias, w1, b1, w2 and b2. The numpy expressions and their order are those
    of the per-op composite.
    """
    h, xhat, sigma = _layer_norm_parts(x.data, gain.data, bias.data)
    pre = h @ w1.data
    pre += b1.data
    active = pre > 0
    inner = np.multiply(pre, active, out=pre)  # the backward needs only active and inner

    def bwd(g, out):
        g_pre = (g @ w2.data.T) * active
        return _residual_grads(g, g_pre @ w1.data.T, x, gain, bias, xhat, sigma) + (
            _rows(h).T @ _rows(g_pre), _unbroadcast(g_pre, b1.shape), _rows(inner).T @ _rows(g),
            _unbroadcast(g, b2.shape))

    return Tensor._from_op((x.data + inner @ w2.data) + b2.data,
                           (x, gain, bias, w1, b1, w2, b2), bwd)


def cross_entropy_logits(logits: Tensor, target: int) -> Tensor:
    """Negative log likelihood of ``target`` under softmax(logits); logits 1-D.

    One node: the backward is g * (softmax(logits) - onehot(target)).
    """
    t = int(target)
    logp, e, s = _log_softmax_parts(logits.data)

    def bwd(g, out):
        d = e / s
        d[t] -= 1.0
        return (g * d,)

    return Tensor._from_op(-np.asarray(logp[t], dtype=np.float64), (logits,), bwd)


def sequence_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean next-token negative log likelihood; logits (len, vocab).

    One node over the logits: the backward is
    g / len * (softmax(row) - onehot(target)) for each row.
    """
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(len(targets))
    logp, e, s = _log_softmax_parts(logits.data)
    picked = logp[rows, targets]
    scale = 1.0 / picked.size

    def bwd(g, out):
        d = e / s
        d[rows, targets] -= 1.0
        return (d * (g * scale),)

    return Tensor._from_op(-(picked.sum() * scale), (logits,), bwd)
