"""Autodiff core: gradient checks, stabilized softmax, attention, checkpoints."""

import contextlib
import math
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from claimforge.numerics import (
    CheckpointError,
    NonFiniteError,
    Params,
    Rng,
    Tensor,
    attention_array,
    attention_sublayer,
    backward,
    blas_threads,
    cross_entropy_logits,
    layer_norm,
    load_checkpoint,
    log_softmax,
    no_grad,
    one_blas_thread,
    save_checkpoint,
    scaled_dot_attention,
    sequence_cross_entropy,
    softmax,
    softmax_array,
)
from claimforge.numerics.gradcheck import (
    check_op,
    finite_difference_grad,
    op_cases,
    run_gradient_suite,
)
from claimforge.numerics.tensor import LAYER_NORM_EPS, _layer_norm_parts, _log_softmax_parts


class TestGradientSuite:
    def test_all_ops_match_finite_differences(self):
        worst = run_gradient_suite(num_seeds=2, tol=1e-4)
        assert all(err < 1e-4 for err in worst.values())

    def test_suite_covers_at_least_fifty_cases(self):
        per_seed = len(op_cases(Rng(0, ("gradcheck",))))
        assert per_seed * 2 >= 50

    def test_three_layer_composite(self):
        rng = Rng(0, ("composite",))
        w1, w2, w3 = rng.normal((4, 6)), rng.normal((6, 6)), rng.normal((6, 2))
        x = rng.normal((3, 4))

        def build(ts):
            h = (ts[0] @ ts[1]).tanh()
            h = (h @ ts[2]).sigmoid()
            return (h @ ts[3]).sum()

        assert check_op(build, [x, w1, w2, w3]) < 1e-4


FUSED_CASES = {
    "softmax", "softmax_axis0", "log_softmax", "log_softmax_axis0", "layer_norm",
    "attention", "attention_causal_heads", "attention_causal_offset",
    "cross_entropy_logits", "sequence_cross_entropy",
    "attention_sublayer_padded", "ffn_sublayer_padded",
}


class TestFusedOpGradients:
    def test_every_fused_op_has_a_case(self):
        # TestGradientSuite checks each case against central differences
        cases = {name: inputs for name, _, inputs in op_cases(Rng(0, ("gradcheck",)))}
        assert FUSED_CASES <= cases.keys()
        # x, gain and bias are all differentiated, not gain and bias as constants
        assert [x.shape for x in cases["layer_norm"]] == [(2, 3), (3,), (3,)]
        assert cases["attention_causal_heads"][0].ndim == 3
        assert cases["attention_sublayer_padded"][0].ndim == 3
        assert cases["ffn_sublayer_padded"][0].ndim == 3

    @pytest.mark.parametrize("name", ["attention_sublayer_padded", "ffn_sublayer_padded"])
    def test_padded_row_gets_no_gradient(self, name):
        build, inputs = next((fn, inputs) for case, fn, inputs in op_cases(Rng(0, ("gradcheck",)))
                             if case == name)
        tensors = [Tensor(x, requires_grad=True) for x in inputs]
        build(tensors).backward()
        assert np.all(tensors[0].grad[1, 2] == 0.0)
        assert np.all(np.abs(tensors[0].grad[1, :2]).sum(axis=-1) > 0)

    def test_attention_gradient_reaches_a_shared_key_value_tensor(self):
        # the evaluator passes its states as both K and V
        rng = Rng(4, ("attn-shared",))
        q, h, w = rng.normal((3, 4)), rng.normal((5, 4)), rng.normal((3, 4))

        def build(ts):
            return (scaled_dot_attention(ts[0], ts[1], ts[1])[0] * Tensor(w)).sum()

        assert check_op(build, [q, h]) < 1e-6


# -- the composite forwards the fused ops replaced: the forward-bits oracle ---


def composite_softmax(x, axis=-1):
    shifted = x - Tensor(np.max(x.data, axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def composite_log_softmax(x, axis=-1):
    shifted = x - Tensor(np.max(x.data, axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def composite_layer_norm(x, gain, bias, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gain + bias


def composite_attention(q, k, v, mask=None):
    # the encoder's inline attention, mask tensor included
    scores = (q @ k.T) * (1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        scores = scores + Tensor(mask)
    weights = composite_softmax(scores, axis=-1)
    return weights @ v, weights


def composite_cross_entropy(logits, target):
    return -composite_log_softmax(logits)[int(target)]


def composite_sequence_cross_entropy(logits, targets):
    targets = np.asarray(targets, dtype=np.int64)
    logp = composite_log_softmax(logits, axis=-1)
    return -logp[np.arange(len(targets)), targets].mean()


def same_bits(fused: Tensor, reference: Tensor) -> bool:
    return np.array_equal(np.asarray(fused.data), np.asarray(reference.data))


FINITE = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw, max_rows=4, max_cols=6):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    x = draw(hnp.arrays(np.float64, (rows, cols), elements=FINITE))
    if draw(st.booleans()):
        x[0] = x[0, 0]  # a constant row
    return x


class TestFusedForwardBits:
    """Each fused forward equals its composite bit for bit, with or without a tape."""

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.sampled_from([0, -1]), st.booleans())
    @example(np.array([[2.5]]), -1, True)  # a single-element axis
    def test_softmax_and_log_softmax(self, x, axis, grad):
        t = Tensor(x, requires_grad=grad)
        assert same_bits(softmax(t, axis=axis), composite_softmax(t, axis=axis))
        assert same_bits(log_softmax(t, axis=axis), composite_log_softmax(t, axis=axis))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), matrices(), st.booleans())
    @example(None, np.full((2, 5), 7.25), True)  # constant rows: zero variance
    @example(None, np.array([[3.0], [-1.0]]), False)  # a single-element axis
    def test_layer_norm(self, data, x, grad):
        cols = x.shape[1]
        if data is None:
            gain, bias = np.linspace(0.5, 1.5, cols), np.linspace(-1.0, 1.0, cols)
        else:
            gain = data.draw(hnp.arrays(np.float64, (cols,), elements=FINITE))
            bias = data.draw(hnp.arrays(np.float64, (cols,), elements=FINITE))
        ts = [Tensor(a, requires_grad=grad) for a in (x, gain, bias)]
        assert same_bits(layer_norm(*ts), composite_layer_norm(*ts))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_masked_attention(self, data):
        heads, n, d, dv = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)),
                           data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4)))
        m = n + data.draw(st.integers(0, 3))  # keys already cached before the queries
        small = st.floats(min_value=-10, max_value=10, allow_nan=False)
        q, k, v = (Tensor(data.draw(hnp.arrays(np.float64, shape, elements=small)),
                          requires_grad=data.draw(st.booleans()))
                   for shape in ((heads, n, d), (heads, m, d), (heads, m, dv)))
        mask = None
        if data.draw(st.booleans()):
            mask = np.triu(np.full((n, m), -1e9), k=m - n + 1)
        out, weights = scaled_dot_attention(q, k, v, mask)
        ref_out, ref_weights = composite_attention(q, k, v, mask)
        assert same_bits(out, ref_out)
        assert same_bits(weights, ref_weights)

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.data())
    def test_cross_entropies(self, x, data):
        rows, cols = x.shape
        targets = data.draw(st.lists(st.integers(0, cols - 1), min_size=rows, max_size=rows))
        t = Tensor(x, requires_grad=True)
        assert same_bits(sequence_cross_entropy(t, targets),
                         composite_sequence_cross_entropy(t, targets))
        row = Tensor(x[0], requires_grad=True)
        assert same_bits(cross_entropy_logits(row, targets[0]),
                         composite_cross_entropy(row, targets[0]))


def negated_shift_softmax(x, axis):
    e = np.exp(x + (-np.max(x, axis=axis, keepdims=True)))
    return e / e.sum(axis=axis, keepdims=True)


def negated_shift_log_softmax(x, axis):
    shifted = x + (-np.max(x, axis=axis, keepdims=True))
    e = np.exp(shifted)
    s = e.sum(axis=axis, keepdims=True)
    return shifted + (-np.log(s)), e, s


def negated_shift_layer_norm(x, gain, bias):
    scale = 1.0 / x.shape[-1]
    centered = x + (-(x.sum(axis=-1, keepdims=True) * scale))
    sigma = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * scale + LAYER_NORM_EPS)
    xhat = centered / sigma
    return xhat * gain + bias, xhat, sigma


class TestShiftKernelBits:
    """The plain-array kernels shift with one subtraction; each part equals the
    add-of-negation form byte for byte, signed zeros included."""

    SIGNED_ZEROS = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 1.5], [-2.0, -0.0, 0.0]])

    @settings(max_examples=80, deadline=None)
    @given(matrices(), st.sampled_from([0, -1]), st.data())
    @example(SIGNED_ZEROS, -1, None)
    @example(SIGNED_ZEROS, 0, None)
    def test_each_part_equals_the_add_of_negation(self, x, axis, data):
        cols = x.shape[1]
        if data is None:
            gain, bias = np.array([1.0, -0.0, 2.0]), np.array([-0.0, 0.0, 0.5])
        else:
            gain = data.draw(hnp.arrays(np.float64, (cols,), elements=FINITE))
            bias = data.draw(hnp.arrays(np.float64, (cols,), elements=FINITE))
        assert softmax_array(x, axis).tobytes() == negated_shift_softmax(x, axis).tobytes()
        for got, want in zip(_log_softmax_parts(x, axis), negated_shift_log_softmax(x, axis)):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(_layer_norm_parts(x, gain, bias),
                             negated_shift_layer_norm(x, gain, bias)):
            assert got.tobytes() == want.tobytes()


class TestSoftmax:
    def test_symmetric_pairs(self):
        np.testing.assert_allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])
        np.testing.assert_allclose(softmax(Tensor([1.0, 1.0, 1.0])).data,
                                   [1 / 3] * 3)

    def test_ln3_case(self):
        out = softmax(Tensor([0.0, math.log(3.0)])).data
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_extreme_magnitudes_normalized(self):
        for vals in ([1e4, 0.0, -1e4], [-1e4, -1e4], [1e4, 1e4, 1e4]):
            out = softmax(Tensor(vals)).data
            assert np.all(np.isfinite(out))
            assert abs(out.sum() - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=8))
    def test_sums_to_one_property(self, vals):
        out = softmax(Tensor(vals)).data
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0)


class TestAttention:
    def test_single_key_forces_weight_one(self):
        rng = Rng(1, ("attn",))
        q, k = Tensor(rng.normal((1, 3))), Tensor(rng.normal((1, 3)))
        v = Tensor(rng.normal((1, 5)))
        out, w = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(out.data, v.data)
        np.testing.assert_allclose(w.data, [[1.0]])

    def test_identical_keys_give_column_mean(self):
        rng = Rng(2, ("attn",))
        q = Tensor(rng.normal((2, 3)))
        k = Tensor(np.tile(rng.normal((1, 3)), (4, 1)))
        v = Tensor(rng.normal((4, 5)))
        out, _ = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(out.data, np.tile(v.data.mean(0), (2, 1)),
                                   atol=1e-12)

    def test_seed0_brute_force_oracle(self):
        rng = Rng(0, ("attn-oracle",))
        q, k, v = rng.normal((2, 2)), rng.normal((2, 2)), rng.normal((2, 2))
        out, _ = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
        expected = np.zeros((2, 2))
        for i in range(2):
            scores = [sum(q[i][d] * k[j][d] for d in range(2)) / math.sqrt(2)
                      for j in range(2)]
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            weights = [e / sum(exps) for e in exps]
            for d in range(2):
                expected[i, d] = sum(weights[j] * v[j][d] for j in range(2))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_rows_stochastic(self):
        rng = Rng(3, ("attn",))
        _, w = scaled_dot_attention(Tensor(rng.normal((5, 4))),
                                    Tensor(rng.normal((7, 4))),
                                    Tensor(rng.normal((7, 4))))
        np.testing.assert_allclose(w.data.sum(axis=-1), np.ones(5), atol=1e-12)

    @pytest.mark.parametrize("causal", [False, True])
    def test_gradients_match_the_softmax_jacobian(self, causal):
        # every attention backward (this op's and the encoder sublayer's)
        # runs one Q/K/V step; check it against the softmax Jacobian written
        # out row by row, to a tolerance no central difference reaches
        rng = Rng(5, ("attn-jacobian",))
        q, k, v, g = (rng.normal(shape) for shape in ((2, 3, 4), (2, 5, 4), (2, 5, 3), (2, 3, 3)))
        mask = np.triu(np.full((3, 5), -1e9), k=3) if causal else None
        ts = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out, w = scaled_dot_attention(*ts, mask)
        (out * Tensor(g)).sum().backward()
        gq, gk, gv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
        for h in range(2):
            for i in range(3):
                p = w.data[h, i]
                jacobian = np.diag(p) - np.outer(p, p)
                gs = jacobian @ (v[h] @ g[h, i]) / math.sqrt(4)
                gq[h, i] = gs @ k[h]
                gk[h] += np.outer(gs, q[h, i])
                gv[h] += np.outer(p, g[h, i])
        for t, want in zip(ts, (gq, gk, gv)):
            np.testing.assert_allclose(t.grad, want, rtol=1e-12, atol=1e-14)

    def test_kernels_leave_their_inputs_unwritten(self):
        # the softmax runs in a buffer of its own: the scores array of
        # attention, a fresh array for softmax_array, never a caller's array
        rng = Rng(6, ("attn-inputs",))
        q, k, v = rng.normal((2, 2, 3, 4)), rng.normal((2, 2, 5, 4)), rng.normal((2, 2, 5, 3))
        mask = np.zeros((2, 1, 1, 5))
        mask[0, ..., 3:] = -1e9
        x = rng.normal((3, 5))
        before = [a.tobytes() for a in (q, k, v, mask, x)]
        out, weights, _ = attention_array(q, k, v, mask)
        probs = softmax_array(x, -1)
        assert [a.tobytes() for a in (q, k, v, mask, x)] == before
        assert not any(np.shares_memory(weights, a) for a in (q, k, v, mask))
        assert not np.shares_memory(probs, x)
        assert np.array_equal(weights[0, :, :, 3:], np.zeros((2, 3, 2)))

    def test_retained_graph_backward_twice_gives_equal_gradients(self):
        # both attention backwards build their score gradient in a fresh
        # buffer, so the weights a graph keeps are still intact the second time
        rng = Rng(7, ("attn-retained",))
        ts = [Tensor(rng.normal(shape), requires_grad=True)
              for shape in ((2, 3, 4), (2, 5, 4), (2, 5, 3))]
        mask = np.triu(np.full((3, 5), -1e9), k=3)
        out, weights = scaled_dot_attention(*ts, mask)
        x = Tensor(rng.normal((3, 8)), requires_grad=True)
        ws = [Tensor(rng.normal(shape), requires_grad=True)
              for shape in ((8,), (8,), (8, 8), (8, 8), (8, 8), (8, 8))]
        block = attention_sublayer(x, *ws, 2, np.triu(np.full((3, 3), -1e9), k=1))
        loss = (out * Tensor(rng.normal((2, 3, 3)))).sum() + (block * block).sum()
        kept = weights.data.tobytes()
        runs = []
        for _ in range(2):
            reached = loss.backward()
            runs.append([t.grad.copy() for t in (*ts, x, *ws)])
            for node in reached.values():
                node.zero_grad()
        assert all(np.array_equal(a, b) for a, b in zip(*runs))
        assert weights.data.tobytes() == kept


class TestBackward:
    def test_sigmoid_grad_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        x.sigmoid().backward()
        assert abs(x.grad - 0.25) < 1e-15

    def test_softmax_sum_has_zero_gradient(self):
        v = Tensor([0.3, -1.2, 2.5], requires_grad=True)
        softmax(v).sum().backward()
        np.testing.assert_allclose(v.grad, np.zeros(3), atol=1e-12)

    def test_named_parameter_map(self):
        params = {"w": Tensor([1.0, 2.0], requires_grad=True)}
        loss = (params["w"] * params["w"]).sum()
        grads = backward(loss, params)
        np.testing.assert_allclose(grads["w"], [2.0, 4.0])

    def test_unreachable_parameter_warns(self):
        params = {
            "used": Tensor([1.0], requires_grad=True),
            "orphan": Tensor([1.0], requires_grad=True),
        }
        loss = params["used"].sum()
        with pytest.warns(UserWarning, match="orphan"):
            backward(loss, params)

    def test_unreachable_parameter_gets_zeros_and_warning(self):
        params = {
            "used": Tensor([1.0, 2.0], requires_grad=True),
            "orphan": Tensor(np.ones((2, 3)), requires_grad=True),
        }
        loss = (params["used"] * params["used"]).sum()
        with pytest.warns(UserWarning, match="'orphan' not reachable"):
            grads = backward(loss, params)
        assert np.array_equal(grads["orphan"], np.zeros((2, 3)))
        assert params["orphan"].grad is None
        np.testing.assert_array_equal(grads["used"], [2.0, 4.0])

    def test_gradient_buffers_allocated_by_first_backward(self):
        w = Tensor([1.0, -2.0], requires_grad=True)
        assert w.grad is None
        (w * 3.0).sum().backward()
        np.testing.assert_array_equal(w.grad, [3.0, 3.0])
        # a second backward accumulates; zero_grad frees the buffer
        (w * w).sum().backward()
        np.testing.assert_array_equal(w.grad, [5.0, -1.0])
        w.zero_grad()
        assert w.grad is None

    def test_backward_twice_on_one_graph_gives_equal_gradients(self):
        # op nodes kept the gradient of the first walk, and the second walk
        # added to it: [6, 12], then [24, 48]
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = (w * w).sum() * 3
        for _ in range(2):
            np.testing.assert_array_equal(backward(loss, {"w": w})["w"], [6.0, 12.0])

    def test_walk_frees_op_node_gradients_and_leaves_keep_theirs(self):
        rng = Rng(8, ("walk-frees",))
        x, gain, bias, w = (Tensor(rng.normal(shape), requires_grad=True)
                            for shape in ((3, 4), (4,), (4,), (4, 5)))
        logits = layer_norm(x, gain, bias) @ w
        loss = softmax(logits).sum() * 0.5 + cross_entropy_logits(logits[0], 2)
        reached = loss.backward()
        ops = [node for node in reached.values() if node._backward is not None]
        leaves = [node for node in reached.values() if node._backward is None]
        assert {id(node) for node in leaves} == {id(t) for t in (x, gain, bias, w)}
        assert len(ops) >= 6 and all(node.grad is None for node in ops)
        assert all(node.grad is not None for node in leaves)

    def test_iterable_of_losses_adds_up_like_one_walk_over_their_sum(self):
        # one walk over a + b reaches b's nodes (the newer) first, so walking
        # b, then a, adds each leaf's parts in the same order: the same bits
        rng = Rng(9, ("walk-terms",))
        w = Tensor(rng.normal((3,)), requires_grad=True)
        orphan = Tensor(np.ones(2), requires_grad=True)
        a = (w * w).sum() * 0.5
        b = (w.tanh() * 3.0).sum() * 0.5
        whole = backward(a + b, {"w": w})
        with pytest.warns(UserWarning, match="'orphan' not reachable"):
            walked = backward(iter([b, a]), {"w": w, "orphan": orphan})
        assert walked["w"].tobytes() == whole["w"].tobytes()
        assert np.array_equal(walked["orphan"], np.zeros(2))

    def test_fresh_model_holds_no_gradient_buffer(self):
        from claimforge.pipeline import PipelineConfig
        from claimforge.pipeline.run import _param_tensors, build_models
        from claimforge.textcore import Vocabulary
        config = PipelineConfig(model_dim=16, num_heads=2, head_dim=8, num_layers=1,
                                max_seq_len=64)
        models = build_models(Vocabulary.build(["a b c d"], cap=64), config, seed=0)
        params = _param_tensors(models)
        assert params and all(p.requires_grad for p in params.values())
        assert [name for name, p in params.items() if p.grad is not None] == []

    def test_composite_vs_finite_differences(self):
        rng = Rng(0, ("bw",))
        x0 = rng.normal((3, 3))

        def build(t):
            s = t.tanh().sigmoid()
            return (s * s).sum()

        def f(xs):
            return float(build(Tensor(xs[0])).data)

        t = Tensor(x0, requires_grad=True)
        build(t).backward()
        numeric = finite_difference_grad(f, [x0])[0]
        assert np.max(np.abs(t.grad - numeric)) < 1e-6


def has_tape(t: Tensor) -> bool:
    return t.requires_grad or t.grad is not None or bool(t._parents) or t._backward is not None


class TestNoGrad:
    def test_every_registered_op_builds_no_tape(self):
        for name, fn, inputs in op_cases(Rng(0, ("gradcheck",))):
            params = [Tensor(x, requires_grad=True) for x in inputs]
            with no_grad():
                out = fn(params)
            assert not has_tape(out), name
            # the same op outside the block records its tape again
            assert has_tape(fn(params)), name

    def test_values_unchanged(self):
        for name, fn, inputs in op_cases(Rng(1, ("gradcheck",))):
            params = [Tensor(x, requires_grad=True) for x in inputs]
            with no_grad():
                inside = fn(params).data
            assert np.array_equal(inside, fn(params).data), name

    def test_nesting(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            with no_grad():
                assert not has_tape(w * 2.0)
            # leaving the inner block keeps the outer one in force
            assert not has_tape(w * 2.0)
        assert has_tape(w * 2.0)

    def test_restored_after_exception(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert has_tape(w * 2.0)

        @no_grad()
        def failing():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            failing()
        loss = (w * w).sum()
        loss.backward()
        np.testing.assert_array_equal(w.grad, 2.0 * np.ones(3))

    def test_decorator_is_reentrant(self):
        w = Tensor(np.ones(2), requires_grad=True)

        @no_grad()
        def depth(n):
            assert not has_tape(w + 1.0)
            return 0 if n == 0 else 1 + depth(n - 1)

        assert depth(3) == 3
        assert has_tape(w + 1.0)


class TestOneBlasThread:
    """The BLAS pin over a stand-in library: it sets one thread only where the
    count is another, and sets back only the count it changed."""

    @staticmethod
    def library(monkeypatch, threads):
        """A stand-in OpenBLAS at ``threads``; returns the counts set on it."""
        from claimforge.numerics import blas
        state, sets = [threads], []

        def set_threads(n):
            sets.append(n)
            state[0] = n

        monkeypatch.setattr(blas, "_openblas", lambda: (lambda: state[0], set_threads))
        return sets

    def test_pins_one_thread_and_restores_the_count(self, monkeypatch):
        sets = self.library(monkeypatch, 4)
        with one_blas_thread():
            assert blas_threads() == 1
            with one_blas_thread():  # nested: reads the count, sets nothing
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 4 and sets == [1, 4]

    def test_restored_after_exception_also_as_a_decorator(self, monkeypatch):
        sets = self.library(monkeypatch, 2)

        @one_blas_thread()
        def failing():
            assert blas_threads() == 1
            raise KeyError("boom")

        for _ in range(2):
            with pytest.raises(KeyError):
                failing()
            assert blas_threads() == 2
        assert sets == [1, 2, 1, 2]

    def test_one_thread_already_is_only_read(self, monkeypatch):
        sets = self.library(monkeypatch, 1)
        with one_blas_thread():
            assert blas_threads() == 1
        assert sets == []

    def test_without_an_openblas_the_pin_does_nothing(self, monkeypatch):
        from claimforge.numerics import blas
        monkeypatch.setattr(blas, "_openblas", lambda: None)
        assert blas_threads() is None
        with one_blas_thread():
            assert blas_threads() is None

    def test_lookup_takes_the_first_name_pair_the_library_has_whole(self, monkeypatch):
        from claimforge.numerics import blas

        getter, setter, paths = SimpleNamespace(), SimpleNamespace(), []
        library = SimpleNamespace(  # a getter without its setter under the first two names
            scipy_openblas_get_num_threads64_=SimpleNamespace(),
            openblas_get_num_threads64_=SimpleNamespace(),
            openblas_get_num_threads=getter, openblas_set_num_threads=setter)
        monkeypatch.setattr(blas.ctypes, "CDLL", lambda path: paths.append(path) or library)
        blas._openblas.cache_clear()
        try:
            assert blas._openblas() == (getter, setter)
            assert Path(paths[0]).name.startswith("_multiarray_umath")
            monkeypatch.setattr(blas.ctypes, "CDLL", lambda path: SimpleNamespace())
            blas._openblas.cache_clear()
            assert blas._openblas() is None
        finally:
            monkeypatch.undo()
            blas._openblas.cache_clear()

    def test_the_loaded_openblas_is_found_and_set(self, library_threads):
        library_threads(2)
        with one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 2


class TestTensorValidation:
    def test_non_finite_rejected_at_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, float("inf")])
        with pytest.raises(NonFiniteError):
            Tensor([float("nan")])


    @pytest.mark.parametrize("inference", [False, True])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_python_scalar_rejected(self, inference, bad):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad() if inference else contextlib.nullcontext():
            with pytest.raises(NonFiniteError):
                x * bad
            with pytest.raises(NonFiniteError):
                x + bad
            with pytest.raises(NonFiniteError):
                bad * x

    def test_python_scalar_is_a_constant(self):
        x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        y = x * 2 + 0.25
        np.testing.assert_array_equal(y.data, [3.25, -3.75])
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = Rng(0, ("ckpt",))
        tensors = {
            "a/b": rng.normal((3, 4)),
            "c": rng.normal((5,)),
            "scalar": np.array(2.5),
        }
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            # storage is 32-bit float; values survive at that precision
            np.testing.assert_allclose(loaded[name], tensors[name], atol=1e-6)
            assert loaded[name].shape == tensors[name].shape

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTIT\nrest")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.ones((4, 4))})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


    def test_non_integer_fields_rejected(self, tmp_path):
        for manifest in (b"CFKP1\nx\n", b"CFKP1\n1\nw\t1.5\t0\n", b"CFKP1\n1\nw\t2\t0x0\n",
                         b"CFKP1\n1\nw\t2\t+0\n", b"CFKP1\n1\nw\t 2\t0\n"):
            path = tmp_path / "bad.ckpt"
            path.write_bytes(manifest + b"\n" + np.zeros(2, "<f4").tobytes())
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_negative_dimension_rejected(self, tmp_path):
        # a (2, 3) payload declared as -1 must not load as (6,)
        path = tmp_path / "neg.ckpt"
        path.write_bytes(b"CFKP1\n1\nw\t-1\t0\n\n" + np.zeros(6, "<f4").tobytes())
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 3))})
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        for bad in (np.nan, np.inf, -np.inf):
            path = tmp_path / "m.ckpt"
            save_checkpoint(path, {"w": np.ones(4)})
            data = bytearray(path.read_bytes())
            data[-4:] = np.array([bad], "<f4").tobytes()
            path.write_bytes(bytes(data))
            with pytest.raises(CheckpointError, match="non-finite"):
                load_checkpoint(path)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_corruptions_raise_checkpoint_error(self, tmp_path, data):
        # a valid file of 1-3 tensors; the first is never empty, so the payload isn't
        first = data.draw(st.lists(st.integers(1, 3), max_size=3), label="first")
        rest = data.draw(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=2),
                         label="rest")
        shapes = [first] + rest
        names = [f"t{i}" for i in range(len(shapes))]
        blobs = [np.ones(shape, "<f4").tobytes() for shape in shapes]
        offsets = list(np.cumsum([0] + [len(b) for b in blobs[:-1]]))
        fields = [[name, ",".join(map(str, shape)), str(off)]
                  for name, shape, off in zip(names, shapes, offsets)]
        blob = b"".join(blobs)
        kind = data.draw(st.sampled_from(
            ["truncate", "trailing", "offset", "negative_dim", "non_finite", "non_utf8"]),
            label="kind")
        i = data.draw(st.integers(0, len(shapes) - 1), label="entry")
        name_bytes = None
        if kind == "truncate":
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="keep")]
        elif kind == "trailing":
            blob += data.draw(st.binary(min_size=1, max_size=12), label="extra")
        elif kind == "offset":
            wrong = data.draw(st.integers(0, len(blob) + 64).filter(
                lambda o: o != offsets[i]), label="offset")
            fields[i][2] = str(wrong)
        elif kind == "negative_dim":
            dims = fields[i][1].split(",") if fields[i][1] else ["1"]
            j = data.draw(st.integers(0, len(dims) - 1), label="dim")
            dims[j] = str(-data.draw(st.integers(1, 6), label="neg"))
            fields[i][1] = ",".join(dims)
        elif kind == "non_finite":
            bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
            arr = np.frombuffer(blob, "<f4").copy()
            arr[data.draw(st.integers(0, arr.size - 1), label="index")] = bad
            blob = arr.tobytes()
        else:
            name_bytes = b"\xff\xfe"
        manifest = "\n".join(["CFKP1", str(len(fields))] + ["\t".join(f) for f in fields])
        header = manifest.encode("utf-8")
        if name_bytes is not None:
            header = header.replace(names[i].encode(), name_bytes + names[i].encode(), 1)
        path = tmp_path / "fuzz.ckpt"
        path.write_bytes(header + b"\n\n" + blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @given(tail=st.one_of(
        st.binary(max_size=64),
        # manifest-shaped noise: digits, separators, signs, a non-UTF-8 byte, NaN bits
        st.lists(st.sampled_from([b"0", b"1", b"4", b"-", b".", b",", b"\t", b"\n", b"w",
                                  b"\xff", b"\x00\x00\xc0\x7f", b"\x00\x00\x80\x3f"]),
                 max_size=24).map(b"".join)))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_bytes_load_or_raise_checkpoint_error(self, tmp_path, tail):
        path = tmp_path / "any.ckpt"
        path.write_bytes(b"CFKP1\n" + tail)
        try:
            loaded = load_checkpoint(path)
        except CheckpointError:
            return
        assert all(np.all(np.isfinite(v)) for v in loaded.values())

    def test_save_and_load_hold_one_copy_of_the_payload(self, tmp_path):
        # save held every tensor's bytes before it wrote the first, and load
        # sliced the payload off the file's bytes, a second copy of it
        tensors = {f"t{i}": np.full((512, 512), float(i)) for i in range(4)}
        payload = 4 * sum(t.size for t in tensors.values())  # float32 bytes on disk
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(path, tensors)
            saved_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = load_checkpoint(path)
            loaded_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # save: one tensor's float32 copy; load: the file's bytes and the float64 arrays
        assert saved_peak < 0.5 * payload
        assert loaded_peak < 3.5 * payload
        for name, arr in tensors.items():
            assert loaded[name].dtype == np.float64 and np.array_equal(loaded[name], arr)

    def test_load_holds_one_tensor_of_file_bytes(self, tmp_path):
        # load read the whole file before it converted the first array, so
        # its peak was the file's bytes plus every float64 array
        shapes = [(256, 256)] * 6 + [(128, 256), (256,), (3, 5)]
        rng = Rng(0, ("ckpt",))
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, {f"t{i}": rng.normal(s) for i, s in enumerate(shapes)})
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in loaded.values())
        largest = 4 * max(a.size for a in loaded.values())
        assert peak < returned + 2 * largest


class TestParams:
    def test_rng_source_draws_in_creation_order(self):
        p = Params(Rng(3, ("p",)))
        p.normal("a", (2, 3), 0.5)
        p.fill("b", (4,), 1.0)
        p.add("c", (2, 2), lambda rng: rng.normal((2, 2)) * 2.0)
        oracle = Rng(3, ("p",))
        want = {"a": oracle.normal((2, 3), 0.5), "b": np.ones(4),
                "c": oracle.normal((2, 2)) * 2.0}
        assert list(p.tensors) == list(want)
        for name, arr in want.items():
            assert p.tensors[name].requires_grad and np.array_equal(p.tensors[name].data, arr)

    def test_map_source_takes_its_arrays(self):
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.zeros(4)}
        p = Params(arrays)
        p.normal("a", (2, 3), 0.5)
        p.fill("b", (4,), 1.0)
        assert all(p.tensors[name].data is arr for name, arr in arrays.items())

    def test_map_source_names_a_missing_or_misshapen_tensor(self):
        with pytest.raises(ValueError, match="checkpoint has no tensor 'b'"):
            Params({"a": np.zeros(2)}).fill("b", (2,), 0.0)
        with pytest.raises(ValueError, match=re.escape(
                "checkpoint tensor 'a' has shape (3,), model expects (2,)")):
            Params({"a": np.zeros(3)}).fill("a", (2,), 0.0)


class TestRng:
    def test_same_seed_bit_identical(self):
        a = Rng(7, ("x",)).normal((4, 4))
        b = Rng(7, ("x",)).normal((4, 4))
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        root = Rng(7, ())
        a = root.substream("alpha").normal((8,))
        b = root.substream("beta").normal((8,))
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(0, ("x",)).normal((8,)),
                                  Rng(1, ("x",)).normal((8,)))
