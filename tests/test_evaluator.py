"""Pair encoding, aspect heads, adaptive margins, and ranking training."""

import math

import numpy as np
import pytest

from claimforge.evaluator import (
    ASPECTS,
    EvaluatorModel,
    adaptive_margin,
    aspect_scores,
    encode_pair,
    overall_score,
    score_pair,
    train_evaluator,
)
from claimforge.evaluator.aspects import DEFAULT_ADAPT_STRENGTH, DEFAULT_BASE_MARGIN, encode_pairs
from claimforge.evaluator.train import (EvaluatorTrainConfig, _batch_loss, domain_one_hot,
                                        ordering_accuracy)
from hypothesis import given, settings
from hypothesis import strategies as st

from claimforge.generator import DOMAINS
from claimforge.numerics import Rng, Tensor
from claimforge.textcore import (BOS_ID, EOS_ID, SEP_ID, EncoderConfig, encode_sequence,
                                 init_encoder_params)
from claimforge.training import margin_loss


def make_eval(cfg, seed=0, **kw):
    return EvaluatorModel.init(cfg, Rng(seed, ("eval",)), **kw)


class TestEvaluatorInit:
    def test_aspect_queries_are_q_rows_that_own_their_data(self):
        # the (5, d) queries were a view of the (d, d) Q factor, which stayed
        # alive with them: 2 MiB for 20 KB at d = 512
        cfg = EncoderConfig(model_dim=64, num_heads=2, head_dim=32, num_layers=1,
                            max_seq_len=64)
        q = make_eval(cfg).params["eval/queries"].data
        assert q.base is None or q.base.size == len(ASPECTS) * cfg.model_dim
        oracle = np.linalg.qr(Rng(0, ("eval",)).normal((64, 64)))[0][:len(ASPECTS)]
        np.testing.assert_array_equal(q, oracle)


class TestEncodePair:
    def test_matches_manual_concatenation(self, small_cfg, small_vocab, small_enc):
        ref = small_vocab.encode_text("w0 w1 w2")
        gen = small_vocab.encode_text("w3 w4")
        h = encode_pair(ref, gen, small_cfg, small_enc)
        manual = encode_sequence([BOS_ID] + ref + [SEP_ID] + gen + [EOS_ID],
                                 small_cfg, small_enc)
        np.testing.assert_array_equal(h.data, manual.data)

    def test_asymmetric_in_argument_order(self, small_cfg, small_vocab, small_enc):
        ref = small_vocab.encode_text("w0 w1")
        gen = small_vocab.encode_text("w2 w3")
        a = encode_pair(ref, gen, small_cfg, small_enc).data
        b = encode_pair(gen, ref, small_cfg, small_enc).data
        assert not np.allclose(a, b)

    def test_empty_pair_error(self, small_cfg, small_enc):
        with pytest.raises(ValueError, match="empty claim pair"):
            encode_pair([], [], small_cfg, small_enc)

    def test_too_long_error_names_truncation_amount(self, small_cfg, small_enc):
        n = small_cfg.max_seq_len
        with pytest.raises(ValueError, match=f"truncate inputs by 3 tokens"):
            encode_pair([5] * n, [], small_cfg, small_enc)


class TestAspectScores:
    def test_zero_score_weights_give_half(self, small_cfg, small_vocab, small_enc):
        model = make_eval(small_cfg)
        model.params["eval/score_w"].data = np.zeros_like(
            model.params["eval/score_w"].data)
        model.params["eval/score_b"].data = np.zeros(len(ASPECTS))
        h = encode_pair(small_vocab.encode_text("w0 w1"),
                        small_vocab.encode_text("w2"), small_cfg, small_enc)
        s, _ = aspect_scores(h, model)
        np.testing.assert_allclose(s.data, np.full(len(ASPECTS), 0.5), atol=1e-15)

    def test_single_position_pool_equals_state(self, small_cfg):
        model = make_eval(small_cfg)
        h = Tensor(Rng(1, ("h",)).normal((1, small_cfg.model_dim)))
        _, attn = aspect_scores(h, model)
        np.testing.assert_allclose(attn, np.ones((len(ASPECTS), 1)), atol=1e-15)

    def test_attention_rows_normalized(self, small_cfg, small_vocab, small_enc):
        model = make_eval(small_cfg)
        h = encode_pair(small_vocab.encode_text("w0 w1 w2 w3"),
                        small_vocab.encode_text("w4 w5"), small_cfg, small_enc)
        _, attn = aspect_scores(h, model)
        np.testing.assert_allclose(attn.sum(axis=-1), np.ones(len(ASPECTS)),
                                   atol=1e-12)

    def test_matches_cross_attention_oracle(self, small_cfg):
        model = make_eval(small_cfg)
        rng = Rng(2, ("h",))
        h = rng.normal((6, small_cfg.model_dim))
        s, attn = aspect_scores(Tensor(h), model)
        d = small_cfg.model_dim
        queries = model.params["eval/queries"].data
        sw = model.params["eval/score_w"].data
        sb = model.params["eval/score_b"].data
        for k in range(len(ASPECTS)):
            scores = np.array([queries[k] @ h[j] / math.sqrt(d)
                               for j in range(h.shape[0])])
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            pooled = sum(w[j] * h[j] for j in range(h.shape[0]))
            logit = pooled @ sw[k] + sb[k]
            expected = 1.0 / (1.0 + math.exp(-logit))
            assert abs(s.data[k] - expected) < 1e-10
            np.testing.assert_allclose(attn[k], w, atol=1e-10)

    def test_scores_strictly_inside_unit_interval(self, small_cfg):
        model = make_eval(small_cfg)
        rng = Rng(3, ("h",))
        for _ in range(50):
            s, _ = aspect_scores(Tensor(rng.normal((4, small_cfg.model_dim), 3.0)),
                                 model)
            assert np.all(s.data > 0) and np.all(s.data < 1)

    def test_unified_coupling(self, small_cfg, small_vocab, small_enc):
        # aspect heads share the pair encoding: nudging one encoder weight
        # must move at least two aspect scores
        model = make_eval(small_cfg)
        ref = small_vocab.encode_text("w0 w1 w2")
        gen = small_vocab.encode_text("w3 w4")
        s0, _ = aspect_scores(encode_pair(ref, gen, small_cfg, small_enc), model)
        target = small_enc["enc/l0/attn/wq"]
        target.data[0, 0] += 0.5
        try:
            s1, _ = aspect_scores(encode_pair(ref, gen, small_cfg, small_enc), model)
        finally:
            target.data[0, 0] -= 0.5
        changed = np.sum(np.abs(s1.data - s0.data) > 1e-12)
        assert changed >= 2


class TestOverallScore:
    def test_equal_logits_constant_scores(self):
        s = Tensor(np.full(5, 0.5))
        overall, w = overall_score(s, Tensor(np.zeros(5)))
        assert abs(overall.item() - 0.5) < 1e-15
        np.testing.assert_allclose(w, np.full(5, 0.2), atol=1e-15)

    def test_one_hot_collapse(self):
        s = Tensor([0.9, 0.8, 0.7, 0.6, 0.5])
        logits = np.zeros(5)
        logits[1] = 50.0  # clarity
        overall, _ = overall_score(s, Tensor(logits))
        assert abs(overall.item() - 0.8) < 1e-12

    def test_uniform_weights_arithmetic_mean(self):
        s = Tensor([0.9, 0.8, 0.7, 0.6, 0.5])
        overall, _ = overall_score(s, Tensor(np.zeros(5)))
        assert abs(overall.item() - 0.70) < 1e-12


class TestAdaptiveMargin:
    def test_zero_projection_gives_base(self, small_cfg):
        model = make_eval(small_cfg)
        model.params["eval/margin/w"].data = np.zeros_like(
            model.params["eval/margin/w"].data)
        model.params["eval/margin/b"].data = np.zeros(len(ASPECTS))
        m = adaptive_margin(domain_one_hot("software"), model).data
        np.testing.assert_allclose(m, DEFAULT_BASE_MARGIN, atol=1e-15)

    def test_bounds_hold_1000_random_mixtures(self, small_cfg):
        model = make_eval(small_cfg)
        rng = Rng(4, ("mix",))
        for _ in range(1000):
            alpha = rng.uniform((len(DOMAINS),))
            alpha = alpha / alpha.sum()
            m = adaptive_margin(alpha, model).data
            assert np.all(np.abs(m - DEFAULT_BASE_MARGIN) <= DEFAULT_ADAPT_STRENGTH + 1e-12)

    def test_bad_mixture_shape_rejected(self, small_cfg):
        model = make_eval(small_cfg)
        with pytest.raises(ValueError):
            adaptive_margin(np.ones(3), model)


class TestHinge:
    def test_satisfied_margin_zero(self):
        assert margin_loss(0.3, 0.9, 0.2) == 0.0

    def test_violated_margin(self):
        assert margin_loss(0.3, 0.5, 0.4) == pytest.approx(0.2)

    def test_equal_scores_give_margin(self):
        assert margin_loss(0.3, 0.6, 0.6) == pytest.approx(0.3)

    def test_zero_region_grid_both_directions(self):
        # sixteenths are exact in binary, so the iff holds without rounding slop
        margin = 0.25
        grid = [i / 16.0 for i in range(17)]
        for s_pos in grid:
            for s_neg in grid:
                loss = margin_loss(margin, float(s_pos), float(s_neg))
                if s_pos - s_neg >= margin:
                    assert loss == 0.0
                else:
                    assert loss > 0.0


class TestTrainEvaluator:
    def _tuples(self, vocab, n=4, seed=5):
        rng = Rng(seed, ("tuples",))
        tuples = []
        for i in range(n):
            words = [f"w{int(rng.integers(0, 40))}" for _ in range(6)]
            ref = vocab.encode_text(" ".join(words))
            worse_words = list(reversed(words))[:4]
            worse = vocab.encode_text(" ".join(worse_words))
            tuples.append((ref, list(ref), worse, DOMAINS[i % 5]))
        return tuples

    def test_zero_init_scores_give_margin_loss(self, small_cfg, small_vocab, small_enc):
        model = make_eval(small_cfg)
        model.params["eval/score_w"].data = np.zeros_like(
            model.params["eval/score_w"].data)
        model.params["eval/score_b"].data = np.zeros(len(ASPECTS))
        ref, better, worse, dom = self._tuples(small_vocab, 1)[0]
        s_b, _ = aspect_scores(encode_pair(ref, better, small_cfg, small_enc), model)
        s_w, _ = aspect_scores(encode_pair(ref, worse, small_cfg, small_enc), model)
        np.testing.assert_allclose(s_b.data, 0.5, atol=1e-15)
        margins = adaptive_margin(domain_one_hot(dom), model).data
        # equal scores leave exactly the margin as per-aspect hinge
        for k in range(len(ASPECTS)):
            assert margin_loss(margins[k], float(s_b.data[k]),
                               float(s_w.data[k])) == pytest.approx(margins[k])

    def test_ordering_accuracy_ranks_on_the_overall_score(self, small_cfg, small_vocab,
                                                         small_enc):
        model = make_eval(small_cfg)
        tuples = self._tuples(small_vocab, 8, seed=2)
        train_evaluator(tuples, model, small_enc, EvaluatorTrainConfig(epochs=2))
        logits = model.params["eval/aspect_logits"]

        def overall(ref, gen):
            scores, _ = aspect_scores(encode_pair(ref, gen, small_cfg, small_enc), model)
            return float(overall_score(scores, logits)[0].data)

        want = sum(overall(ref, b) > overall(ref, w) for ref, b, w, _ in tuples) / len(tuples)
        assert ordering_accuracy(tuples, model, small_enc) == want

    def test_loss_decreases_on_four_tuples(self, small_cfg, small_vocab, small_enc):
        model = make_eval(small_cfg)
        tuples = self._tuples(small_vocab, 4)
        history = train_evaluator(tuples, model, small_enc,
                                  EvaluatorTrainConfig(epochs=25, lr=1e-3))
        assert history[-1] < history[0]

    def test_log_fn_gets_every_step(self, small_cfg, small_vocab):
        def run(log_fn):
            enc = init_encoder_params(len(small_vocab), small_cfg, Rng(0, ("test-enc",)))
            return train_evaluator(self._tuples(small_vocab, 5), make_eval(small_cfg), enc,
                                   EvaluatorTrainConfig(epochs=2, batch_size=2),
                                   log_fn=log_fn)

        rows = []
        history = run(rows.append)
        assert history == run(None)  # logging changes no loss
        assert [row["step"] for row in rows] == list(range(len(history))) == list(range(6))
        assert [row["loss"] for row in rows] == history
        assert all(set(row) == {"step", "loss", "grad_norm"} for row in rows)
        assert all(math.isfinite(row["grad_norm"]) for row in rows)

    def test_degenerate_tuples_skipped_with_warning(self, small_cfg, small_vocab,
                                                    small_enc):
        model = make_eval(small_cfg)
        good = self._tuples(small_vocab, 2)
        ref = small_vocab.encode_text("w0 w1")
        bad = (ref, list(ref), list(ref), "mechanical")
        with pytest.warns(UserWarning, match="degenerate"):
            train_evaluator(good + [bad], model, small_enc,
                            EvaluatorTrainConfig(epochs=1))

    def test_all_degenerate_rejected(self, small_cfg, small_vocab, small_enc):
        model = make_eval(small_cfg)
        ref = small_vocab.encode_text("w0 w1")
        bad = (ref, list(ref), list(ref), "mechanical")
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no usable tuples"):
                train_evaluator([bad], model, small_enc)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_1_rejected_naming_it(self, small_cfg, small_vocab, small_enc,
                                                   batch_size):
        # batch_size = 0 failed inside range() with a message naming no setting
        with pytest.raises(ValueError, match=f"^batch_size must be at least 1, got {batch_size}"):
            train_evaluator(self._tuples(small_vocab, 2), make_eval(small_cfg), small_enc,
                            EvaluatorTrainConfig(epochs=1, batch_size=batch_size))

    def test_empty_rejected(self, small_cfg, small_enc):
        with pytest.raises(ValueError, match="empty"):
            train_evaluator([], make_eval(small_cfg), small_enc)


class TestScorePair:
    def test_report_shape_and_ranges(self, small_cfg, small_vocab, small_enc):
        model = make_eval(small_cfg)
        report = score_pair(small_vocab.encode_text("w0 w1 w2"),
                            small_vocab.encode_text("w3 w4"),
                            domain_one_hot("electrical"), model, small_enc)
        assert set(report.aspect_scores) == set(ASPECTS)
        assert all(0 < v < 1 for v in report.aspect_scores.values())
        assert 0 < report.overall < 1
        for a in ASPECTS:
            assert report.display_scores[a] == pytest.approx(
                10.0 * report.aspect_scores[a])
        assert abs(sum(report.aspect_weights.values()) - 1.0) < 1e-12
        assert len(report.domain_mixture) == len(DOMAINS)


# -- the per-tuple training step the batched one replaced: the loss oracle ----


def per_tuple_batch_loss(batch, model, enc):
    """One step's loss as the per-tuple trainer built it: an encoder call and
    an aspect cross-attention per pair, a margin per tuple."""
    loss = None
    for ref, better, worse, domain in batch:
        s_better, _ = aspect_scores(encode_pair(ref, better, model.cfg, enc), model)
        s_worse, _ = aspect_scores(encode_pair(ref, worse, model.cfg, enc), model)
        term = (adaptive_margin(domain_one_hot(domain), model) - s_better + s_worse).relu().sum()
        loss = term if loss is None else loss + term
    return loss * (1.0 / len(batch))


def loss_and_grads(build, params):
    for t in params.values():
        t.zero_grad()
    loss = build()
    loss.backward()
    return loss.item(), {n: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                         for n, t in params.items()}


EVAL_CFG = EncoderConfig(model_dim=16, num_heads=2, head_dim=8, num_layers=1, max_seq_len=64)
token_ids = st.lists(st.integers(5, 44), max_size=12)


class TestBatchLoss:
    """The evaluator step encodes a batch's 2B pairs in one padded call and
    scores them in one cross-attention; its loss and gradients equal the
    per-tuple step's."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6),
           st.lists(st.tuples(token_ids.filter(bool), token_ids, token_ids,
                              st.sampled_from(DOMAINS)).filter(lambda t: t[1] != t[2]),
                    min_size=1, max_size=8))
    def test_equals_the_per_tuple_step(self, seed, batch):
        cfg = EVAL_CFG
        enc = init_encoder_params(45, cfg, Rng(seed, ("enc",)))
        model = make_eval(cfg, seed)
        # big score weights, so the hinge is active for some aspects and not others
        model.params["eval/score_w"].data *= 20.0
        params = {**enc, **{k: v for k, v in model.params.items() if k != "eval/aspect_logits"}}
        loss, grads = loss_and_grads(lambda: _batch_loss(batch, model, enc), params)
        want_loss, want = loss_and_grads(lambda: per_tuple_batch_loss(batch, model, enc), params)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        # relative to the step's largest gradient entry: a parameter whose
        # gradient cancels to nearly zero keeps the rounding of its terms
        scale = max(np.max(np.abs(g)) for g in want.values())
        for name in params:
            assert np.max(np.abs(grads[name] - want[name])) <= 1e-12 * scale, name

    def test_batched_scores_equal_the_per_pair_scores(self, small_cfg, small_enc):
        model = make_eval(small_cfg)
        pairs = [([5, 6, 7], [8]), ([9], [10, 11, 12, 13, 14]), ([15, 16], [])]
        states, lengths = encode_pairs(pairs, small_cfg, small_enc)
        assert lengths == [7, 9, 5] and states.shape == (3, 9, small_cfg.model_dim)
        scores, attn = aspect_scores(states, model, lengths)
        for i, (ref, gen) in enumerate(pairs):
            want, want_attn = aspect_scores(encode_pair(ref, gen, small_cfg, small_enc), model)
            np.testing.assert_allclose(scores.data[i], want.data, rtol=1e-13, atol=0)
            np.testing.assert_allclose(attn[i, :, :lengths[i]], want_attn, rtol=1e-13, atol=1e-300)
            assert np.all(attn[i, :, lengths[i]:] == 0.0)

    def test_a_stack_of_mixtures_gives_each_its_margins(self, small_cfg):
        model = make_eval(small_cfg)
        alphas = np.stack([domain_one_hot(d) for d in DOMAINS] + [np.full(len(DOMAINS), 0.2)])
        stacked = adaptive_margin(alphas, model).data
        for alpha, row in zip(alphas, stacked):
            np.testing.assert_allclose(row, adaptive_margin(alpha, model).data, rtol=1e-14)
        with pytest.raises(ValueError, match="domain mixture"):
            adaptive_margin(np.ones((2, 2, len(DOMAINS))), model)
