"""Adapter mixing, domain classification, decoding, and generator training."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimforge.generator import (
    ADAPTER_RANK,
    DOMAINS,
    AdapterBank,
    DomainClassifier,
    GeneratorModel,
    GeneratorSample,
    GeneratorTrainConfig,
    classify_domain,
    decoder_logits,
    effective_overrides,
    effective_projection,
    eval_domain_accuracy,
    generate,
    pool_embedding,
    train_domain_classifier,
    train_generator,
)
from claimforge.generator import train as generator_train
from claimforge.generator.train import _sample_loss
from claimforge.numerics import Rng, Tensor, backward, concat
from claimforge.numerics.gradcheck import check_op
from claimforge.textcore import (
    BOS_ID,
    EOS_ID,
    SEP_ID,
    EncoderConfig,
    KVCache,
    encode_sequence,
)
from claimforge.training import CurriculumSchedule, sample_batch

CFG = EncoderConfig(model_dim=16, num_heads=2, head_dim=8, num_layers=1, max_seq_len=64)


def make_model(seed=0, vocab_size=48):
    return GeneratorModel.init(vocab_size, CFG, Rng(seed, ("gen",)))


def make_bank(seed=0):
    return AdapterBank.init(CFG.num_layers, CFG.model_dim, Rng(seed, ("bank",)))


def randomize_bank(bank, seed=0):
    rng = Rng(seed, ("bfill",))
    for name, t in bank.params.items():
        t.data = rng.normal(t.data.shape, 0.1)


class TestAdapterMixing:
    def test_zero_bank_is_exact_identity(self):
        model, bank = make_model(), make_bank()
        base = model.params["dec/l0/attn/wq"]
        alpha = np.full(len(DOMAINS), 0.2)
        out = effective_projection(base, bank, alpha, "dec/l0/attn/wq")
        np.testing.assert_array_equal(out.data, base.data)

    def test_zero_bank_decode_logits_identical(self):
        model, bank = make_model(), make_bank()
        ids = [2, 7, 9, 11, 4]
        overrides = effective_overrides(model.params, bank,
                                        np.full(len(DOMAINS), 0.2))
        with_bank = decoder_logits(ids, model, overrides).data
        without = decoder_logits(ids, model, None).data
        assert np.max(np.abs(with_bank - without)) < 1e-10

    def test_one_hot_collapse_10_seeded_banks(self):
        model = make_model()
        base = model.params["dec/l0/attn/wv"]
        for seed in range(10):
            bank = make_bank(seed)
            randomize_bank(bank, seed)
            for d, domain in enumerate(DOMAINS):
                alpha = np.zeros(len(DOMAINS))
                alpha[d] = 1.0
                out = effective_projection(base, bank, alpha, "dec/l0/attn/wv").data
                expected = base.data + bank.delta(domain, "dec/l0/attn/wv")
                np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_alpha_linearity_10_seeded_banks(self):
        model = make_model()
        base = model.params["dec/l0/attn/wq"]
        for seed in range(10):
            bank = make_bank(seed)
            randomize_bank(bank, seed)
            rng = Rng(seed, ("alpha",))
            a = rng.uniform((len(DOMAINS),))
            b = rng.uniform((len(DOMAINS),))
            a, b = a / a.sum(), b / b.sum()
            mid = 0.5 * (a + b)
            out_a = effective_projection(base, bank, a, "dec/l0/attn/wq").data
            out_b = effective_projection(base, bank, b, "dec/l0/attn/wq").data
            out_mid = effective_projection(base, bank, mid, "dec/l0/attn/wq").data
            np.testing.assert_allclose(out_mid, 0.5 * (out_a + out_b), atol=1e-12)

    def test_rank_bound_per_domain(self):
        bank = make_bank()
        randomize_bank(bank)
        for domain in DOMAINS:
            delta = bank.delta(domain, "dec/l0/attn/wq")
            sv = np.linalg.svd(delta, compute_uv=False)
            assert sv[ADAPTER_RANK] < 1e-8 * sv[0]

    def test_mixed_rank_bound(self):
        bank = make_bank()
        randomize_bank(bank)
        alpha = np.full(len(DOMAINS), 0.2)
        mixed = sum(alpha[d] * bank.delta(domain, "dec/l0/attn/wq")
                    for d, domain in enumerate(DOMAINS))
        sv = np.linalg.svd(mixed, compute_uv=False)
        bound = min(5 * ADAPTER_RANK, CFG.model_dim)
        if len(sv) > bound:
            assert sv[bound] < 1e-8 * sv[0]

    def test_merged_product_matches_sequential_sum(self):
        model = make_model()
        for seed in range(10):
            bank = make_bank(seed)
            randomize_bank(bank, seed)
            alpha = Rng(seed, ("alpha",)).uniform((len(DOMAINS),))
            alpha = alpha / alpha.sum()
            for target in bank.target_names:
                base = model.params[target]
                expected = base.data.copy()
                for d, domain in enumerate(DOMAINS):
                    expected = expected + alpha[d] * bank.delta(domain, target)
                got = effective_projection(base, bank, alpha, target).data
                assert np.max(np.abs(got - expected)) < 1e-12

    def test_gradients_match_finite_differences(self):
        dim, rank, target = 4, 2, "dec/l0/attn/wv"
        rng = Rng(3, ("adapter-grad",))
        weights = rng.normal((dim, dim))
        base = rng.normal((dim, dim))
        alpha = rng.uniform((len(DOMAINS),))
        factors = [rng.normal((dim, rank)) for _ in range(2 * len(DOMAINS))]

        def build(ts):
            bank = AdapterBank()
            for d, domain in enumerate(DOMAINS):
                bank.params[f"adapter/{domain}/l0/wv/B"] = ts[2 + 2 * d]
                bank.params[f"adapter/{domain}/l0/wv/C"] = ts[3 + 2 * d]
            return (effective_projection(ts[0], bank, ts[1], target) * Tensor(weights)).sum()

        # base, alpha, then (B, C) for each domain
        assert check_op(build, [base, alpha] + factors) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**16), st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
           st.booleans())
    def test_forward_bits_equal_the_composite_merge(self, seed, weights, grad):
        # the merge as composite ops, before it was one node
        def composite(base, bank, alpha, target_name):
            scaled, factors_c = [], []
            for d, domain in enumerate(DOMAINS):
                b, c = bank.factors(domain, target_name)
                scaled.append(b * alpha[d])
                factors_c.append(c)
            return base + concat(scaled, axis=1) @ concat(factors_c, axis=1).T

        model, bank = make_model(seed % 7), make_bank(seed)
        randomize_bank(bank, seed)
        alpha = Tensor(np.array(weights), requires_grad=grad)
        for target in bank.target_names:
            base = model.params[target]
            assert np.array_equal(effective_projection(base, bank, alpha, target).data,
                                  composite(base, bank, alpha, target).data)

    @pytest.mark.parametrize("dim", [16, 512])
    def test_merge_equals_the_out_of_place_sum(self, dim):
        # the merge adds the base into the product's own buffer; IEEE addition
        # commutes, so the bits are those of base + S @ C^T
        target = "dec/l0/attn/wq"
        bank = AdapterBank.init(1, dim, Rng(dim, ("merge-bank",)))
        randomize_bank(bank, dim)
        rng = Rng(dim, ("merge-base",))
        base = Tensor(rng.normal((dim, dim)))
        alpha = rng.uniform((len(DOMAINS),))
        scaled = np.concatenate([bank.factors(domain, target)[0].data * alpha[d]
                                 for d, domain in enumerate(DOMAINS)], axis=1)
        stacked_c = np.concatenate([bank.factors(domain, target)[1].data
                                    for domain in DOMAINS], axis=1)
        want = base.data + scaled @ stacked_c.T
        assert effective_projection(base, bank, alpha, target).data.tobytes() == want.tobytes()

    def test_shape_mismatch_rejected(self):
        bank = make_bank()
        bad = Tensor(np.zeros((CFG.model_dim + 1, CFG.model_dim)))
        with pytest.raises(ValueError, match="incompatible"):
            effective_projection(bad, bank, np.full(5, 0.2), "dec/l0/attn/wq")


class TestDomainClassifier:
    def test_zero_weights_give_uniform(self):
        clf = DomainClassifier.init(CFG.model_dim, Rng(0, ("c",)))
        for t in clf.params.values():
            t.data = np.zeros_like(t.data)
        alpha, label, conf = classify_domain(Tensor(np.ones(CFG.model_dim)), clf)
        np.testing.assert_allclose(alpha, np.full(5, 0.2), atol=1e-15)
        assert label == DOMAINS[0]

    def test_simplex_1000_random_inputs(self):
        clf = DomainClassifier.init(CFG.model_dim, Rng(1, ("c",)))
        rng = Rng(2, ("inp",))
        for _ in range(1000):
            alpha, label, conf = classify_domain(Tensor(rng.normal((CFG.model_dim,))), clf)
            assert np.all(alpha >= 0)
            assert abs(alpha.sum() - 1.0) < 1e-12
            assert label in DOMAINS
            assert conf == pytest.approx(alpha.max())

    def test_pool_embedding_mean(self):
        model = make_model()
        ids = [3, 5, 7]
        pooled = pool_embedding(ids, model.embed).data
        np.testing.assert_allclose(pooled, model.embed.data[ids].mean(axis=0),
                                   atol=1e-12)

    def test_pool_empty_error(self):
        model = make_model()
        with pytest.raises(ValueError, match="empty document"):
            pool_embedding([], model.embed)

    def test_trainable_to_high_accuracy(self):
        # each domain gets a disjoint token signature
        model = make_model()
        rng = Rng(3, ("cls",))
        samples = []
        for d, domain in enumerate(DOMAINS):
            for _ in range(10):
                ids = [5 + d * 6 + int(rng.integers(0, 6)) for _ in range(6)]
                samples.append((ids, domain))
        clf = DomainClassifier.init(CFG.model_dim, Rng(4, ("c",)))
        train_domain_classifier(samples, model.embed, clf, epochs=40)
        assert eval_domain_accuracy(samples, model.embed, clf) >= 0.9


class TestGenerate:
    def test_greedy_deterministic(self):
        model, bank = make_model(), make_bank()
        clf = DomainClassifier.init(CFG.model_dim, Rng(0, ("c",)))
        desc = [7, 9, 11]
        a = generate(desc, model, bank, clf, max_len=6)
        b = generate(desc, model, bank, clf, max_len=6)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_max_len_one(self):
        model, bank = make_model(), make_bank()
        clf = DomainClassifier.init(CFG.model_dim, Rng(0, ("c",)))
        out, _, _ = generate([7, 9], model, bank, clf, max_len=1)
        assert len(out) <= 1

    @pytest.mark.parametrize("max_len", [CFG.max_seq_len - 2, CFG.max_seq_len - 1,
                                         CFG.max_seq_len])
    def test_max_len_without_room_for_the_description_rejected(self, max_len):
        # the prefix keeps max_seq_len - max_len - 2 description tokens: at 0
        # the description is dropped, below 0 the slice cuts from its end
        model, bank = make_model(), make_bank()
        clf = DomainClassifier.init(CFG.model_dim, Rng(0, ("c",)))
        with pytest.raises(ValueError, match="room for a description"):
            generate([7, 9, 11], model, bank, clf, max_len=max_len)

    def test_longest_max_len_accepted(self):
        model, bank = make_model(), make_bank()
        clf = DomainClassifier.init(CFG.model_dim, Rng(0, ("c",)))
        out, _, _ = generate([7, 9, 11], model, bank, clf, max_len=CFG.max_seq_len - 3)
        assert len(out) <= CFG.max_seq_len - 3

    def test_empty_description_rejected(self):
        model, bank = make_model(), make_bank()
        clf = DomainClassifier.init(CFG.model_dim, Rng(0, ("c",)))
        with pytest.raises(ValueError, match="empty"):
            generate([], model, bank, clf, max_len=2)


class TestKVCache:
    """Cached decoding against the uncached causal stack, its reference."""

    @staticmethod
    def _adapted(seed):
        model, bank = make_model(seed), make_bank(seed)
        randomize_bank(bank, seed)
        alpha = np.array([0.05, 0.4, 0.1, 0.3, 0.15])
        return model, bank, effective_overrides(model.params, bank, alpha)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=47), min_size=1, max_size=40),
           st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=3))
    def test_cached_logits_match_full_recompute(self, prefix, steps, seed):
        model, _, overrides = self._adapted(seed)
        cache = KVCache()
        ids = list(prefix)
        logits = decoder_logits(ids, model, overrides, cache=cache).data
        np.testing.assert_allclose(logits, decoder_logits(ids, model, overrides).data,
                                   rtol=0, atol=1e-12)
        for _ in range(min(steps, CFG.max_seq_len - len(ids))):
            nxt = int(np.argmax(logits[-1]))
            ids.append(nxt)
            logits = decoder_logits([nxt], model, overrides, cache=cache).data
            assert logits.shape == (1, model.params["dec/out_b"].shape[0])
            full = decoder_logits(ids, model, overrides).data
            np.testing.assert_allclose(logits[-1], full[-1], rtol=0, atol=1e-12)
        assert cache.length == len(ids)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=5, max_value=47), min_size=1, max_size=40),
           st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=3))
    def test_greedy_ids_match_uncached_loop(self, desc, max_len, seed):
        model, bank, overrides = self._adapted(seed)
        clf = DomainClassifier.init(CFG.model_dim, Rng(seed, ("c",)))
        out, alpha, _ = generate(desc, model, bank, clf, max_len=max_len)
        # the decoding loop before caching: every step reruns the whole prefix
        overrides = effective_overrides(model.params, bank, alpha)
        budget = CFG.max_seq_len - max_len - 2
        ids = [BOS_ID] + desc[:budget] + [SEP_ID]
        expected = []
        for _ in range(max_len):
            nxt = int(np.argmax(decoder_logits(ids, model, overrides).data[-1]))
            if nxt == EOS_ID:
                break
            expected.append(nxt)
            ids.append(nxt)
        assert out == expected

    def test_cache_requires_causal(self):
        model = make_model()
        with pytest.raises(ValueError, match="causal"):
            encode_sequence([2, 3], CFG, model.params, prefix="dec", causal=False,
                            cache=KVCache())

    def test_cache_past_max_seq_len_rejected(self):
        model = make_model()
        cache = KVCache()
        decoder_logits([2] * (CFG.max_seq_len - 1), model, cache=cache)
        decoder_logits([4], model, cache=cache)
        assert cache.length == CFG.max_seq_len
        with pytest.raises(ValueError, match="max_seq_len"):
            decoder_logits([4], model, cache=cache)
        assert cache.length == CFG.max_seq_len


class TestTrainGenerator:
    def _samples(self, vocab):
        rng = Rng(0, ("samples",))
        samples = []
        for i in range(8):
            desc = " ".join(f"w{int(rng.integers(0, 40))}" for _ in range(5))
            claim = " ".join(f"w{int(rng.integers(0, 40))}" for _ in range(3 + i))
            samples.append(GeneratorSample(
                id=f"s{i}",
                description_ids=vocab.encode_text(desc),
                claim_ids=vocab.encode_text(claim),
                domain_label=DOMAINS[i % 5],
                dependent_claim_count=i % 3,
            ))
        return samples

    def test_lr_zero_leaves_params_unchanged(self, small_vocab):
        model, bank = make_model(), make_bank()
        clf = DomainClassifier.init(CFG.model_dim, Rng(0, ("c",)))
        before = {k: v.data.copy() for k, v in model.params.items()}
        cfg = GeneratorTrainConfig(steps=3, lr=0.0, weight_decay=0.0, batch_size=2)
        train_generator(self._samples(small_vocab), model, bank, clf,
                        CurriculumSchedule(), Rng(0, ("t",)), cfg)
        for k in before:
            np.testing.assert_array_equal(model.params[k].data, before[k])

    def test_loss_decreases_50_steps(self, small_vocab):
        model, bank = make_model(1), make_bank(1)
        clf = DomainClassifier.init(CFG.model_dim, Rng(1, ("c",)))
        cfg = GeneratorTrainConfig(steps=50, lr=5e-3, batch_size=4)
        history = train_generator(self._samples(small_vocab), model, bank, clf,
                                  CurriculumSchedule(), Rng(1, ("t",)), cfg)
        first = np.mean(history[:10])
        last = np.mean(history[-10:])
        assert last < first

    def test_overfit_memorizes_single_pair(self, small_vocab):
        model, bank = make_model(2), make_bank(2)
        clf = DomainClassifier.init(CFG.model_dim, Rng(2, ("c",)))
        desc_ids = small_vocab.encode_text("w1 w2 w3 w4")
        claim_ids = small_vocab.encode_text("w9 w8 w7")
        sample = GeneratorSample(id="only", description_ids=desc_ids,
                                 claim_ids=claim_ids, domain_label="mechanical")
        cfg = GeneratorTrainConfig(steps=200, lr=1e-2, batch_size=1,
                                   curriculum=False, weight_decay=0.0)
        train_generator([sample], model, bank, clf, CurriculumSchedule(),
                        Rng(2, ("t",)), cfg)
        out, _, _ = generate(desc_ids, model, bank, clf, max_len=8)
        assert out == claim_ids

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_1_rejected_naming_it(self, small_vocab, batch_size):
        # batch_size = 0 died with a ZeroDivisionError after the first batch
        model, bank = make_model(), make_bank()
        clf = DomainClassifier.init(CFG.model_dim, Rng(0, ("c",)))
        with pytest.raises(ValueError, match=f"^batch_size must be at least 1, got {batch_size}"):
            train_generator(self._samples(small_vocab), model, bank, clf, CurriculumSchedule(),
                            Rng(0, ("t",)), GeneratorTrainConfig(steps=1, batch_size=batch_size))

    def test_empty_corpus_rejected(self):
        model, bank = make_model(), make_bank()
        clf = DomainClassifier.init(CFG.model_dim, Rng(0, ("c",)))
        with pytest.raises(ValueError, match="empty"):
            train_generator([], model, bank, clf, CurriculumSchedule(),
                            Rng(0, ("t",)))

    @staticmethod
    def _claim_sample(sample_id, claim_len):
        return GeneratorSample(id=sample_id, description_ids=[5, 6, 7, 8, 9, 10],
                               claim_ids=[11 + i % 30 for i in range(claim_len)],
                               domain_label="software")

    def test_claim_two_short_of_max_seq_len_trains_without_description(self):
        # 62 tokens at max_seq_len 64: BOS, SEP and the claim fill the input
        model, bank = make_model(), make_bank()
        clf = DomainClassifier.init(CFG.model_dim, Rng(0, ("c",)))
        history = train_generator([self._claim_sample("long", CFG.max_seq_len - 2)], model,
                                  bank, clf, CurriculumSchedule(), Rng(0, ("t",)),
                                  GeneratorTrainConfig(steps=2, batch_size=1, curriculum=False))
        assert len(history) == 2 and all(np.isfinite(history))

    def test_claim_that_cannot_fit_is_skipped_by_id(self):
        model, bank = make_model(), make_bank()
        clf = DomainClassifier.init(CFG.model_dim, Rng(0, ("c",)))
        samples = [self._claim_sample("too-long", CFG.max_seq_len - 1),
                   self._claim_sample("ok", 3)]
        with pytest.warns(UserWarning, match="'too-long'"):
            history = train_generator(samples, model, bank, clf, CurriculumSchedule(),
                                      Rng(0, ("t",)),
                                      GeneratorTrainConfig(steps=3, batch_size=2,
                                                           curriculum=False))
        assert len(history) == 3 and all(np.isfinite(history))
        with pytest.warns(UserWarning, match="'too-long'"):
            with pytest.raises(ValueError, match="no usable samples"):
                train_generator(samples[:1], model, bank, clf, CurriculumSchedule(),
                                Rng(0, ("t",)))

    def test_per_sample_walks_give_the_whole_batch_graph_bits(self, small_vocab, monkeypatch):
        # the trainer builds and walks each sample's graph on its own, newest
        # first; one walk over the graph of the summed batch is the oracle
        def fresh():
            model, bank = make_model(4), make_bank(4)
            randomize_bank(bank, 4)
            return model, bank, DomainClassifier.init(CFG.model_dim, Rng(4, ("c",)))

        batches, walked = [], []

        def recording_batch(*args):
            batches.append(sample_batch(*args))
            return batches[-1]

        def recording_backward(loss, params):
            grads = backward(loss, params)
            walked.append({name: g.copy() for name, g in grads.items()})
            return grads

        samples = self._samples(small_vocab)
        monkeypatch.setattr(generator_train, "sample_batch", recording_batch)
        monkeypatch.setattr(generator_train, "backward", recording_backward)
        model, bank, clf = fresh()
        history = train_generator(samples, model, bank, clf, CurriculumSchedule(),
                                  Rng(4, ("t",)), GeneratorTrainConfig(steps=1, batch_size=4))
        assert len(batches) == len(walked) == 1 and len(batches[0]) == 4

        model, bank, clf = fresh()
        by_id = {s.id: s for s in samples}
        loss = None
        for sid in batches[0]:
            term = _sample_loss(by_id[sid], model, bank, clf)
            loss = term if loss is None else loss + term
        loss = loss * (1.0 / 4)
        whole = backward(loss, {**bank.params, **model.params, **clf.params})
        assert list(walked[0]) == list(whole)
        assert [name for name in whole
                if walked[0][name].tobytes() != whole[name].tobytes()] == []
        assert history == [loss.item()]

    def test_a_step_holds_at_most_one_earlier_sample_graph(self, small_vocab, monkeypatch):
        # building the whole batch's graph kept every earlier term alive: 3
        # of them when the fourth sample's loss was built. Tensor has no weak
        # reference slot, so a term counts as alive while any array its op
        # nodes computed is
        terms, alive = [], []

        def tracking_loss(*args):
            alive.append(sum(any(ref() is not None for ref in refs) for refs in terms))
            term = _sample_loss(*args)
            terms.append([weakref.ref(node.data) for node in taped_ops(term)
                          if isinstance(node.data, np.ndarray)])
            return term

        monkeypatch.setattr(generator_train, "_sample_loss", tracking_loss)
        model, bank = make_model(5), make_bank(5)
        clf = DomainClassifier.init(CFG.model_dim, Rng(5, ("c",)))
        train_generator(self._samples(small_vocab), model, bank, clf, CurriculumSchedule(),
                        Rng(5, ("t",)), GeneratorTrainConfig(steps=3, batch_size=4))
        assert len(alive) == 12
        assert max(alive) <= 1

    def test_log_lines_carry_schedule_state(self, small_vocab):
        model, bank = make_model(3), make_bank(3)
        clf = DomainClassifier.init(CFG.model_dim, Rng(3, ("c",)))
        rows = []
        cfg = GeneratorTrainConfig(steps=4, batch_size=2)
        train_generator(self._samples(small_vocab), model, bank, clf,
                        CurriculumSchedule(), Rng(3, ("t",)), cfg,
                        log_fn=rows.append)
        assert len(rows) == 4
        for i, row in enumerate(rows):
            assert row["step"] == i
            assert row["level"] in (1, 2, 3)
            assert 0.0 <= row["tau"] <= 1.0
            assert np.isfinite(row["loss"])
            assert np.isfinite(row["grad_norm"])


def taped_ops(loss: Tensor) -> list[Tensor]:
    """Non-leaf nodes of the tape reachable from ``loss``: those with a backward."""
    seen, stack, ops = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            ops.append(node)
        stack.extend(node._parents)
    return ops


class TestTapeSize:
    """Each encoder sublayer tapes one node, as do layer norm, softmax, the
    cross entropies, attention and the adapter merge. Per op, a generator
    sample taped 122 nodes and an encoder call 53 (54 causal); with the fused
    primitives but per-op sublayers, 40 and 24."""

    def test_generator_sample(self):
        model, bank = make_model(), make_bank()
        clf = DomainClassifier.init(CFG.model_dim, Rng(0, ("c",)))
        sample = GeneratorSample(id="s", description_ids=[5, 6, 7, 8], claim_ids=[9, 10, 11],
                                 domain_label="software")
        count = len(taped_ops(_sample_loss(sample, model, bank, clf)))
        assert count <= 0.6 * 40
        assert count == 20

    @pytest.mark.parametrize("causal", [False, True])
    def test_encoder_call(self, causal):
        model = make_model()
        count = len(taped_ops(encode_sequence([5, 6, 7, 8, 9], CFG, model.params, prefix="dec",
                                              causal=causal)))
        assert count <= 0.6 * 24
        # embedding lookup, + positions, then the attention and FFN sublayers
        assert count == 4
