"""Relationship heads: weights, scores, labels, and contrastive training."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimforge.numerics import NonFiniteError, Rng, Tensor, concat, scaled_dot_attention
from claimforge.similarity import (
    NUM_HEADS,
    RELATIONSHIP_GROUPS,
    RELATIONSHIP_ORDER,
    HeadBank,
    SimilarityReport,
    SimilarityTrainConfig,
    chunk_features,
    claim_features,
    head_scores,
    head_weights,
    similarity,
    train_similarity,
)
from claimforge.similarity.heads import group_masses_from_weights, label_from_masses
from claimforge.similarity.train import _batch_loss
from claimforge.textcore import EncoderConfig, init_encoder_params, encode_sequence, mean_pool
from claimforge.training import contrastive_loss

DIM = 16


def make_bank(seed=0, head_dim=8):
    return HeadBank.init(DIM, Rng(seed, ("bank",)), head_dim=head_dim)


def scores_of(claim: np.ndarray, doc: np.ndarray, projections: np.ndarray) -> np.ndarray:
    """``head_scores`` of raw (n, DIM) claim and doc states."""
    return head_scores(claim_features(claim, projections), chunk_features(doc, projections))


def softmax_np(x):
    e = np.exp(x - x.max())
    return e / e.sum()


class TestHeadWeights:
    def test_simplex_1000_random_inputs(self):
        bank = make_bank()
        rng = Rng(1, ("simplex",))
        for _ in range(1000):
            w = head_weights(Tensor(rng.normal((DIM,))), Tensor(rng.normal((DIM,))),
                             bank).data
            assert w.shape == (NUM_HEADS,)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_zero_phi_gives_uniform(self):
        bank = make_bank()
        for name in ("sim/phi/w1", "sim/phi/b1", "sim/phi/w2", "sim/phi/b2"):
            bank.params[name].data = np.zeros_like(bank.params[name].data)
        w = head_weights(Tensor(np.ones(DIM)), Tensor(np.ones(DIM)), bank).data
        np.testing.assert_allclose(w, np.full(NUM_HEADS, 0.125), atol=1e-15)

    def test_matches_mlp_forward_oracle(self):
        bank = make_bank(seed=0)
        rng = Rng(2, ("oracle",))
        c, d = rng.normal((DIM,)), rng.normal((DIM,))
        w = head_weights(Tensor(c), Tensor(d), bank).data

        x = np.concatenate([c, d, c * d])
        h = np.maximum(x @ bank.params["sim/phi/w1"].data
                       + bank.params["sim/phi/b1"].data, 0.0)
        logits = h @ bank.params["sim/phi/w2"].data + bank.params["sim/phi/b2"].data
        np.testing.assert_allclose(w, softmax_np(logits), atol=1e-10)

    def test_dim_mismatch_rejected(self):
        bank = make_bank()
        with pytest.raises(ValueError):
            head_weights(Tensor(np.ones(DIM + 1)), Tensor(np.ones(DIM)), bank)


class TestHeadScore:
    def test_identical_chunks_identity_projections_score_one(self):
        bank = HeadBank.init(DIM, Rng(0, ("b",)), head_dim=DIM)
        eye = np.eye(DIM)
        for proj in ("wq", "wk", "wv"):
            bank.params[f"sim/h1/{proj}"].data = eye.copy()
        # attended output is a convex recombination of the same value rows;
        # with V == Q == K the pooled vectors line up exactly when the chunk
        # is a single repeated row
        row = np.tile(Rng(4, ("r",)).normal((1, DIM)), (3, 1))
        assert abs(scores_of(row, row, bank.stacked_projections())[0] - 1.0) < 1e-10

    def test_orthogonal_pools_score_zero(self):
        bank = HeadBank.init(DIM, Rng(0, ("b",)), head_dim=DIM)
        for proj in ("wq", "wk", "wv"):
            bank.params[f"sim/h1/{proj}"].data = np.eye(DIM)
        q = np.zeros((1, DIM)); q[0, 0] = 1.0
        v = np.zeros((1, DIM)); v[0, 1] = 1.0
        # single doc row: attended == projected doc value == e1, query pool e0
        assert abs(scores_of(q, v, bank.stacked_projections())[0]) < 1e-12

    def test_matches_brute_force_oracle(self):
        bank = make_bank(seed=0)
        rng = Rng(5, ("pair",))
        claim = rng.normal((4, DIM))
        doc = rng.normal((4, DIM))
        got = scores_of(claim, doc, bank.stacked_projections())
        for h in range(1, NUM_HEADS + 1):
            q = claim @ bank.params[f"sim/h{h}/wq"].data
            k = doc @ bank.params[f"sim/h{h}/wk"].data
            v = doc @ bank.params[f"sim/h{h}/wv"].data
            attended = np.zeros_like(q)
            for i in range(q.shape[0]):
                scores = q[i] @ k.T / math.sqrt(q.shape[1])
                w = softmax_np(scores)
                attended[i] = w @ v
            a, b = attended.mean(0), q.mean(0)
            expected = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert abs(got[h - 1] - expected) < 1e-10

    def test_empty_states_error(self):
        projections = make_bank().stacked_projections()
        with pytest.raises(ValueError, match="empty states"):
            claim_features(np.zeros((0, DIM)), projections)
        with pytest.raises(ValueError, match="empty states"):
            chunk_features(np.zeros((0, DIM)), projections)


def per_head_reference(claim: np.ndarray, doc: np.ndarray, bank: HeadBank) -> np.ndarray:
    """One head at a time through the autodiff ops, as scoring was done per head."""
    out = []
    for h in range(1, NUM_HEADS + 1):
        q = Tensor(claim) @ bank.params[f"sim/h{h}/wq"]
        k = Tensor(doc) @ bank.params[f"sim/h{h}/wk"]
        v = Tensor(doc) @ bank.params[f"sim/h{h}/wv"]
        attended, _ = scaled_dot_attention(q, k, v)
        a, b = mean_pool(attended), mean_pool(q)
        if np.linalg.norm(a.data) < 1e-12 or np.linalg.norm(b.data) < 1e-12:
            out.append(0.0)
        else:
            out.append(((a * b).sum() / ((a * a).sum().sqrt() * (b * b).sum().sqrt())).item())
    return np.array(out)


class TestHeadScores:
    @pytest.mark.parametrize("head_dim", [8, 64])
    @given(seed=st.integers(0, 2**31 - 1), n_claim=st.integers(1, 7),
           n_doc=st.integers(1, 7), scale=st.sampled_from([1e-3, 1.0, 30.0]))
    @settings(max_examples=25, deadline=None)
    def test_equals_per_head_reference_exactly(self, head_dim, seed, n_claim, n_doc, scale):
        bank = make_bank(seed=seed % 1000, head_dim=head_dim)
        rng = Rng(seed, ("states",))
        claim = rng.normal((n_claim, DIM), scale)
        doc = rng.normal((n_doc, DIM), scale)
        got = scores_of(claim, doc, bank.stacked_projections())
        assert got.shape == (NUM_HEADS,)
        assert np.array_equal(got, per_head_reference(claim, doc, bank))

    @pytest.mark.parametrize("head_dim", [8, 64])
    def test_zero_norm_pools_score_zero(self, head_dim):
        bank = make_bank(seed=3, head_dim=head_dim)
        rng = Rng(9, ("zero",))
        doc = rng.normal((3, DIM))
        # zero claim states: every pooled query is zero, so every head scores 0
        zero = scores_of(np.zeros((2, DIM)), doc, bank.stacked_projections())
        assert np.array_equal(zero, np.zeros(NUM_HEADS))
        # a zero query projection zeroes one head and leaves the others alone
        bank.params["sim/h3/wq"].data = np.zeros((DIM, head_dim))
        claim = rng.normal((2, DIM))
        got = scores_of(claim, doc, bank.stacked_projections())
        assert got[2] == 0.0
        assert np.array_equal(got, per_head_reference(claim, doc, bank))

    def test_stacked_projections_follow_named_parameters(self):
        bank = make_bank(seed=1)
        stacked = bank.stacked_projections()
        assert stacked.shape == (3, NUM_HEADS, DIM, 8)
        for p, proj in enumerate(("wq", "wk", "wv")):
            for h in range(1, NUM_HEADS + 1):
                assert np.array_equal(stacked[p, h - 1], bank.params[f"sim/h{h}/{proj}"].data)

    def test_stacked_projections_hold_the_weights_once(self):
        bank = make_bank(seed=2)
        before = {name: t.data.copy() for name, t in bank.params.items()}
        stacked = bank.stacked_projections()
        assert bank.stacked_projections() is stacked
        for p, proj in enumerate(("wq", "wk", "wv")):
            for h in range(1, NUM_HEADS + 1):
                head = bank.params[f"sim/h{h}/{proj}"].data
                assert np.shares_memory(head, stacked)
                assert np.array_equal(head, before[f"sim/h{h}/{proj}"])
                assert np.array_equal(stacked[p, h - 1], head)

    def test_a_rebound_head_shows_on_the_next_call(self):
        # an optimizer step or a checkpoint load assigns each head a new array
        bank = make_bank(seed=3)
        stacked = bank.stacked_projections()
        new = np.full((DIM, 8), 0.5)
        bank.params["sim/h3/wk"].data = new
        again = bank.stacked_projections()
        assert again is not stacked
        assert np.array_equal(again[1, 2], new)
        assert np.array_equal(again[0, 0], stacked[0, 0])
        assert np.shares_memory(bank.params["sim/h3/wk"].data, again)


def per_pair_head_scores(claim: np.ndarray, doc: np.ndarray,
                         projections: np.ndarray) -> np.ndarray:
    """Head scores as the per-pair path computed them, projecting both texts
    for every pair."""
    if claim.shape[0] == 0 or doc.shape[0] == 0:
        raise ValueError("empty states")
    wq, wk, wv = projections
    q = claim @ wq
    k = doc @ wk
    v = doc @ wv
    scores = (q @ np.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    attended = (e / e.sum(axis=-1, keepdims=True)) @ v
    n = q.shape[1]
    a = attended.sum(axis=1) * (1.0 / n)
    b = q.sum(axis=1) * (1.0 / n)
    norm_a = np.sqrt((a * a).sum(axis=-1))
    norm_b = np.sqrt((b * b).sum(axis=-1))
    out = np.zeros(len(q))
    ok = (norm_a >= 1e-12) & (norm_b >= 1e-12)
    out[ok] = (a * b).sum(axis=-1)[ok] / (norm_a * norm_b)[ok]
    return out


def per_pair_similarity(claim_chunk_id: str, doc_chunk_id: str, claim: Tensor, doc: Tensor,
                        bank: HeadBank) -> SimilarityReport:
    """The report as the per-pair path built it: autodiff ``head_weights`` over
    ``mean_pool`` of both texts, and ``per_pair_head_scores``."""
    w = head_weights(mean_pool(claim), mean_pool(doc), bank).data
    s = per_pair_head_scores(claim.data, doc.data, bank.stacked_projections())
    masses = group_masses_from_weights(w)
    return SimilarityReport(claim_chunk_id, doc_chunk_id, [float(x) for x in s],
                            [float(x) for x in w], float(np.dot(w, s)),
                            label_from_masses(masses), masses)


class TestFeaturePathEqualsPerPairPath:
    @pytest.mark.parametrize("head_dim", [8, 64])
    @given(seed=st.integers(0, 2**31 - 1), n_claim=st.integers(1, 7),
           n_doc=st.integers(1, 7), scale=st.sampled_from([1e-3, 1.0, 30.0]),
           zero_query=st.sampled_from([None, "states", "head"]))
    @settings(max_examples=25, deadline=None)
    def test_reports_equal(self, head_dim, seed, n_claim, n_doc, scale, zero_query):
        bank = make_bank(seed=seed % 1000, head_dim=head_dim)
        rng = Rng(seed, ("feature-path",))
        claim = rng.normal((n_claim, DIM), scale)
        docs = [rng.normal((n_doc, DIM), scale), rng.normal((n_doc + 1, DIM), scale)]
        if zero_query == "states":
            claim = np.zeros_like(claim)  # every pooled query is zero
        elif zero_query == "head":
            bank.params["sim/h5/wq"].data = np.zeros((DIM, head_dim))  # one pooled query is zero
        projections = bank.stacked_projections()
        features = claim_features(claim, projections)
        for doc in docs:
            want = per_pair_similarity("c", "d", Tensor(claim), Tensor(doc), bank)
            got = similarity("c", "d", features, chunk_features(doc, projections), bank)
            assert got == want
            # raw states go through the same feature builders
            assert similarity("c", "d", Tensor(claim), Tensor(doc), bank) == want
        if zero_query is not None:
            assert want.head_scores[4] == 0.0

    def test_golden_fixtures(self):
        from claimforge.numerics import no_grad
        from claimforge.pipeline import PipelineConfig, read_corpus
        from claimforge.pipeline.run import (
            chunk_record, claim_similarities, load_models, record_texts,
        )
        data = Path(__file__).parent / "data"
        records = read_corpus(data / "golden_corpus.jsonl")
        prior_art = read_corpus(data / "golden_prior_art.jsonl")
        # the geometry tests/data/regenerate_golden.py writes the golden report with
        config = PipelineConfig(model_dim=16, num_heads=2, head_dim=8, num_layers=1,
                                max_seq_len=256, max_gen_len=8, top_k=3)
        models = load_models(record_texts(records + prior_art), config, seed=0)
        memo = {}
        pairs = 0
        with no_grad():
            for rec in records:
                want = []
                for pa in prior_art:
                    pa_doc, _, _, chunks = chunk_record(pa, models.vocab)
                    for ci, text in enumerate(rec.claims):
                        claim = encode_sequence(models.vocab.encode_text(text),
                                                models.cfg, models.enc_params)
                        for c in chunks:
                            doc = encode_sequence(pa_doc.tokens[c.start_token:c.end_token],
                                                  models.cfg, models.enc_params)
                            want.append(per_pair_similarity(
                                f"{rec.id}/claim{ci}",
                                f"{pa.id}/[{c.start_token},{c.end_token})",
                                claim, doc, models.head_bank))
                assert claim_similarities(rec, prior_art, models, memo) == want
                pairs += len(want)
        assert pairs > 0


class TestSimilarityReport:
    def test_constant_head_scores_collapse(self):
        bank = make_bank()
        rng = Rng(6, ("c",))
        claim, doc = Tensor(rng.normal((3, DIM))), Tensor(rng.normal((3, DIM)))
        report = similarity("c", "d", claim, doc, bank)
        w = np.array(report.head_weights)
        s = np.array(report.head_scores)
        assert abs(report.similarity - float(w @ s)) < 1e-12

    def test_label_argmax(self):
        w = np.array([0.45, 0.45, 0.02, 0.02, 0.02, 0.02, 0.01, 0.01])
        masses = group_masses_from_weights(w)
        assert label_from_masses(masses) == "equivalence"
        w = np.array([0.01, 0.01, 0.02, 0.02, 0.45, 0.45, 0.02, 0.02])
        assert label_from_masses(group_masses_from_weights(w)) == "contradiction"

    def test_label_tie_break_order(self):
        masses = {name: 0.25 for name in RELATIONSHIP_ORDER}
        assert label_from_masses(masses) == RELATIONSHIP_ORDER[0]

    def test_label_invariant_under_score_rescaling(self):
        bank = make_bank()
        rng = Rng(7, ("r",))
        claim, doc = Tensor(rng.normal((3, DIM))), Tensor(rng.normal((3, DIM)))
        r1 = similarity("c", "d", claim, doc, bank)
        # the label depends only on head weights, never on score magnitudes:
        # other score projections (new wq and wk, scaled wv) move every score
        for h in range(1, NUM_HEADS + 1):
            p = {proj: bank.params[f"sim/h{h}/{proj}"] for proj in ("wq", "wk", "wv")}
            p["wq"].data = rng.normal(p["wq"].shape)
            p["wk"].data = rng.normal(p["wk"].shape)
            p["wv"].data = p["wv"].data * 3.0
        r2 = similarity("c", "d", claim, doc, bank)
        assert not np.allclose(r1.head_scores, r2.head_scores)
        assert r2.relationship_label == r1.relationship_label
        assert r2.group_masses == r1.group_masses

    def test_bounded_similarity(self):
        bank = make_bank()
        rng = Rng(8, ("b",))
        for _ in range(20):
            claim = Tensor(rng.normal((3, DIM)))
            doc = Tensor(rng.normal((3, DIM)))
            r = similarity("c", "d", claim, doc, bank)
            assert abs(r.similarity) <= max(abs(s) for s in r.head_scores) + 1e-12
            assert abs(r.similarity) <= 1.0 + 1e-12

    def test_composition_oracle_20_seeded_pairs(self):
        bank = make_bank(seed=0)
        for trial in range(20):
            rng = Rng(trial, ("composition",))
            claim, doc = rng.normal((4, DIM)), rng.normal((3, DIM))
            report = similarity("c", "d", Tensor(claim), Tensor(doc), bank)

            # independent composition: MLP weights oracle + attention oracle
            x = np.concatenate([claim.mean(0), doc.mean(0), claim.mean(0) * doc.mean(0)])
            h = np.maximum(x @ bank.params["sim/phi/w1"].data
                           + bank.params["sim/phi/b1"].data, 0.0)
            w = softmax_np(h @ bank.params["sim/phi/w2"].data
                           + bank.params["sim/phi/b2"].data)
            scores = []
            for hd in range(1, NUM_HEADS + 1):
                q = claim @ bank.params[f"sim/h{hd}/wq"].data
                k = doc @ bank.params[f"sim/h{hd}/wk"].data
                v = doc @ bank.params[f"sim/h{hd}/wv"].data
                attended = np.array([softmax_np(q[i] @ k.T / math.sqrt(q.shape[1])) @ v
                                     for i in range(q.shape[0])])
                a, b = attended.mean(0), q.mean(0)
                scores.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            scores = np.array(scores)
            np.testing.assert_allclose(report.head_weights, w, atol=1e-10)
            np.testing.assert_allclose(report.head_scores, scores, atol=1e-10)
            assert abs(report.similarity - float(w @ scores)) < 1e-10
            masses = group_masses_from_weights(w)
            assert report.relationship_label == label_from_masses(masses)


    @pytest.mark.parametrize("where", ["pooled", "q"])
    def test_non_finite_features_raise_and_report_nothing(self, where):
        # pooled states reach the head-weight softmax, the queries the attention one
        bank = make_bank()
        projections = bank.stacked_projections()
        rng = Rng(9, ("non-finite",))
        claim = claim_features(rng.normal((3, DIM)), projections)
        doc = chunk_features(rng.normal((4, DIM)), projections)
        bad = getattr(claim, where).copy()
        bad.flat[0] = np.nan
        with pytest.raises(NonFiniteError, match="non-finite value in softmax input"):
            similarity("c", "d", dataclasses.replace(claim, **{where: bad}), doc, bank)


class TestContrastiveLoss:
    def test_uniform_similarities_give_ln_n(self):
        for n in (2, 4, 7):
            sims = Tensor(np.full((n, n), 0.3))
            assert abs(contrastive_loss(sims, 1.0).item() - math.log(n)) < 1e-12

    def test_single_pair_zero_loss(self):
        assert abs(contrastive_loss(Tensor([[0.9]]), 1.0).item()) < 1e-15

    def test_two_pair_softplus_case(self):
        sims = Tensor([[0.9, 0.1], [0.1, 0.9]])
        expected = math.log(1.0 + math.exp(-0.8))
        assert abs(contrastive_loss(sims, 1.0).item() - expected) < 1e-12

    def test_temperature_validated(self):
        with pytest.raises(ValueError):
            contrastive_loss(Tensor([[1.0]]), 0.0)


class TestAuxiliarySupervision:
    def test_group_mass_exceeds_half_after_training(self, small_cfg, small_vocab):
        enc = init_encoder_params(len(small_vocab), small_cfg, Rng(0, ("enc",)))
        bank = HeadBank.init(small_cfg.model_dim, Rng(0, ("bank",)), head_dim=8)

        # 40 pairs per relationship; each label has its own token signature so
        # the head-weight MLP can learn to route mass onto its head pair
        rng = Rng(0, ("aux",))
        pairs = []
        label_words = {
            "equivalence": "w0 w1", "improvement": "w2 w3",
            "contradiction": "w4 w5", "technical": "w6 w7",
        }
        for label in RELATIONSHIP_ORDER:
            for i in range(40):
                extra = f"w{8 + int(rng.integers(0, 30))}"
                claim_ids = small_vocab.encode_text(f"{label_words[label]} {extra}")
                doc_ids = small_vocab.encode_text(f"{extra} {label_words[label]}")
                pairs.append((claim_ids, doc_ids, label))
        rng.shuffle(pairs)

        cfg = SimilarityTrainConfig(epochs=6, lr=1e-2, aux_weight=2.0)
        train_similarity(pairs, small_cfg, enc, bank, cfg)

        from claimforge.textcore import mean_pool
        masses = {label: [] for label in RELATIONSHIP_ORDER}
        for claim_ids, doc_ids, label in pairs:
            cp = mean_pool(encode_sequence(claim_ids, small_cfg, enc))
            dp = mean_pool(encode_sequence(doc_ids, small_cfg, enc))
            w = head_weights(cp, dp, bank).data
            masses[label].append(sum(w[h - 1] for h in RELATIONSHIP_GROUPS[label]))
        for label, vals in masses.items():
            assert np.mean(vals) > 0.5, f"{label}: mean mass {np.mean(vals):.3f}"


class TestTrainSimilarity:
    def test_loss_decreases(self, small_cfg, small_vocab):
        enc = init_encoder_params(len(small_vocab), small_cfg, Rng(1, ("enc",)))
        bank = HeadBank.init(small_cfg.model_dim, Rng(1, ("bank",)), head_dim=8)
        rng = Rng(1, ("pairs",))
        pairs = []
        for i in range(8):
            claim = " ".join(f"w{int(rng.integers(0, 40))}" for _ in range(4))
            doc = " ".join(f"w{int(rng.integers(0, 40))}" for _ in range(4))
            pairs.append((small_vocab.encode_text(claim),
                          small_vocab.encode_text(doc), None))
        history = train_similarity(pairs, small_cfg, enc, bank,
                                   SimilarityTrainConfig(epochs=6, lr=1e-3))
        assert history[-1] < history[0]

    def test_log_fn_gets_every_step(self, small_cfg, small_vocab):
        def run(log_fn):
            enc = init_encoder_params(len(small_vocab), small_cfg, Rng(2, ("enc",)))
            bank = HeadBank.init(small_cfg.model_dim, Rng(2, ("bank",)), head_dim=8)
            pairs = [(small_vocab.encode_text(f"w{i} w{i + 1}"),
                      small_vocab.encode_text(f"w{i + 2} w{i + 3} w{i + 4}"),
                      RELATIONSHIP_ORDER[i % 4]) for i in range(6)]
            return train_similarity(pairs, small_cfg, enc, bank,
                                    SimilarityTrainConfig(epochs=2, batch_size=4),
                                    log_fn=log_fn)

        rows = []
        history = run(rows.append)
        assert history == run(None)  # logging changes no loss
        assert [row["step"] for row in rows] == list(range(len(history))) == [0, 1, 2, 3]
        assert [row["loss"] for row in rows] == history
        assert all(set(row) == {"step", "loss", "grad_norm"} for row in rows)
        assert all(math.isfinite(row["grad_norm"]) and row["grad_norm"] > 0 for row in rows)

    @pytest.mark.parametrize("setting, value", [
        ("temperature", math.inf), ("temperature", math.nan),
        ("aux_weight", math.inf), ("aux_weight", math.nan),
    ])
    def test_non_finite_setting_rejected_naming_it(self, small_cfg, small_vocab, setting, value):
        # temperature = inf trained without an error: every logit 0, a loss of
        # ln 2 at every step
        enc = init_encoder_params(len(small_vocab), small_cfg, Rng(1, ("enc",)))
        bank = HeadBank.init(small_cfg.model_dim, Rng(1, ("bank",)), head_dim=8)
        pairs = [(small_vocab.encode_text(f"w{i} w{i + 1}"),
                  small_vocab.encode_text(f"w{i + 2} w{i + 3}"), RELATIONSHIP_ORDER[i % 4])
                 for i in range(4)]
        with pytest.raises(ValueError, match=f"^{setting} must be .*finite, got {value}"):
            train_similarity(pairs, small_cfg, enc, bank,
                             SimilarityTrainConfig(epochs=1, **{setting: value}))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_1_rejected_naming_it(self, small_cfg, small_vocab, batch_size):
        # batch_size = 0 failed inside range() with a message naming no setting
        enc = init_encoder_params(len(small_vocab), small_cfg, Rng(1, ("enc",)))
        bank = HeadBank.init(small_cfg.model_dim, Rng(1, ("bank",)), head_dim=8)
        pairs = [(small_vocab.encode_text(f"w{i} w{i + 1}"),
                  small_vocab.encode_text(f"w{i + 2} w{i + 3}"), None) for i in range(4)]
        with pytest.raises(ValueError, match=f"^batch_size must be at least 1, got {batch_size}"):
            train_similarity(pairs, small_cfg, enc, bank,
                             SimilarityTrainConfig(epochs=1, batch_size=batch_size))

    def test_too_few_pairs_rejected(self, small_cfg, small_vocab):
        enc = init_encoder_params(len(small_vocab), small_cfg, Rng(1, ("enc",)))
        bank = HeadBank.init(small_cfg.model_dim, Rng(1, ("bank",)), head_dim=8)
        with pytest.raises(ValueError):
            train_similarity([([5], [6], None)], small_cfg, enc, bank)


# -- the per-pair training step the batched one replaced: the loss oracle -----


def per_pair_batch_loss(batch, cfg, enc, bank, train_cfg):
    """One step's loss as the per-pair trainer built it: an encoder call per
    text, the pooled rows stacked, a head-weight pass per labeled pair."""
    claim_pools = [mean_pool(encode_sequence(c, cfg, enc)) for c, _, _ in batch]
    doc_pools = [mean_pool(encode_sequence(d, cfg, enc)) for _, d, _ in batch]

    def unit_rows(pools):
        z = concat([p.reshape(1, -1) for p in pools], axis=0)
        return z / ((z * z).sum(axis=1, keepdims=True) + 1e-12).sqrt()

    loss = contrastive_loss(unit_rows(claim_pools) @ unit_rows(doc_pools).T,
                            train_cfg.temperature)
    aux_terms = []
    for (_, _, label), cp, dp in zip(batch, claim_pools, doc_pools):
        if label is not None:
            w = head_weights(cp, dp, bank)
            aux_terms.append(-(sum(w[h - 1] for h in RELATIONSHIP_GROUPS[label]) + 1e-12).log())
    if aux_terms:
        aux = aux_terms[0]
        for term in aux_terms[1:]:
            aux = aux + term
        loss = loss + (train_cfg.aux_weight / len(aux_terms)) * aux
    return loss


def loss_and_grads(build, params):
    for t in params.values():
        t.zero_grad()
    loss = build()
    loss.backward()
    return loss.item(), {n: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                         for n, t in params.items()}


BATCH_CFG = EncoderConfig(model_dim=DIM, num_heads=2, head_dim=8, num_layers=1, max_seq_len=64)
token_ids = st.lists(st.integers(5, 44), min_size=1, max_size=20)


class TestBatchLoss:
    """The similarity step encodes its batch in one padded call and runs the
    head-weight MLP once; its loss and gradients equal the per-pair step's."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6),
           st.lists(st.tuples(token_ids, token_ids, st.sampled_from((None,) + RELATIONSHIP_ORDER)),
                    min_size=2, max_size=8)
           # with every doc, or every claim, the same text, the in-batch loss
           # is constant: a stationary point, where every gradient is zero
           .filter(lambda batch: all(len({tuple(pair[i]) for pair in batch}) > 1
                                     for i in (0, 1))))
    def test_equals_the_per_pair_step(self, seed, batch):
        enc = init_encoder_params(45, BATCH_CFG, Rng(seed, ("enc",)))
        bank = make_bank(seed)
        params = {**enc, **{k: v for k, v in bank.params.items() if k.startswith("sim/phi/")}}
        train_cfg = SimilarityTrainConfig()
        loss, grads = loss_and_grads(
            lambda: _batch_loss(batch, BATCH_CFG, enc, bank, train_cfg), params)
        want_loss, want = loss_and_grads(
            lambda: per_pair_batch_loss(batch, BATCH_CFG, enc, bank, train_cfg), params)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        # relative to the step's largest gradient entry: a parameter whose
        # gradient cancels to nearly zero keeps the rounding of its terms
        scale = max(np.max(np.abs(g)) for g in want.values())
        for name in params:
            assert np.max(np.abs(grads[name] - want[name])) <= 1e-12 * scale, name

    def test_unknown_label_rejected(self):
        enc = init_encoder_params(45, BATCH_CFG, Rng(0, ("enc",)))
        batch = [([5, 6], [7], None), ([8], [9, 10], "synonym")]
        with pytest.raises(ValueError, match="unknown relationship label 'synonym'"):
            _batch_loss(batch, BATCH_CFG, enc, make_bank(), SimilarityTrainConfig())
