"""Tokenizer, sentence boundaries, vocabulary, and encoder behavior."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimforge.numerics import (Rng, Tensor, attention_sublayer, ffn_sublayer, layer_norm, no_grad,
                                 scaled_dot_attention)
from claimforge.numerics.gradcheck import check_op
from claimforge.textcore import (
    BOS_ID,
    EOS_ID,
    NUM_RESERVED,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    EncoderConfig,
    KVCache,
    Vocabulary,
    encode_sequence,
    init_encoder_params,
    key_padding_mask,
    mean_pool,
    sentence_boundaries,
    tokenize,
)
from claimforge.textcore.encoder import _positional_encoding_cached

FIXTURE_40_WORDS = (
    "The rotary valve assembly includes a housing, a shaft, and a bearing "
    "mounted therein. Each port communicates with the chamber through a "
    "passage formed in the body. The spring biases the plug toward the seat "
    "so that flow stops when pressure drops."
)


def scan_tokens(text: str) -> list[str]:
    """Independent character-scan segmenter (no regex)."""
    out, cur = [], []
    for ch in text.lower():
        if ch.isspace():
            if cur:
                out.append("".join(cur))
                cur = []
        elif ("a" <= ch <= "z") or ("0" <= ch <= "9"):
            cur.append(ch)
        else:
            if cur:
                out.append("".join(cur))
                cur = []
            out.append(ch)
    if cur:
        out.append("".join(cur))
    return out


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_split(self):
        assert tokenize("A claim, comprising:") == ["a", "claim", ",", "comprising", ":"]

    def test_forty_word_fixture_matches_character_scan(self):
        expected = scan_tokens(FIXTURE_40_WORDS)
        assert tokenize(FIXTURE_40_WORDS) == expected

    def test_lowercasing(self):
        assert tokenize("FIG. 3") == ["fig", ".", "3"]


def char_scan_boundaries(text: str) -> list[int]:
    """The reference for ``sentence_boundaries``: the same rules, with the
    terminators found by a per-character scan."""
    if not text:
        return []
    boundaries: set[int] = set()
    claim_dots: set[int] = set()
    line_start = 0
    for line in text.splitlines(keepends=True):
        m = re.match(r"(\d+)\.", line)
        if m:
            if line_start > 0:
                boundaries.add(line_start)
            claim_dots.add(line_start + m.end() - 1)
        line_start += len(line)
    for i, ch in enumerate(text):
        if ch in ".;?" and i not in claim_dots:
            boundaries.add(i + 1)
    for m in re.finditer(r"\n[ \t]*\n+", text):
        boundaries.add(m.end())
    boundaries.add(len(text))
    return sorted(b for b in boundaries if 0 < b <= len(text))


SEGMENT_PIECES = st.sampled_from([
    ".", ";", "?", "..", " ", "word", "Él", "straße", "1. ", "23.", "7", "\n", "\r\n", "\r",
    "\x0b", "\u2028", "\n\n", "\n \t\n", "\n12. claim",
])


class TestSentenceBoundaries:
    def test_two_terminators(self):
        assert sentence_boundaries("One. Two.") == [4, 9]

    def test_no_terminators(self):
        text = "no terminators here"
        assert sentence_boundaries(text) == [len(text)]

    def test_empty(self):
        assert sentence_boundaries("") == []

    def test_final_offset_always_text_length(self):
        for text in ("a. b", "x", "one; two? three"):
            assert sentence_boundaries(text)[-1] == len(text)

    def test_fixture_patent_hand_annotated(self):
        # 12 description sentences and 3 numbered claims -> 15 boundaries.
        # Sentences 1..11 end at their periods; sentence 12 has no terminator
        # and ends at the paragraph break, which coincides with claim 1's
        # line start; claims 2 and 3 add their line starts; the text end
        # closes claim 3. Claim numbering dots are not terminators.
        sentences = [f"Sentence number {i} describes the device." for i in range(11)]
        sentences.append("The claimed subject matter is recited below")
        description = " ".join(sentences)
        claims = [
            "1. A device comprising a frame",
            "2. The device of preceding item, wherein the frame is steel",
            "3. The device of preceding item, further comprising a lid",
        ]
        text = description + "\n\n" + "\n".join(claims)

        expected = []
        pos = 0
        for s in sentences[:-1]:
            pos += len(s)
            expected.append(pos)  # offset just past the terminating period
            pos += 1  # the separating space
        start_claims = text.index("1. A device")
        expected.append(start_claims)  # sentence 12 end == claim 1 start
        prev = start_claims
        for c in claims[:-1]:
            prev += len(c) + 1
            expected.append(prev)
        expected.append(len(text))
        assert len(expected) == 15
        assert sentence_boundaries(text) == sorted(expected)

    def test_claim_number_dot_not_terminator(self):
        text = "1. A widget"
        assert sentence_boundaries(text) == [len(text)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(SEGMENT_PIECES, st.text(alphabet="a.;?é\n\r1 ", max_size=4)),
                    max_size=30).map("".join))
    def test_equals_the_character_scan(self, text):
        assert sentence_boundaries(text) == char_scan_boundaries(text)


class TestVocabulary:
    def test_reserved_ids(self):
        assert (PAD_ID, UNK_ID, BOS_ID, EOS_ID, SEP_ID) == (0, 1, 2, 3, 4)

    def test_round_trip(self):
        vocab = Vocabulary.build(["alpha beta gamma alpha"], cap=64)
        ids = vocab.encode_text("alpha gamma beta")
        assert vocab.decode(ids) == ["alpha", "gamma", "beta"]
        assert all(i >= NUM_RESERVED for i in ids)

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary.build(["alpha"], cap=64)
        assert vocab.encode_text("zeta") == [UNK_ID]

    def test_frequency_then_lexicographic_order(self):
        vocab = Vocabulary.build(["b b a a c"], cap=64)
        assert vocab.decode([NUM_RESERVED, NUM_RESERVED + 1, NUM_RESERVED + 2]) == \
            ["a", "b", "c"]

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            Vocabulary([f"t{i}" for i in range(10)], cap=10)

    def test_save_load(self, tmp_path):
        vocab = Vocabulary.build(["gear shaft bearing gear"], cap=64)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path, cap=64)
        text = "gear bearing shaft"
        assert loaded.encode_text(text) == vocab.encode_text(text)

    def test_a_listed_reserved_name_keeps_its_reserved_id(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("<pad>\ngear\n", encoding="utf-8")
        vocab = Vocabulary.load(path)
        assert len(vocab) == NUM_RESERVED + 2
        assert vocab.token_id("<pad>") == PAD_ID
        assert vocab.encode(["<pad>", "gear", "<sep>", "zeta"]) == [PAD_ID, 6, SEP_ID, UNK_ID]
        assert vocab.token(5) == "<pad>"
        assert vocab.decode([np.int64(0), np.int64(6), np.int32(5)]) == ["<pad>", "gear", "<pad>"]
        vocab.save(tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text(encoding="utf-8") == "<pad>\ngear\n"
        again = Vocabulary.load(tmp_path / "again.txt")
        assert [again.token(i) for i in range(len(again))] == \
            [vocab.token(i) for i in range(len(vocab))]
        for bad in (-1, len(vocab), np.int64(-1), np.int64(len(vocab))):
            with pytest.raises(ValueError, match="out of range"):
                vocab.token(bad)


def sinusoid_positions(length: int, dim: int) -> np.ndarray:
    """Closed form: row p holds sin(p / 10000^(2i/dim)) at 2i and cos at 2i + 1."""
    pe = np.zeros((length, dim))
    for p in range(length):
        for i in range(dim // 2):
            angle = p / 10000.0 ** (2 * i / dim)
            pe[p, 2 * i] = math.sin(angle)
            pe[p, 2 * i + 1] = math.cos(angle)
    return pe


class TestEncoder:
    def test_config_validates_geometry(self):
        with pytest.raises(ValueError):
            EncoderConfig(model_dim=64, num_heads=8, head_dim=64)

    @pytest.mark.parametrize("dim", [16, 512])
    def test_position_rows_equal_the_full_tables(self, dim):
        # encode_sequence reads its rows from a table of the next power of two
        # rows at or above the last position, not from a max_seq_len table.
        # Without layers and with a zero embedding it returns those rows; a
        # cache of `offset` positions places the ids from there.
        cfg = EncoderConfig(model_dim=dim, num_heads=2, head_dim=dim // 2, num_layers=0,
                            max_seq_len=1024)
        params = {"enc/embed": Tensor(np.zeros((1, dim)))}
        full = _positional_encoding_cached(cfg.max_seq_len, dim)
        totals = [*range(1, 70), 127, 128, 129, 255, 256, 257, 511, 512, 513, 1000, 1023, 1024]
        for total in totals:
            for offset in sorted({0, 1, total // 2, total - 1} - {total}):
                past = np.zeros((2, offset, dim // 2))
                cache = KVCache([past], [past]) if offset else KVCache()
                with no_grad():
                    rows = encode_sequence([0] * (total - offset), cfg, params, causal=True,
                                           cache=cache)
                assert rows.data.tobytes() == full[offset:total].tobytes(), (offset, total)

    def test_zero_layer_weights_reduce_to_embeddings(self, small_cfg, small_vocab):
        params = init_encoder_params(len(small_vocab), small_cfg, Rng(0, ("z",)))
        for name, t in params.items():
            if "/attn/" in name or "/ffn/" in name:
                t.data = np.zeros_like(t.data)
        ids = small_vocab.encode_text("w0 w1 w2 w3")
        out = encode_sequence(ids, small_cfg, params)
        expected = params["enc/embed"].data[ids] + sinusoid_positions(
            len(ids), small_cfg.model_dim)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_seed0_brute_force_attention_oracle(self, small_cfg, small_vocab, small_enc):
        ids = small_vocab.encode_text("w0 w1 w2 w3 w4 w5 w6 w7")
        assert len(ids) == 8
        out = encode_sequence(ids, small_cfg, small_enc)

        # loop-based re-implementation of the single pre-norm block
        d, nh, hd = small_cfg.model_dim, small_cfg.num_heads, small_cfg.head_dim
        g = lambda n: small_enc[f"enc/{n}"].data
        x = g("embed")[ids] + sinusoid_positions(len(ids), d)

        def ln(mat, gain, bias, eps=1e-6):
            mu = mat.mean(axis=-1, keepdims=True)
            var = ((mat - mu) ** 2).mean(axis=-1, keepdims=True)
            return (mat - mu) / np.sqrt(var + eps) * gain + bias

        h = ln(x, g("l0/ln1/g"), g("l0/ln1/b"))
        q_all, k_all, v_all = h @ g("l0/attn/wq"), h @ g("l0/attn/wk"), h @ g("l0/attn/wv")
        merged = np.zeros_like(q_all)
        for head in range(nh):
            sl = slice(head * hd, (head + 1) * hd)
            q, k, v = q_all[:, sl], k_all[:, sl], v_all[:, sl]
            for i in range(len(ids)):
                scores = np.array([q[i] @ k[j] / np.sqrt(hd) for j in range(len(ids))])
                w = np.exp(scores - scores.max())
                w /= w.sum()
                merged[i, sl] = sum(w[j] * v[j] for j in range(len(ids)))
        x = x + merged @ g("l0/attn/wo")
        h = ln(x, g("l0/ln2/g"), g("l0/ln2/b"))
        inner = np.maximum(h @ g("l0/ffn/w1") + g("l0/ffn/b1"), 0.0)
        x = x + inner @ g("l0/ffn/w2") + g("l0/ffn/b2")

        np.testing.assert_allclose(out.data, x, atol=1e-10)

    def test_permutation_changes_output(self, small_cfg, small_vocab, small_enc):
        a = small_vocab.encode_text("w0 w1 w2")
        b = [a[1], a[0], a[2]]
        out_a = encode_sequence(a, small_cfg, small_enc).data
        out_b = encode_sequence(b, small_cfg, small_enc).data
        assert not np.allclose(out_a, out_b)

    def test_shape_contract_sampled_lengths(self, small_cfg, small_vocab, small_enc):
        for n in (1, 2, 7, 31, small_cfg.max_seq_len):
            ids = [NUM_RESERVED + (i % 30) for i in range(n)]
            out = encode_sequence(ids, small_cfg, small_enc)
            assert out.shape == (n, small_cfg.model_dim)

    def test_empty_sequence_error(self, small_cfg, small_enc):
        with pytest.raises(ValueError, match="empty sequence"):
            encode_sequence([], small_cfg, small_enc)

    def test_too_long_error(self, small_cfg, small_enc):
        with pytest.raises(ValueError, match="max_seq_len"):
            encode_sequence([5] * (small_cfg.max_seq_len + 1), small_cfg, small_enc)

    def test_out_of_range_id_error(self, small_cfg, small_vocab, small_enc):
        with pytest.raises(ValueError, match="vocabulary range"):
            encode_sequence([len(small_vocab) + 3], small_cfg, small_enc)

    def test_causal_mask_blocks_future(self, small_cfg, small_vocab, small_enc):
        # with causal attention, changing a later token leaves earlier
        # positions' states unchanged
        a = small_vocab.encode_text("w0 w1 w2 w3")
        b = list(a)
        b[-1] = small_vocab.encode_text("w9")[0]
        out_a = encode_sequence(a, small_cfg, small_enc, causal=True).data
        out_b = encode_sequence(b, small_cfg, small_enc, causal=True).data
        np.testing.assert_allclose(out_a[:-1], out_b[:-1], atol=1e-12)
        assert not np.allclose(out_a[-1], out_b[-1])

    def test_mean_pool(self, small_cfg, small_vocab, small_enc):
        ids = small_vocab.encode_text("w0 w1 w2")
        states = encode_sequence(ids, small_cfg, small_enc)
        np.testing.assert_allclose(mean_pool(states).data,
                                   states.data.mean(axis=0), atol=1e-12)


# -- the per-op encoder the fused sublayers replaced: the bits oracle ---------


def composite_split_heads(x, num_heads, head_dim):
    return x.reshape(x.shape[0], num_heads, head_dim).swapaxes(0, 1)


def composite_merge_heads(x):
    num_heads, length, head_dim = x.shape
    return x.swapaxes(0, 1).reshape(length, num_heads * head_dim)


def composite_extend_cache(cache, layer, k, v):
    if layer == len(cache.keys):
        cache.keys.append(k.data)
        cache.values.append(v.data)
    else:
        cache.keys[layer] = np.concatenate([cache.keys[layer], k.data], axis=1)
        cache.values[layer] = np.concatenate([cache.values[layer], v.data], axis=1)
    return Tensor(cache.keys[layer]), Tensor(cache.values[layer])


def composite_encode(ids, cfg, params, causal=False, cache=None):
    """``encode_sequence`` as it was: one taped node per op of each sublayer."""
    g = lambda name: params[f"enc/{name}"]
    offset = cache.length if cache is not None else 0
    total = offset + len(ids)
    positions = _positional_encoding_cached(cfg.max_seq_len, cfg.model_dim)[offset:total]
    x = g("embed")[np.asarray(ids)] + Tensor(positions)
    mask = np.triu(np.full((len(ids), total), -1e9), k=offset + 1) if causal else None
    for layer in range(cfg.num_layers):
        p = f"l{layer}"
        h = layer_norm(x, g(f"{p}/ln1/g"), g(f"{p}/ln1/b"))
        q = composite_split_heads(h @ g(f"{p}/attn/wq"), cfg.num_heads, cfg.head_dim)
        k = composite_split_heads(h @ g(f"{p}/attn/wk"), cfg.num_heads, cfg.head_dim)
        v = composite_split_heads(h @ g(f"{p}/attn/wv"), cfg.num_heads, cfg.head_dim)
        if cache is not None:
            k, v = composite_extend_cache(cache, layer, k, v)
        attended, _ = scaled_dot_attention(q, k, v, mask)
        x = x + composite_merge_heads(attended) @ g(f"{p}/attn/wo")
        h = layer_norm(x, g(f"{p}/ln2/g"), g(f"{p}/ln2/b"))
        inner = (h @ g(f"{p}/ffn/w1") + g(f"{p}/ffn/b1")).relu()
        x = x + inner @ g(f"{p}/ffn/w2") + g(f"{p}/ffn/b2")
    return x


FUSED_CFG = EncoderConfig(model_dim=8, num_heads=2, head_dim=4, num_layers=2, max_seq_len=16)


def random_encoder(seed: int) -> dict[str, Tensor]:
    """Encoder parameters with every gain, bias and weight drawn at random, so
    no layer norm is the identity and the relu masks are mixed."""
    rng = Rng(seed, ("fused-enc",))
    params = init_encoder_params(24, FUSED_CFG, rng)
    for t in params.values():
        t.data = rng.normal(t.data.shape, 0.5)
    return params


def encoder_grads(encode, ids, params, causal, seed):
    for t in params.values():
        t.zero_grad()
    w = Rng(seed, ("fused-loss",)).normal((len(ids), FUSED_CFG.model_dim))
    (encode(ids, FUSED_CFG, params, causal=causal) * Tensor(w)).sum().backward()
    return {name: t.grad for name, t in params.items()}


class TestFusedSublayers:
    """``encode_sequence`` tapes one node per sublayer and equals the per-op
    encoder bit for bit: forward, the KV-cached forward and every gradient."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.lists(st.integers(0, 23), min_size=1, max_size=9),
           st.booleans(), st.booleans())
    def test_forward_equals_the_composite(self, seed, ids, causal, grad):
        params = random_encoder(seed)
        for t in params.values():
            t.requires_grad = grad
        fused = encode_sequence(ids, FUSED_CFG, params, causal=causal)
        assert np.array_equal(fused.data, composite_encode(ids, FUSED_CFG, params, causal).data)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.lists(st.integers(0, 23), min_size=1, max_size=6),
           st.lists(st.lists(st.integers(0, 23), min_size=1, max_size=3), max_size=3))
    def test_cached_steps_equal_the_composite(self, seed, prefix, steps):
        # a prefix, then steps of one to three tokens at growing offsets,
        # each attending to the keys and values cached before it
        params = random_encoder(seed)
        fused_cache, ref_cache = KVCache(), KVCache()
        with no_grad():
            for ids in [prefix] + steps:
                fused = encode_sequence(ids, FUSED_CFG, params, prefix="enc", causal=True,
                                        cache=fused_cache)
                ref = composite_encode(ids, FUSED_CFG, params, causal=True, cache=ref_cache)
                assert np.array_equal(fused.data, ref.data)
        for mine, theirs in ((fused_cache.keys, ref_cache.keys),
                             (fused_cache.values, ref_cache.values)):
            assert all(np.array_equal(a, b) for a, b in zip(mine, theirs, strict=True))

    def test_single_token(self):
        params = random_encoder(3)
        for causal in (False, True):
            fused = encode_sequence([7], FUSED_CFG, params, causal=causal)
            assert np.array_equal(fused.data, composite_encode([7], FUSED_CFG, params, causal).data)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.lists(st.integers(0, 23), min_size=1, max_size=7),
           st.booleans())
    def test_gradients_equal_the_composite(self, seed, ids, causal):
        params = random_encoder(seed)
        fused = encoder_grads(encode_sequence, ids, params, causal, seed)
        ref = encoder_grads(composite_encode, ids, params, causal, seed)
        for name in params:
            assert np.array_equal(fused[name], ref[name]), name

    def test_one_node_per_sublayer(self):
        params = random_encoder(0)
        out = encode_sequence([3, 4, 5], FUSED_CFG, params, causal=True)
        # embedding lookup, + positions, then attention and FFN per layer
        seen, stack, nodes = set(), [out], 0
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes += node._backward is not None
                stack.extend(node._parents)
        assert nodes == 2 + 2 * FUSED_CFG.num_layers

    def test_cached_keys_and_values_carry_no_gradient(self):
        # as before the fusion: under a cache K and V are plain arrays, so
        # wk and wv get nothing from this call and wq does
        params = random_encoder(5)
        cache = KVCache()
        with no_grad():
            encode_sequence([1, 2], FUSED_CFG, params, causal=True, cache=cache)
        out = encode_sequence([3], FUSED_CFG, params, causal=True, cache=cache)
        out.sum().backward()
        assert params["enc/l1/attn/wk"].grad is None
        assert params["enc/l1/attn/wv"].grad is None
        assert np.abs(params["enc/l1/attn/wq"].grad).sum() > 0


# -- padded batches: one encoder call for several sequences --------------------


BATCH_CFG = EncoderConfig(model_dim=8, num_heads=2, head_dim=4, num_layers=2, max_seq_len=32)


def batched(ids, cfg, params, causal=False):
    """``encode_sequence`` of ``ids`` as a padded batch of one."""
    return encode_sequence(ids, cfg, params, lengths=[len(ids)])


def pooled_loss_and_grads(build, params):
    for t in params.values():
        t.zero_grad()
    loss = build()
    loss.backward()
    return loss.item(), {name: t.grad.copy() for name, t in params.items()}


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    """Largest entry of |got - want| over the largest entry of |want|."""
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / scale) if scale else float(np.max(np.abs(got)))


class TestPaddedBatch:
    """``encode_sequence(..., lengths=...)`` against one call per sequence."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.lists(st.integers(0, 23), min_size=1, max_size=16))
    def test_batch_of_one_equals_the_single_call(self, seed, ids):
        params = random_encoder(seed)
        one = batched(ids, FUSED_CFG, params)
        assert one.shape == (1, len(ids), FUSED_CFG.model_dim)
        assert np.array_equal(one.data[0], encode_sequence(ids, FUSED_CFG, params).data)
        assert np.array_equal(mean_pool(one, [len(ids)]).data[0],
                              mean_pool(encode_sequence(ids, FUSED_CFG, params)).data)
        single = encoder_grads(encode_sequence, ids, params, False, seed)
        padded = encoder_grads(batched, ids, params, False, seed)
        for name in params:
            assert np.array_equal(padded[name], single[name]), name

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6),
           st.lists(st.lists(st.integers(0, 23), min_size=1, max_size=32), min_size=1,
                    max_size=8))
    def test_loss_and_gradients_equal_the_sum_over_sequences(self, seed, seqs):
        params = random_encoder(seed)
        lengths = [len(ids) for ids in seqs]
        w = Rng(seed, ("batch-loss",)).normal((len(seqs), BATCH_CFG.model_dim))

        def one_call():
            states = encode_sequence([t for ids in seqs for t in ids], BATCH_CFG, params,
                                     lengths=lengths)
            return (mean_pool(states, lengths) * Tensor(w)).sum()

        def per_sequence():
            total = None
            for ids, row in zip(seqs, w):
                term = (mean_pool(encode_sequence(ids, BATCH_CFG, params)) * Tensor(row)).sum()
                total = term if total is None else total + term
            return total

        loss, grads = pooled_loss_and_grads(one_call, params)
        want_loss, want_grads = pooled_loss_and_grads(per_sequence, params)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for name in params:
            assert relative_gap(grads[name], want_grads[name]) <= 1e-12, name

    def test_padding_gets_no_gradient_and_moves_no_state(self):
        params = random_encoder(7)
        seqs = [[3, 4, 5, 6, 7], [8], [9, 10, 11]]  # no PAD_ID among them
        lengths = [len(ids) for ids in seqs]
        flat = [t for ids in seqs for t in ids]
        states = encode_sequence(flat, BATCH_CFG, params, lengths=lengths)
        assert states.shape == (3, 5, BATCH_CFG.model_dim)
        w = Rng(7, ("pad-loss",)).normal((3, BATCH_CFG.model_dim))
        (mean_pool(states, lengths) * Tensor(w)).sum().backward()
        assert np.all(params["enc/embed"].grad[PAD_ID] == 0.0)
        assert np.abs(params["enc/embed"].grad[flat]).sum(axis=1).min() > 0
        # another PAD_ID embedding changes no state of a real position
        table = params["enc/embed"].data.copy()
        table[PAD_ID] += 5.0
        moved = encode_sequence(flat, BATCH_CFG, {**params, "enc/embed": Tensor(table)},
                                lengths=lengths)
        real = key_padding_mask(lengths) == 0.0
        assert np.array_equal(moved.data[real], states.data[real])
        assert not np.array_equal(moved.data[~real], states.data[~real])

    def test_mean_pool_skips_padded_rows(self):
        states = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        pooled = mean_pool(states, [3, 1])
        assert np.array_equal(pooled.data, [[4.0, 5.0, 6.0, 7.0], [12.0, 13.0, 14.0, 15.0]])
        pooled.sum().backward()
        assert np.array_equal(states.grad[:, :, 0], [[1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0]])

    def test_key_padding_mask(self):
        assert np.array_equal(key_padding_mask([2, 3, 1]),
                              [[0.0, 0.0, -1e9], [0.0, 0.0, 0.0], [0.0, -1e9, -1e9]])

    def test_invalid_lengths_rejected(self):
        params = random_encoder(0)
        for kwargs in ({"causal": True}, {"causal": True, "cache": KVCache()}):
            with pytest.raises(ValueError, match="bidirectional attention, without a KV cache"):
                encode_sequence([1, 2], BATCH_CFG, params, lengths=[2], **kwargs)
        with pytest.raises(ValueError, match="a KV cache needs causal attention"):
            encode_sequence([1, 2], BATCH_CFG, params, cache=KVCache(), lengths=[2])
        for lengths in ([1, 2], [2, 0], [3, -1]):
            with pytest.raises(ValueError, match="must be positive and sum to the 2 ids"):
                encode_sequence([1, 2], BATCH_CFG, params, lengths=lengths)
        with pytest.raises(ValueError, match="sequence length 33 exceeds max_seq_len 32"):
            encode_sequence([1] * 34, BATCH_CFG, params, lengths=[33, 1])


def test_single_new_position_builds_no_causal_mask(monkeypatch):
    # its causal mask would be all zeros: one new position may see every key
    triu_calls = []
    triu = np.triu
    monkeypatch.setattr(np, "triu", lambda *a, **k: triu_calls.append(a[0].shape) or triu(*a, **k))
    params = random_encoder(1)
    cache = KVCache()
    with no_grad():
        encode_sequence([1, 2, 3], FUSED_CFG, params, causal=True, cache=cache)
        step = encode_sequence([4], FUSED_CFG, params, causal=True, cache=cache)
        full = encode_sequence([1, 2, 3, 4], FUSED_CFG, params, causal=True)
        encode_sequence([5], FUSED_CFG, params, causal=True)
    assert triu_calls == [(3, 3), (4, 4)]
    np.testing.assert_allclose(step.data[0], full.data[3], rtol=0, atol=1e-12)


def _sublayer_inputs(seed, n):
    rng = Rng(seed, ("sublayer",))
    d = 4
    attention = [rng.normal((n, d)), 1.0 + rng.normal((d,), 0.3), rng.normal((d,), 0.3)]
    attention += [rng.normal((d, d), 0.7) for _ in range(4)]
    ffn = [rng.normal((n, d)), 1.0 + rng.normal((d,), 0.3), rng.normal((d,), 0.3),
           rng.normal((d, 12), 0.7), rng.normal((12,), 0.3), rng.normal((12, d), 0.7),
           rng.normal((d,), 0.3)]
    return attention, ffn, rng.normal((n, d))


class TestSublayerGradients:
    """Each sublayer's analytic backward against central differences, for
    every parent: x, the layer-norm gain and bias and the weights."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("causal", [False, True])
    def test_attention(self, seed, causal):
        attention, _, w = _sublayer_inputs(seed, 3)
        mask = np.triu(np.full((3, 3), -1e9), k=1) if causal else None
        err = check_op(lambda ts: (attention_sublayer(*ts, 2, mask) * Tensor(w)).sum(),
                       attention)
        assert err < 1e-6

    @pytest.mark.parametrize("shape", [(5, 16), (2, 3, 16), (7, 512)])
    def test_ffn_forward_equals_the_out_of_place_expressions(self, shape):
        # the sublayer adds b1 and applies the relu mask in the buffer of
        # h @ w1; the bits are those of the expressions with fresh buffers
        d = shape[-1]
        rng = Rng(d, ("ffn-bits",))
        x, gain, bias = rng.normal(shape), 1.0 + rng.normal((d,), 0.3), rng.normal((d,), 0.3)
        w1, b1 = rng.normal((d, 4 * d), 0.3), rng.normal((4 * d,), 0.3)
        w2, b2 = rng.normal((4 * d, d), 0.3), rng.normal((d,), 0.3)
        h = layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
        pre = h @ w1 + b1
        want = (x + (pre * (pre > 0)) @ w2) + b2
        got = ffn_sublayer(*[Tensor(a) for a in (x, gain, bias, w1, b1, w2, b2)]).data
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ffn(self, seed):
        _, ffn, w = _sublayer_inputs(seed, 3)
        assert check_op(lambda ts: (ffn_sublayer(*ts) * Tensor(w)).sum(), ffn) < 1e-6

    def test_no_tape_under_no_grad(self):
        attention, ffn, _ = _sublayer_inputs(2, 2)
        with no_grad():
            outs = [attention_sublayer(*[Tensor(a, requires_grad=True) for a in attention], 2,
                                       None),
                    ffn_sublayer(*[Tensor(a, requires_grad=True) for a in ffn])]
        assert all(not o.requires_grad and o._backward is None and not o._parents
                   for o in outs)
