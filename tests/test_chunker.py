"""Complexity, adaptive chunk size, and greedy sentence packing."""

import math

import numpy as np
import pytest

from claimforge.chunker import (
    MAX_CHUNK_SIZE,
    MIN_CHUNK_SIZE,
    Chunk,
    Document,
    chunk_document,
    complexity,
    count_claims,
    count_figures,
    target_size,
)
from claimforge.numerics import Rng
from claimforge.textcore import Vocabulary


def make_doc(tokens, text="", claims=0, figures=0):
    return Document(id="d", text=text, tokens=tokens,
                    claim_count=claims, figure_count=figures)


class TestCounting:
    def test_claims_counted_after_claims_header(self):
        text = "Background. 1. Not a claim here.\nCLAIMS\n1. First.\n2. Second.\n"
        assert count_claims(text) == 2

    def test_claims_counted_without_header(self):
        assert count_claims("1. One.\n2. Two.\n3. Three.\n") == 3

    def test_figures(self):
        assert count_figures("FIG. 1 shows a gear. Figure 2 shows a shaft.") == 2
        assert count_figures("no drawings at all") == 0

    def test_a_record_without_the_counts_takes_them_from_its_text(self):
        # the pipeline's chunking counts from the text whatever the corpus
        # record leaves out: no claims list, or a null figure_count
        from claimforge.pipeline import CorpusRecord
        from claimforge.pipeline.run import chunk_record
        description = ("A valve is shown in FIG. 1, its seat in FIG. 2 and figure 3.\n"
                       "Claims\n1. A valve.\n2. The valve of claim 1 with a seat.\n")
        vocab = Vocabulary.build([description], cap=128)
        doc, kappa, _, _ = chunk_record(CorpusRecord("r", description), vocab)
        tokens = len(vocab.encode_text(description))
        assert (doc.claim_count, doc.figure_count) == (2, 3)
        assert kappa == (2 + 3) / tokens
        # the record's own fields win where it has them
        doc, kappa, _, _ = chunk_record(CorpusRecord("r", description, claims=["A valve."],
                                                     figure_count=7), vocab)
        assert (doc.claim_count, doc.figure_count) == (1, 7)
        assert kappa == (1 + 7) / len(doc.tokens)


class TestComplexity:
    def test_direct_arithmetic(self):
        doc = make_doc(list(range(600)), claims=20, figures=10)
        assert complexity(doc) == pytest.approx(0.05)

    def test_zero_numerator(self):
        assert complexity(make_doc(list(range(500)))) == 0.0

    def test_empty_document_error(self):
        with pytest.raises(ValueError, match="empty document"):
            complexity(make_doc([]))


class TestTargetSize:
    def test_sigmoid_midpoint(self):
        assert target_size(0.0) == 640

    def test_kappa_005(self):
        # floor(256 + 768 * sigmoid(0.05)) with a high-precision check inline
        sig = 1.0 / (1.0 + math.exp(-0.05))
        assert math.floor(256 + 768 * sig) == 649
        assert target_size(0.05) == 649

    def test_upper_bound_never_exceeded(self):
        assert target_size(1e9) == 1024
        for kappa in np.linspace(0, 50, 200):
            assert target_size(float(kappa)) <= MAX_CHUNK_SIZE

    def test_default_mode_range(self):
        # defaults (scale=1, centering=0) with kappa >= 0: s in [640, 1024]
        for kappa in list(np.linspace(0, 20, 500)) + [0.0, 1e-12, 1e6]:
            s = target_size(float(kappa))
            assert 640 <= s <= 1024

    def test_monotone_in_kappa(self):
        grid = np.linspace(0.0, 10.0, 100)
        sizes = [target_size(float(k)) for k in grid]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            target_size(-0.1)


class TestChunkDocument:
    def test_single_chunk_when_fits(self):
        doc = make_doc(list(range(100)), text=" ".join(["tok"] * 100))
        chunks = chunk_document(doc, 640)
        assert [(c.start_token, c.end_token) for c in chunks] == [(0, 100)]

    def test_greedy_packing_trace(self):
        # 3 sentences of 300 tokens each, s=640 -> [0,600), [600,900)
        sent = " ".join(["tok"] * 300) + "."
        text = " ".join([sent] * 3)
        vocab = Vocabulary.build([text], cap=64)
        doc = Document.from_text("d", text, vocab, claim_count=0, figure_count=0)
        # "tok" x300 plus the period = 301 tokens per sentence
        assert len(doc.tokens) == 903
        chunks = chunk_document(doc, 640)
        assert [(c.start_token, c.end_token) for c in chunks] == [(0, 602), (602, 903)]

    def test_hard_split_long_sentence(self):
        doc = make_doc(list(range(1500)), text="x " * 1500)
        chunks = chunk_document(doc, 640)
        assert [(c.start_token, c.end_token) for c in chunks] == \
            [(0, 640), (640, 1280), (1280, 1500)]

    def test_bad_target_size_rejected(self):
        doc = make_doc(list(range(10)))
        with pytest.raises(ValueError):
            chunk_document(doc, MIN_CHUNK_SIZE - 1)
        with pytest.raises(ValueError):
            chunk_document(doc, MAX_CHUNK_SIZE + 1)

    def test_coverage_and_disjointness_200_random_docs(self):
        rng = Rng(0, ("chunk-prop",))
        words = [f"word{i}" for i in range(30)]
        for trial in range(200):
            n_sent = int(rng.integers(1, 12))
            sentences = []
            for _ in range(n_sent):
                length = int(rng.integers(1, 400))
                idx = rng.integers(0, len(words), size=length)
                sentences.append(" ".join(words[i] for i in idx) + ".")
            text = " ".join(sentences)
            vocab = Vocabulary.build([text], cap=128)
            doc = Document.from_text(f"d{trial}", text, vocab,
                                     claim_count=0, figure_count=0)
            s = int(rng.integers(MIN_CHUNK_SIZE, MAX_CHUNK_SIZE + 1))
            chunks = chunk_document(doc, s)
            # coverage: spans tile [0, len) exactly once, in order
            assert chunks[0].start_token == 0
            assert chunks[-1].end_token == len(doc.tokens)
            for a, b in zip(chunks, chunks[1:]):
                assert a.end_token == b.start_token
            # size bound
            assert all(len(c) <= s for c in chunks)

    def test_chunk_span_validation(self):
        with pytest.raises(ValueError):
            Chunk("d", 5, 5)

