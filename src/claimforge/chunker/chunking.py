"""Document complexity, adaptive chunk size, and greedy sentence packing."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from claimforge.numerics import logistic
from claimforge.textcore import Vocabulary, sentence_boundaries, tokenize

MIN_CHUNK_SIZE = 256
CHUNK_SIZE_SPAN = 768
MAX_CHUNK_SIZE = 1024

_CLAIM_LINE_RE = re.compile(r"\s*\d+\.")
_FIGURE_TOKENS = frozenset({"fig", "figure"})


@dataclass
class Document:
    id: str
    text: str
    tokens: list[int]
    claim_count: int
    figure_count: int

    def __post_init__(self):
        if self.claim_count < 0 or self.figure_count < 0:
            raise ValueError("claim_count and figure_count must be non-negative")

    @classmethod
    def from_text(cls, doc_id: str, text: str, vocab: Vocabulary,
                  claim_count: int | None = None, figure_count: int | None = None) -> "Document":
        return cls(
            id=doc_id,
            text=text,
            tokens=vocab.encode_text(text),
            claim_count=count_claims(text) if claim_count is None else claim_count,
            figure_count=count_figures(text) if figure_count is None else figure_count,
        )


@dataclass
class Chunk:
    doc_id: str
    start_token: int
    end_token: int

    def __post_init__(self):
        if not (0 <= self.start_token < self.end_token):
            raise ValueError(f"bad chunk span [{self.start_token}, {self.end_token})")

    def __len__(self) -> int:
        return self.end_token - self.start_token


def count_claims(text: str) -> int:
    """Count line-initial "N." patterns, restricted to the claims section when
    a line containing the word "claims" marks one."""
    lines = text.splitlines()
    start = 0
    for i, line in enumerate(lines):
        if "claims" in line.lower():
            start = i + 1
            break
    return sum(1 for line in lines[start:] if _CLAIM_LINE_RE.match(line))


def count_figures(text: str) -> int:
    return sum(1 for tok in tokenize(text) if tok in _FIGURE_TOKENS)


def complexity(doc: Document) -> float:
    """(claim count + figure count) / token count."""
    if not doc.tokens:
        raise ValueError("empty document")
    return (doc.claim_count + doc.figure_count) / len(doc.tokens)


def target_size(kappa: float) -> int:
    """Adaptive chunk size floor(256 + 768 * sigmoid(kappa)); as kappa >= 0,
    it lies in [640, 1024]."""
    if kappa < 0:
        raise ValueError("complexity must be non-negative")
    s = int(math.floor(MIN_CHUNK_SIZE + CHUNK_SIZE_SPAN * logistic(kappa)))
    return min(s, MAX_CHUNK_SIZE)


def _sentence_token_lengths(text: str) -> list[int]:
    offsets = sentence_boundaries(text)
    lengths = []
    prev = 0
    for off in offsets:
        lengths.append(len(tokenize(text[prev:off])))
        prev = off
    return [n for n in lengths if n > 0]


def chunk_document(doc: Document, s: int) -> list[Chunk]:
    """Greedy sentence packing into chunks of at most ``s`` tokens.

    Sentences are appended while the chunk stays within ``s``; a single
    sentence longer than ``s`` is hard-split at ``s``. Chunks are disjoint,
    ordered, and cover every token.
    """
    if not doc.tokens:
        raise ValueError("empty document")
    if not (MIN_CHUNK_SIZE <= s <= MAX_CHUNK_SIZE):
        raise ValueError(f"target size {s} outside [{MIN_CHUNK_SIZE}, {MAX_CHUNK_SIZE}]")
    lengths = _sentence_token_lengths(doc.text)
    total = len(doc.tokens)
    if sum(lengths) != total:
        # token list was not derived from this text; treat it as one segment
        lengths = [total]

    chunks: list[Chunk] = []
    start = 0
    cursor = 0
    for sent_len in lengths:
        if cursor - start + sent_len <= s:
            cursor += sent_len
            continue
        if cursor > start:
            chunks.append(Chunk(doc.id, start, cursor))
            start = cursor
        remaining = sent_len
        while remaining > s:
            chunks.append(Chunk(doc.id, start, start + s))
            start += s
            remaining -= s
        cursor = start + remaining
    if cursor > start:
        chunks.append(Chunk(doc.id, start, cursor))
    return chunks
