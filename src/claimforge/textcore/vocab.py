"""Deterministic whitespace+punctuation tokenizer and frequency-capped vocabulary."""

from __future__ import annotations

import re
from collections import Counter

PAD_ID = 0
UNK_ID = 1
BOS_ID = 2
EOS_ID = 3
SEP_ID = 4

NUM_RESERVED = 5

_RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>", "<sep>")  # by id

# alphanumeric runs are words; any other non-space character is its own token
_TOKEN_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace-and-punctuation segmentation."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Token <-> id bijection over non-reserved entries; ids 0..4 reserved."""

    def __init__(self, tokens: list[str], cap: int = 8192):
        if len(tokens) + NUM_RESERVED > cap:
            raise ValueError(f"vocabulary size {len(tokens) + NUM_RESERVED} exceeds cap {cap}")
        self._tokens = [*_RESERVED_TOKENS, *tokens]
        self._ids = {t: i for i, t in enumerate(self._tokens)}
        if len(self._ids) != len(self._tokens):
            reserved = next((t for t in tokens if t in _RESERVED_TOKENS), None)
            raise ValueError("duplicate tokens in vocabulary" if reserved is None
                             else f"vocabulary lists the reserved token {reserved!r}")

    def __len__(self) -> int:
        return len(self._tokens)

    @classmethod
    def build(cls, texts: list[str], cap: int = 8192) -> "Vocabulary":
        counts: Counter[str] = Counter()
        for text in texts:
            counts.update(tokenize(text))
        # deterministic order: frequency desc, then token asc
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        keep = [t for t, _ in ranked[: cap - NUM_RESERVED]]
        return cls(keep, cap=cap)

    def token_id(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise ValueError(f"token id {token_id} out of range (vocab size {len(self)})")
        return self._tokens[token_id]

    def encode(self, tokens: list[str]) -> list[int]:
        return [self._ids.get(t, UNK_ID) for t in tokens]

    def encode_text(self, text: str) -> list[int]:
        return self.encode(tokenize(text))

    def decode(self, ids: list[int]) -> list[str]:
        return [self.token(i) for i in ids]

    def decode_text(self, ids: list[int]) -> str:
        return " ".join(t for t in self.decode(ids) if t not in _RESERVED_TOKENS)

    # one token per line, line number = id - 5
    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for token in self._tokens[NUM_RESERVED:]:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path, cap: int = 8192) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
        return cls(tokens, cap=cap)
