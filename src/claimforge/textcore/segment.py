"""Sentence / paragraph / claim-number boundary detection.

A boundary is a character offset ending one segment. Boundaries come from
sentence terminators (. ; ?), paragraph breaks (blank line), and
claim-number patterns (line-initial integer followed by "."). The final
offset always equals the text length.
"""

from __future__ import annotations

import re

_TERMINATOR_RE = re.compile(r"[.;?]")
_CLAIM_NUM_RE = re.compile(r"(\d+)\.")
_PARA_RE = re.compile(r"\n[ \t]*\n+")


def sentence_boundaries(text: str) -> list[int]:
    if not text:
        return []
    boundaries: set[int] = set()

    # claim-number lines: segment starts at the line, so the previous segment
    # ends at the line start; the numbering dot itself is not a terminator
    claim_dots: set[int] = set()
    line_start = 0
    for line in text.splitlines(keepends=True):
        m = _CLAIM_NUM_RE.match(line)
        if m:
            if line_start > 0:
                boundaries.add(line_start)
            claim_dots.add(line_start + m.end() - 1)
        line_start += len(line)

    for m in _TERMINATOR_RE.finditer(text):
        if m.start() not in claim_dots:
            boundaries.add(m.end())

    for m in _PARA_RE.finditer(text):
        boundaries.add(m.end())

    boundaries.add(len(text))
    out = sorted(b for b in boundaries if 0 < b <= len(text))
    return out
