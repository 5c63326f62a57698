"""Stage 1a: adaptive chunk sizing and semantically bounded splitting."""

from claimforge.chunker.chunking import (
    Document,
    Chunk,
    complexity,
    target_size,
    chunk_document,
    count_claims,
    count_figures,
    MIN_CHUNK_SIZE,
    CHUNK_SIZE_SPAN,
    MAX_CHUNK_SIZE,
)

__all__ = [
    "Document",
    "Chunk",
    "complexity",
    "target_size",
    "chunk_document",
    "count_claims",
    "count_figures",
    "MIN_CHUNK_SIZE",
    "CHUNK_SIZE_SPAN",
    "MAX_CHUNK_SIZE",
]
