"""Line-delimited corpus records with named fields (one JSON object per line),
and the training data the three trainers take from them."""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field, asdict

from claimforge.generator import DOMAINS, GeneratorSample
from claimforge.similarity.heads import RELATIONSHIP_GROUPS
from claimforge.textcore import Vocabulary

# the string entries each row of these record fields must carry
_STRING_KEYS = {"relationship_pairs": ("claim_text", "doc_text"),
                "corruption_tuples": ("reference", "better", "worse")}


@dataclass
class CorpusRecord:
    id: str
    description: str
    claims: list[str] = field(default_factory=list)
    domain: str | None = None
    figure_count: int | None = None
    # relationship-labeled chunk pairs for similarity training:
    # each entry is {"claim_text": ..., "doc_text": ..., "label": ...}
    relationship_pairs: list[dict] = field(default_factory=list)
    # evaluator corruption tuples: {"reference": ..., "better": ..., "worse": ...}
    corruption_tuples: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"record id must be a nonempty string, got {self.id!r}")
        if not isinstance(self.description, str) or not self.description:
            raise ValueError(f"record {self.id}: description must be a nonempty string")
        if not _list_of(self.claims, str):
            raise ValueError(f"record {self.id}: claims must be a list of strings")
        if self.domain is not None and self.domain not in DOMAINS:
            raise ValueError(f"record {self.id}: domain must be one of {', '.join(DOMAINS)} "
                             f"or null, got {self.domain!r}")
        if self.figure_count is not None and type(self.figure_count) is not int:  # not bool
            raise ValueError(f"record {self.id}: figure_count must be an integer or null, "
                             f"got {self.figure_count!r}")
        for name, keys in _STRING_KEYS.items():
            rows = getattr(self, name)
            if not _list_of(rows, dict):
                raise ValueError(f"record {self.id}: {name} must be a list of objects")
            for i, row in enumerate(rows):
                if not all(isinstance(row.get(k), str) for k in keys):
                    raise ValueError(f"record {self.id}: {name}[{i}] needs string "
                                     f"{', '.join(keys)}")
        for i, pair in enumerate(self.relationship_pairs):
            if pair.get("label") not in (None, *RELATIONSHIP_GROUPS):
                raise ValueError(f"record {self.id}: relationship_pairs[{i}] label must be "
                                 f"one of {', '.join(RELATIONSHIP_GROUPS)} or null, "
                                 f"got {pair['label']!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_dict(cls, data) -> "CorpusRecord":
        if isinstance(data, dict):  # a key older corpora carry and nothing reads
            data.pop("jurisdiction", None)
        return cls(**data)


def _list_of(value, item_type: type) -> bool:
    return isinstance(value, list) and all(isinstance(v, item_type) for v in value)


def training_data(records: list[CorpusRecord], vocab: Vocabulary
                  ) -> tuple[list[tuple], list[GeneratorSample], list[tuple]]:
    """The records as token ids for the three trainers: similarity pairs
    ``(claim, doc, label)`` with both sides nonempty, one generator sample per
    record with claims (its first claim the target), and evaluator tuples
    ``(reference, better, worse, domain)`` whose better and worse differ (a
    tuple whose two sides are the same cannot be ranked)."""
    pairs, samples, tuples = [], [], []
    for rec in records:
        for pair in rec.relationship_pairs:
            claim_ids = vocab.encode_text(pair["claim_text"])
            doc_ids = vocab.encode_text(pair["doc_text"])
            if claim_ids and doc_ids:
                pairs.append((claim_ids, doc_ids, pair.get("label")))
        if rec.claims:
            samples.append(GeneratorSample(
                id=rec.id,
                description_ids=vocab.encode_text(rec.description),
                claim_ids=vocab.encode_text(rec.claims[0]),
                domain_label=rec.domain,
                dependent_claim_count=len(rec.claims) - 1,
            ))
        for tup in rec.corruption_tuples:
            better, worse = vocab.encode_text(tup["better"]), vocab.encode_text(tup["worse"])
            if better != worse:
                tuples.append((vocab.encode_text(tup["reference"]), better, worse,
                               rec.domain or "mechanical"))
    return pairs, samples, tuples


def write_corpus(path, records: list[CorpusRecord]) -> None:
    seen = set()
    for rec in records:
        if rec.id in seen:
            raise ValueError(f"duplicate record id {rec.id!r}")
        seen.add(rec.id)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def read_jsonl(path) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) for each nonblank line of a JSONL file; a
    line that is not JSON is an error naming its ``path:lineno``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from None
            yield lineno, value


def read_corpus(path) -> list[CorpusRecord]:
    records: dict[str, CorpusRecord] = {}
    for lineno, data in read_jsonl(path):
        try:
            rec = CorpusRecord.from_dict(data)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad corpus record: {exc}") from exc
        if rec.id in records:
            raise ValueError(f"{path}:{lineno}: duplicate record id {rec.id!r}")
        records[rec.id] = rec
    return list(records.values())
