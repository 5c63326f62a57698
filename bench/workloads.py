"""Workload inputs, one measured repeat of each workload, and output checks.

Every input is synthesised from the workload seed, and the seed also drives
model initialisation, except where a workload fixes its model seed. The
program only sees the generated corpus files.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from claimforge.evaluator import EvaluatorTrainConfig, train_evaluator  # noqa: E402
from claimforge.generator import GeneratorSample, GeneratorTrainConfig, train_generator  # noqa: E402
from claimforge.numerics import Rng  # noqa: E402
from claimforge.pipeline import (  # noqa: E402
    PipelineConfig,
    read_corpus,
    run_pipeline,
    synth_corpus,
    write_corpus,
)
from claimforge.pipeline.run import build_models  # noqa: E402
from claimforge.similarity import SimilarityTrainConfig, train_similarity  # noqa: E402
from claimforge.textcore import Vocabulary  # noqa: E402

from spans import Tracer  # noqa: E402

# Acceptance criterion 10 and the golden fixtures use this geometry.
TEST_GEOMETRY = dict(model_dim=16, num_heads=2, head_dim=8, num_layers=1,
                     max_seq_len=256, max_gen_len=8, top_k=3)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "pipeline" or "train"
    config: dict = field(default_factory=dict)
    size: int = 60                 # records synthesised
    one_per_domain: bool = False   # keep only the first record of each domain
    # Model-init seed, if fixed; None uses the workload seed. At the paper
    # geometry the untrained decoder stops at the end token after a few steps
    # for some init seeds (6, 9, 10 and 408 among others) and runs the full
    # max_gen_len for most, so a repeat took from 14 s to 25 s by seed alone.
    model_seed: int | None = None

    def init_seed(self, seed: int) -> int:
        return seed if self.model_seed is None else self.model_seed


WORKLOADS = {
    w.name: w for w in (
        Workload("pipeline-small", "pipeline", TEST_GEOMETRY, size=60),
        Workload("pipeline-paper", "pipeline", {}, size=15, one_per_domain=True,
                 model_seed=0),
        Workload("train-mix", "train", TEST_GEOMETRY, size=60),
    )
}

# Optimizer steps per trainer in train-mix: 240 pairs / batch 8 for one
# epoch, 30 generator steps, and about 120 tuples / batch 8 for two epochs.
SIM_EPOCHS = 1
GEN_STEPS = 30
EVAL_EPOCHS = 2


@dataclass
class Inputs:
    corpus: Path
    prior_art: Path
    records: int


def write_inputs(workload: Workload, seed: int, work: Path, size: int | None = None) -> Inputs:
    """Synthesise the workload's corpus from ``seed`` into ``work``."""
    corpus = synth_corpus(seed, size or workload.size)
    records = corpus.records
    if workload.one_per_domain:
        seen: set[str | None] = set()
        records = [r for r in records if not (r.domain in seen or seen.add(r.domain))]
    work.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(work / "corpus.jsonl", work / "prior_art.jsonl", len(records))
    write_corpus(inputs.corpus, records)
    write_corpus(inputs.prior_art, corpus.prior_art)
    return inputs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_golden(out: Path) -> tuple[bool, str]:
    """Reproduce tests/data/golden_report.jsonl the way regenerate_golden.py does."""
    result = run_pipeline(GOLDEN / "golden_corpus.jsonl", GOLDEN / "golden_prior_art.jsonl",
                          out, PipelineConfig(**TEST_GEOMETRY), seed=0)
    got = result.report_path.read_bytes()
    return got == (GOLDEN / "golden_report.jsonl").read_bytes(), sha256(got)


@dataclass
class Repeat:
    """One pass over a workload's inputs."""
    digest: str              # report SHA-256, or loss-history SHA-256
    attempted: int           # documents, or optimizer steps
    failed: int
    op_times: list[float]    # per-document or per-step wall seconds
    busy_s: float            # time the ops took, for the throughput
    wall_s: float            # the whole pass
    errors: list[str] = field(default_factory=list)
    step_times: dict[str, list[float]] = field(default_factory=dict)


def _bad_report(row: dict) -> str | None:
    if "skipped" in row:
        return f"skipped: {row['skipped']}"
    scores = row.get("quality", {}).get("aspect_scores", {})
    if not row.get("generated_claims"):
        return f"{row.get('doc_id')}: no generated claims"
    if len(scores) != 5 or not all(0.0 < v < 1.0 for v in scores.values()):
        return f"{row.get('doc_id')}: aspect scores {scores} not 5 values in (0, 1)"
    return None


def run_pipeline_repeat(workload: Workload, seed: int, inputs: Inputs, out: Path,
                        tracer: Tracer) -> Repeat:
    config = PipelineConfig(**workload.config)
    with tracer.region("pipeline.run") as idx:
        result = run_pipeline(inputs.corpus, inputs.prior_art, out, config,
                              seed=workload.init_seed(seed))
    run = tracer.spans[idx]
    docs = tracer.within(idx, "pipeline.document")
    report = result.report_path.read_bytes()
    rows = [json.loads(line) for line in report.decode("utf-8").splitlines()]
    errors = [e for e in map(_bad_report, rows) if e]
    failed = len(errors) + max(0, inputs.records - len(rows))
    if len(rows) != inputs.records:
        errors.append(f"report has {len(rows)} rows for {inputs.records} records")
    return Repeat(
        digest=sha256(report),
        attempted=inputs.records,
        failed=min(inputs.records, failed),
        op_times=[s.end - s.start for s in docs],
        busy_s=run.end - (docs[0].start if docs else run.start),
        wall_s=run.end - run.start,
        errors=errors,
    )


@dataclass
class TrainData:
    config: PipelineConfig
    models: object
    pairs: list
    samples: list
    tuples: list


def prepare_training(workload: Workload, seed: int, inputs: Inputs) -> TrainData:
    """Vocabulary, models and training data, built the way the train-* commands build them."""
    config = PipelineConfig(**workload.config)
    records = read_corpus(inputs.corpus)
    texts = []
    for rec in records:
        texts.append(rec.description)
        texts.extend(rec.claims)
        for pair in rec.relationship_pairs:
            texts.extend([pair["claim_text"], pair["doc_text"]])
    vocab = Vocabulary.build(texts, cap=config.vocab_cap)
    models = build_models(vocab, config, seed)
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
                dependent_claim_count=max(0, len(rec.claims) - 1),
            ))
        for tup in rec.corruption_tuples:
            better = vocab.encode_text(tup["better"])
            worse = vocab.encode_text(tup["worse"])
            if better != worse:  # the trainer skips degenerate tuples anyway
                tuples.append((vocab.encode_text(tup["reference"]), better, worse,
                               rec.domain or "mechanical"))
    return TrainData(config, models, pairs, samples, tuples)


def _planned_steps(data: TrainData) -> dict[str, int]:
    sim_batch = SimilarityTrainConfig().batch_size
    n = len(data.pairs)
    sim = sum(1 for start in range(0, n, sim_batch) if min(sim_batch, n - start) >= 2)
    eval_batch = EvaluatorTrainConfig().batch_size
    return {
        "train_sim": sim * SIM_EPOCHS,
        "train_gen": GEN_STEPS,
        "train_eval": math.ceil(len(data.tuples) / eval_batch) * EVAL_EPOCHS,
    }


def run_training_repeat(workload: Workload, seed: int, inputs: Inputs, tracer: Tracer) -> Repeat:
    """The three trainers back to back, from freshly initialised models."""
    t0 = time.perf_counter()
    data = prepare_training(workload, seed, inputs)
    cfg, models = data.config, data.models
    trainers = {
        "train_sim": lambda: train_similarity(
            data.pairs, models.cfg, models.enc_params, models.head_bank,
            SimilarityTrainConfig(temperature=cfg.sim_temperature, aux_weight=cfg.aux_weight,
                                  epochs=SIM_EPOCHS)),
        "train_gen": lambda: train_generator(
            data.samples, models.generator, models.adapter_bank, models.classifier,
            cfg.curriculum(), Rng(seed, ("train-gen",)),
            GeneratorTrainConfig(batch_size=cfg.batch_size, lr=cfg.lr,
                                 weight_decay=cfg.weight_decay, steps=GEN_STEPS,
                                 grad_clip=cfg.grad_clip)),
        "train_eval": lambda: train_evaluator(
            data.tuples, models.evaluator, models.enc_params,
            EvaluatorTrainConfig(epochs=EVAL_EPOCHS)),
    }
    planned = _planned_steps(data)
    histories: dict[str, list[float]] = {}
    errors: list[str] = []
    step_times: dict[str, list[float]] = {}
    failed = 0
    for name, train in trainers.items():
        with tracer.region(name, ctx=f"{name}/step0") as idx:
            try:
                histories[name] = train()
            except Exception as exc:  # a failing trainer fails its steps, not the run
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
        step_times[name] = [end - start for start, end in tracer.step_windows(idx)]
        history = histories.get(name, [])
        ok = sum(1 for loss in history if math.isfinite(loss))
        if len(history) != planned[name] or ok != len(history):
            errors.append(f"{name}: {ok} finite losses of {planned[name]} planned steps")
        failed += max(0, planned[name] - ok)
    op_times = [t for times in step_times.values() for t in times]
    return Repeat(
        digest=sha256(json.dumps(histories, sort_keys=True).encode()),
        attempted=sum(planned.values()),
        failed=failed,
        op_times=op_times,
        busy_s=sum(op_times),
        wall_s=time.perf_counter() - t0,
        errors=errors,
        step_times=step_times,
    )


def run_repeat(workload: Workload, seed: int, inputs: Inputs, out: Path, tracer: Tracer) -> Repeat:
    if workload.kind == "pipeline":
        return run_pipeline_repeat(workload, seed, inputs, out, tracer)
    return run_training_repeat(workload, seed, inputs, tracer)
