"""Three-stage pipeline orchestration and report writing.

Reports are line-delimited records plus a human-readable summary. Wall-clock
timings go to a sidecar file so the report proper is byte-identical across
reruns with the same inputs and seed.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from claimforge.numerics import NonFiniteError, Rng, Tensor, load_checkpoint, no_grad, save_checkpoint
from claimforge.chunker import Chunk, Document, chunk_document, complexity, target_size
from claimforge.evaluator import EvaluatorModel, score_pair
from claimforge.generator import (
    AdapterBank,
    DomainClassifier,
    GeneratorModel,
    generate,
)
from claimforge.pipeline.config import PipelineConfig
from claimforge.pipeline.corpus import CorpusRecord, read_corpus
from claimforge.pipeline.metrics import claim_metrics
from claimforge.similarity import (
    ChunkFeatures,
    HeadBank,
    SimilarityReport,
    chunk_features,
    claim_features,
    similarity,
)
from claimforge.textcore import (
    EncoderConfig,
    Vocabulary,
    encode_sequence,
    init_encoder_params,
)
from claimforge.training import curriculum_progress, difficulty_level


@dataclass
class PipelineModels:
    vocab: Vocabulary
    cfg: EncoderConfig
    enc_params: dict[str, Tensor]
    head_bank: HeadBank
    generator: GeneratorModel
    adapter_bank: AdapterBank
    classifier: DomainClassifier
    evaluator: EvaluatorModel


# The stage-1 work that repeats across the records of one run: a prior-art
# record id -> its chunks, as (chunk id, ``ChunkFeatures``) pairs, filled by
# ``_prior_art_chunks`` the first time a record needs them. Valid only for one
# set of models, config and prior-art records; a run starts from ``{}``.
StageOneMemo = dict[str, list[tuple[str, ChunkFeatures]]]


@dataclass
class PipelineResult:
    reports: list[dict]
    failures: list[dict]
    report_path: Path
    summary_path: Path
    timings_path: Path


def write_jsonl(path: Path, rows: list[dict]) -> None:
    """One ``json.dumps(row, sort_keys=True)`` line per row; makes the parent directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def build_models(vocab: Vocabulary, config: PipelineConfig, seed: int,
                 checkpoint: dict[str, np.ndarray] | None = None) -> PipelineModels:
    """Models over ``vocab``, drawn from ``seed``'s "init" stream, or taken from a
    checkpoint's name -> array map, which must hold exactly the model's tensors."""
    cfg = config.encoder_config()
    source = Rng(seed, ("init",)).substream if checkpoint is None else lambda stream: checkpoint
    draw_decoder = partial(GeneratorModel.init, len(vocab), cfg, source("dec"))
    with ExitStack() as joined:  # joins the worker, if any, also when a draw raises
        if checkpoint is None and stage2_worker_pays(config):
            # each substream is drawn whole on one thread, so every bit is as inline
            from concurrent.futures import ThreadPoolExecutor
            pool = joined.enter_context(ThreadPoolExecutor(1, thread_name_prefix="init"))
            draw_decoder = pool.submit(draw_decoder).result
        enc_params = init_encoder_params(len(vocab), cfg, source("enc"))
        head_bank = HeadBank.init(cfg.model_dim, source("sim"), head_dim=cfg.head_dim)
        adapter_bank = AdapterBank.init(cfg.num_layers, cfg.model_dim, source("bank"))
        classifier = DomainClassifier.init(cfg.model_dim, source("clf"))
        evaluator = EvaluatorModel.init(cfg, source("eval"))
        generator = draw_decoder()
    models = PipelineModels(vocab, cfg, enc_params, head_bank, generator,
                            adapter_bank, classifier, evaluator)
    unexpected = sorted(checkpoint.keys() - _param_tensors(models).keys()) if checkpoint else []
    if unexpected:
        raise ValueError(f"checkpoint tensors the model does not have: {unexpected}")
    return models


def record_texts(records: list[CorpusRecord]) -> list[str]:
    """The texts a fresh pipeline vocabulary is built from: descriptions and claims."""
    texts = [r.description for r in records]
    for r in records:
        texts.extend(r.claims)
    return texts


def load_models(texts: list[str], config: PipelineConfig, seed: int,
                checkpoint_path=None) -> PipelineModels:
    """Fresh models over a vocabulary built from ``texts``, or, given a
    checkpoint, its tensors and the vocabulary ``save_models`` wrote beside it."""
    if checkpoint_path is None:
        return build_models(Vocabulary.build(texts, cap=config.vocab_cap), config, seed)
    ckpt = load_checkpoint(checkpoint_path)
    if "enc/embed" in ckpt and ckpt["enc/embed"].shape[-1] != config.model_dim:
        raise ValueError(f"checkpoint model_dim {ckpt['enc/embed'].shape[-1]} does not "
                         f"match config model_dim {config.model_dim}")
    vocab = Vocabulary.load(Path(checkpoint_path).parent / "vocab.txt", cap=config.vocab_cap)
    return build_models(vocab, config, seed, ckpt)


def save_models(models: PipelineModels, out) -> Path:
    """Write ``model.ckpt`` and its ``vocab.txt`` into directory ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_path = out / "model.ckpt"
    save_checkpoint(ckpt_path, all_params(models))
    models.vocab.save(out / "vocab.txt")
    return ckpt_path


def _param_tensors(models: PipelineModels) -> dict[str, Tensor]:
    return {**models.enc_params, **models.head_bank.params, **models.generator.params,
            **models.adapter_bank.params, **models.classifier.params, **models.evaluator.params}


def all_params(models: PipelineModels) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in _param_tensors(models).items()}


def chunk_record(rec: CorpusRecord, vocab: Vocabulary) -> tuple[Document, float, int, list[Chunk]]:
    """Stage-1 chunking of a record (description, then its claims): the
    document, its complexity, the target chunk size and the chunks."""
    claims_text = "\n".join(rec.claims)
    full = rec.description + ("\n\nCLAIMS\n" + claims_text if claims_text else "")
    doc = Document.from_text(
        rec.id, full, vocab,
        claim_count=len(rec.claims) if rec.claims else None,
        figure_count=rec.figure_count,
    )
    kappa = complexity(doc)
    size = target_size(kappa)
    return doc, kappa, size, chunk_document(doc, size)


def _prior_art_chunks(pa: CorpusRecord, models: PipelineModels, memo: StageOneMemo,
                      projections: np.ndarray) -> list[tuple[str, ChunkFeatures]]:
    """A prior-art record's chunks as (chunk id, features) pairs: chunked and
    encoded the first time, read from ``memo`` after that. A chunk longer than
    the encoder's ``max_seq_len`` is encoded in pieces of at most that many
    tokens, each with its own id."""
    chunks = memo.get(pa.id)
    if chunks is None:
        doc, _, _, spans = chunk_record(pa, models.vocab)
        step = models.cfg.max_seq_len
        pieces = [(s, min(s + step, c.end_token))
                  for c in spans for s in range(c.start_token, c.end_token, step)]
        chunks = [(f"{pa.id}/[{s},{e})",
                   chunk_features(encode_sequence(doc.tokens[s:e], models.cfg,
                                                  models.enc_params).data, projections))
                  for s, e in pieces]
        memo[pa.id] = chunks
    return chunks


def claim_similarities(rec: CorpusRecord, prior_art: list[CorpusRecord],
                       models: PipelineModels, memo: StageOneMemo) -> list[SimilarityReport]:
    """Stage-1 similarity: one report per (claim, prior-art chunk) pair, in
    prior-art, claim, chunk order. A record without claims stands in with
    its description. Each claim is encoded once for this record, each
    prior-art chunk once for the run."""
    if not prior_art:
        return []
    projections = models.head_bank.stacked_projections()
    claim_ids = [models.vocab.encode_text(t) for t in rec.claims or [rec.description]]
    claims = [(f"{rec.id}/claim{ci}",
               claim_features(encode_sequence(ids, models.cfg, models.enc_params).data,
                              projections))
              for ci, ids in enumerate(claim_ids) if ids]
    reports = []
    for pa in prior_art:
        chunks = _prior_art_chunks(pa, models, memo, projections)
        reports.extend(similarity(claim_id, chunk_id, claim, chunk, models.head_bank)
                       for claim_id, claim in claims for chunk_id, chunk in chunks)
    return reports


def generate_claim(rec: CorpusRecord, models: PipelineModels,
                   config: PipelineConfig) -> tuple[list[int], np.ndarray, str, str]:
    """Stage-2 generation from a record's description: the generated token
    ids, the domain mixture, the domain label and the generated text."""
    gen_ids, alpha, label = generate(models.vocab.encode_text(rec.description), models.generator,
                                     models.adapter_bank, models.classifier,
                                     max_len=config.max_gen_len)
    return gen_ids, alpha, label, models.vocab.decode_text(gen_ids)


# Stage 2 runs on a worker thread, and set-up draws the decoder on one, only
# from this model width up. Below it the decode is interpreter-bound and the
# two threads take turns at the GIL.
# Stage 2: whole runs over 30 synth records (8 heads, 2 layers, set-up
# included; 2 vCPUs, one BLAS thread) went 0.71x as fast overlapped as inline
# at model_dim 16, 0.93x at 64, 1.07x at 128 and 1.06x at 256;
# pipeline-paper's documents (512) ran 1.38x as fast.
# The draw: build_models on the pipeline-paper vocabulary (best of 3 in-process
# repeats, medians of 10 alternating fresh-process pairs, one BLAS thread)
# took 0.89x the inline time at 64, 0.76x at 128, and 0.59x at 256 and 512
# (0.26 s against 0.44); at 64 it saves 1 ms, not worth a second width.
STAGE2_WORKER_MIN_DIM = 128
# The variables OpenBLAS takes its thread count from: the first one set to a
# positive number wins, and with none set it runs one thread per core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# (quota file, period file) of a CPU quota, cgroup v2 then v1: v2 keeps
# "quota period" in one file, v1 one number in each.
CPU_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu.max"),
                   ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                    "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


def usable_cores() -> int:
    """The whole cores this process may run on: its affinity mask, capped by
    the first CPU quota of ``CPU_QUOTA_FILES`` that can be read."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    for quota_path, period_path in CPU_QUOTA_FILES:
        try:
            quota = Path(quota_path).read_text().split()[0]
            if quota in ("max", "-1"):
                return cores
            period = int(Path(period_path).read_text().split()[-1])
            return max(1, min(cores, int(quota) // period))
        except (OSError, ValueError, IndexError, ZeroDivisionError):
            continue
    return cores


def blas_on_one_thread() -> bool:
    """Whether the environment sets OpenBLAS to one thread (see ``BLAS_THREAD_VARS``)."""
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


def stage2_worker_pays(config: PipelineConfig) -> bool:
    """Whether ``run_pipeline`` runs stage 2 on a worker thread, and
    ``build_models`` draws the decoder on one: from ``STAGE2_WORKER_MIN_DIM``
    up, with a second core, and with one BLAS thread.

    With one BLAS thread the worker pays (pipeline-paper documents 1.39x as
    fast). With OpenBLAS's default of one thread per core it does not: the
    paper-geometry CLI ``pipeline`` on the pipeline-paper inputs took 2.43 s
    overlapped against 1.80 s inline (medians of 12 alternating fresh-process
    pairs, 2 vCPUs), since the worker's and the caller's BLAS threads then
    share two cores.
    """
    return (config.model_dim >= STAGE2_WORKER_MIN_DIM and usable_cores() >= 2
            and blas_on_one_thread())


class StageTwo:
    """The stage-2 generations of one run's records: ``result(rec)`` is
    ``rec``'s generation, its wall seconds and the thread that ran it.

    One path serves every run. Where ``stage2_worker_pays``, the first
    ``start()`` submits every record's job, in record order, to one worker
    thread, which runs them ahead of the caller; elsewhere no job is
    submitted and ``result(rec)`` runs each here. Jobs are keyed by record,
    so a record that fails before its result shifts no later generation, and
    ``drop(rec)`` cancels a skipped record's job if no thread has started it.
    Leaving the ``with`` block cancels the jobs not yet started and joins the
    worker.
    """

    def __init__(self, records: list[CorpusRecord], models: PipelineModels,
                 config: PipelineConfig):
        self._args = (models, config)
        self._to_submit = list(records) if stage2_worker_pays(config) else []
        self._jobs: dict[int, tuple[CorpusRecord, object]] = {}  # id(rec) -> (rec, future)
        self._pool = None

    def start(self) -> None:
        # at the first record, not in __init__: a run stopped in set-up has no job to join
        if self._to_submit:
            # imported only where a worker is made: about 5 ms after numpy
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="stage2")
            self._jobs = {id(r): (r, self._pool.submit(self._run, r, "worker"))
                          for r in self._to_submit}
            self._to_submit = []

    def result(self, rec: CorpusRecord):
        """``rec``'s job's outcome. This thread runs it if it has no job or the
        worker has not started it (``Future.cancel()`` succeeds only then),
        and while the worker runs it, the last jobs the worker has not
        started. Each job runs whole on one thread, so either thread gives
        the same bits."""
        _, job = self._jobs.pop(id(rec), (None, None))
        if job is None or job.cancel():
            return self._run(rec)
        for key, (other, queued) in reversed(list(self._jobs.items())):
            if job.done():
                break
            if queued.done():
                continue  # an earlier steal
            if not queued.cancel():
                break  # the worker, in record order, has started all the jobs before it
            self._jobs[key] = other, self._run_here(other)
        return job.result()

    def drop(self, rec: CorpusRecord) -> None:
        """Forget a skipped record's job: cancelled if no thread has started it (a
        started one runs to its end), and never taken by the caller's thread."""
        _, job = self._jobs.pop(id(rec), (None, None))
        if job is not None:
            job.cancel()

    def _run(self, rec: CorpusRecord, thread: str = "main"):
        """``generate_claim``'s output, its wall seconds on the thread that ran it, and that thread."""
        t_start = time.perf_counter()
        out = generate_claim(rec, *self._args)
        return out, time.perf_counter() - t_start, thread

    def _run_here(self, rec: CorpusRecord):
        """A finished future holding ``rec``'s job's result or exception, run on this thread."""
        from concurrent.futures import Future
        done = Future()
        try:
            done.set_result(self._run(rec))
        except Exception as exc:  # raised at ``rec``'s own result(), as from the worker
            done.set_exception(exc)
        return done

    def __enter__(self) -> "StageTwo":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)


def process_document(rec: CorpusRecord, prior_art: list[CorpusRecord],
                     models: PipelineModels, config: PipelineConfig,
                     memo: StageOneMemo, stage2: StageTwo) -> tuple[dict, dict]:
    """Run stages 1-3 for one record; returns (report record, stage timings).

    ``memo`` carries the prior-art chunks' features across the records of
    one run. ``stage2.start()`` comes first, so a worker, if the run has one,
    generates while this thread does stage 1; ``stage2.result(rec)`` gives
    the generation. ``stage2_seconds`` is its wall time on ``stage2_thread``,
    so with a worker the stage times overlap. The caller holds ``no_grad()``, as ``run_pipeline`` does, so no
    autodiff tape is built. The report's ``curriculum`` block is the
    schedule at step 0, where inference runs.
    """
    stage2.start()
    timings = {}

    # Stage 1: adaptive chunking + relationship-aware similarity
    t_start = time.perf_counter()
    _, kappa, size, chunks = chunk_record(rec, models.vocab)
    sim_reports = claim_similarities(rec, prior_art, models, memo)
    sim_reports.sort(key=lambda r: (-r.similarity, r.claim_chunk_id, r.doc_chunk_id))
    top_sims = [r.to_record() for r in sim_reports[:config.top_k]]
    timings["stage1_seconds"] = time.perf_counter() - t_start

    # Stage 2: domain-adaptive generation
    schedule = config.curriculum()
    tau = curriculum_progress(0, schedule)
    level = difficulty_level(0, schedule)
    ((gen_ids, alpha, domain_label, generated_text), timings["stage2_seconds"],
     timings["stage2_thread"]) = stage2.result(rec)

    # Stage 3: unified quality assessment
    t_start = time.perf_counter()
    reference_ids = models.vocab.encode_text((rec.claims or [rec.description])[0])
    quality = score_pair(reference_ids, gen_ids if gen_ids else [models.vocab.token_id("<unk>")],
                         alpha, models.evaluator, models.enc_params)
    metrics = claim_metrics(models.vocab.decode(reference_ids),
                            models.vocab.decode(gen_ids) if gen_ids else [])
    timings["stage3_seconds"] = time.perf_counter() - t_start

    report = {
        "doc_id": rec.id,
        "complexity": kappa,
        "target_chunk_size": size,
        "chunks": [[c.start_token, c.end_token] for c in chunks],
        "top_similarity": top_sims,
        "domain_mixture": [float(x) for x in alpha],
        "domain_label": domain_label,
        "curriculum": {"step": 0, "tau": tau, "level": level},
        "generated_claims": [generated_text],
        "quality": quality.to_record(),
        "metrics": metrics,
    }
    return report, timings


def run_pipeline(corpus_path, prior_art_path, out_dir, config: PipelineConfig,
                 seed: int, checkpoint_path=None) -> PipelineResult:
    """Execute the full three-stage pipeline over a corpus file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = read_corpus(corpus_path)
    prior_art = read_corpus(prior_art_path) if prior_art_path else []

    models = load_models(record_texts(records + prior_art), config, seed, checkpoint_path)

    memo: StageOneMemo = {}
    reports, failures, timing_rows = [], [], []
    # The grad flag is process-wide, and the worker's `generate` sets and
    # restores it too: one no_grad() over the whole loop, left only after the
    # worker has been joined, keeps it off throughout and restores it once.
    with no_grad(), StageTwo(records, models, config) as stage2:
        for rec in records:
            try:
                report, timings = process_document(rec, prior_art, models, config, memo, stage2)
            except (NonFiniteError, AssertionError):
                raise  # a broken invariant ends the run, as in `evaluate`
            except Exception as exc:  # failure isolation: one bad record skips one doc
                stage2.drop(rec)  # if its stage 1 raised, no thread need generate for it
                failures.append({"doc_id": rec.id, "error": str(exc)})
                continue
            reports.append(report)
            timing_rows.append({"doc_id": rec.id, **timings})

    report_path = out / "report.jsonl"
    write_jsonl(report_path, reports + [{"skipped": failure} for failure in failures])
    timings_path = out / "timings.jsonl"
    write_jsonl(timings_path, timing_rows)

    summary_path = out / "summary.txt"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(f"{'doc':<10} {'domain':<12} {'overall':>8} {'rouge-f':>8} {'bleu':>8}\n")
        for report in reports:
            fh.write(
                f"{report['doc_id']:<10} {report['domain_label']:<12} "
                f"{report['quality']['overall']:>8.4f} "
                f"{report['metrics']['rouge_l']['f']:>8.4f} "
                f"{report['metrics']['bleu']:>8.4f}\n"
            )
        fh.write(f"\nprocessed {len(reports)}; skipped {len(failures)}\n")
        for failure in failures:
            fh.write(f"skipped {failure['doc_id']}: {failure['error']}\n")

    return PipelineResult(reports=reports, failures=failures,
                          report_path=report_path, summary_path=summary_path,
                          timings_path=timings_path)
