"""Algorithm orchestration, corpus ingestion, metrics, reporting, and the CLI."""

from claimforge.pipeline.metrics import rouge_l, bleu, claim_metrics
from claimforge.pipeline.corpus import (CorpusRecord, read_corpus, read_jsonl, training_data,
                                        write_corpus)
from claimforge.pipeline.synth import synth_corpus, SynthCorpus
from claimforge.pipeline.config import PipelineConfig
from claimforge.pipeline.run import run_pipeline, PipelineResult, write_jsonl

__all__ = [
    "rouge_l",
    "bleu",
    "claim_metrics",
    "CorpusRecord",
    "read_corpus",
    "read_jsonl",
    "training_data",
    "write_corpus",
    "synth_corpus",
    "SynthCorpus",
    "PipelineConfig",
    "run_pipeline",
    "PipelineResult",
    "write_jsonl",
]
