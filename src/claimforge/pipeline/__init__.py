"""Algorithm orchestration, corpus ingestion, metrics, reporting, and the CLI."""

from claimforge.pipeline.metrics import rouge_l, bleu
from claimforge.pipeline.corpus import CorpusRecord, read_corpus, training_data, write_corpus
from claimforge.pipeline.synth import synth_corpus, SynthCorpus
from claimforge.pipeline.config import PipelineConfig
from claimforge.pipeline.run import run_pipeline, PipelineResult, write_jsonl

__all__ = [
    "rouge_l",
    "bleu",
    "CorpusRecord",
    "read_corpus",
    "training_data",
    "write_corpus",
    "synth_corpus",
    "SynthCorpus",
    "PipelineConfig",
    "run_pipeline",
    "PipelineResult",
    "write_jsonl",
]
