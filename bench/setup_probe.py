"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload> <seed> <inputs dir> <out dir>

Prints the seconds from importing claimforge to the first document (the
pipeline workloads) or to the first optimizer step (train-mix): corpus read,
vocabulary build and model init.
"""

import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (a dependency: imported before the clock starts)

T0 = time.perf_counter()

import workloads  # noqa: E402  (imports claimforge)
from claimforge.pipeline import run as pipeline_run  # noqa: E402


class FirstDocument(BaseException):
    """Raised at the first document; run_pipeline isolates only Exception."""


def _stop(*args, **kwargs):
    raise FirstDocument


def main(argv: list[str]) -> None:
    name, seed, inputs_dir, out = argv
    workload = workloads.WORKLOADS[name]
    inputs = workloads.Inputs(Path(inputs_dir) / "corpus.jsonl",
                              Path(inputs_dir) / "prior_art.jsonl", 0)
    if workload.kind == "pipeline":
        pipeline_run.process_document = _stop
        try:
            pipeline_run.run_pipeline(inputs.corpus, inputs.prior_art, out,
                                      workloads.PipelineConfig(**workload.config),
                                      seed=workload.init_seed(int(seed)))
        except FirstDocument:
            pass
        else:
            raise SystemExit("the pipeline processed no document")
    else:
        workloads.prepare_training(workload, int(seed), inputs)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main(sys.argv[1:])
