"""The benchmark's patch points still exist in the program.

``bench/spans.py`` wraps each layer's public function at the module global or
class attribute where its caller looks it up. A refactor that renames or
drops one of those would only mark the layer unmeasured in a benchmark run;
here it fails the test suite. The module is imported by path and only read.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_op_and_layer_target_resolves():
    from claimforge.pipeline import run as pipeline_run
    original = pipeline_run.similarity
    tracer = load_spans().Tracer(traced=True)
    try:
        tracer.install()  # raises if an op boundary does not resolve
        assert tracer.unmeasured == {}
        assert pipeline_run.similarity is not original
    finally:
        tracer.close()
    assert pipeline_run.similarity is original
