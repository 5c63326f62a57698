"""The benchmark's patch points still exist in the program, and the calls
they see are ones its wrappers can count.

``bench/spans.py`` wraps each layer's public function at the module global or
class attribute where its caller looks it up. A refactor that renames or
drops one of those would only mark the layer unmeasured in a benchmark run;
here it fails the test suite. The module is imported by path and only read.
"""

import importlib.util
import sys
from pathlib import Path

from claimforge.evaluator import EvaluatorModel, EvaluatorTrainConfig, train_evaluator
from claimforge.numerics import Rng
from claimforge.similarity import HeadBank, SimilarityTrainConfig, train_similarity
from claimforge.textcore import EncoderConfig, init_encoder_params

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


def test_trainer_encoder_calls_are_counted_per_batch():
    # the traced wrapper of encode_sequence hashes tuple(ids) and counts len(ids)
    # as tokens: each trainer step hands it one flat id list for its whole batch
    cfg = EncoderConfig(model_dim=16, num_heads=2, head_dim=8, num_layers=1, max_seq_len=64)
    enc = init_encoder_params(40, cfg, Rng(0, ("enc",)))
    pairs = [([5, 6, 7], [8, 9], "technical"), ([10], [11, 12, 13, 14], None),
             ([15, 16], [17], "equivalence"), ([18, 19, 20, 21], [22, 23, 24], None)]
    tuples = [([5, 6], [7, 8, 9], [10], "software"), ([11, 12, 13], [14], [15, 16], "chemical"),
              ([17], [18, 19], [20, 21, 22, 23], "mechanical"), ([24, 25], [26], [27], "software")]
    tracer = load_spans().Tracer(traced=True)
    tracer.install()
    try:
        sim = train_similarity(pairs, cfg, enc, HeadBank.init(16, Rng(0, ("bank",)), head_dim=8),
                               SimilarityTrainConfig(batch_size=2, epochs=1))
        sim_counts = dict(tracer.counters)
        evaluated = train_evaluator(tuples, EvaluatorModel.init(cfg, Rng(0, ("eval",))), enc,
                                    EvaluatorTrainConfig(batch_size=2, epochs=1))
    finally:
        tracer.close()
    assert len(sim) == len(evaluated) == 2
    assert sim_counts["textcore.encode.calls"] == 2
    assert sim_counts["textcore.encode.tokens"] == sum(len(c) + len(d) for c, d, _ in pairs)
    assert tracer.counters["textcore.encode.calls"] == 2 + 2
    pair_tokens = sum(2 * (len(ref) + 3) + len(better) + len(worse)
                      for ref, better, worse, _ in tuples)
    assert (tracer.counters["textcore.encode.tokens"]
            == sim_counts["textcore.encode.tokens"] + pair_tokens)
    assert tracer.counters["numerics.backward.calls"] == 4
    assert tracer.unmeasured == {}
