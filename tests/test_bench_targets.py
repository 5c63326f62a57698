"""The benchmark's patch points still exist in the program, the calls they
see are ones its wrappers can count, and its copy of the training data
building agrees with the program's.

``bench/spans.py`` wraps each layer's public function at the module global or
class attribute where its caller looks it up. A refactor that renames or
drops one of those would only mark the layer unmeasured in a benchmark run;
here it fails the test suite. ``bench/workloads.py:prepare_training`` builds
the train-mix data itself, so a change to ``training_data`` that it does not
share fails here too. The modules are imported by path and only read.
"""

import importlib.util
import sys
from pathlib import Path

from claimforge.cli import _corpus_texts
from claimforge.evaluator import EvaluatorModel, EvaluatorTrainConfig, train_evaluator
from claimforge.generator import (
    AdapterBank,
    DomainClassifier,
    GeneratorModel,
    GeneratorSample,
    GeneratorTrainConfig,
    train_generator,
)
from claimforge.numerics import Rng
from claimforge.pipeline import (
    PipelineConfig,
    read_corpus,
    synth_corpus,
    training_data,
    write_corpus,
)
from claimforge.similarity import HeadBank, SimilarityTrainConfig, train_similarity
from claimforge.textcore import EncoderConfig, Vocabulary, init_encoder_params
from claimforge.training import CurriculumSchedule

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    saved_path, had_spans = list(sys.path), "spans" in sys.modules
    sys.path.insert(0, str(BENCH))  # workloads imports spans as a top-level module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        sys.path[:] = saved_path
        if not had_spans:
            sys.modules.pop("spans", None)
    return module


def load_spans():
    return load_bench("spans")


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


def test_generator_walks_once_per_step():
    # the benchmark splits a step into forward, backward and optimizer time
    # at the one backward call each step makes; the generator walks each
    # sample's graph on its own, but all inside that one call
    cfg = EncoderConfig(model_dim=16, num_heads=2, head_dim=8, num_layers=1, max_seq_len=64)
    samples = [GeneratorSample(id=f"s{i}", description_ids=[5 + i, 6, 7], claim_ids=[8, 9 + i],
                               domain_label=domain)
               for i, domain in enumerate(("software", "chemical", "mechanical"))]
    steps = 3
    tracer = load_spans().Tracer(traced=True)
    tracer.install()
    try:
        history = train_generator(samples, GeneratorModel.init(40, cfg, Rng(0, ("gen",))),
                                  AdapterBank.init(1, 16, Rng(0, ("bank",))),
                                  DomainClassifier.init(16, Rng(0, ("clf",))),
                                  CurriculumSchedule(), Rng(0, ("t",)),
                                  GeneratorTrainConfig(steps=steps, batch_size=4))
    finally:
        tracer.close()
    assert len(history) == steps
    assert tracer.counters["numerics.backward.calls"] == steps
    assert tracer.counters["optim.step.calls"] == steps
    assert tracer.unmeasured == {}


def test_training_data_matches_the_benchmark_copy(tmp_path):
    workloads = load_bench("workloads")
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, synth_corpus(300, 60).records)
    records = read_corpus(corpus)
    inputs = workloads.Inputs(corpus, tmp_path / "prior_art.jsonl", len(records))
    bench = workloads.prepare_training(workloads.WORKLOADS["train-mix"], 300, inputs)
    config = PipelineConfig(**workloads.TEST_GEOMETRY)
    vocab = Vocabulary.build(_corpus_texts(records), cap=config.vocab_cap)
    assert ([vocab.token(i) for i in range(len(vocab))]
            == [bench.models.vocab.token(i) for i in range(len(bench.models.vocab))])
    pairs, samples, tuples = training_data(records, vocab)
    assert pairs == bench.pairs
    assert samples == bench.samples
    assert tuples == bench.tuples
    assert (len(pairs), len(samples), len(tuples)) == (240, 60, 120)
