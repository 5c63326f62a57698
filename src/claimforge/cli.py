"""Command-line interface for the patent-claim pipeline."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from claimforge.numerics import NonFiniteError, Rng, CheckpointError, no_grad
from claimforge.evaluator import EvaluatorTrainConfig, ordering_accuracy, score_pair, train_evaluator
from claimforge.generator import (
    DOMAINS,
    GeneratorTrainConfig,
    train_domain_classifier,
    train_generator,
)
from claimforge.pipeline import (
    PipelineConfig,
    claim_metrics,
    read_corpus,
    read_jsonl,
    run_pipeline,
    synth_corpus,
    training_data,
    write_corpus,
    write_jsonl,
)
from claimforge.pipeline.run import (
    chunk_record,
    claim_similarities,
    generate_claim,
    load_models,
    record_texts,
    save_models,
)
from claimforge.similarity import SimilarityTrainConfig, train_similarity
from claimforge.textcore import Vocabulary, tokenize

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INTERNAL = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimforge",
        description="Three-stage patent claim pipeline: similarity, generation, assessment.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed (overrides CLAIMFORGE_SEED and config)")
    parser.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic patent corpus")
    p.add_argument("--size", type=int, default=60)
    p.add_argument("--domains", type=int, default=5)

    p = sub.add_parser("chunk", help="adaptive chunking report for a corpus")
    p.add_argument("--corpus", type=Path, required=True)

    p = sub.add_parser("similarity", help="similarity reports between claims and prior art")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--prior-art", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, default=None)

    p = sub.add_parser("train-sim", help="train the similarity encoder and head weights")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--epochs", type=int, default=5)

    p = sub.add_parser("train-gen", help="train the generator with curriculum sampling")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--checkpoint", type=Path, default=None)

    p = sub.add_parser("train-eval", help="train the quality evaluator on corruption tuples")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--checkpoint", type=Path, default=None)

    p = sub.add_parser("generate", help="generate claims for each corpus record")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, default=None)

    p = sub.add_parser("evaluate", help="score (reference, generated) claim pairs")
    p.add_argument("--pairs", type=Path, required=True,
                   help="jsonl with fields reference, generated, domain")
    p.add_argument("--checkpoint", type=Path, default=None)

    p = sub.add_parser("pipeline", help="run all three stages end to end")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--prior-art", type=Path, default=None)
    p.add_argument("--checkpoint", type=Path, default=None)

    p = sub.add_parser("metrics", help="ROUGE-L and BLEU for claim pairs")
    p.add_argument("--pairs", type=Path, required=True)

    return parser


def _resolve_seed(args, config: PipelineConfig) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CLAIMFORGE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"CLAIMFORGE_SEED must be an integer, got {env!r}") from None
    return config.seed


def _corpus_texts(records) -> list[str]:
    """A fresh vocabulary's texts for the ``train-*`` commands: the pipeline's
    texts plus the relationship-pair texts the similarity trainer reads."""
    texts = record_texts(records)
    for rec in records:
        for pair in rec.relationship_pairs:
            texts.extend([pair["claim_text"], pair["doc_text"]])
    return texts


def _training_setup(args, config, seed, checkpoint=None):
    """Models over the corpus (or the checkpoint's vocabulary) and the
    corpus's ``training_data`` in that vocabulary."""
    records = read_corpus(args.corpus)
    models = load_models(_corpus_texts(records), config, seed, checkpoint)
    return models, training_data(records, models.vocab)


def _cmd_synth(args, config, seed) -> int:
    corpus = synth_corpus(seed, args.size, domains=args.domains)
    args.out.mkdir(parents=True, exist_ok=True)
    write_corpus(args.out / "corpus.jsonl", corpus.records)
    write_corpus(args.out / "prior_art.jsonl", corpus.prior_art)
    print(f"wrote {len(corpus.records)} records and {len(corpus.prior_art)} prior-art records "
          f"to {args.out}")
    return EXIT_OK


def _cmd_chunk(args, config, seed) -> int:
    records = read_corpus(args.corpus)
    vocab = Vocabulary.build(record_texts(records), cap=config.vocab_cap)
    rows = []
    for rec in records:
        _, kappa, size, chunks = chunk_record(rec, vocab)
        rows.append({"doc_id": rec.id, "complexity": kappa, "target_size": size,
                     "chunks": [[c.start_token, c.end_token] for c in chunks]})
    write_jsonl(args.out / "chunks.jsonl", rows)
    print(f"chunked {len(rows)} documents -> {args.out / 'chunks.jsonl'}")
    return EXIT_OK


@no_grad()
def _cmd_similarity(args, config, seed) -> int:
    records, prior = read_corpus(args.corpus), read_corpus(args.prior_art)
    models = load_models(record_texts(records + prior), config, seed, args.checkpoint)
    memo = {}
    rows = [report.to_record() for rec in records
            for report in claim_similarities(rec, prior, models, memo)]
    write_jsonl(args.out / "similarity.jsonl", rows)
    print(f"wrote {len(rows)} similarity reports -> {args.out / 'similarity.jsonl'}")
    return EXIT_OK


def _cmd_train_sim(args, config, seed) -> int:
    train_cfg = SimilarityTrainConfig(temperature=config.sim_temperature,
                                      aux_weight=config.aux_weight, epochs=args.epochs)
    models, (pairs, _, _) = _training_setup(args, config, seed)
    if not pairs:
        raise ValueError("corpus has no relationship-labeled pairs")
    log_rows = []
    history = train_similarity(pairs, models.cfg, models.enc_params, models.head_bank,
                               train_cfg, log_fn=log_rows.append)
    write_jsonl(args.out / "train_log.jsonl", log_rows)
    ckpt = save_models(models, args.out)
    print(f"trained similarity on {len(pairs)} pairs; "
          f"loss {history[0]:.4f} -> {history[-1]:.4f}; checkpoint {ckpt}")
    return EXIT_OK


def _cmd_train_gen(args, config, seed) -> int:
    train_cfg = GeneratorTrainConfig(batch_size=config.batch_size, lr=config.lr,
                                     weight_decay=config.weight_decay, steps=args.steps,
                                     grad_clip=config.grad_clip)
    models, (_, samples, _) = _training_setup(args, config, seed, args.checkpoint)
    log_rows = []
    history = train_generator(samples, models.generator, models.adapter_bank, models.classifier,
                              config.curriculum(), Rng(seed, ("train-gen",)), train_cfg,
                              log_fn=log_rows.append)
    # train_generator raised if no usable sample has a label, so this is not empty
    clf_samples = [(s.description_ids, s.domain_label) for s in samples
                   if s.domain_label is not None]
    train_domain_classifier(clf_samples, models.generator.embed, models.classifier)
    write_jsonl(args.out / "train_log.jsonl", log_rows)
    ckpt = save_models(models, args.out)
    print(f"trained generator for {args.steps} steps; "
          f"loss {history[0]:.4f} -> {history[-1]:.4f}; checkpoint {ckpt}")
    return EXIT_OK


def _cmd_train_eval(args, config, seed) -> int:
    train_cfg = EvaluatorTrainConfig(epochs=args.epochs)
    models, (_, _, tuples) = _training_setup(args, config, seed, args.checkpoint)
    if not tuples:
        raise ValueError("corpus has no corruption tuples whose better and worse differ")
    log_rows = []
    history = train_evaluator(tuples, models.evaluator, models.enc_params, train_cfg,
                              log_fn=log_rows.append)
    write_jsonl(args.out / "train_log.jsonl", log_rows)
    acc = ordering_accuracy(tuples, models.evaluator, models.enc_params)
    ckpt = save_models(models, args.out)
    print(f"trained evaluator on {len(tuples)} tuples; loss {history[0]:.4f} -> "
          f"{history[-1]:.4f}; train ordering accuracy {acc:.3f}; checkpoint {ckpt}")
    return EXIT_OK


def _cmd_generate(args, config, seed) -> int:
    records = read_corpus(args.corpus)
    models = load_models(record_texts(records), config, seed, args.checkpoint)
    rows = []
    for rec in records:
        _, alpha, label, text = generate_claim(rec, models, config)
        rows.append({"doc_id": rec.id, "domain_label": label,
                     "domain_mixture": [float(a) for a in alpha], "generated": text})
    write_jsonl(args.out / "generations.jsonl", rows)
    print(f"generated claims for {len(rows)} documents -> {args.out / 'generations.jsonl'}")
    return EXIT_OK


def _read_pairs(path: Path) -> list[tuple[int, dict]]:
    """(line number, row) for rows with string ``reference`` and ``generated``
    and an optional ``domain`` from ``DOMAINS``; a bad row is an error naming
    its ``path:lineno``."""
    pairs = []
    for lineno, row in read_jsonl(path):
        if not (isinstance(row, dict)
                and all(isinstance(row.get(k), str) for k in ("reference", "generated"))):
            raise ValueError(f"{path}:{lineno}: a pair is a JSON object with string "
                             f"'reference' and 'generated'")
        if row.get("domain", DOMAINS[0]) not in DOMAINS:
            raise ValueError(f"{path}:{lineno}: domain must be one of {', '.join(DOMAINS)}, "
                             f"got {row['domain']!r}")
        pairs.append((lineno, row))
    return pairs


def _cmd_evaluate(args, config, seed) -> int:
    """Scores every pair it can; a pair that cannot be scored is reported on
    stderr as ``path:lineno: message``, and then the exit code is
    EXIT_INPUT_ERROR, as for skipped pipeline records."""
    pairs = _read_pairs(args.pairs)
    texts = [p["reference"] for _, p in pairs] + [p["generated"] for _, p in pairs]
    models = load_models(texts, config, seed, args.checkpoint)
    from claimforge.evaluator.train import domain_one_hot

    rows, skipped = [], 0
    for lineno, pair in pairs:
        alpha = domain_one_hot(pair.get("domain", DOMAINS[0]))
        try:
            report = score_pair(models.vocab.encode_text(pair["reference"]),
                                models.vocab.encode_text(pair["generated"]),
                                alpha, models.evaluator, models.enc_params)
        except NonFiniteError:
            raise
        except ValueError as exc:  # one bad pair skips that pair only
            print(f"{args.pairs}:{lineno}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        rows.append({"reference": pair["reference"], "generated": pair["generated"],
                     **report.to_record()})
    write_jsonl(args.out / "quality.jsonl", rows)
    print(f"scored {len(rows)} pairs, skipped {skipped} -> {args.out / 'quality.jsonl'}")
    return EXIT_OK if not skipped else EXIT_INPUT_ERROR


def _cmd_pipeline(args, config, seed) -> int:
    result = run_pipeline(args.corpus, args.prior_art, args.out, config, seed,
                          checkpoint_path=args.checkpoint)
    print(f"pipeline processed {len(result.reports)} documents, "
          f"skipped {len(result.failures)}; report {result.report_path}")
    return EXIT_OK if not result.failures else EXIT_INPUT_ERROR


def _cmd_metrics(args, config, seed) -> int:
    rows = [{"reference": pair["reference"], "generated": pair["generated"],
             **claim_metrics(tokenize(pair["reference"]), tokenize(pair["generated"]))}
            for _, pair in _read_pairs(args.pairs)]
    write_jsonl(args.out / "metrics.jsonl", rows)
    print(f"computed metrics for {len(rows)} pairs -> {args.out / 'metrics.jsonl'}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "chunk": _cmd_chunk,
    "similarity": _cmd_similarity,
    "train-sim": _cmd_train_sim,
    "train-gen": _cmd_train_gen,
    "train-eval": _cmd_train_eval,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "pipeline": _cmd_pipeline,
    "metrics": _cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
        seed = _resolve_seed(args, config)
        return _COMMANDS[args.command](args, config, seed)
    except (NonFiniteError, AssertionError) as exc:  # NonFiniteError is a ValueError
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError, KeyError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a defect: named in one line, not a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
