"""Curriculum training loop for the generator, adapters, and classifier."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

from claimforge.numerics import Rng, Settings, Tensor, backward, cross_entropy_logits, softmax
from claimforge.generator.adapters import DOMAINS, AdapterBank, effective_overrides
from claimforge.generator.classify import DomainClassifier, pool_embedding
from claimforge.generator.decode import GeneratorModel, decoder_logits
from claimforge.textcore import BOS_ID, EOS_ID, SEP_ID
from claimforge.training import (
    AdamW,
    CurriculumSchedule,
    bucket_corpus,
    clip_grad_norm,
    curriculum_progress,
    difficulty_level,
    sample_batch,
    sequence_cross_entropy,
)
from claimforge.training.curriculum import difficulty_key


@dataclass
class GeneratorSample:
    id: str
    description_ids: list[int]
    claim_ids: list[int]
    domain_label: str | None = None
    dependent_claim_count: int = 0


@dataclass
class GeneratorTrainConfig(Settings):
    batch_size: int = 4
    lr: float = 5e-5
    weight_decay: float = 0.01
    steps: int = 100
    grad_clip: float = 1.0
    curriculum: bool = True


def _sample_loss(sample: GeneratorSample, model: GeneratorModel,
                 bank: AdapterBank, classifier: DomainClassifier) -> Tensor:
    domain_logits = classifier.logits(pool_embedding(sample.description_ids, model.embed))
    alpha = softmax(domain_logits)
    overrides = effective_overrides(model.params, bank, alpha)

    # the room the claim, BOS, SEP and EOS leave; none when the claim fills it
    # (train_generator skips a claim that cannot fit at all)
    budget = max(0, model.cfg.max_seq_len - len(sample.claim_ids) - 3)
    seq = ([BOS_ID] + sample.description_ids[:budget] + [SEP_ID]
           + sample.claim_ids + [EOS_ID])
    logits = decoder_logits(seq[:-1], model, overrides)
    loss = sequence_cross_entropy(logits, seq[1:])

    if sample.domain_label is not None:
        loss = loss + cross_entropy_logits(domain_logits, DOMAINS.index(sample.domain_label))
    return loss


def train_generator(samples: list[GeneratorSample], model: GeneratorModel,
                    bank: AdapterBank, classifier: DomainClassifier,
                    schedule: CurriculumSchedule, rng: Rng,
                    train_cfg: GeneratorTrainConfig = GeneratorTrainConfig(),
                    log_fn: Callable[[dict], None] | None = None) -> list[float]:
    """Next-token training with curriculum batch sampling; returns loss history.

    A step's loss is the mean of its samples' losses. Each sample's graph is
    built and walked on its own, as ``backward`` asks for it, so while one is
    built only the graph walked before it is still alive, not the whole
    batch's. The samples go newest first: one walk over the graph of the
    summed batch, in reverse creation order, reached the last sample's nodes
    first, so each parameter's gradient adds its samples' parts in the same
    order, and gets the same bits. The loss recorded is the batch-order sum
    of the samples' losses times ``1 / batch_size``, as that graph had it.
    """
    if not samples:
        raise ValueError("empty corpus")
    usable = []
    for s in samples:
        # the decoder input holds at least BOS, SEP and the claim
        if len(s.claim_ids) >= model.cfg.max_seq_len - 1:
            warnings.warn(f"skipping sample {s.id!r}: its claim of {len(s.claim_ids)} tokens "
                          f"leaves no room within max_seq_len {model.cfg.max_seq_len}")
            continue
        usable.append(s)
    if not usable:
        raise ValueError("no usable samples after skipping claims too long to fit")
    samples = usable
    if all(s.domain_label is None for s in samples):
        raise ValueError("corpus has no domain labels to train the classifier on")

    by_id = {s.id: s for s in samples}
    keys = [(s.id, difficulty_key(len(s.claim_ids), s.dependent_claim_count)) for s in samples]
    buckets = bucket_corpus(keys) if train_cfg.curriculum else None

    trainable: dict[str, Tensor] = {**bank.params, **model.params, **classifier.params}
    opt = AdamW(trainable, lr=train_cfg.lr, weight_decay=train_cfg.weight_decay)

    history: list[float] = []
    ids = sorted(by_id)
    for t in range(train_cfg.steps):
        if buckets is not None:
            batch_ids = sample_batch(buckets, t, schedule, train_cfg.batch_size, rng)
        else:
            idx = rng.integers(0, len(ids), size=train_cfg.batch_size)
            batch_ids = [ids[i] for i in idx]
        scale = 1.0 / len(batch_ids)
        terms = [0.0] * len(batch_ids)

        def scaled_terms():
            for i in reversed(range(len(batch_ids))):
                term = _sample_loss(by_id[batch_ids[i]], model, bank, classifier)
                terms[i] = term.item()
                yield term * scale

        grads = backward(scaled_terms(), trainable)
        norm = clip_grad_norm(grads, train_cfg.grad_clip)
        opt.step(grads)
        loss = terms[0]
        for value in terms[1:]:  # left to right, as the graph added them; sum() may not
            loss += value
        history.append(loss * scale)
        if log_fn is not None:
            log_fn({
                "step": t,
                "level": difficulty_level(t, schedule),
                "tau": curriculum_progress(t, schedule),
                "loss": history[-1],
                "grad_norm": norm,
            })
    return history
