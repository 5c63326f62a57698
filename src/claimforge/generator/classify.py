"""Domain classification producing the adapter mixing weights."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from claimforge.numerics import (ParamSource, Params, Tensor, backward, cross_entropy_logits,
                                 no_grad, softmax)
from claimforge.generator.adapters import DOMAINS
from claimforge.training import AdamW

CLASSIFIER_BATCH_SIZE = 16


@dataclass
class DomainClassifier:
    """MLP from a mean-pooled description embedding to 5 domain logits."""

    params: dict[str, Tensor] = field(default_factory=dict)

    @classmethod
    def init(cls, model_dim: int, rng: ParamSource, hidden: int = 64) -> "DomainClassifier":
        p = Params(rng)
        p.normal("domain/w1", (model_dim, hidden), 1.0 / np.sqrt(model_dim))
        p.fill("domain/b1", (hidden,), 0.0)
        p.normal("domain/w2", (hidden, len(DOMAINS)), 1.0 / np.sqrt(hidden))
        p.fill("domain/b2", (len(DOMAINS),), 0.0)
        return cls(params=p.tensors)

    def logits(self, pooled: Tensor) -> Tensor:
        h = (pooled @ self.params["domain/w1"] + self.params["domain/b1"]).relu()
        return h @ self.params["domain/w2"] + self.params["domain/b2"]


def pool_embedding(token_ids: list[int], embed_table: Tensor) -> Tensor:
    """Mean token embedding of a description (classifier input features)."""
    if not token_ids:
        raise ValueError("empty document")
    return embed_table[np.asarray(token_ids)].mean(axis=0)


def classify_domain(pooled: Tensor, classifier: DomainClassifier
                    ) -> tuple[np.ndarray, str, float]:
    """Softmax mixing weights alpha, argmax domain label, and confidence."""
    alpha = softmax(classifier.logits(pooled)).data
    idx = int(np.argmax(alpha))
    return alpha, DOMAINS[idx], float(alpha[idx])


def train_domain_classifier(samples: list[tuple[list[int], str]],
                            embed_table: Tensor, classifier: DomainClassifier,
                            lr: float = 1e-2, epochs: int = 30) -> list[float]:
    """Cross-entropy training on (description token ids, domain label) pairs."""
    if not samples:
        raise ValueError("empty corpus")
    label_idx = {d: i for i, d in enumerate(DOMAINS)}
    opt = AdamW(classifier.params, lr=lr, weight_decay=0.01)
    history = []
    for _ in range(epochs):
        for start in range(0, len(samples), CLASSIFIER_BATCH_SIZE):
            batch = samples[start:start + CLASSIFIER_BATCH_SIZE]
            loss = None
            for token_ids, label in batch:
                logits = classifier.logits(pool_embedding(token_ids, embed_table))
                term = cross_entropy_logits(logits, label_idx[label])
                loss = term if loss is None else loss + term
            loss = loss * (1.0 / len(batch))
            grads = backward(loss, classifier.params)
            opt.step(grads)
            history.append(loss.item())
    return history


@no_grad()
def eval_domain_accuracy(samples: list[tuple[list[int], str]],
                         embed_table: Tensor, classifier: DomainClassifier) -> float:
    correct = 0
    for token_ids, label in samples:
        _, pred, _ = classify_domain(pool_embedding(token_ids, embed_table), classifier)
        correct += pred == label
    return correct / len(samples)
