"""Every numeric setting's range, at the bound and just past it, wherever the
setting is built: the config dataclasses, ``AdamW``, ``clip_grad_norm``,
``generate`` and ``contrastive_loss``, and ``PipelineConfig.from_file``.

``LOWEST`` is the oracle, written apart from ``claimforge.numerics.settings.RULES``.
"""

import inspect
import math
import re
import sys
from dataclasses import fields

import numpy as np
import pytest

from claimforge.evaluator import EvaluatorTrainConfig
from claimforge.generator import (AdapterBank, DomainClassifier, GeneratorModel,
                                  GeneratorTrainConfig, generate)
from claimforge.numerics import Rng, SettingError, Settings, Tensor
from claimforge.numerics.settings import RULES
from claimforge.pipeline import PipelineConfig
from claimforge.similarity import SimilarityTrainConfig
from claimforge.textcore import NUM_RESERVED, EncoderConfig
from claimforge.training import AdamW, CurriculumSchedule, clip_grad_norm, contrastive_loss

TINY = sys.float_info.min  # the smallest normal positive float

# setting -> (the lowest value it takes, the value just below that)
LOWEST = {
    "model_dim": (2, 1),  # even, for the sinusoidal position table
    **dict.fromkeys(["num_heads", "head_dim", "max_seq_len", "max_gen_len", "max_len",
                     "batch_size", "epochs", "steps"], (1, 0)),
    "vocab_cap": (NUM_RESERVED, NUM_RESERVED - 1),
    **dict.fromkeys(["num_layers", "top_k"], (0, -1)),
    **dict.fromkeys(["lr", "weight_decay", "t0"], (0.0, -TINY)),
    **dict.fromkeys(["sim_temperature", "temperature", "grad_clip", "max_norm", "gamma"],
                    (TINY, 0.0)),
}
# positive values whose reciprocal, the scale a loss applies, overflows to inf;
# TINY, the smallest normal float, has a finite one
OVERFLOWING_RECIPROCAL = {name: [5e-324, 5e-309] for name in ("sim_temperature", "temperature")}
# settings any finite value of which is valid
FINITE_ONLY = {"aux_weight", "seed", "beta1", "beta2", "eps"}

GEOMETRY = dict(model_dim=16, num_heads=2, head_dim=8, num_layers=1,
                max_seq_len=256, max_gen_len=8, top_k=3)


def heads_that_fill(name, value):
    """``{name: value}``, with the other two head settings chosen so the heads
    fill ``model_dim`` whenever ``value`` is in range."""
    return {"model_dim": dict(model_dim=value, num_heads=1, head_dim=value),
            "num_heads": dict(model_dim=16, num_heads=value, head_dim=16),
            "head_dim": dict(model_dim=16, num_heads=16, head_dim=value)}.get(name, {name: value})


def pipeline_kwargs(name, value):
    return {**GEOMETRY, **heads_that_fill(name, value)}


def build_adamw(**kw):
    betas = (kw.pop("beta1", 0.9), kw.pop("beta2", 0.999))
    return AdamW({"w": Tensor(np.zeros(2), requires_grad=True)}, betas=betas, **kw)


def build_generate(max_len):
    cfg = EncoderConfig(model_dim=4, num_heads=1, head_dim=4, num_layers=0, max_seq_len=8)
    model = GeneratorModel.init(8, cfg, Rng(0, ("settings",)))
    return generate([5], model, AdapterBank.init(0, 4, Rng(0, ("bank",))),
                    DomainClassifier.init(4, Rng(0, ("clf",))), max_len=max_len)


def numeric(params):
    return [(name, kind) for name, kind in params if kind in ("int", "float")]


# owner -> (its numeric settings as (name, type), a call that builds it with
# one setting changed)
OWNERS = {
    "PipelineConfig": (numeric((f.name, f.type) for f in fields(PipelineConfig)),
                       lambda name, v: PipelineConfig(**pipeline_kwargs(name, v))),
    "EncoderConfig": (numeric((f.name, f.type) for f in fields(EncoderConfig)),
                      lambda name, v: EncoderConfig(**heads_that_fill(name, v))),
    **{cls.__name__: (numeric((f.name, f.type) for f in fields(cls)),
                      lambda name, v, cls=cls: cls(**{name: v}))
       for cls in (CurriculumSchedule, SimilarityTrainConfig, GeneratorTrainConfig,
                   EvaluatorTrainConfig)},
    # betas arrive as one pair
    "AdamW": (numeric((p.name, p.annotation)
                      for p in inspect.signature(AdamW).parameters.values())
              + [("beta1", "float"), ("beta2", "float")],
              lambda name, v: build_adamw(**{name: v})),
    "clip_grad_norm": ([("max_norm", "float")],
                       lambda name, v: clip_grad_norm({"w": np.ones(2)}, v)),
    "generate": ([("max_len", "int")], lambda name, v: build_generate(v)),
    "contrastive_loss": ([("temperature", "float")],
                         lambda name, v: contrastive_loss(Tensor(np.eye(2)), v)),
}
SETTINGS = [(owner, name, kind) for owner, (settings, _) in OWNERS.items()
            for name, kind in settings]
RANGED = [(owner, name) for owner, name, _ in SETTINGS if name in LOWEST]
# model_dim: 1 is odd, 0 is even but below 1
REJECTED = [(owner, name, value) for owner, name, kind in SETTINGS
            for value in ([LOWEST[name][1]] if name in LOWEST else [])
            + ([0] if name == "model_dim" else []) + OVERFLOWING_RECIPROCAL.get(name, [])
            + ([math.nan, math.inf] if kind == "float" else [])]


def test_every_numeric_setting_has_a_rule_or_is_finite_only():
    # a setting added without a rule fails here until it gets one
    assert {cls.__name__ for cls in Settings.__subclasses__()} <= set(OWNERS)
    for owner, name, _ in SETTINGS:
        assert name in RULES or name in FINITE_ONLY, (owner, name)
    assert set(RULES) == set(LOWEST) == {name for _, name in RANGED}
    assert not set(RULES) & FINITE_ONLY


def test_integer_past_the_float_range_accepted(tmp_path):
    # seed = 10**400 used to end the run with an OverflowError from math.isfinite
    path = tmp_path / "p.cfg"
    path.write_text(f"seed = {10**400}\n")
    assert PipelineConfig.from_file(path).seed == 10**400
    # its reciprocal, the temperature rule's test, is 0.0: no OverflowError either
    assert SimilarityTrainConfig(temperature=10**400).temperature == 10**400


@pytest.mark.parametrize("owner, name", RANGED)
def test_value_at_its_bound_accepted(owner, name):
    if (owner, name) == ("PipelineConfig", "max_seq_len"):
        # max_gen_len + 2 < max_seq_len, with max_gen_len at least 1, puts
        # the lowest value at 4, above the rule's 1
        assert PipelineConfig(**{**GEOMETRY, "max_gen_len": 1, "max_seq_len": 4}).max_seq_len == 4
        with pytest.raises(SettingError, match=r"^max_gen_len \+ 2 must be below max_seq_len"
                                               r".*: 1 \+ 2 >= 3$") as exc:
            PipelineConfig(**{**GEOMETRY, "max_gen_len": 1, "max_seq_len": 3})
        assert exc.value.setting == "max_gen_len"
        return
    OWNERS[owner][1](name, LOWEST[name][0])


@pytest.mark.parametrize("owner, name, value", REJECTED)
def test_value_past_its_bound_rejected_naming_it(owner, name, value):
    with pytest.raises(SettingError,
                       match=f"^{name} must be .*, got {re.escape(str(value))}$") as exc:
        OWNERS[owner][1](name, value)
    assert exc.value.setting == name


@pytest.mark.parametrize("name, value", [(name, value) for owner, name, value in REJECTED
                                         if owner == "PipelineConfig"])
def test_config_file_value_past_its_bound_names_line_and_key(tmp_path, name, value):
    kw = pipeline_kwargs(name, value)
    path = tmp_path / "p.cfg"
    path.write_text("".join(f"{key} = {v}\n" for key, v in kw.items()))
    with pytest.raises(SettingError) as direct:
        PipelineConfig(**kw)
    where = f"{path}:{list(kw).index(name) + 1}: config key {name!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{where} {direct.value.reason}')}$"):
        PipelineConfig.from_file(path)
