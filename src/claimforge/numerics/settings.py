"""The range each numeric setting takes, in one table, and its check, which the
config dataclasses (through ``Settings``), ``AdamW`` and ``clip_grad_norm`` run."""

import math


class SettingError(ValueError):
    """A setting out of its range; ``setting`` names it, ``reason`` says why."""

    def __init__(self, setting: str, reason: str):
        super().__init__(f"{setting} {reason}")
        self.setting, self.reason = setting, reason


# setting -> (what its rule asks, the rule); any other setting need only be
# finite. An even model_dim pairs the sinusoidal position table's columns.
RULES = {
    "model_dim": ("must be a positive even number", lambda v: v >= 1 and v % 2 == 0),
    "vocab_cap": ("must be at least 5", lambda v: v >= 5),  # the reserved token ids
    **dict.fromkeys(("num_heads", "head_dim", "max_seq_len", "max_gen_len", "max_len",
                     "batch_size", "epochs", "steps"), ("must be at least 1", lambda v: v >= 1)),
    **dict.fromkeys(("num_layers", "lr", "weight_decay", "t0", "top_k"),
                    ("must be non-negative", lambda v: v >= 0)),
    **dict.fromkeys(("grad_clip", "max_norm", "gamma"), ("must be positive", lambda v: v > 0)),
    # a loss scales by 1 / temperature, which is inf below about 5.6e-309
    **dict.fromkeys(("sim_temperature", "temperature"), ("must be positive with a finite "
                    "reciprocal", lambda v: v > 0 and (v >= 1 or math.isfinite(1.0 / v)))),
}


def check_settings(**values) -> None:
    """Raise ``SettingError`` for the first value that is not finite or breaks its rule."""
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):  # an int is finite
            raise SettingError(name, f"must be finite, got {value}")
        if name in RULES and not RULES[name][1](value):
            raise SettingError(name, f"{RULES[name][0]}, got {value}")


class Settings:
    """Base of a config dataclass: building one checks every field."""

    def __post_init__(self):
        check_settings(**vars(self))
