"""Flat key-value configuration mirroring every pipeline default."""

from __future__ import annotations

from dataclasses import dataclass, fields

from claimforge.numerics import SettingError, Settings
from claimforge.textcore import EncoderConfig
from claimforge.training import CurriculumSchedule


@dataclass
class PipelineConfig(Settings):
    # encoder / decoder geometry
    model_dim: int = 512
    num_heads: int = 8
    head_dim: int = 64
    num_layers: int = 2
    max_seq_len: int = 1024
    vocab_cap: int = 8192
    # similarity
    sim_temperature: float = 0.1
    aux_weight: float = 0.5
    # generator
    max_gen_len: int = 32
    # training
    batch_size: int = 4
    lr: float = 5e-5
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    # curriculum
    gamma: float = 0.01
    t0: float = 5000.0
    # reporting
    top_k: int = 5
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.max_gen_len + 2 >= self.max_seq_len:
            raise SettingError("max_gen_len", f"+ 2 must be below max_seq_len, so the decoder has "
                               f"room for a description: {self.max_gen_len} + 2 >= "
                               f"{self.max_seq_len}")
        self.encoder_config()  # the head geometry rule
        self.curriculum()

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            model_dim=self.model_dim,
            num_heads=self.num_heads,
            head_dim=self.head_dim,
            num_layers=self.num_layers,
            max_seq_len=self.max_seq_len,
        )

    def curriculum(self) -> CurriculumSchedule:
        return CurriculumSchedule(gamma=self.gamma, t0=self.t0)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        # every key is an int or a float (annotations are strings here)
        known = {f.name: {"int": int, "float": float}[f.type] for f in fields(cls)}
        kwargs, set_on = {}, {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                if key in set_on:
                    raise ValueError(f"{path}:{lineno}: config key {key!r} is set again; "
                                     f"line {set_on[key]} already sets it")
                set_on[key] = lineno
                try:
                    kwargs[key] = known[key](value)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: config key {key!r}: cannot parse "
                                     f"{known[key].__name__} from {value!r}") from None
        try:
            return cls(**kwargs)
        except SettingError as exc:  # a rule that a default breaks names no line
            where = (f"{path}:{set_on[exc.setting]}: config key {exc.setting!r}"
                     if exc.setting in set_on else f"{path}: {exc.setting}")
            raise ValueError(f"{where} {exc.reason}") from None
