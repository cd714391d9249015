"""Plain key=value run configuration: one key per line, '#' comments,
unknown keys rejected. Every run writes its resolved config next to its
outputs so results are reproducible from that file alone.

Every key comes from a dataclass: the ``model.*``, ``reduce.*``,
``train.*``, ``data.*``, ``bench.*`` and ``run.*`` keys, their defaults and
their parsing come from the fields of ``ModelConfig``, ``ReductionConfig``,
``TrainConfig``, ``DataConfig``, ``BenchConfig`` and ``RunOptions``. Only
``reduce.sites`` differs: it defaults to ``even`` (2, 4, ...), and ``even``,
``odd`` (1, 3, ...) and ``none`` name site lists below the model's depth.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .bench import BenchConfig
from .data import DataConfig, Source, text_lines
from .model import ModelConfig, config_from_text, config_text
from .reduce import ReductionConfig
from .train import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunOptions:
    """The ``run.*`` keys."""
    out: str = "runs/out"
    seed: int = 0
    init_checkpoint: str = ""       # start from these weights, not at random

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("run.seed must be >= 0")


@dataclass
class Settings:
    """Every section of a run config, typed and checked."""
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)
    run: RunOptions = field(default_factory=RunOptions)

    def __post_init__(self):  # a synthetic split numpy cannot address names its key
        d, pixels = self.data, self.model.image_size ** 2
        for key in ("per_class", "eval_per_class") if d.source is Source.SYNTH else ():
            if getattr(d, key) * d.classes * pixels * 8 > sys.maxsize:  # f64 bytes
                raise ValueError(f"data.{key}={getattr(d, key)} x data.classes="
                                 f"{d.classes} x {pixels} pixels is too large")


def _section(cfg, prefix):
    """Text defaults of ``cfg``'s own fields; a nested config has its own section."""
    return {k: v for k, v in config_text(cfg, prefix).items()
            if "." not in k[len(prefix):]}


_DEFAULTS = {
    **_section(ModelConfig(), "model."),
    **_section(ReductionConfig(), "reduce."),
    "reduce.sites": "even",
    **_section(TrainConfig(), "train."),
    **_section(DataConfig(), "data."),
    **_section(RunOptions(), "run."),
    **_section(BenchConfig(), "bench."),
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=lambda: dict(_DEFAULTS))

    def set(self, key, value):
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        self.values[key] = value

    @classmethod
    def load(cls, path):
        cfg = cls()
        for lineno, line in text_lines(path, ConfigError):
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            cfg.set(key.strip(), value.strip())
        return cfg

    def dump(self, path):
        with open(path, "w") as f:
            for key in sorted(self.values):
                f.write(f"{key}={self.values[key]}\n")

    # ------------------------------------------------------------------
    def _typed(self, cls, prefix, **given):
        try:
            return config_from_text(cls, self.values, prefix, **given)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def reduction_config(self) -> ReductionConfig:
        depth = self._typed(ModelConfig, "model.", reduction=ReductionConfig()).depth
        spelled = {"even": tuple(range(2, depth, 2)), "odd": tuple(range(1, depth, 2)),
                   "none": ()}.get(self.values["reduce.sites"])
        given = {} if spelled is None else {"sites": spelled}
        return self._typed(ReductionConfig, "reduce.", **given)

    def model_config(self) -> ModelConfig:
        return self._typed(ModelConfig, "model.", reduction=self.reduction_config())

    def settings(self) -> Settings:
        """Every key parsed and checked; a bad one raises ConfigError."""
        return self._typed(Settings, "", model=self.model_config())
