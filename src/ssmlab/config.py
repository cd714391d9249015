"""Plain key=value run configuration: one key per line, '#' comments,
unknown keys rejected. Every run writes its resolved config next to its
outputs so results are reproducible from that file alone.

The config dataclasses are the schema: the ``model.*``, ``reduce.*`` and
``train.*`` keys, their defaults and their parsing come from the fields of
``ModelConfig``, ``ReductionConfig`` and ``TrainConfig``. Only
``reduce.sites`` differs: it defaults to ``even``, and ``even``, ``odd`` and
``none`` name site lists that depend on the depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import ModelConfig, config_from_text, config_text, default_sites
from .reduce import ReductionConfig
from .train import TrainConfig


class ConfigError(ValueError):
    pass


def _section(cfg, prefix):
    """Text defaults of ``cfg``'s own fields; a nested config has its own section."""
    return {k: v for k, v in config_text(cfg, prefix).items()
            if "." not in k[len(prefix):]}


_DEFAULTS = {
    **_section(ModelConfig(), "model."),
    **_section(ReductionConfig(), "reduce."),
    "reduce.sites": "even",
    **_section(TrainConfig(), "train."),
    "data.source": "synth",
    "data.images": "",
    "data.labels": "",
    "data.eval_images": "",
    "data.eval_labels": "",
    "data.classes": "10",
    "data.per_class": "32",
    "data.eval_per_class": "16",
    "data.seed": "1234",
    "data.noise_sigma": "0.1",
    "run.out": "runs/out",
    "run.seed": "0",
    "run.init_checkpoint": "",
    "bench.r_values": "0,5,11,20",
    "bench.batch": "16",
    "bench.warmup": "3",
    "bench.iters": "10",
    "bench.dtype": "float32",
    "bench.dataset": "none",
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=lambda: dict(_DEFAULTS))

    def set(self, key, value):
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        self.values[key] = value

    def get(self, key):
        return self.values[key]

    def get_int(self, key):
        try:
            return int(self.values[key])
        except ValueError as e:
            raise ConfigError(f"bad integer for {key}: {self.values[key]!r}") from e

    def get_float(self, key):
        try:
            return float(self.values[key])
        except ValueError as e:
            raise ConfigError(f"bad float for {key}: {self.values[key]!r}") from e

    @classmethod
    def load(cls, path):
        cfg = cls()
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.readlines()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from e
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
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
        depth = self.get_int("model.depth")
        spelled = {"even": default_sites(depth), "odd": tuple(range(1, depth, 2)),
                   "none": ()}.get(self.get("reduce.sites"))
        given = {} if spelled is None else {"sites": spelled}
        return self._typed(ReductionConfig, "reduce.", **given)

    def model_config(self) -> ModelConfig:
        return self._typed(ModelConfig, "model.", reduction=self.reduction_config())

    def train_config(self) -> TrainConfig:
        return self._typed(TrainConfig, "train.")
