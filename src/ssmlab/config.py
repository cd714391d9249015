"""Plain key=value run configuration: one key per line, '#' comments,
unknown keys rejected. Every run writes its resolved config next to its
outputs so results are reproducible from that file alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import reduce as rd
from .model import ModelConfig, default_sites
from .reduce import ReductionConfig
from .train import TrainConfig


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "model.image_size": "28",
    "model.patch_size": "4",
    "model.in_channels": "1",
    "model.depth": "8",
    "model.d_model": "64",
    "model.d_inner": "32",
    "model.d_state": "8",
    "model.num_classes": "10",
    "reduce.r": "0",
    "reduce.sites": "even",
    "reduce.feature": "x",
    "reduce.distance": "cosine",
    "reduce.merge_op": "sum",
    "reduce.grouping": "odd_even",
    "reduce.pair_rank": "1",
    "reduce.selection": "top_r",
    "reduce.pairing": "nearest",
    "reduce.shuffle_ratio": "0",
    "reduce.mode": "merge",
    "train.epochs": "3",
    "train.batch_size": "32",
    "train.accum_steps": "1",
    "train.lr_start": "2e-5",
    "train.lr_end": "1e-6",
    "train.weight_decay": "5e-2",
    "train.seed": "0",
    "train.subset_fraction": "1",
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
    def reduction_config(self) -> ReductionConfig:
        depth = self.get_int("model.depth")
        sites_raw = self.get("reduce.sites")
        if sites_raw == "even":
            sites = default_sites(depth)
        elif sites_raw == "odd":
            sites = tuple(b for b in range(1, depth, 2))
        elif sites_raw in ("", "none"):
            sites = ()
        else:
            try:
                sites = tuple(int(s) for s in sites_raw.split(","))
            except ValueError as e:
                raise ConfigError(f"bad reduce.sites: {sites_raw!r}") from e
        try:
            return ReductionConfig(
                r=self.get_int("reduce.r"),
                sites=sites,
                feature=rd.Feature(self.get("reduce.feature")),
                distance=rd.Distance(self.get("reduce.distance")),
                merge_op=rd.MergeOp(self.get("reduce.merge_op")),
                grouping=rd.Grouping(self.get("reduce.grouping")),
                pair_rank=self.get_int("reduce.pair_rank"),
                selection=rd.Selection(self.get("reduce.selection")),
                pairing=rd.Pairing(self.get("reduce.pairing")),
                shuffle_ratio=self.get_float("reduce.shuffle_ratio"),
                mode=rd.Mode(self.get("reduce.mode")),
            )
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def model_config(self) -> ModelConfig:
        try:
            return ModelConfig(
                image_size=self.get_int("model.image_size"),
                patch_size=self.get_int("model.patch_size"),
                in_channels=self.get_int("model.in_channels"),
                depth=self.get_int("model.depth"),
                d_model=self.get_int("model.d_model"),
                d_inner=self.get_int("model.d_inner"),
                d_state=self.get_int("model.d_state"),
                num_classes=self.get_int("model.num_classes"),
                reduction=self.reduction_config(),
            )
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(
                epochs=self.get_int("train.epochs"),
                batch_size=self.get_int("train.batch_size"),
                accum_steps=self.get_int("train.accum_steps"),
                lr_start=self.get_float("train.lr_start"),
                lr_end=self.get_float("train.lr_end"),
                weight_decay=self.get_float("train.weight_decay"),
                seed=self.get_int("train.seed"),
                subset_fraction=self.get_float("train.subset_fraction"),
            )
        except ValueError as e:
            raise ConfigError(str(e)) from e
