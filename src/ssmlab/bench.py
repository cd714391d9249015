"""Throughput and FLOPs measurement: images/second versus reduction ratio,
speedup relative to r=0 timed in the same rounds."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace

import numpy as np

from . import model as mdl
from . import reduce as rd
from . import train as tr


class Dtype(enum.Enum):
    FLOAT32 = "float32"
    FLOAT64 = "float64"


class BenchData(enum.Enum):
    NONE = "none"
    EVAL = "eval"       # also report accuracy on the eval set per r


@dataclass
class BenchConfig:
    """The ``bench.*`` keys: the arguments of ``sweep``."""
    r_values: tuple = (0, 5, 11, 20)
    batch: int = 16
    warmup: int = 3
    iters: int = 10
    dtype: Dtype = Dtype.FLOAT32
    dataset: BenchData = BenchData.NONE

    def __post_init__(self):
        if not self.r_values or min(self.r_values) < 0:
            raise ValueError("bench.r_values must list one or more r >= 0")
        for name, low in (("batch", 1), ("iters", 1), ("warmup", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"bench.{name} must be >= {low}")


@dataclass
class BenchResult:
    r: int
    reduction_ratio: float
    images_per_second: float       # median over the timed rounds
    images_per_second_q1: float    # its quartiles
    images_per_second_q3: float
    speedup: float
    accuracy: float | None
    flops: float


def _with_r(model, r):
    return replace(model, cfg=replace(model.cfg,
                                      reduction=replace(model.cfg.reduction, r=r)))


def sweep(model, bench: BenchConfig, dataset=None, seed=0):
    """One BenchResult per r in ``bench.r_values``, with accuracy on ``dataset``.

    After ``bench.warmup`` untimed rounds, each of ``bench.iters`` rounds
    times one forward pass of the ``bench.dtype`` model at r=0 and at every
    requested r on the same ``seed``-drawn input, so drift in machine speed
    reaches every r alike. A rate is the median images/second, reported with
    its quartiles; a speedup divides it by the r=0 median.
    """
    cfg, dtype = model.cfg, bench.dtype.value
    images = np.random.default_rng(seed).random(
        (bench.batch, cfg.image_size, cfg.image_size, cfg.in_channels)).astype(dtype)
    cast = model.astype(dtype)
    timed = {r: _with_r(cast, r) for r in [0, *bench.r_values]}
    rates = {r: [] for r in timed}
    for i in range(bench.warmup + bench.iters):
        for r, m in timed.items():
            t0 = time.perf_counter()
            mdl.forward(m, images)
            if i >= bench.warmup:
                rates[r].append(bench.batch / (time.perf_counter() - t0))
    quartiles = {r: np.percentile(v, [25, 50, 75]) for r, v in rates.items()}
    results = []
    for r in bench.r_values:
        at_r = _with_r(model, r)
        ratio = rd.reduction_ratio(cfg.tokens0, cfg.reduction.sites, r, cfg.depth,
                                   cfg.reduction.pair_rank)
        acc = tr.evaluate(at_r, dataset) if dataset is not None else None
        q1, median, q3 = map(float, quartiles[r])
        results.append(BenchResult(r, ratio, median, q1, q3,
                                   median / float(quartiles[0][1]),
                                   acc, mdl.count_flops(at_r.cfg)))
    return results
