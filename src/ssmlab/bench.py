"""Throughput and FLOPs measurement: images/second versus reduction ratio,
speedup relative to the r=0 baseline."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace

import numpy as np

from . import model as mdl
from . import reduce as rd
from . import train as tr


@dataclass
class BenchResult:
    r: int
    reduction_ratio: float
    images_per_second: float
    speedup: float
    accuracy: float | None
    flops: float
    warmup_iters: int
    timed_iters: int


def _with_r(model, r):
    red = replace(model.cfg.reduction, r=r)
    cfg = replace(model.cfg, reduction=red)
    return mdl.Model(cfg, model.patch_proj, model.pos_embed, model.blocks,
                     model.head)


def measure_images_per_second(model, batch=16, warmup=3, iters=10,
                              dtype=np.float32, seed=0):
    """Median images/second over timed iterations; same input every iteration."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    warmup = max(3, warmup)
    cfg = model.cfg
    rng = np.random.default_rng(seed)
    images = rng.random((batch, cfg.image_size, cfg.image_size,
                         cfg.in_channels))
    cast = model.astype(dtype)
    imgs = images.astype(dtype)
    for _ in range(warmup):
        mdl.forward(cast, imgs)
    rates = []
    for _ in range(iters):
        t0 = time.perf_counter()
        mdl.forward(cast, imgs)
        rates.append(batch / (time.perf_counter() - t0))
    return float(np.median(rates)), warmup


def measure_throughput(model, batch=16, warmup=3, iters=10, dtype=np.float32,
                       baseline_rate=None, dataset=None, seed=0) -> BenchResult:
    cfg = model.cfg
    red = cfg.reduction
    rate, warmup = measure_images_per_second(model, batch, warmup, iters,
                                             dtype, seed)
    if baseline_rate is None:
        baseline_rate = rate if red.r == 0 else \
            measure_images_per_second(_with_r(model, 0), batch, warmup, iters,
                                      dtype, seed)[0]
    speedup = 1.0 if red.r == 0 else rate / baseline_rate
    ratio = rd.reduction_ratio(cfg.tokens0, red.sites, red.r, cfg.depth)
    acc = tr.evaluate(model, dataset) if dataset is not None else None
    return BenchResult(red.r, ratio, rate, speedup, acc, mdl.count_flops(cfg),
                       warmup, iters)


def sweep(model, r_values, dataset=None, batch=16, warmup=3, iters=10,
          dtype=np.float32, seed=0):
    """One BenchResult per r; speedups are relative to a shared r=0 baseline."""
    if not r_values:
        raise ValueError("r_values must be nonempty")
    baseline_rate, _ = measure_images_per_second(_with_r(model, 0), batch,
                                                 warmup, iters, dtype, seed)
    results = []
    for r in r_values:
        results.append(measure_throughput(_with_r(model, int(r)), batch,
                                          warmup, iters, dtype,
                                          baseline_rate=baseline_rate,
                                          dataset=dataset, seed=seed))
    return results


def write_csv(results, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["r", "ratio", "imgs_per_sec", "speedup", "accuracy", "flops"])
        for b in results:
            w.writerow([b.r, f"{b.reduction_ratio:.6f}",
                        f"{b.images_per_second:.3f}", f"{b.speedup:.4f}",
                        "" if b.accuracy is None else f"{b.accuracy:.6f}",
                        f"{b.flops:.0f}"])
