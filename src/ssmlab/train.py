"""Re-training loop: cross-entropy, AdamW with cosine decay, gradient
accumulation, and the training-free evaluation path."""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import data as ds
from . import model as mdl
from . import tensor as tt
from .tensor import GradTape, Tensor


class NumericError(RuntimeError):
    """Training diverged into non-finite territory."""


BETAS = (0.9, 0.999)  # AdamW moment decay rates
EPS = 1e-8            # AdamW denominator floor


@dataclass
class TrainConfig:
    epochs: int = 3
    batch_size: int = 32
    accum_steps: int = 1
    lr_start: float = 2e-5
    lr_end: float = 1e-6
    weight_decay: float = 5e-2
    seed: int = 0
    subset_fraction: float = 1.0

    def __post_init__(self):
        if not (self.lr_start >= self.lr_end > 0):
            raise ValueError("need lr_start >= lr_end > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.accum_steps < 1:
            raise ValueError("accum_steps must be >= 1")
        if not 0 < self.subset_fraction <= 1:
            raise ValueError("subset_fraction must be in (0, 1]")


@dataclass
class AdamWState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, named_params):
        st = cls()
        for name, p in named_params:
            st.m[name] = np.zeros_like(p.data)
            st.v[name] = np.zeros_like(p.data)
        return st


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean batch cross-entropy, stabilized by max-subtraction."""
    z = logits.data
    b, k = z.shape
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (b,):
        raise ValueError("labels must match batch size")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label out of range")
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = (z - zmax) - np.log(sez)
    loss = Tensor(-log_probs[np.arange(b), labels].mean(), _check=False)

    def backward(d):
        soft = ez / sez
        soft[np.arange(b), labels] -= 1.0
        return (d * soft / b,)

    return tt.record(loss, (logits,), backward)


def cosine_lr(step, total_steps, lr_start, lr_end):
    if total_steps < 1 or not 0 <= step <= total_steps:
        raise ValueError("step outside schedule")
    return lr_end + 0.5 * (lr_start - lr_end) * (1.0 + math.cos(math.pi * step / total_steps))


def adamw_step(named_params, state: AdamWState, lr, cfg: TrainConfig):
    """Decoupled weight decay, then bias-corrected Adam. Mutates in place."""
    b1, b2 = BETAS
    state.step += 1
    t = state.step
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in named_params:
        if p.grad is None:
            raise ValueError(f"missing gradient for {name}")
        g = p.grad.data
        if cfg.weight_decay:
            p.data -= lr * cfg.weight_decay * p.data
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


@dataclass
class EpochRow:
    epoch: int
    lr: float
    train_loss: float
    eval_acc: float
    wall_seconds: float


@dataclass
class TrainReport:
    rows: list = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "lr", "train_loss", "eval_acc", "wall_seconds"])
            for r in self.rows:
                w.writerow([r.epoch, repr(r.lr), repr(r.train_loss),
                            repr(r.eval_acc), f"{r.wall_seconds:.3f}"])

    @property
    def final_accuracy(self):
        return self.rows[-1].eval_acc if self.rows else float("nan")


def evaluate(model, dataset, batch_size=64) -> float:
    """Top-1 accuracy; no parameter mutation. Non-finite logits raise."""
    if dataset.size == 0:
        raise ValueError("empty dataset")
    correct = 0
    for lo in range(0, dataset.size, batch_size):
        imgs = dataset.images[lo:lo + batch_size]
        labels = dataset.labels[lo:lo + batch_size]
        logits, _ = mdl.forward(model, imgs)
        if not np.all(np.isfinite(logits.data)):
            raise NumericError("non-finite logits")
        correct += int((logits.data.argmax(axis=1) == labels).sum())
    return correct / dataset.size


def retrain(model, dataset, cfg: TrainConfig, eval_dataset=None) -> TrainReport:
    """Shuffled mini-batch training with gradient accumulation.

    With subset_fraction < 1, trains on a stratified subset with epochs
    scaled by 1/fraction so the optimizer-step budget stays comparable.
    """
    if dataset.size == 0:
        raise ValueError("empty dataset")
    if eval_dataset is None:
        eval_dataset = dataset
    epochs = cfg.epochs
    if cfg.subset_fraction < 1.0:
        dataset = ds.subset(dataset, cfg.subset_fraction, cfg.seed)
        epochs = int(round(cfg.epochs / cfg.subset_fraction))
    rng = np.random.default_rng(cfg.seed)
    params = model.named_params()
    state = AdamWState.for_params(params)
    report = TrainReport()
    n = dataset.size
    micro = cfg.batch_size
    micros_per_epoch = math.ceil(n / micro)
    # an epoch steps after every accum_steps micro-batches and after its last
    total_opt_steps = epochs * math.ceil(micros_per_epoch / cfg.accum_steps)

    if epochs == 0:
        acc = evaluate(model, eval_dataset)
        report.rows.append(EpochRow(0, 0.0, float("nan"), acc, 0.0))
        return report

    opt_step = 0
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        losses = []
        pending = 0
        lr = cosine_lr(opt_step, total_opt_steps, cfg.lr_start, cfg.lr_end)
        for b_idx in range(micros_per_epoch):
            sel = order[b_idx * micro:(b_idx + 1) * micro]
            imgs = dataset.images[sel]
            labels = dataset.labels[sel]
            with GradTape() as tape:
                logits, _ = mdl.forward(model, imgs, rng=np.random.default_rng(
                    cfg.seed * 1_000_003 + epoch * 4099 + b_idx))
                loss = cross_entropy(logits, labels)
                scaled = tt.scale(loss, 1.0 / cfg.accum_steps)
                tape.backward(scaled)
            lv = loss.item()
            if not math.isfinite(lv):
                raise NumericError("non-finite training loss")
            losses.append(lv)
            pending += 1
            if pending == cfg.accum_steps or b_idx == micros_per_epoch - 1:
                adamw_step(params, state, lr, cfg)
                for _, p in params:
                    p.zero_grad()
                opt_step += 1
                pending = 0
                lr = cosine_lr(opt_step, total_opt_steps, cfg.lr_start, cfg.lr_end)
        acc = evaluate(model, eval_dataset)
        report.rows.append(EpochRow(epoch, lr, float(np.mean(losses)), acc,
                                    time.perf_counter() - t0))
    return report
