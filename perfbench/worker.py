"""One perfbench workload in one fresh process: set up, verify, time, report.

perfbench/run.py starts this file with the BLAS thread pools capped and the
checkout's ``src/`` first on PYTHONPATH, and passes the moment it started
the process in PERFBENCH_T0 (a ``time.perf_counter()`` reading; the clock
is system-wide on Linux), so ``setup_s`` covers interpreter start and
imports. The last line of standard output is one JSON object.

ssmlab is driven only through entry points that later refactors keep:
``train.evaluate``, ``model.load_checkpoint``, ``model.forward``,
``GradTape``, ``train.cross_entropy``, ``train.adamw_step``,
``train.cosine_lr`` and ``data.synth_dataset``. Nothing here calls
``infer`` directly. One caller runs ops in a closed loop: the next op starts
only after the previous one returned.

    PYTHONPATH=src python3 perfbench/worker.py --workload infer-merge --seed 3 \
        --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import mmap
import os
import resource
import sys
import time
import traceback

import numpy as np

import ssmlab
from ssmlab import data, model, reduce, tensor, train

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT = os.path.join(HERE, "checkpoint.meeto")
CHECKPOINT_SHA256 = os.path.join(HERE, "checkpoint.sha256")

NUM_CLASSES, IMAGE_SIZE, TOKENS0, DEPTH = 10, 28, 49, 8
EVAL_BATCH = 64
RETRAIN_LR = (1e-3, 1e-4)
WEIGHT_DECAY = 5e-2
TAIL_PCT = 80          # the tail percentile reported next to the median
TAIL_BEYOND = 10       # samples that must lie beyond a reported percentile
PROBE_REF_MS = 5.0     # SpeedProbe's median time at the reference machine speed
SETUP_PROBES = 5       # probe runs after set-up, to scale setup_s
PROBE_WINDOW = 5       # probe runs around an op that scale its time


class BenchError(RuntimeError):
    """The benchmark cannot measure: wrong program, checkpoint or sample."""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    r: int
    sites: tuple
    retrain: bool
    eval_per_class: int = 64     # 640 eval images
    train_per_class: int = 32    # 320 training images, retrain only
    train_batch: int = 32
    pass_steps: int = 20         # optimizer steps in one re-training pass


WORKLOADS = {w.name: w for w in (
    # all time in the scan and projections at 49 tokens; reduction bypassed
    Workload("infer-dense", r=0, sites=(2, 4, 6), retrain=False),
    # criterion-9 schedule: about a fifth of the pass is reduction
    Workload("infer-merge", r=20, sites=(2, 4, 6), retrain=False),
    # the only workload on the tape, the backward scan and the optimizer
    Workload("retrain-merge", r=10, sites=(2, 4, 6), retrain=True),
)}


# ---------------------------------------------------------------------------
# statistics

def quantile(samples, q):
    """Linear-interpolation quantile (numpy's default) of a non-empty sample."""
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_needed(pct):
    """Smallest sample with TAIL_BEYOND samples beyond its pct-th percentile."""
    return -(-TAIL_BEYOND * 100 // (100 - pct))


def tail_percentile(samples, pct):
    """The pct-th percentile, refused on a sample too small to have a tail."""
    need = samples_needed(pct)
    if len(samples) < need:
        raise BenchError(f"p{pct} needs {need} samples, got {len(samples)}")
    return quantile(samples, pct / 100)


# ---------------------------------------------------------------------------
# inputs and the model under test

def token_counts(w):
    """(entering each block, left after each block) under w's schedule.

    The benchmark's own statement of the capped schedule: r pairs merge
    after each site block, at most T // 2 of them.
    """
    t, entering, after = TOKENS0, [], []
    for blk in range(DEPTH):
        entering.append(t)
        if blk in w.sites and w.r > 0:
            t -= min(w.r, t // 2)
        after.append(t)
    return entering, after


@dataclasses.dataclass
class Inputs:
    eval_batches: list    # data.Dataset of at most EVAL_BATCH images each
    train_steps: list     # (images, labels, forward rng seed) per pass step


def make_inputs(w, seed):
    """Eval images, their batch order and the re-training steps, from seed."""
    eval_seed, order_seed, train_seed = (
        int(s) for s in np.random.default_rng(seed).integers(2**31, size=3))
    ev = data.synth_dataset(w.eval_per_class, NUM_CLASSES, IMAGE_SIZE, eval_seed)
    order = np.random.default_rng(order_seed).permutation(ev.size)
    batches = [data.Dataset(ev.images[idx], ev.labels[idx], NUM_CLASSES)
               for idx in (order[lo:lo + EVAL_BATCH]
                           for lo in range(0, ev.size, EVAL_BATCH))]
    steps = []
    if w.retrain:
        # batch order and forward rng seeding as train.retrain makes them
        ts = data.synth_dataset(w.train_per_class, NUM_CLASSES, IMAGE_SIZE,
                                train_seed)
        rng = np.random.default_rng(seed)
        per_epoch = math.ceil(ts.size / w.train_batch)
        for k in range(w.pass_steps):
            epoch, b_idx = divmod(k, per_epoch)
            if b_idx == 0:
                order = rng.permutation(ts.size)
            sel = order[b_idx * w.train_batch:(b_idx + 1) * w.train_batch]
            steps.append((ts.images[sel], ts.labels[sel],
                          seed * 1_000_003 + (epoch + 1) * 4099 + b_idx))
    return Inputs(batches, steps)


def checkpoint_digest():
    with open(CHECKPOINT, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_model(w):
    """The committed checkpoint under w's reduction schedule; refuses a changed file."""
    with open(CHECKPOINT_SHA256) as f:
        expected = f.read().split()[0]
    digest = checkpoint_digest()
    if digest != expected:
        raise BenchError(f"checkpoint sha256 {digest} != committed {expected}")
    m = model.load_checkpoint(CHECKPOINT)
    red = dataclasses.replace(m.cfg.reduction, r=w.r, sites=w.sites,
                              mode=reduce.Mode.MERGE,
                              merge_op=reduce.MergeOp.SUM,
                              distance=reduce.Distance.COSINE)
    return dataclasses.replace(m, cfg=dataclasses.replace(m.cfg, reduction=red))


def _logits(out):
    return np.asarray(getattr(out, "data", out))


# ---------------------------------------------------------------------------
# workloads: one op is one 64-image evaluate call or one optimizer step

class EvalRunner:
    """Op: ``train.evaluate`` on one batch; returns its correct count."""

    def __init__(self, w, m, inputs, seed):
        self.m = m
        self.batches = inputs.eval_batches
        self.slots = len(self.batches)
        self.reference = None
        self.first = {}

    def images(self, i):
        return self.batches[i % self.slots].size

    def warm_up(self):
        self.op(0)

    def verify(self):
        """Reference correct counts from ``model.forward`` with no tape."""
        self.reference, losses = [], []
        for b in self.batches:
            logits, _ = model.forward(self.m, b.images)
            z = _logits(logits)
            self.reference.append(int((z.argmax(axis=1) == b.labels).sum()))
            losses.append(train.cross_entropy(tensor.Tensor(z), b.labels).item()
                          * b.size)
        self.eval_loss = sum(losses) / sum(b.size for b in self.batches)

    def before(self, i):
        pass

    def op(self, i):
        b = self.batches[i % self.slots]
        return round(train.evaluate(self.m, b, batch_size=EVAL_BATCH) * b.size)

    def check(self, i, correct):
        self.first.setdefault(i % self.slots, correct)
        return correct == self.reference[i % self.slots]

    def quality(self):
        """eval_accuracy over one pass of the eval set, as the timed ops returned it."""
        n = sum(b.size for b in self.batches)
        return {"eval_accuracy": sum(self.first.values()) / n,
                "cross_entropy": self.eval_loss}


class RetrainRunner:
    """Op: one optimizer step, built from the calls ``train.retrain`` makes.

    A pass is ``pass_steps`` steps from the checkpoint with a fresh AdamW
    state and a cosine schedule over the pass; passes repeat until the time
    is up. Every pass after the first must give the first pass's losses bit
    for bit.
    """

    def __init__(self, w, m, inputs, seed):
        self.m = m
        self.steps = inputs.train_steps
        self.eval_batches = inputs.eval_batches
        self.slots = len(self.steps)
        self.per_epoch = math.ceil(NUM_CLASSES * w.train_per_class / w.train_batch)
        self.params = m.named_params()
        self.start = {name: p.data.copy() for name, p in self.params}
        self.cfg = train.TrainConfig(seed=seed, batch_size=w.train_batch,
                                     lr_start=RETRAIN_LR[0], lr_end=RETRAIN_LR[1],
                                     weight_decay=WEIGHT_DECAY)
        self.losses = {}
        self.trained = None
        self.reset()

    def images(self, i):
        return len(self.steps[i % self.slots][1])

    def reset(self):
        for name, p in self.params:
            p.data = self.start[name].copy()
            p.zero_grad()
        self.state = train.AdamWState.for_params(self.params)

    def warm_up(self):
        self.op(0)
        self.reset()

    def verify(self):
        """Step 0's loss from ``model.forward`` with no tape, at the checkpoint."""
        imgs, labels, fwd_seed = self.steps[0]
        logits, _ = model.forward(self.m, imgs, rng=np.random.default_rng(fwd_seed))
        self.loss0 = train.cross_entropy(tensor.Tensor(_logits(logits)), labels).item()

    def before(self, i):
        if i % self.slots == 0:
            self.reset()

    def op(self, i):
        k = i % self.slots
        imgs, labels, fwd_seed = self.steps[k]
        lr = train.cosine_lr(k, self.slots, *RETRAIN_LR)
        with tensor.GradTape() as tape:
            logits, _ = model.forward(self.m, imgs,
                                      rng=np.random.default_rng(fwd_seed))
            loss = train.cross_entropy(logits, labels)
            tape.backward(tensor.scale(loss, 1.0))
        train.adamw_step(self.params, self.state, lr, self.cfg)
        for _, p in self.params:
            p.zero_grad()
        return loss.item()

    def check(self, i, loss):
        k = i % self.slots
        if not math.isfinite(loss):
            return False
        if k == self.slots - 1 and self.trained is None:
            self.trained = {name: p.data.copy() for name, p in self.params}
        if k not in self.losses:
            self.losses[k] = loss
            return k != 0 or loss == self.loss0
        return loss == self.losses[k]

    def quality(self):
        """eval_accuracy of the model after one pass; mean loss of its last epoch."""
        if self.trained is None:
            raise BenchError("no re-training pass completed")
        for name, p in self.params:
            p.data = self.trained[name]
        correct = sum(round(train.evaluate(self.m, b, batch_size=EVAL_BATCH) * b.size)
                      for b in self.eval_batches)
        tail = [self.losses[k] for k in range(max(0, self.slots - self.per_epoch),
                                              self.slots)]
        return {"eval_accuracy": correct / sum(b.size for b in self.eval_batches),
                "cross_entropy": sum(tail) / len(tail)}


def environment():
    """What the numbers depend on besides the code: versions, cores, thread caps."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "thread_env": {k: v for k, v in os.environ.items()
                           if k.endswith("_THREADS")},
            "checkpoint_sha256": checkpoint_digest()}


# ---------------------------------------------------------------------------
# measurement

class SpeedProbe:
    """A fixed pure-numpy kernel, timed between ops, that measures how fast
    the machine runs at the moment.

    On a VM on a shared host, the machine's speed drifts by up to a fifth,
    within seconds and over minutes, and every statistic of raw op times
    drifts with it. The probe calls no ssmlab code and leaves the heap alone: it faults
    in fresh pages from an anonymous mapping, runs element-wise maths on a
    [32, 49, 32, 8] array, a 49-step loop of small numpy calls and a matmul,
    all into fixed buffers. Times are reported scaled to the machine speed
    at which the probe's median is PROBE_REF_MS.
    """

    SHAPE = (32, 49, 32, 8)

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random(self.SHAPE)
        self.h = np.zeros(self.SHAPE[:1] + self.SHAPE[2:])
        self.x = rng.random((self.SHAPE[0] * self.SHAPE[1], 64))
        self.w = rng.random((64, self.SHAPE[2]))
        self.y = np.empty((self.x.shape[0], self.SHAPE[2]))
        self.samples = []

    def run(self):
        t0 = time.perf_counter()
        with mmap.mmap(-1, self.a.nbytes) as buf:
            b = np.frombuffer(buf, dtype=np.float64).reshape(self.SHAPE)
            for _ in range(2):
                np.multiply(self.a, -0.5, out=b)
                np.exp(b, out=b)
                np.multiply(b, self.a, out=b)
                for t in range(self.SHAPE[1]):
                    np.multiply(b[:, t], self.h, out=self.h)
                    np.add(self.h, self.a[:, t], out=self.h)
            del b
        np.matmul(self.x, self.w, out=self.y)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def slowdown(self, lo=0, hi=None):
        """Median probe time over PROBE_REF_MS, of samples lo..hi: above 1 on
        a slow machine."""
        return quantile(self.samples[lo:hi], 0.5) * 1e3 / PROBE_REF_MS

    def scaled(self, seconds):
        """Op times at the reference speed. The probe ran before each op, and
        each op is divided by the median slowdown of the PROBE_WINDOW probe
        runs around it, so drift inside a run is taken out as well."""
        half = PROBE_WINDOW // 2
        return [s / self.slowdown(max(0, i - half), i + half + 1)
                for i, s in enumerate(seconds)]


@dataclasses.dataclass
class Timing:
    seconds: list          # every op's duration
    traced: dict           # op id -> duration, for ops run with the wrappers in
    wall: float
    images: int
    failed: int


def measure(runner, seconds, tracer=None, probe=None):
    """Run ops until ``seconds`` have passed, every slot ran once, and the
    tail percentile has its sample. With a tracer, even ops run traced and
    odd ops plain, which gives the tracing overhead. With a probe, the probe
    runs before every op, and its time is left out of the wall time."""
    need = max(runner.slots, 2 if tracer else samples_needed(TAIL_PCT))
    durations, traced = [], {}
    images = failed = 0
    probe_s = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < need or time.perf_counter() < deadline:
        runner.before(i)
        if probe:
            probe_s += probe.run()
        on = tracer is not None and i % 2 == 0
        if on:
            tracer.op = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            result, error = runner.op(i), None
        except Exception as exc:  # a failed op is counted, and the run goes on
            result, error = None, exc
        dt = time.perf_counter() - t0
        if on:
            tracer.uninstall()
            tracer.op = None
            traced[i] = dt
        if error is not None:
            if not failed:
                traceback.print_exception(error, file=sys.stderr)
            failed += 1
        elif not runner.check(i, result) or (on and tracer.bad_traces.get(i)):
            failed += 1
        durations.append(dt)
        images += runner.images(i) if error is None else 0
        i += 1
    return Timing(durations, traced, time.perf_counter() - start - probe_s,
                  images, failed)


def run(w, seed, seconds, trace, t0, setup_only=False):
    """One workload run; returns the worker's result dict."""
    if os.path.commonpath([os.path.abspath(ssmlab.__file__), os.getcwd()]) != os.getcwd():
        raise BenchError(f"ssmlab imported from {ssmlab.__file__}, outside the checkout")
    entering, after = token_counts(w)
    tracer = tracing.Tracer(entering) if trace else None
    if tracer:
        tracer.install()
    inputs = make_inputs(w, seed)
    m = load_model(w)
    runner = (RetrainRunner if w.retrain else EvalRunner)(w, m, inputs, seed)
    runner.warm_up()
    setup_s = time.perf_counter() - t0
    probe = None if trace else SpeedProbe()
    if probe:
        for _ in range(SETUP_PROBES):
            probe.run()
        setup_slowdown = probe.slowdown()
        probe.samples.clear()
    if setup_only:
        return {"setup_s": setup_s / setup_slowdown, "raw_setup_s": setup_s}
    runner.verify()
    if tracer:
        tracer.uninstall()
    timing = measure(runner, seconds, tracer, probe)
    info = {
        "ops": len(timing.seconds), "error_rate": timing.failed / len(timing.seconds),
        "timed_s": timing.wall, "images": timing.images,
        "op_ms": [round(1e3 * s, 3) for s in timing.seconds],
        "token_counts": entering,
        "nominal_token_ratio": 1 - sum(after) / len(after) / TOKENS0,
    }
    result = {"attempted": len(timing.seconds), "failed": timing.failed,
              "info": info, "env": environment()}
    if tracer:
        plain = [s for i, s in enumerate(timing.seconds) if i not in timing.traced]
        result["metrics"] = tracer.metrics(timing.traced, plain,
                                           info["nominal_token_ratio"])
        info["absent"] = tracer.absent
        info["off_schedule_forwards"] = sum(tracer.bad_traces.values())
        result["tracer"] = tracer
        return result
    ms = [1e3 * s for s in timing.seconds]
    scaled = probe.scaled(timing.seconds)
    slowdown = sum(timing.seconds) / sum(scaled)
    raw = {"throughput_img_s": timing.images / timing.wall,
           "batch_ms_p50": quantile(ms, 0.5),
           f"batch_ms_p{TAIL_PCT}": tail_percentile(ms, TAIL_PCT)}
    scaled_ms = [1e3 * s for s in scaled]
    quality = runner.quality()
    result["setup_s"] = setup_s / setup_slowdown
    result["metrics"] = {
        "throughput_img_s": raw["throughput_img_s"] * slowdown,
        "batch_ms_p50": quantile(scaled_ms, 0.5),
        f"batch_ms_p{TAIL_PCT}": tail_percentile(scaled_ms, TAIL_PCT),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **quality,
    }
    info.update(raw=raw, raw_setup_s=setup_s, slowdown=slowdown,
                setup_slowdown=setup_slowdown,
                probe_ms=[round(1e3 * s, 4) for s in probe.samples])
    if w.retrain:
        info["train_loss_end"] = quality["cross_entropy"]
        info["pass_losses"] = [runner.losses[k] for k in sorted(runner.losses)]
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="file to write the traced run's spans to")
    a = p.parse_args(argv)
    if a.setup_only and a.trace:
        p.error("--setup-only runs untraced")
    t0 = float(os.environ.get("PERFBENCH_T0", time.perf_counter()))
    result = run(WORKLOADS[a.workload], a.seed, a.seconds, a.trace, t0,
                 setup_only=a.setup_only)
    tracer = result.pop("tracer", None)
    if tracer is not None and a.spans:
        tracer.write_spans(a.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
