"""Spans and counts around the calls into each ssmlab layer.

The tracer records from outside the program: it replaces module attributes
(``ssmlab.reduce.select_pairs``, ``ssmlab.tensor.mul``, ...) and the
``GradTape.record`` / ``GradTape.backward`` methods with timing wrappers.
Every call site in ``src/`` looks these names up at call time, so the
wrappers see every call. Each recorded backward closure is wrapped too and
timed as ``<layer>.<op>.backward``, named from the closure's module and
``__qualname__``.

Names are resolved once, when the tracer is built. A name the program no
longer has is listed in ``absent`` and its metrics read 0; it never stops a
run. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

# layer -> module attributes wrapped in that layer
WRAPPED = {
    "data": ("synth_dataset",),
    "model": ("forward", "patchify", "load_checkpoint"),
    "train": ("evaluate", "cross_entropy", "adamw_step"),
    "infer": ("fast_forward", "prepare_params"),
    "reduce": ("grouping", "pairwise_distance", "select_pairs", "merge"),
    "ssm": ("bidirectional_block", "selective_scan", "discretize",
            "scan_core"),
    "tensor": ("add", "sub", "mul", "neg", "scale", "exp", "softplus", "silu",
               "matmul", "tsum", "tmean", "reshape", "flip_time",
               "permute_time", "layer_norm"),
}

# Forward passes return (logits, per-block token counts); the tracer checks
# each count trace against the schedule it was built with.
FORWARDS = ("model.forward", "infer.fast_forward")

# Metrics recorded once per run, during set-up, instead of per op.
ONCE = ("model.load_checkpoint", "data.synth_dataset")

TENSOR_TOP_OPS = ("mul", "exp", "matmul", "silu", "layer_norm")

# (name, unit, better): every metric a traced run reports, in order.
PER_LAYER = (
    [("infer.calls", "count", "lower"),
     ("infer.fast_forward.self_ms", "ms", "lower"),
     ("infer.prepare_params.ms", "ms", "lower"),
     ("reduce.calls", "count", "lower"),
     ("reduce.grouping.ms", "ms", "lower"),
     ("reduce.pairwise_distance.ms", "ms", "lower"),
     ("reduce.select_pairs.ms", "ms", "lower"),
     ("reduce.select_pairs.calls", "count", "lower"),
     ("reduce.merge.ms", "ms", "lower"),
     ("reduce.merge.backward_ms", "ms", "lower"),
     ("reduce.executed_token_ratio", "ratio", "higher"),
     ("reduce.nominal_token_ratio", "ratio", "higher"),
     ("ssm.calls", "count", "lower"),
     ("ssm.bidirectional_block.self_ms", "ms", "lower"),
     ("ssm.selective_scan.self_ms", "ms", "lower"),
     ("ssm.discretize.ms", "ms", "lower"),
     ("ssm.discretize.useful_ratio", "ratio", "higher"),
     ("ssm.scan_core.ms", "ms", "lower"),
     ("ssm.scan_core.backward_ms", "ms", "lower"),
     ("tensor.calls", "count", "lower"),
     ("tensor.ops_recorded", "count", "lower"),
     ("tensor.backward.ms", "ms", "lower")]
    + [(f"tensor.{op}.{kind}", "ms", "lower")
       for op in TENSOR_TOP_OPS for kind in ("ms", "backward_ms")]
    + [("model.forward.self_ms", "ms", "lower"),
       ("model.patchify.ms", "ms", "lower"),
       ("model.load_checkpoint.ms", "ms", "lower"),
       ("train.evaluate.ms", "ms", "lower"),
       ("train.cross_entropy.ms", "ms", "lower"),
       ("train.adamw_step.ms", "ms", "lower"),
       ("data.synth_dataset.ms", "ms", "lower"),
       ("trace.op_ms", "ms", "lower"),
       ("trace.overhead_ms", "ms", "lower"),
       ("trace.unattributed_ms", "ms", "lower")]
)


def _backward_name(fn):
    layer = getattr(fn, "__module__", "").rsplit(".", 1)[-1]
    op = getattr(fn, "__qualname__", "closure").split(".", 1)[0]
    return f"{layer}.{op}.backward"


class Tracer:
    """Wrappers for every name in WRAPPED, installed and removed as a set.

    ``op`` is the id of the op being traced; spans outside an op carry None.
    A span is ``[op, name, start, end, parent]`` with ``parent`` the index of
    the enclosing span, or -1.
    """

    def __init__(self, expected_counts):
        self.expected_counts = list(expected_counts)
        self.spans = []
        self._stack = []
        self.op = None
        self.recorded = defaultdict(int)      # op -> primitives taped
        self.bad_traces = defaultdict(int)    # op -> forwards off schedule
        self.token_traces = defaultdict(list)  # op -> count traces seen
        self.absent = []
        self._targets = []                    # (owner, attr, original, wrapper)
        self._resolve()

    def _resolve(self):
        for layer, names in WRAPPED.items():
            try:
                module = importlib.import_module("ssmlab." + layer)
            except ImportError:
                self.absent += [f"{layer}.{n}" for n in names]
                continue
            for attr in names:
                fn = getattr(module, attr, None)
                if callable(fn):
                    wrapper = self._timed(f"{layer}.{attr}", fn)
                    self._targets.append((module, attr, fn, wrapper))
                else:
                    self.absent.append(f"{layer}.{attr}")
        tape = getattr(importlib.import_module("ssmlab.tensor"), "GradTape", None)
        for attr, make in (("record", self._recording),
                           ("backward", lambda fn: self._timed("tensor.backward", fn))):
            fn = getattr(tape, attr, None)
            if callable(fn):
                self._targets.append((tape, attr, fn, make(fn)))
            else:
                self.absent.append(f"tensor.GradTape.{attr}")

    def install(self):
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)

    def _timed(self, name, fn):
        spans, stack = self.spans, self._stack
        check = name in FORWARDS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([self.op, name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            if check:
                self._check_counts(result)
            return result

        return wrapper

    def _recording(self, fn):
        @functools.wraps(fn)
        def record(tape, out, inputs, backward_fn):
            self.recorded[self.op] += 1
            return fn(tape, out, inputs,
                      self._timed(_backward_name(backward_fn), backward_fn))

        return record

    def _check_counts(self, result):
        try:
            counts = [int(c) for c in result[1]]
        except (TypeError, IndexError, ValueError):
            counts = None
        self.token_traces[self.op].append(counts)
        if counts != self.expected_counts:
            self.bad_traces[self.op] += 1

    # ------------------------------------------------------------------
    # reduction of spans to per-layer metrics

    def metrics(self, op_seconds, untraced_seconds, nominal_ratio):
        """Per-layer metrics, per traced op unless the name is in ONCE.

        op_seconds maps each traced op id to its duration as the benchmark
        loop timed it; untraced_seconds lists the durations of the ops run
        with the wrappers removed.
        """
        ops = set(op_seconds)
        n_ops = max(1, len(ops))
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        once = defaultdict(float)
        top_level = defaultdict(float)
        discretize_all = discretize_useful = 0
        for i, (op, name, start, end, parent) in enumerate(spans):
            if op not in ops:
                if op is None and name in ONCE:
                    once[name] += end - start
                continue
            total[name] += end - start
            own[name] += (end - start) - child[i]
            calls[name] += 1
            if parent < 0:
                top_level[op] += end - start
            if name == "ssm.discretize":
                discretize_all += 1
                discretize_useful += (parent >= 0
                                      and spans[parent][1] == "ssm.selective_scan")
        layer_calls = defaultdict(int)
        for name, n in calls.items():
            layer_calls[name.split(".", 1)[0]] += n
        traces = [c for op in ops for c in self.token_traces.get(op, []) if c]
        t0 = self.expected_counts[0]
        executed = (1.0 - sum(sum(c) / len(c) for c in traces) / len(traces) / t0
                    if traces else 0.0)
        traced_ms = [1e3 * s for s in op_seconds.values()]
        plain_ms = [1e3 * s for s in untraced_seconds]
        op_ms = statistics.median(traced_ms) if traced_ms else 0.0

        def per_op(table, name):
            return 1e3 * table.get(name, 0.0) / n_ops

        values = {
            "reduce.select_pairs.calls": calls.get("reduce.select_pairs", 0) / n_ops,
            "reduce.executed_token_ratio": executed,
            "reduce.nominal_token_ratio": nominal_ratio,
            "ssm.discretize.useful_ratio": (discretize_useful / discretize_all
                                            if discretize_all else 0.0),
            "tensor.ops_recorded": sum(self.recorded.get(op, 0) for op in ops) / n_ops,
            "trace.op_ms": op_ms,
            "trace.overhead_ms": op_ms - statistics.median(plain_ms) if plain_ms else 0.0,
            "trace.unattributed_ms": statistics.median(
                [1e3 * (s - top_level.get(op, 0.0)) for op, s in op_seconds.items()]
            ) if op_seconds else 0.0,
        }
        for name, _, _ in PER_LAYER:
            if name in values:
                continue
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = layer_calls.get(base, 0) / n_ops
            elif base in ONCE:
                values[name] = 1e3 * once.get(base, 0.0)
            elif kind == "self_ms":
                values[name] = per_op(own, base)
            elif kind == "backward_ms":
                values[name] = per_op(total, base + ".backward")
            else:
                values[name] = per_op(total, base)
        return values

    def write_spans(self, path):
        with open(path, "w") as f:
            for op, name, start, end, parent in self.spans:
                f.write(json.dumps([op, name, start, end, parent]) + "\n")
