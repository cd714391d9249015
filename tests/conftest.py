import ssmlab  # first: it caps the BLAS threads, which numpy reads once at import

import contextlib
import gc
import multiprocessing
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from ssmlab import data as ds
from ssmlab import model as mdl
from ssmlab import train as tr
from ssmlab.model import ModelConfig
from ssmlab.tensor import Tensor, _unbroadcast, record

SEEDS = (0, 1, 2, 3, 4)

BASELINE_TRAIN = dict(epochs=6, batch_size=32, lr_start=3e-3, lr_end=3e-4,
                      weight_decay=5e-2)


def mul(a, b):
    """Taped element-wise product: weights a Tensor into a scalar test loss."""
    out = Tensor(a.data * b.data, _check=False)
    return record(out, (a, b), lambda d: (_unbroadcast(d * b.data, a.data.shape),
                                          _unbroadcast(d * a.data, b.data.shape)))


def finite_difference_grad(f, x, eps=1e-5):
    """Central finite differences of scalar-valued f at ndarray x. Test oracle."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


class MemoryTrace:
    """What ``traced_memory`` measured, in bytes allocated inside its block."""
    peak = None  # the most held at once, set when the block exits

    @staticmethod
    def live():
        """Bytes allocated inside the block and still held, after a collection."""
        gc.collect()
        return tracemalloc.get_traced_memory()[0]


@contextlib.contextmanager
def traced_memory():
    """Trace Python's allocations, numpy's buffers among them, from a
    collected heap over the block; yields its ``MemoryTrace``."""
    gc.collect()
    tracemalloc.start()
    trace = MemoryTrace()
    try:
        yield trace
        trace.peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def desk_train_data():
    return ds.synth_dataset(32, 10, 28, 1234)


@pytest.fixture(scope="session")
def desk_eval_data():
    return ds.synth_dataset(16, 10, 28, 1235)


def train_baseline(seed, train_data, eval_data):
    """(parameter arrays, eval accuracy) of one baseline seed trained without
    reduction; ``trained_baselines`` runs it in a worker process."""
    model = mdl.init_model(ModelConfig(), seed=seed)
    tr.retrain(model, train_data, tr.TrainConfig(seed=seed, **BASELINE_TRAIN), eval_data)
    return {k: t.data for k, t in model.params.items()}, tr.evaluate(model, eval_data)


@pytest.fixture(scope="session")
def trained_baselines(desk_train_data, desk_eval_data):
    """Five independently seeded desk models trained without reduction.

    The seeds train in spawned worker processes, one per core, which inherit
    the BLAS thread caps; the pool is shut down before the fixture returns,
    so no later test runs beside a worker. Shared by the trend checks; treat
    the returned models as read-only and clone before mutating.
    """
    with ProcessPoolExecutor(min(len(SEEDS), os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = {seed: pool.submit(train_baseline, seed, desk_train_data, desk_eval_data)
                for seed in SEEDS}
        results = {seed: run.result() for seed, run in runs.items()}
    out = {}
    for seed, (arrays, acc) in results.items():
        model = mdl.init_model(ModelConfig(), seed=seed)
        for name, t in model.params.items():
            t.data = arrays[name]
        out[seed] = (model, acc)
    return out


# ---------------------------------------------------------------------------
# one-line verdict per acceptance check, printed after the run

_CRITERIA = [
    ("test_criterion_01", "r-to-ratio table reproduced within 0.02"),
    ("test_criterion_02", "scan equals per-step reference on 1000 cases"),
    ("test_criterion_03", "all model gradients match finite differences"),
    ("test_criterion_04", "merge invariants over 10000 random cases"),
    ("test_criterion_05", "pair selection equals greedy reference"),
    ("test_criterion_06", "training-free merging beats pruning at ratio 0.5"),
    ("test_criterion_07", "re-training recovers half the accuracy gap"),
    ("test_criterion_08", "shuffling token order costs at least 0.01 accuracy"),
    ("test_criterion_09", "throughput speedup at r=20 is at least 1.15x"),
    ("test_criterion_10", "checkpoint/IDX/demo round-trips are bit-exact"),
]

_outcomes = {}
_measured = {}  # prefix: the (name, value) pairs the test recorded


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    for prefix, _ in _CRITERIA:
        if name.startswith(prefix):
            prev = _outcomes.get(prefix)
            if report.when == "call":
                _outcomes[prefix] = report.outcome
                _measured[prefix] = list(report.user_properties)
            elif report.when == "setup" and report.outcome != "passed" and prev is None:
                _outcomes[prefix] = report.outcome


def _measured_text(props):
    """`` (measured v; name v, ...)``: the first value, the one the bound
    reads, then the rest by name; empty if the test recorded none."""
    if not props:
        return ""
    text = [f"{v:.5g}" if isinstance(v, float) else str(v) for _, v in props]
    rest = ", ".join(f"{k} {v}" for (k, _), v in zip(props[1:], text[1:]))
    return f" (measured {text[0]}{'; ' + rest if rest else ''})"


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance summary:")
    for i, (prefix, desc) in enumerate(_CRITERIA, 1):
        outcome = _outcomes.get(prefix)
        if outcome is None:
            continue
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"  criterion {i:2d} [{verdict}] {desc}"
                                    + _measured_text(_measured.get(prefix)))
