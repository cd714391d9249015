"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench/tests -q

They use shrunken copies of the workloads, so they check the benchmark's
machinery, not its figures.
"""

import dataclasses
import importlib
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run as launcher  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

SMALL = {
    name: dataclasses.replace(w, eval_per_class=1, train_per_class=4, pass_steps=2)
    for name, w in worker.WORKLOADS.items()
}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(worker, "EVAL_BATCH", 5)   # 10 eval images -> 2 slots


def wrapped_attributes():
    out = {}
    for layer, names in tracing.WRAPPED.items():
        module = importlib.import_module("ssmlab." + layer)
        out.update({(layer, n): getattr(module, n, None) for n in names})
    tape = importlib.import_module("ssmlab.tensor").GradTape
    out.update({("GradTape", n): getattr(tape, n) for n in ("record", "backward")})
    return out


def traced(name):
    return worker.run(SMALL[name], seed=5, seconds=0, trace=1, t0=0.0)


class TestTailRule:
    def test_sample_count_for_ten_beyond(self):
        assert worker.samples_needed(80) == 50
        assert worker.samples_needed(90) == 100
        assert worker.samples_needed(50) == 20

    def test_refuses_short_sample(self):
        with pytest.raises(worker.BenchError):
            worker.tail_percentile(list(range(49)), 80)
        assert worker.tail_percentile(list(range(50)), 80) == pytest.approx(39.2)

    def test_quantile_matches_numpy(self):
        xs = np.random.default_rng(0).random(37)
        for q in (0.0, 0.25, 0.5, 0.8, 0.9, 1.0):
            assert worker.quantile(list(xs), q) == pytest.approx(np.quantile(xs, q))


def test_probe_scaling_takes_out_machine_speed():
    probe = worker.SpeedProbe()
    ref = worker.PROBE_REF_MS / 1e3
    probe.samples = [ref] * 5 + [2 * ref] * 5     # the machine halves its speed
    scaled = probe.scaled([0.3] * 5 + [0.6] * 5)  # ... and ops take twice as long
    assert scaled == pytest.approx([0.3] * 10)
    assert probe.run() > 0 and len(probe.samples) == 11


def test_forced_mismatch_counts_as_failed(monkeypatch):
    verify = worker.EvalRunner.verify

    def corrupt(self):
        verify(self)
        self.reference[1] += 1

    monkeypatch.setattr(worker.EvalRunner, "verify", corrupt)
    result = worker.run(SMALL["infer-dense"], seed=1, seconds=0, trace=0, t0=0.0)
    assert result["attempted"] == 50
    assert result["failed"] == 25                 # every op on slot 1
    assert result["info"]["error_rate"] == 0.5


def test_seed_changes_inputs_not_checkpoint():
    w = SMALL["retrain-merge"]
    a, b, a2 = (worker.make_inputs(w, s) for s in (1, 2, 1))
    assert not np.array_equal(a.eval_batches[0].images, b.eval_batches[0].images)
    assert not np.array_equal(a.train_steps[0][0], b.train_steps[0][0])
    assert np.array_equal(a.eval_batches[0].images, a2.eval_batches[0].images)
    assert np.array_equal(a.train_steps[1][0], a2.train_steps[1][0])
    with open(worker.CHECKPOINT_SHA256) as f:
        assert worker.checkpoint_digest() == f.read().split()[0]
    p1 = dict(worker.load_model(w).named_params())
    p2 = dict(worker.load_model(w).named_params())
    assert all(np.array_equal(p1[k].data, p2[k].data) for k in p1)


def test_untraced_run_installs_no_wrapper(monkeypatch):
    before = wrapped_attributes()
    seen = []
    op = worker.EvalRunner.op

    def watched(self, i):
        seen.append(wrapped_attributes() == before)
        return op(self, i)

    def no_tracer(*args, **kwargs):
        raise AssertionError("tracer built in an untraced run")

    monkeypatch.setattr(worker.EvalRunner, "op", watched)
    monkeypatch.setattr(tracing, "Tracer", no_tracer)
    result = worker.run(SMALL["infer-merge"], seed=1, seconds=0, trace=0, t0=0.0)
    assert result["failed"] == 0
    assert seen and all(seen)


def test_traced_counts_repeat_and_wrappers_come_off():
    before = wrapped_attributes()
    first, second = traced("retrain-merge"), traced("retrain-merge")
    assert wrapped_attributes() == before
    for run in (first, second):
        assert run["failed"] == 0 and run["info"]["absent"] == []
    keys = ("tensor.ops_recorded", "reduce.select_pairs.calls",
            "ssm.discretize.useful_ratio", "reduce.executed_token_ratio")
    assert [first["metrics"][k] for k in keys] == [second["metrics"][k] for k in keys]
    m = first["metrics"]
    assert m["reduce.select_pairs.calls"] == 32 * 3    # one per row per site
    assert m["ssm.discretize.useful_ratio"] == pytest.approx(16 / 19)
    assert m["reduce.executed_token_ratio"] == pytest.approx(1 - 302 / 392)
    assert m["tensor.ops_recorded"] > 0 and m["infer.calls"] == 0
    assert 0 <= m["trace.unattributed_ms"] < 0.05 * m["trace.op_ms"]


def test_inference_bypasses_tape_and_scan_layers():
    dense, merge = traced("infer-dense"), traced("infer-merge")
    for run in (dense, merge):
        assert run["failed"] == 0 and run["info"]["off_schedule_forwards"] == 0
        assert run["metrics"]["ssm.calls"] == 0
        assert run["metrics"]["tensor.calls"] == 0
        assert run["metrics"]["tensor.ops_recorded"] == 0
    assert dense["metrics"]["reduce.calls"] == 0
    assert merge["metrics"]["reduce.select_pairs.calls"] == 5 * 3
    assert merge["metrics"]["reduce.executed_token_ratio"] == pytest.approx(1 - 243 / 392)
    assert merge["metrics"]["reduce.nominal_token_ratio"] == pytest.approx(1 - 202 / 392)


def test_benchmark_json_lists_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(launcher.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(worker.WORKLOADS) \
        == sorted(launcher.WORKLOADS)
