"""End-to-end acceptance checks for the desk-scale model.

Each criterion prints one PASS/FAIL line in the terminal summary (see
conftest), with the values it recorded through ``record_property`` before
its asserts, the first of them the one its bound reads. The trend checks
(6-8) share the five trained baseline models from the session fixture.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import SEEDS, finite_difference_grad
from ssmlab import cli
from ssmlab import data as ds
from ssmlab import model as mdl
from ssmlab import reduce as rd
from ssmlab import ssm
from ssmlab import tensor as tt
from ssmlab import train as tr
from ssmlab.bench import BenchConfig, Dtype, sweep
from ssmlab.model import Model, ModelConfig
from ssmlab.reduce import (
    Distance,
    Grouping,
    MergeOp,
    Mode,
    ReductionConfig,
)
from ssmlab.tensor import GradTape, Tensor
from test_reduce import select_row, slow_select
from test_ssm import make_params, naive_scan, selected, sigmoid, silu

DATA_DIR = Path(__file__).parent / "data"


def with_reduction(model: Model, **kwargs) -> Model:
    """Same weights, different reduction policy."""
    red = replace(model.cfg.reduction, **kwargs)
    return replace(model, cfg=replace(model.cfg, reduction=red))


def clone_model(model: Model) -> Model:
    out = mdl.init_model(model.cfg, seed=0)
    for (_, src), (_, dst) in zip(model.named_params(), out.named_params()):
        dst.data = src.data.copy()
    return out


def test_criterion_01_ratio_table(record_property):
    sites = tuple(range(2, 24, 2))
    table = {5: 0.14, 10: 0.28, 11: 0.31, 13: 0.36, 15: 0.42, 20: 0.54}
    got = {r: rd.reduction_ratio(197, sites, r, 24) for r in table}
    record_property("largest error", max(abs(got[r] - want) for r, want in table.items()))
    for r, want in table.items():
        assert abs(got[r] - want) <= 0.02, (r, got[r], want)


def test_criterion_02_scan_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        t = int(rng.integers(1, 17))
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        fwd, bwd = make_params(rng, d, d, n), make_params(rng, d, d, n)
        x, bx = rng.uniform(-1, 1, (2, 1, t, d))
        z, bz = rng.uniform(-2, 2, (2, 1, t, d))
        y, _, _ = ssm.scan_core((fwd, bwd), [x, bx], False)
        want = naive_scan(fwd, silu(x)), naive_scan(bwd, silu(bx), reverse=True)
        # each half of the readout against the per-step reference: forward,
        # then the backward half, which the scan leaves in loop order, reversed
        assert np.abs(y[0] - want[0]).max() < 1e-12
        assert np.abs(y[1, :, ::-1] - want[1]).max() < 1e-12
        # and gated by the block's mixer, whose 0/1 in and gate projections
        # pick x and z from one normed array, and whose identity out
        # projections put each half in columns of its own
        (fwd, bwd), normed = selected((fwd, bwd), w_in=(x, bx), w_gate=(z, bz))
        eye = np.eye(d, 4 * d)
        out, _ = ssm.mixer(dict(fwd, w_out=Tensor(eye)),
                           dict(bwd, w_out=Tensor(np.roll(eye, d, axis=1))),
                           normed, Tensor(np.zeros((1, t, 4 * d))))
        for half, (ref, gz) in enumerate(zip(want, (z, bz))):
            assert np.abs(out.data[..., half * d:(half + 1) * d]
                          - ref * gz * sigmoid(gz)).max() < 1e-12
        assert not np.any(out.data[..., 2 * d:])


def test_criterion_03_full_model_gradients(record_property):
    cfg = ModelConfig(image_size=8, patch_size=4, in_channels=1, depth=3,
                      d_model=6, d_inner=4, d_state=2, num_classes=3,
                      reduction=ReductionConfig(r=1, sites=(1,),
                                                merge_op=MergeOp.SUM))
    model = mdl.init_model(cfg, seed=0)
    rng = np.random.default_rng(1)
    errors = []  # (name, relative error) of every parameter in every case
    for _ in range(3):
        imgs = rng.uniform(0, 1, (2, 8, 8, 1))
        labels = rng.integers(0, 3, 2)
        with GradTape() as tape:
            logits, _ = mdl.forward(model, imgs)
            tape.backward(tr.cross_entropy(logits, labels))
        for name, p in model.named_params():
            def f(arr, p=p):
                old = p.data
                p.data = arr
                logits, _ = mdl.forward(model, imgs)
                p.data = old
                return tr.cross_entropy(logits, labels).item()

            fd = finite_difference_grad(f, p.data.copy())
            denom = max(np.abs(fd).max(), 1e-8)
            errors.append((name, np.abs(fd - p.grad.data).max() / denom))
        for _, p in model.named_params():
            p.zero_grad()
    record_property("worst relative error", max(rel for _, rel in errors))
    for name, rel in errors:
        assert rel < 1e-4, (name, rel)


def test_criterion_04_merge_invariants():
    rng = np.random.default_rng(7)
    ops = list(MergeOp)
    for case in range(10_000):
        t = int(rng.integers(2, 13))
        dim = int(rng.integers(1, 5))
        r = rd.effective_r(t, int(rng.integers(1, 4)))
        op = ops[case % 4]
        vals = rng.uniform(-2, 2, (1, t, dim))
        g1, g2 = rd.grouping(t, Grouping.ODD_EVEN)
        dists = rd.pairwise_distance(vals[0], g1, g2, Distance.L2)
        pairs = select_row(dists, r, g1=g1, g2=g2)
        used = [k for pair in pairs.tolist() for k in pair]
        assert len(set(used)) == len(used)                       # disjoint
        out, idx = rd.merge(Tensor(vals), pairs[None], op)
        assert out.shape[1] == t - r                             # cardinality
        assert np.all(np.diff(idx[0]) > 0)                       # ordered
        if op is MergeOp.SUM:
            assert np.abs(out.data.sum(1) - vals.sum(1)).max() < 1e-12
        if case % 10 == 0:
            again, _ = rd.merge(Tensor(vals), pairs[None], op)
            assert np.array_equal(again.data, out.data)


def test_criterion_05_pair_selection_oracle():
    rng = np.random.default_rng(99)
    for _ in range(500):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        r = int(rng.integers(0, min(3, m, n) + 1))
        pair_rank = int(rng.integers(1, min(3, n) + 1))
        dists = np.round(rng.uniform(0, 1, (m, n)), 2)
        pairs = select_row(dists, r, pair_rank=pair_rank)
        want = [[i, j + m] for i, j in slow_select(dists, r, pair_rank)]
        assert pairs.tolist() == want


REDUCED_SITES = (2, 4, 6)


def test_criterion_06_merging_beats_pruning(trained_baselines, desk_eval_data,
                                            record_property):
    merge_accs, prune_accs = [], []
    for seed in SEEDS:
        model, _ = trained_baselines[seed]
        merged = with_reduction(model, r=20, sites=REDUCED_SITES,
                                mode=Mode.MERGE, merge_op=MergeOp.SUM)
        pruned = with_reduction(model, r=20, sites=REDUCED_SITES,
                                mode=Mode.PRUNE)
        merge_accs.append(tr.evaluate(merged, desk_eval_data))
        prune_accs.append(tr.evaluate(pruned, desk_eval_data))
    record_property("merge mean", np.mean(merge_accs))
    record_property("prune mean", np.mean(prune_accs))
    for seed in SEEDS:
        base_acc = trained_baselines[seed][1]
        assert base_acc >= 0.90, f"baseline seed {seed} undertrained: {base_acc}"
    ratio = rd.reduction_ratio(49, REDUCED_SITES, 20, 8)
    assert 0.4 <= ratio <= 0.6
    assert np.mean(merge_accs) >= np.mean(prune_accs), (merge_accs, prune_accs)


def test_criterion_07_retraining_recovers(trained_baselines, desk_train_data,
                                          desk_eval_data, record_property):
    accs, recoveries = [], []  # (training-free, re-trained) and recovery per seed
    for seed in SEEDS:
        model, base_acc = trained_baselines[seed]
        reduced = with_reduction(clone_model(model), r=10, sites=REDUCED_SITES,
                                 mode=Mode.MERGE, merge_op=MergeOp.SUM)
        tf_acc = tr.evaluate(reduced, desk_eval_data)
        cfg = tr.TrainConfig(epochs=3, batch_size=32, lr_start=1e-3,
                             lr_end=1e-4, weight_decay=5e-2, seed=seed)
        tr.retrain(reduced, desk_train_data, cfg, desk_eval_data)
        rt_acc = tr.evaluate(reduced, desk_eval_data)
        accs.append((tf_acc, rt_acc))
        gap = base_acc - tf_acc
        recoveries.append(1.0 if gap <= 0 else (rt_acc - tf_acc) / gap)
    record_property("mean recovery", np.mean(recoveries))
    record_property("smallest seed", min(recoveries))
    for seed, (tf_acc, rt_acc) in zip(SEEDS, accs):
        assert rt_acc > tf_acc, (seed, tf_acc, rt_acc)
    ratio = rd.reduction_ratio(49, REDUCED_SITES, 10, 8)
    assert 0.2 <= ratio <= 0.4
    assert np.mean(recoveries) >= 0.5, recoveries


def test_criterion_08_shuffle_degrades(trained_baselines, record_property):
    # each shuffled ratio runs one fixed permutation per site, so a single
    # ratio's mean moves by about 0.01 when training moves in the last place:
    # the bound reads the unshuffled mean against the shuffled ratios' mean,
    # on 1,280 eval images at r=20
    eval_data = ds.synth_dataset(128, 10, 28, 1236)
    ratios = (0.0, 0.3, 0.7, 1.0)
    means = []
    for ratio in ratios:
        accs = []
        for seed in SEEDS:
            model, _ = trained_baselines[seed]
            shuffled = with_reduction(model, r=20, sites=REDUCED_SITES,
                                      mode=Mode.MERGE, merge_op=MergeOp.SUM,
                                      shuffle_ratio=ratio)
            accs.append(tr.evaluate(shuffled, eval_data))
        means.append(float(np.mean(accs)))
    drop = means[0] - float(np.mean(means[1:]))
    record_property("unshuffled minus shuffled", drop)
    for ratio, mean in zip(ratios, means):
        record_property(f"shuffle {ratio}", mean)
    record_property("inversions", sum(1 for a, b in zip(means, means[1:]) if b > a))
    assert drop >= 0.01, means
    assert means[0] > means[-1], means


def test_criterion_09_throughput(record_property):
    model = mdl.init_model(ModelConfig(
        reduction=ReductionConfig(sites=(2, 4, 6))), seed=0)
    results = sweep(model, BenchConfig((0, 5, 11, 20), batch=16, warmup=3, iters=10,
                                       dtype=Dtype.FLOAT32), seed=0)
    for b in results[-1:] + results[:-1]:  # r=20 first: the speedup the bound reads
        record_property(f"r={b.r}", b.speedup)
    assert results[0].speedup == 1.0
    assert results[-1].speedup >= 1.15, [b.speedup for b in results]


def test_criterion_10_round_trips(tmp_path, capsys):
    # checkpoint: write, read, write again; bytes and values identical
    cfg = ModelConfig(image_size=8, patch_size=4, depth=2, d_model=6,
                      d_inner=4, d_state=2, num_classes=3,
                      reduction=ReductionConfig(r=2, sites=(1,),
                                                distance=Distance.L1))
    model = mdl.init_model(cfg, seed=3)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    mdl.save_checkpoint(model, p1)
    again = mdl.load_checkpoint(p1)
    mdl.save_checkpoint(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for (_, ta), (_, tb) in zip(model.named_params(), again.named_params()):
        assert np.array_equal(ta.data, tb.data)

    # IDX: second write of a loaded dataset is byte-identical
    dataset = ds.synth_dataset(2, 3, 8, seed=0)
    ip1, lp1 = tmp_path / "i1", tmp_path / "l1"
    ip2, lp2 = tmp_path / "i2", tmp_path / "l2"
    ds.write_idx(dataset, ip1, lp1)
    ds.write_idx(ds.load_idx(ip1, lp1), ip2, lp2)
    assert ip1.read_bytes() == ip2.read_bytes()
    assert lp1.read_bytes() == lp2.read_bytes()

    # reduction walkthrough matches the frozen golden trace byte-for-byte
    out = tmp_path / "demo"
    rc = cli.main(["merge-demo", "--config", str(DATA_DIR / "demo.cfg"),
                   "--out", str(out), str(DATA_DIR / "tokens8.txt")])
    capsys.readouterr()
    assert rc == 0
    golden = (DATA_DIR / "merge_demo_golden.txt").read_bytes()
    assert (out / "merge_demo.txt").read_bytes() == golden
