import numpy as np
import pytest

from ssmlab import bench as bn
from ssmlab import data as ds
from ssmlab import model as mdl
from ssmlab.bench import BenchConfig
from ssmlab.model import ModelConfig
from ssmlab.reduce import ReductionConfig


def bench_model():
    cfg = ModelConfig(image_size=8, patch_size=4, in_channels=1, depth=3,
                      d_model=6, d_inner=4, d_state=2, num_classes=3,
                      reduction=ReductionConfig(r=1, sites=(1,)))
    return mdl.init_model(cfg, seed=0)


class TestMeasure:
    def test_rate_positive(self):
        results = bn.sweep(bench_model(), BenchConfig((1,), batch=2, warmup=0, iters=2))
        assert results[0].images_per_second > 0

    def test_warmup_is_honoured(self, monkeypatch):
        calls = []
        forward = mdl.forward
        monkeypatch.setattr(mdl, "forward", lambda *a: calls.append(1) or forward(*a))
        bn.sweep(bench_model(), BenchConfig((1,), batch=2, warmup=0, iters=2))
        assert len(calls) == 2 * 2  # (warmup + iters) rounds of r=0 and r=1

    def test_iters_validation(self):
        with pytest.raises(ValueError):
            BenchConfig((0, 1), iters=0)

    def test_baseline_speedup_is_exactly_one(self):
        res = bn.sweep(bench_model(), BenchConfig((0, 1), batch=2, iters=2))[0]
        assert res.speedup == 1.0
        assert res.r == 0 and res.reduction_ratio == 0.0


class TestSweep:
    def test_fields_consistent(self):
        model = bench_model()
        results = bn.sweep(model, BenchConfig((0, 1, 2), batch=2, iters=2))
        assert [b.r for b in results] == [0, 1, 2]
        ratios = [b.reduction_ratio for b in results]
        assert ratios == sorted(ratios)
        flops = [b.flops for b in results]
        assert all(y <= x for x, y in zip(flops, flops[1:]))
        for b in results:
            assert b.images_per_second > 0 and b.speedup > 0
            assert b.accuracy is None

    def test_with_r_shares_weights(self):
        model = bench_model()
        other = bn._with_r(model, 5)
        assert other.params["patch_proj"] is model.params["patch_proj"]
        assert other.cfg.reduction.r == 5
        assert model.cfg.reduction.r == 1  # original untouched

    def test_accuracy_column_when_dataset_given(self):
        model = bench_model()
        data = ds.synth_dataset(2, 3, 8, seed=0)
        results = bn.sweep(model, BenchConfig((0,), batch=2, iters=2), data)
        assert results[0].accuracy is not None
        assert 0.0 <= results[0].accuracy <= 1.0

    def test_median_between_quartiles(self):
        results = bn.sweep(bench_model(),
                           BenchConfig((0, 1), batch=2, warmup=0, iters=5))
        for b in results:
            assert 0 < b.images_per_second_q1 <= b.images_per_second
            assert b.images_per_second <= b.images_per_second_q3

    def test_empty_r_values(self):
        with pytest.raises(ValueError):
            BenchConfig(())
