import math

import numpy as np
import pytest

from conftest import SEEDS, finite_difference_grad, train_baseline
from ssmlab import data as ds
from ssmlab import model as mdl
from ssmlab import tensor as tt
from ssmlab import train as tr
from ssmlab.model import ModelConfig
from ssmlab.reduce import ReductionConfig
from ssmlab.tensor import GradTape, Tensor
from ssmlab.train import AdamWState, TrainConfig


def tiny_model(seed=0, **red_kwargs):
    red = ReductionConfig(**red_kwargs) if red_kwargs else ReductionConfig()
    cfg = ModelConfig(image_size=8, patch_size=4, in_channels=1, depth=2,
                      d_model=6, d_inner=4, d_state=2, num_classes=3,
                      reduction=red)
    return mdl.init_model(cfg, seed=seed)


def tiny_data(n_per_class=4, seed=0):
    return ds.synth_dataset(n_per_class, 3, 8, seed)


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((5, 7)))
        loss = tr.cross_entropy(logits, np.zeros(5, dtype=int))
        assert loss.item() == pytest.approx(math.log(7), abs=1e-12)

    def test_confident_correct_approaches_zero(self):
        z = np.full((2, 4), -30.0)
        z[0, 1] = 30.0
        z[1, 2] = 30.0
        loss = tr.cross_entropy(Tensor(z), [1, 2])
        assert loss.item() == pytest.approx(0.0, abs=1e-20)

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-3, 3, (6, 5))
        labels = rng.integers(0, 5, 6)
        loss = tr.cross_entropy(Tensor(z), labels)
        want = np.mean([-z[i, labels[i]] + np.log(np.exp(z[i]).sum())
                        for i in range(6)])
        assert loss.item() == pytest.approx(want, abs=1e-12)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(1)
        z0 = rng.uniform(-2, 2, (4, 3))
        labels = np.array([0, 2, 1, 1])
        z = Tensor(z0, requires_grad=True)
        with GradTape() as tape:
            tape.backward(tr.cross_entropy(z, labels))
        soft = np.exp(z0) / np.exp(z0).sum(1, keepdims=True)
        soft[np.arange(4), labels] -= 1.0
        assert np.allclose(z.grad.data, soft / 4, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        z0 = rng.uniform(-2, 2, (3, 4))
        labels = np.array([1, 3, 0])
        z = Tensor(z0, requires_grad=True)
        with GradTape() as tape:
            tape.backward(tr.cross_entropy(z, labels))

        def f(v):
            zm = v - v.max(1, keepdims=True)
            lp = zm - np.log(np.exp(zm).sum(1, keepdims=True))
            return float(-lp[np.arange(3), labels].mean())

        g = finite_difference_grad(f, z0.copy())
        assert np.abs(g - z.grad.data).max() < 1e-7

    def test_label_validation(self):
        with pytest.raises(ValueError):
            tr.cross_entropy(Tensor(np.zeros((2, 3))), [0])
        with pytest.raises(ValueError):
            tr.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_stable_for_huge_logits(self):
        loss = tr.cross_entropy(Tensor([[700.0, 0.0]]), [0])
        assert math.isfinite(loss.item())


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert tr.cosine_lr(0, 100, 1e-3, 1e-5) == pytest.approx(1e-3)
        assert tr.cosine_lr(100, 100, 1e-3, 1e-5) == pytest.approx(1e-5)
        assert tr.cosine_lr(50, 100, 1e-3, 1e-5) == pytest.approx((1e-3 + 1e-5) / 2)

    def test_monotone_decreasing(self):
        vals = [tr.cosine_lr(s, 20, 1.0, 0.1) for s in range(21)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tr.cosine_lr(5, 4, 1.0, 0.1)


class TestAdamW:
    def test_first_step_hand_formula(self):
        cfg = TrainConfig(lr_start=1e-2, lr_end=1e-3, weight_decay=0.0)
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = Tensor(np.array([0.5, -0.25]))
        state = AdamWState.for_params([("p", p)])
        tr.adamw_step([("p", p)], state, 1e-2, cfg)
        # after bias correction the first update is lr * g / (|g| + eps)
        g = np.array([0.5, -0.25])
        want = np.array([1.0, -2.0]) - 1e-2 * g / (np.abs(g) + tr.EPS)
        assert np.allclose(p.data, want, atol=1e-12)

    def test_decay_shrinks_before_update(self):
        cfg = TrainConfig(weight_decay=0.1)
        p = Tensor(np.array([10.0]), requires_grad=True)
        p.grad = Tensor(np.array([0.0]))
        state = AdamWState.for_params([("p", p)])
        tr.adamw_step([("p", p)], state, 0.5, cfg)
        # zero gradient: only the decoupled decay acts
        assert p.data[0] == pytest.approx(10.0 * (1 - 0.5 * 0.1))

    def test_matches_reference_over_steps(self):
        cfg = TrainConfig(weight_decay=0.03)
        b1, b2 = tr.BETAS
        rng = np.random.default_rng(3)
        p0 = rng.uniform(-1, 1, 5)
        grads = [rng.uniform(-1, 1, 5) for _ in range(4)]
        lr = 2e-3

        ref = p0.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        for t, g in enumerate(grads, 1):
            ref -= lr * cfg.weight_decay * ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + tr.EPS)

        p = Tensor(p0.copy(), requires_grad=True)
        state = AdamWState.for_params([("p", p)])
        for g in grads:
            p.grad = Tensor(g)
            tr.adamw_step([("p", p)], state, lr, cfg)
        assert np.allclose(p.data, ref, atol=1e-14)

    def test_flat_pass_matches_per_parameter_formula_bit_exact(self):
        # one pass over the concatenated parameters, the same expressions
        cfg = TrainConfig(weight_decay=0.03)
        b1, b2 = tr.BETAS
        rng = np.random.default_rng(4)
        starts = [rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (5,))]
        grads = [[rng.uniform(-1, 1, a.shape) for a in starts] for _ in range(4)]
        lr = 2e-3
        refs = [a.copy() for a in starts]
        ms = [np.zeros_like(a) for a in starts]
        vs = [np.zeros_like(a) for a in starts]
        params = [(f"p{i}", Tensor(a.copy(), requires_grad=True)) for i, a in enumerate(starts)]
        state = AdamWState.for_params(params)
        for t, step_grads in enumerate(grads, 1):
            for ref, m, v, g in zip(refs, ms, vs, step_grads):
                ref -= lr * cfg.weight_decay * ref
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                ref -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + tr.EPS)
            for (_, p), g in zip(params, step_grads):
                p.grad = Tensor(g)
            tr.adamw_step(params, state, lr, cfg)
        for (_, p), ref in zip(params, refs):
            assert p.data.tobytes() == ref.tobytes()
        assert state.m.shape == state.v.shape == (17,)

    def test_missing_grad_leaves_every_parameter_untouched(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        a.grad = Tensor(np.full(3, 0.5))
        state = AdamWState.for_params([("a", a), ("b", b)])
        with pytest.raises(ValueError, match="missing gradient for b"):
            tr.adamw_step([("a", a), ("b", b)], state, 1e-2, TrainConfig())
        assert np.array_equal(a.data, np.ones(3)) and not state.m.any() and state.step == 0

    def test_size_mismatch_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = Tensor(np.ones(3))
        state = AdamWState.for_params([("p", Tensor(np.zeros(2)))])
        with pytest.raises(ValueError):
            tr.adamw_step([("p", p)], state, 1e-3, TrainConfig())

    def test_missing_grad_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        state = AdamWState.for_params([("p", p)])
        with pytest.raises(ValueError):
            tr.adamw_step([("p", p)], state, 1e-3, TrainConfig())


class TestTrainConfig:
    def test_bad_lr_order(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_start=1e-5, lr_end=1e-3)

    def test_bad_accum(self):
        with pytest.raises(ValueError):
            TrainConfig(accum_steps=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            TrainConfig(subset_fraction=0.0)


class TestEvaluate:
    def test_accuracy_in_unit_interval(self):
        model = tiny_model()
        data = tiny_data()
        acc = tr.evaluate(model, data)
        assert 0.0 <= acc <= 1.0

    def test_does_not_mutate_params(self):
        model = tiny_model()
        data = tiny_data()
        before = {n: t.data.copy() for n, t in model.named_params()}
        tr.evaluate(model, data)
        for n, t in model.named_params():
            assert np.array_equal(t.data, before[n]), n

    def test_batching_irrelevant(self):
        model = tiny_model()
        data = tiny_data(6)
        assert tr.evaluate(model, data, batch_size=5) == \
            tr.evaluate(model, data, batch_size=64)

    def test_empty_dataset_rejected(self):
        model = tiny_model()
        empty = ds.Dataset(np.zeros((0, 8, 8, 1)), np.zeros(0, dtype=int), 3)
        with pytest.raises(ValueError):
            tr.evaluate(model, empty)


class TestRetrain:
    def test_loss_decreases(self):
        model = tiny_model()
        data = tiny_data(8)
        cfg = TrainConfig(epochs=4, batch_size=8, lr_start=3e-3, lr_end=3e-4,
                          seed=0)
        report = tr.retrain(model, data, cfg)
        assert report.rows[-1].train_loss < report.rows[0].train_loss
        assert len(report.rows) == 4

    def test_bit_deterministic(self):
        cfg = TrainConfig(epochs=2, batch_size=6, lr_start=1e-3, lr_end=1e-4,
                          seed=5)
        data = tiny_data()
        ma = tiny_model(seed=1)
        mb = tiny_model(seed=1)
        ra = tr.retrain(ma, data, cfg)
        rb = tr.retrain(mb, data, cfg)
        for (na, ta), (_, tb) in zip(ma.named_params(), mb.named_params()):
            assert np.array_equal(ta.data, tb.data), na
        assert [r.train_loss for r in ra.rows] == [r.train_loss for r in rb.rows]

    def test_worker_baseline_matches_serial_retrain(self, trained_baselines,
                                                    desk_train_data, desk_eval_data):
        # the fixture trains in spawned workers; this process trains the
        # same seed again, one step after another
        seed = SEEDS[-1]
        arrays, acc = train_baseline(seed, desk_train_data, desk_eval_data)
        model, worker_acc = trained_baselines[seed]
        for name, t in model.named_params():
            assert t.data.tobytes() == arrays[name].tobytes(), name
        assert worker_acc == acc

    def test_accumulation_matches_single_batch(self):
        data = tiny_data()  # 12 items
        base = dict(epochs=1, lr_start=1e-3, lr_end=1e-4, seed=2)
        # 2 micro-batches of 6 per step; then 3 of 4, the last group only one;
        # then 5, 5 and 2 in one group, each weighted by its image count
        for batch, accum in ((6, 2), (4, 2), (5, 3)):
            ma = tiny_model(seed=3)
            tr.retrain(ma, data, TrainConfig(batch_size=batch * accum, accum_steps=1, **base))
            mb = tiny_model(seed=3)
            tr.retrain(mb, data, TrainConfig(batch_size=batch, accum_steps=accum, **base))
            for (na, ta), (_, tb) in zip(ma.named_params(), mb.named_params()):
                assert np.abs(ta.data - tb.data).max() < 1e-10, (batch, na)

    def test_each_step_sees_its_groups_mean_gradient(self, monkeypatch):
        # 12 images as micro-batches of 5, two to a group: a group of 10
        # images, then one of 2. Before each step, every .grad must be the
        # gradient of the group's mean loss per image, taken in one taped
        # pass over the group's images at the weights the step starts from.
        model, data = tiny_model(), tiny_data()
        cfg = TrainConfig(epochs=1, batch_size=5, accum_steps=2, lr_start=1e-3, lr_end=1e-4)
        order = np.random.default_rng(cfg.seed).permutation(data.size)
        groups = [order[:10], order[10:]]
        step, stepped = tr.adamw_step, []

        def checked_step(params, state, lr, cfg):
            sel = groups[len(stepped)]
            ref = mdl.Model(model.cfg, {k: Tensor(t.data.copy(), requires_grad=True)
                                        for k, t in params})
            with GradTape() as tape:
                logits, _ = mdl.forward(ref, data.images[sel])
                tape.backward(tr.cross_entropy(logits, data.labels[sel]))
            for (name, p), (_, q) in zip(params, ref.named_params()):
                err = np.abs(p.grad.data - q.grad.data).max()
                assert err <= 1e-12 * np.abs(q.grad.data).max(), (len(stepped), name)
            stepped.append(len(sel))
            step(params, state, lr, cfg)

        monkeypatch.setattr(tr, "adamw_step", checked_step)
        tr.retrain(model, data, cfg)
        assert stepped == [10, 2]

    def test_epoch_loss_is_the_mean_over_its_images(self):
        # 10 images as micro-batches of 4, 4 and 2 in one accumulation group:
        # every loss is taken at the initial weights, and the short last
        # micro-batch counts for its 2 images, not as much as a full one
        model, data = tiny_model(), tiny_data()
        data = ds.Dataset(data.images[:10], data.labels[:10], data.num_classes)
        logits, _ = mdl.forward(tiny_model(), data.images)
        want = tr.cross_entropy(logits, data.labels).item()
        report = tr.retrain(model, data, TrainConfig(epochs=1, batch_size=4, accum_steps=3,
                                                     lr_start=1e-3, lr_end=1e-4))
        assert abs(report.rows[0].train_loss - want) < 1e-12

    def test_epochs_zero_is_training_free(self):
        model = tiny_model()
        data = tiny_data()
        before = {n: t.data.copy() for n, t in model.named_params()}
        report = tr.retrain(model, data, TrainConfig(epochs=0))
        assert len(report.rows) == 1
        assert math.isnan(report.rows[0].train_loss)
        assert report.final_accuracy == tr.evaluate(model, data)
        for n, t in model.named_params():
            assert np.array_equal(t.data, before[n]), n

    def test_subset_fraction_scales_epochs(self):
        model = tiny_model()
        data = tiny_data(8)  # 24 items
        cfg = TrainConfig(epochs=1, batch_size=12, subset_fraction=0.5,
                          lr_start=1e-3, lr_end=1e-4)
        report = tr.retrain(model, data, cfg)
        assert len(report.rows) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        model = tiny_model()
        data = tiny_data()
        cfg = TrainConfig(epochs=3, batch_size=12, lr_start=1e12, lr_end=1e11)
        with pytest.raises((tr.NumericError, tt.TensorError)):
            tr.retrain(model, data, cfg)

    def test_trains_through_reduction(self):
        model = tiny_model(r=1, sites=(1,))
        data = tiny_data(8)
        cfg = TrainConfig(epochs=3, batch_size=8, lr_start=3e-3, lr_end=3e-4)
        report = tr.retrain(model, data, cfg)
        assert report.rows[-1].train_loss < report.rows[0].train_loss
