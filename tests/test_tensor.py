import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference_grad
from ssmlab import tensor as tt
from ssmlab.tensor import GradTape, Tensor, TensorError


def rel_err(a, b):
    denom = max(np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(TensorError):
            Tensor([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(TensorError):
            Tensor(np.array([np.inf]))

    def test_shape_and_size(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3) and t.size == 6


class TestMatmul:
    def test_identity_exact(self):
        a = Tensor(np.random.default_rng(0).uniform(-2, 2, (3, 3)))
        eye = Tensor(np.eye(3))
        assert np.array_equal(tt.matmul(eye, a).data, a.data)
        assert np.array_equal(tt.matmul(a, eye).data, a.data)

    def test_identity_times_vector(self):
        v = Tensor([1.0, -2.0, 3.0])
        assert np.array_equal(tt.matmul(Tensor(np.eye(3)), v).data, v.data)

    def test_hand_case(self):
        c = tt.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(c.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(TensorError):
            tt.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.uniform(-2, 2, (4, 5)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (5, 3)), requires_grad=True)
        with GradTape() as tape:
            tape.backward(tt.tsum(tt.matmul(a, b)))
        ga = finite_difference_grad(lambda x: float((x @ b.data).sum()), a.data.copy())
        gb = finite_difference_grad(lambda x: float((a.data @ x).sum()), b.data.copy())
        assert rel_err(a.grad.data, ga) < 1e-6
        assert rel_err(b.grad.data, gb) < 1e-6


class TestElementwise:
    def test_softplus_at_zero(self):
        assert tt.softplus(Tensor([0.0])).data[0] == pytest.approx(math.log(2), abs=1e-15)

    def test_softplus_large_input_safe(self):
        out = tt.softplus(Tensor([800.0, -800.0]))
        assert out.data[0] == pytest.approx(800.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-300)
        assert np.all(np.isfinite(out.data))

    def test_silu_at_zero(self):
        assert tt.silu(Tensor([0.0])).data[0] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_large_input_safe(self, dtype):
        with np.errstate(all="raise"):
            out = tt.silu(Tensor(np.array([1e4, -1e4], dtype=dtype))).data
        assert out.dtype == dtype
        assert out[0] == 1e4 and out[1] == 0.0

    def test_broadcast_scalar(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with GradTape() as tape:
            tape.backward(tt.tsum(tt.mul(x, Tensor(3.0))))
        assert np.array_equal(x.grad.data, np.full((2, 3), 3.0))

    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_differentiable_ops_match_finite_differences(self, vals):
        x0 = np.array(vals)
        for op, ref in [(tt.softplus, lambda v: np.maximum(v, 0) + np.log1p(np.exp(-np.abs(v)))),
                        (tt.silu, lambda v: v / (1 + np.exp(-v)))]:
            x = Tensor(x0, requires_grad=True)
            with GradTape() as tape:
                tape.backward(tt.tsum(op(x)))
            g = finite_difference_grad(lambda v: float(ref(v).sum()), x0.copy())
            assert rel_err(x.grad.data, g) < 1e-4


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with GradTape() as tape:
            tape.backward(tt.tsum(x))
        assert np.array_equal(x.grad.data, np.ones((2, 3)))

    def test_square_grad(self):
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        with GradTape() as tape:
            tape.backward(tt.tsum(tt.mul(x, x)))
        assert np.allclose(x.grad.data, 2 * x.data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            y = tt.mul(x, x)
            with pytest.raises(TensorError):
                tape.backward(y)

    def test_empty_tape_rejected(self):
        with GradTape() as tape:
            pass
        with pytest.raises(TensorError):
            tape.backward(Tensor(1.0))

    def test_tape_consumed_once(self):
        x = Tensor([1.0], requires_grad=True)
        with GradTape() as tape:
            loss = tt.tsum(x)
            tape.backward(loss)
        with pytest.raises(TensorError):
            tape.backward(loss)

    def test_no_recording_without_tape(self):
        x = Tensor([1.0], requires_grad=True)
        y = tt.mul(x, x)  # outside any tape: plain math
        assert y.grad is None and x.grad is None

    def test_grad_accumulates_across_reuse(self):
        x = Tensor([3.0], requires_grad=True)
        with GradTape() as tape:
            tape.backward(tt.tsum(tt.add(tt.mul(x, x), x)))
        assert x.grad.data[0] == pytest.approx(2 * 3.0 + 1.0)


class TestShapes:
    def test_layer_norm_moments(self):
        x = Tensor(np.random.default_rng(0).uniform(-3, 3, (2, 5, 7)))
        y = tt.layer_norm(x).data
        assert np.allclose(y.mean(-1), 0, atol=1e-12)
        assert np.allclose(y.var(-1), 1, atol=1e-5)

    @pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-14)])
    def test_layer_norm_matches_two_pass_formula(self, dtype, tol):
        x = np.random.default_rng(12).uniform(-3, 3, (3, 5, 16)).astype(dtype)
        y = tt.layer_norm(Tensor(x)).data
        assert y.dtype == dtype
        x64 = x.astype(np.float64)
        xc = x64 - x64.mean(-1, keepdims=True)
        want = xc / np.sqrt((xc * xc).mean(-1, keepdims=True) + 1e-6)
        assert np.abs(y - want).max() < tol

    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(11)
        x0 = rng.uniform(-2, 2, (2, 4))
        w = rng.uniform(-1, 1, (2, 4))

        def f(v):
            mu = v.mean(-1, keepdims=True)
            xc = v - mu
            var = (xc * xc).mean(-1, keepdims=True)
            return float((w * xc / np.sqrt(var + 1e-6)).sum())

        x = Tensor(x0, requires_grad=True)
        with GradTape() as tape:
            tape.backward(tt.tsum(tt.mul(tt.layer_norm(x), Tensor(w))))
        g = finite_difference_grad(f, x0.copy())
        assert rel_err(x.grad.data, g) < 1e-6
