import gc
import weakref

import numpy as np
import pytest

from conftest import finite_difference_grad, mul
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

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 3)])
    def test_right_operand_must_be_2d(self, shape):
        with pytest.raises(TensorError):
            tt.matmul(Tensor(np.eye(3)), Tensor(np.ones(shape)))

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

    def test_cotangent_only_for_operands_that_want_one(self):
        # the patch embedding's image matrix never wants one
        rng = np.random.default_rng(8)
        a, b = Tensor(rng.uniform(-2, 2, (2, 4, 5))), Tensor(rng.uniform(-2, 2, (5, 3)))
        d = rng.uniform(-1, 1, (2, 4, 3))
        for a_grad, b_grad in ((False, True), (True, False)):
            a.requires_grad, b.requires_grad = a_grad, b_grad
            with GradTape() as tape:
                tt.matmul(a, b)
                da, db = tape.entries[-1][2](d)
            assert (da is None) == (not a_grad) and (db is None) == (not b_grad)
            if a_grad:
                assert np.array_equal(da, d @ b.data.T)
            else:
                assert np.array_equal(db, (np.swapaxes(a.data, -1, -2) @ d).sum(axis=0))


class TestElementwise:
    def test_broadcast_scalar(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with GradTape() as tape:
            tape.backward(tt.tsum(mul(x, Tensor(3.0))))
        assert np.array_equal(x.grad.data, np.full((2, 3), 3.0))

    @pytest.mark.parametrize("right", [(1, 3), (2, 1), (2, 2, 3), (2,)])
    def test_add_rejects_a_right_operand_that_is_not_a_trailing_suffix(self, right):
        with pytest.raises(TensorError, match="leading axes"):
            tt.add(Tensor(np.ones((2, 3))), Tensor(np.ones(right)))


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with GradTape() as tape:
            tape.backward(tt.tsum(x))
        assert np.array_equal(x.grad.data, np.ones((2, 3)))

    def test_square_grad(self):
        x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        with GradTape() as tape:
            tape.backward(tt.tsum(mul(x, x)))
        assert np.allclose(x.grad.data, 2 * x.data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            y = mul(x, x)
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

    def test_tape_raising_in_backward_is_consumed(self):
        # the half-popped remainder must not run on a second call
        x = Tensor([1.0], requires_grad=True)

        def fails(d):
            raise RuntimeError("backward_fn failed")

        with GradTape() as tape:
            loss = tt.tsum(tt.record(Tensor(x.data * 2.0), (x,), fails))
        with pytest.raises(RuntimeError):
            tape.backward(loss)
        with pytest.raises(TensorError, match="consumed"):
            tape.backward(loss)
        assert x.grad is None

    def test_backward_frees_each_entry_once_it_has_run(self):
        # an array only the last-recorded op's closure holds is dead by the
        # time the first-recorded op's backward runs
        x = Tensor(np.ones(3), requires_grad=True)
        seen = []

        def first(d):
            gc.collect()
            seen.append(probe() is None)
            return (d * 2.0,)

        def captures(held):
            return lambda d: (d * held,)

        with GradTape() as tape:
            y = tt.record(Tensor(x.data * 2.0), (x,), first)
            held = np.arange(3.0)
            probe = weakref.ref(held)
            z = tt.record(Tensor(y.data * held), (y,), captures(held))
            del held
            tape.backward(tt.tsum(z))
        assert seen == [True]
        assert np.array_equal(x.grad.data, [0.0, 2.0, 4.0])

    def test_no_recording_without_tape(self):
        x = Tensor([1.0], requires_grad=True)
        y = mul(x, x)  # outside any tape: plain math
        assert y.grad is None and x.grad is None

    def test_grad_accumulates_across_reuse(self):
        x = Tensor([3.0], requires_grad=True)
        with GradTape() as tape:
            tape.backward(tt.tsum(tt.add(mul(x, x), x)))
        assert x.grad.data[0] == pytest.approx(2 * 3.0 + 1.0)

    def test_summed_cotangents_leave_returned_arrays_untouched(self):
        # add returns the same d for both of its inputs, and every add below
        # passes the loss's cotangent on: x's first cotangent is that shared
        # array, and its later ones are summed in a buffer of the tape's
        # own, so y's cotangent, the same array, keeps its value
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            s = tt.add(x, y)
            tape.backward(tt.tsum(tt.add(tt.add(s, x), tt.add(x, x))))
        assert np.array_equal(x.grad.data, np.full(3, 4.0))
        assert np.array_equal(y.grad.data, np.ones(3))

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float32, np.float64, np.float32),
                                        (np.float64, np.float32, np.float32, np.float32),
                                        (np.float32,) * 4])
    def test_cotangent_sum_keeps_the_bits_of_a_plus_b(self, dtypes):
        # four cotangents of mixed width for one input: the sum is
        # ((c0 + c1) + c2) + c3, widened where a + b widens, and none of
        # the arrays the backward fn returned is written to
        rng = np.random.default_rng(5)
        parts = [rng.uniform(-1, 1, 6).astype(t) for t in dtypes]
        before = [p.copy() for p in parts]
        x = Tensor(np.zeros(6, np.float32), requires_grad=True)
        with GradTape() as tape:
            out = tt.record(Tensor(np.zeros(6, np.float32)), (x,) * 4, lambda d: parts)
            tape.backward(tt.tsum(out))
        want = ((before[0] + before[1]) + before[2]) + before[3]
        assert x.grad.data.dtype == want.dtype and np.array_equal(x.grad.data, want)
        assert all(np.array_equal(p, b) for p, b in zip(parts, before))

    def test_intermediate_output_dies_while_tape_is_open(self):
        # add's closure keeps its input shapes, and an entry keeps its output's key
        x = Tensor(np.ones((4, 5)), requires_grad=True)
        with GradTape() as tape:
            mid = tt.add(x, x)
            dead = weakref.ref(mid.data)
            out = tt.add(mid, x)
            del mid
            gc.collect()
            assert dead() is None
            tape.backward(tt.tsum(out))
        assert np.array_equal(x.grad.data, np.full((4, 5), 3.0))

    def test_output_of_a_consumed_tape_is_a_leaf_of_the_next(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as first:
            h = tt.scale(w, 2.0)
            first.backward(tt.tsum(h))
        assert h.grad is None and np.array_equal(w.grad.data, [2.0, 2.0])
        with GradTape() as second:
            # ops taped here must not be mistaken for the one that made h
            second.backward(tt.tsum(tt.add(tt.scale(h, 3.0), h)))
        assert np.array_equal(h.grad.data, [4.0, 4.0])
        assert np.array_equal(w.grad.data, [2.0, 2.0])


class TestTapeStack:
    def test_inner_tape_records_and_outer_does_not(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as outer:
            with GradTape() as inner:
                tt.scale(x, 2.0)
        assert len(inner.entries) == 1 and outer.entries == []

    def test_outer_tape_is_active_again_after_inner_exits(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as outer:
            with GradTape():
                pass
            tt.scale(x, 2.0)
            with pytest.raises(RuntimeError):
                with GradTape() as inner:
                    raise RuntimeError("body fails")
            tt.scale(x, 3.0)
        assert len(outer.entries) == 2 and inner.entries == []

    def test_nothing_records_once_every_tape_has_exited(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as outer:
            with GradTape():
                pass
        assert not tt.recording((x,))
        y = tt.scale(x, 2.0)
        assert outer.entries == [] and not y.requires_grad and y._key is None


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
            tape.backward(tt.tsum(mul(tt.layer_norm(x), Tensor(w))))
        g = finite_difference_grad(f, x0.copy())
        assert rel_err(x.grad.data, g) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_gradient_bits_of_the_one_line_formula(self, dtype):
        rng = np.random.default_rng(13)
        x = rng.uniform(-3, 3, (3, 5, 16)).astype(dtype)
        d = rng.uniform(-1, 1, x.shape).astype(dtype)
        t = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            y = tt.layer_norm(t)
            got = tape.entries[-1][2](d)[0]
        yc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", yc, yc)[..., None] / 16 + 1e-6)
        n, y = 16, y.data
        want = (d - d.sum(axis=-1, keepdims=True) / n
                - y * (d * y).sum(axis=-1, keepdims=True) / n) * inv
        assert got.dtype == dtype and np.array_equal(got, want)

    def test_layer_norm_backward_leaves_input_and_cotangent_untouched(self):
        # the tape sums a repeated cotangent as a + b, so the closure must
        # write into neither its input nor d; run again, it returns the same
        rng = np.random.default_rng(14)
        x = rng.uniform(-3, 3, (3, 5, 16))
        d = rng.uniform(-1, 1, x.shape)
        x_before, d_before = x.tobytes(), d.tobytes()
        with GradTape() as tape:
            y = tt.layer_norm(Tensor(x, requires_grad=True))
            y_before = y.data.tobytes()
            backward = tape.entries[-1][2]
            first = backward(d)[0].copy()
            second = backward(d)[0]
        assert x.tobytes() == x_before and d.tobytes() == d_before
        assert y.data.tobytes() == y_before
        assert np.array_equal(first, second)
