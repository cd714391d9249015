import enum
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference_grad, mul, traced_memory
from ssmlab import ssm, tensor as tt
from ssmlab.tensor import GradTape, Tensor, TensorError, record

FIELDS = ("a_log", "w_delta", "delta_bias", "w_b", "w_c")  # a direction's scan fields


class ScanDirection(enum.Enum):
    """A scan direction: the ``side`` of a block its parameters sit on, and
    the ``half`` of scan_core's output that holds it."""
    FORWARD = "fwd"
    BACKWARD = "bwd"  # processes indices T-1 ... 0

    @property
    def half(self):
        return list(ScanDirection).index(self)


def naive_scan(params, x, reverse=False):
    """Per-step reference: plain python loops, no vectorized scan."""
    xd = x if isinstance(x, np.ndarray) else x.data
    if reverse:
        xd = xd[:, ::-1]
    b, t, d = xd.shape
    n = params["a_log"].shape[1]
    a = -np.exp(params["a_log"].data)
    delta = np.maximum(xd @ params["w_delta"].data + params["delta_bias"].data, 0) + \
        np.log1p(np.exp(-np.abs(xd @ params["w_delta"].data + params["delta_bias"].data)))
    y = np.zeros((b, t, d))
    for bi in range(b):
        h = np.zeros((d, n))
        for ti in range(t):
            dt = delta[bi, ti, 0]
            bt = xd[bi, ti] @ params["w_b"].data
            ct = xd[bi, ti] @ params["w_c"].data
            for di in range(d):
                for ni in range(n):
                    a_bar = math.exp(dt * a[di, ni])
                    b_bar = dt * bt[ni]
                    h[di, ni] = a_bar * h[di, ni] + b_bar * xd[bi, ti, di]
            for di in range(d):
                y[bi, ti, di] = float(h[di] @ ct)
    if reverse:
        y = y[:, ::-1]
    return y


def direction_scan(p, x: Tensor, direction=ScanDirection.FORWARD):
    """One scan direction as a taped primitive of its own: the per-step
    reference whose values and gradients ``ssm.scan_core`` must match bit
    for bit on each half. p: the direction's fields, keyed as in
    ``ssm.scan_shapes``; x: [B,T,D] pre-silu in projection. Steps a [B,N,D]
    state through t = 0 .. T-1, with the products and the hand-written
    backward pass formed as one direction's scan forms them. The BACKWARD
    direction is that scan of x reversed in time, with its readout and x
    cotangent reversed back. Returns the ungated [B,T,D] readout, in
    natural time."""
    o = slice(None, None, -1) if direction is ScanDirection.BACKWARD else slice(None)
    xp = x.data[:, o]
    xs = ssm._sigmoid(xp)
    xs *= xp                                                   # silu(x)
    a_log, w_delta, delta_bias, w_b, w_c = (p[k] for k in FIELDS)
    inputs = (x, a_log, w_delta, delta_bias, w_b, w_c)
    a = -np.exp(a_log.data.T, order="C")                      # [N,D]

    def projections(xs):
        pre = xs @ w_delta.data + delta_bias.data
        ds = np.maximum(pre, 0.0) + np.log1p(np.exp(-np.abs(pre)))
        return pre, ds, xs @ w_b.data, xs @ w_c.data
    _, ds, bs, cs = projections(xs)
    bsz, t_len = xs.shape[:2]
    db = ds * bs
    h = np.zeros((bsz, *a.shape), dtype=xs.dtype)              # [B,N,D]
    hs = np.empty((t_len, *h.shape), dtype=h.dtype)
    a_bar, u = np.empty_like(h), np.empty_like(h)
    y = np.empty_like(xs)
    for t in range(t_len):
        np.einsum("b,nd->bnd", ds[:, t, 0], a, out=a_bar, casting="same_kind")
        np.exp(a_bar, out=a_bar)
        np.einsum("bn,bd->bnd", db[:, t], xs[:, t], out=u, casting="same_kind")
        h *= a_bar
        h += u
        np.matmul(cs[:, t, None, :], h, out=y[:, t, None, :])
        hs[t] = h

    def backward(dy):
        dy = dy[:, o]
        s_x = ssm._sigmoid(xp)
        xs = xp * s_x
        pre, ds, bs, cs = projections(xs)
        dc = np.matmul(hs.transpose(1, 0, 2, 3), dy[..., None])[..., 0]  # sum_d h dy
        g = np.zeros_like(hs[0])                               # dL/dh_t
        buf = np.empty_like(g)
        g_b, x_g = np.empty_like(dy), np.empty_like(cs)
        for t in range(t_len - 1, -1, -1):
            np.einsum("bn,bd->bnd", cs[:, t], dy[:, t], out=buf, casting="same_kind")
            g += buf
            np.matmul(bs[:, t, None, :], g, out=g_b[:, t, None, :])
            np.matmul(g, xs[:, t, :, None], out=x_g[:, t, :, None])
            if t == 0:
                break
            np.einsum("b,nd->bnd", ds[:, t, 0], a, out=buf, casting="same_kind")
            np.exp(buf, out=buf)
            g *= buf
            np.multiply(g, hs[t - 1], out=hs[t - 1])           # dL/d(delta_t A)
        d_da = hs[:-1].reshape(-1, a.size)                     # (t, b) row order
        d_delta = (g_b * xs).sum(axis=-1, keepdims=True)
        d_delta[:, 1:, 0] += (d_da @ a.reshape(-1)).reshape(-1, bsz).T
        d_a_log = (a * (ds[:, 1:, 0].T.reshape(-1) @ d_da).reshape(a.shape)).T
        d_b = x_g * ds
        d_pre = d_delta * ssm._sigmoid(pre)
        dx = g_b * ds
        dx += dc @ w_c.data.T
        dx += d_b @ w_b.data.T
        dx += d_pre * w_delta.data[:, 0]
        dx *= s_x + xs * (1.0 - s_x)                           # silu'(x)
        xt = np.swapaxes(xs, -1, -2)
        return (dx[:, o], d_a_log, tt._unbroadcast(xt @ d_pre, w_delta.shape),
                tt._unbroadcast(d_pre, delta_bias.shape),
                tt._unbroadcast(xt @ d_b, w_b.shape), tt._unbroadcast(xt @ dc, w_c.shape))

    return record(Tensor(y[:, o], _check=False), inputs, backward)


def gate(y: Tensor, z: Tensor):
    """y * silu(z) as a taped op of its own, with the backward pass formed as
    ``ssm.mixer`` forms it: the gate between a direction's per-step scan and
    its out projection in a branch-by-branch reference."""
    zs = z.data
    g = zs * ssm._sigmoid(zs)                                  # silu(z)
    g *= y.data

    def backward(d):
        s = ssm._sigmoid(zs)
        silu_d = zs * s
        dy = d * silu_d
        silu_d *= 1.0 - s
        silu_d += s                                            # silu'(z)
        dz = d * y.data
        dz *= silu_d
        return dy, dz

    return record(Tensor(g, _check=False), (y, z), backward)


def flipped(a):
    """A stacked [2,B,T,*] array with its backward half reversed in time:
    scan_core's loop order in natural time, and natural time in loop order."""
    return np.stack([a[0], a[1, :, ::-1]])


class ReadSpy(Tensor):
    """A copy of Tensor ``t`` that calls ``on_read()`` each time its data is read."""

    def __init__(self, t, on_read):
        self.on_read = on_read
        super().__init__(t.data, requires_grad=t.requires_grad)

    @property
    def data(self):
        self.on_read()
        return self.__dict__["array"]

    @data.setter
    def data(self, value):
        self.__dict__["array"] = value


def make_params(rng, d_model, d, n):
    """One scan direction's ``{field: Tensor}``, drawn from ``rng`` in
    ``scan_shapes`` order as ``model.init_model`` draws a block's, with an
    out-projection std of ``d ** -0.5`` at every depth."""
    std = {"w_in": d_model ** -0.5, "w_gate": d_model ** -0.5, "w_b": d ** -0.5,
           "w_c": d ** -0.5, "w_delta": d ** -0.5, "w_out": d ** -0.5}
    const = {"a_log": np.tile(np.log(np.arange(1, n + 1, dtype=np.float64)), (d, 1)),
             "delta_bias": np.array([math.log(math.expm1(0.5))])}
    return {k: Tensor(const[k] if k in const else rng.normal(0.0, std[k], shape),
                      requires_grad=True)
            for k, shape in ssm.scan_shapes(d_model, d, n).items()}


def init_block(rng, d_model, d, n):
    """(fwd, bwd) parameters of one bidirectional block."""
    return make_params(rng, d_model, d, n), make_params(rng, d_model, d, n)


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def silu(v):
    """The scan input scan_core forms from its pre-silu x, and mixer's gate."""
    return v * sigmoid(v)


def softplus(v):
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))


def fresh(p):
    """A copy of a direction's fields as new Tensors: the other half's
    parameters when a test drives both halves of scan_core with one set."""
    return {k: Tensor(v.data.copy(), requires_grad=v.requires_grad) for k, v in p.items()}


def selected(sides, **arrays):
    """``sides`` (each direction's fields) with each key of ``arrays`` set to
    a 0/1 matrix, and the normed Tensor they project onto those arrays bit
    for bit: ``normed.data @ sides[h][key].data`` is ``arrays[key][h]``, as
    mixer forms x and z. normed holds the arrays side by side on its last
    axis; each matrix picks one back out."""
    parts = [(k, h, a) for k, pair in arrays.items() for h, a in enumerate(pair)]
    normed = np.concatenate([a for *_, a in parts], axis=-1)
    eye, start, out = np.eye(normed.shape[-1], dtype=normed.dtype), 0, [dict(p) for p in sides]
    for k, h, a in parts:
        out[h][k] = Tensor(eye[:, start:start + a.shape[-1]])
        start += a.shape[-1]
    return out, Tensor(normed, _check=False)


def taped_scan(fwd, bwd, x):
    """``ssm.scan_core`` as a taped op of its own, on each direction's scan
    fields and x = ``[fx, bx]``, the pre-silu input Tensors; the op's inputs
    are fx, bx, then each direction's ``FIELDS``. Returns (y [2,B,T,D] in
    loop order, features)."""
    inputs = (*x, *(p[k] for p in (fwd, bwd) for k in FIELDS))
    y, feats, backward = ssm.scan_core((fwd, bwd), [t.data for t in x], tt.recording(inputs))

    def taped(dy):
        dx, grads = backward(dy, [t.data for t in x])
        return (*dx, *(g[k] for g in grads for k in FIELDS))
    return record(Tensor(y, _check=False), inputs, taped), feats


def both_halves(params, x, **given):
    """scan_core with ``params`` for both directions and x for both halves:
    (out [2,B,T,D] in loop order, features); ``given`` replaces either of
    the Tensors ``fx``, ``bx``."""
    xs = {**dict(fx=x, bx=x), **given}
    xs = [v if isinstance(v, Tensor) else Tensor(v) for v in (xs["fx"], xs["bx"])]
    return taped_scan(params, fresh(params), xs)


def mixer_inputs(rng, bsz=2, t_len=5, d=3, d_model=4, n=2):
    """mixer's inputs as arrays: the normed tokens, the tokens, then each
    direction's fields keyed ``<side>.<field>`` in ``scan_shapes`` order."""
    arrays = {"normed": rng.uniform(-1, 1, (bsz, t_len, d_model)),
              "tokens": rng.uniform(-1, 1, (bsz, t_len, d_model))}
    for side in ("fwd", "bwd"):
        for k, shape in ssm.scan_shapes(d_model, d, n).items():
            scale = 0.5 if k in ("a_log", "w_delta", "delta_bias") else 1.0  # as TestScanCore's
            arrays[f"{side}.{k}"] = rng.uniform(-scale, scale, shape)
    return arrays


def mixer_args(t):
    """mixer's arguments (fwd, bwd, normed, tokens) from a dict of Tensors
    keyed as ``mixer_inputs``."""
    return (*({k[4:]: v for k, v in t.items() if k.startswith(side + ".")}
              for side in ("fwd", "bwd")), t["normed"], t["tokens"])


def sigmoid_inputs(monkeypatch):
    """A list that gets a weakref to the array behind each ``ssm._sigmoid``
    input from now on: each x where scan_core builds silu(x), then each z
    where mixer gates its readout."""
    refs, sigmoid = [], ssm._sigmoid

    def spy(v, out=None):
        refs.append(weakref.ref(v if v.base is None else v.base))
        return sigmoid(v, out)
    monkeypatch.setattr(ssm, "_sigmoid", spy)
    return refs


def held(fn):
    """The objects fn's closure holds, through the tuples and the closures of
    the functions in it."""
    out = []
    for cell in fn.__closure__ or ():
        items = cell.cell_contents
        for a in items if isinstance(items, tuple) else (items,):
            out += held(a) if hasattr(a, "__closure__") else [a]
    return out


def scan(params, x, direction=ScanDirection.FORWARD):
    """One direction's readout [B,T,D] as an ndarray, in natural time: its
    half of scan_core's output."""
    return flipped(both_halves(params, x)[0].data)[direction.half]


def broadcast_scan(arrays, direction):
    """One direction's untaped readout from broadcast multiplies: per step
    A_bar = exp(delta_t A) and u = (delta_t B_t) x_t, then h = A_bar h + u,
    with x = silu of the pre-silu input, formed as scan_core forms it."""
    xs = arrays["x"] * ssm._sigmoid(arrays["x"])
    a = -np.exp(arrays["a_log"].T, order="C")
    ds = softplus(xs @ arrays["w_delta"] + arrays["delta_bias"])
    db, cs = ds * (xs @ arrays["w_b"]), xs @ arrays["w_c"]
    h = np.zeros((xs.shape[0], *a.shape), dtype=xs.dtype)
    y = np.empty_like(xs)
    for t in range(xs.shape[1])[::1 if direction is ScanDirection.FORWARD else -1]:
        h *= np.exp(ds[:, t, :, None] * a)
        h += db[:, t, :, None] * xs[:, t, None, :]
        np.matmul(cs[:, t, None, :], h, out=y[:, t, None, :])
    return y


def discretized(params, x):
    """(A_bar, B_bar [B,T,D,N], delta [B,T,D], B) formed from the step delta
    and the B projection scan_core returns as features.

    A_bar = exp(delta * -exp(a_log)) and B_bar = delta * B, as scan_core
    builds them inside its forward pass.
    """
    _, feats = both_halves(params, x)
    bsz, t_len, d = x.shape
    n = params["a_log"].shape[1]
    step = feats["delta"][..., None]                    # [B,T,1,1]
    a_bar = np.exp(step * -np.exp(params["a_log"].data))
    b_bar = np.broadcast_to(step * feats["b"][:, :, None, :], (bsz, t_len, d, n))
    return (Tensor(a_bar), Tensor(b_bar),
            Tensor(np.broadcast_to(feats["delta"], (bsz, t_len, d))), Tensor(feats["b"]))


def constant_step(bias, t_len=3):
    """scan_core's delta feature [1,T,1] with w_delta = 0 and delta_bias = bias."""
    p = make_params(np.random.default_rng(0), 4, 3, 2)
    p["w_delta"].data[:] = 0.0
    p["delta_bias"].data[:] = bias
    x = Tensor(np.random.default_rng(1).uniform(-1, 1, (1, t_len, 3)))
    return both_halves(p, x)[1]["delta"]


class TestDiscretize:
    def test_zero_step_limit(self):
        # huge negative delta bias drives delta toward 0: state frozen
        rng = np.random.default_rng(0)
        p = make_params(rng, 4, 3, 2)
        p["w_delta"].data[:] = 0.0
        p["delta_bias"].data[:] = -40.0
        x = Tensor(rng.uniform(-1, 1, (1, 4, 3)))
        a_bar, b_bar, delta, _ = discretized(p, x)
        assert np.allclose(a_bar.data, 1.0, atol=1e-15)
        assert np.allclose(b_bar.data, 0.0, atol=1e-15)
        assert np.all(delta.data > 0)

    def test_closed_form_half(self):
        # A = -1 everywhere, delta = ln 2 => A_bar = 0.5 exactly
        rng = np.random.default_rng(1)
        p = make_params(rng, 4, 2, 2)
        p["a_log"].data[:] = 0.0
        p["w_delta"].data[:] = 0.0
        p["delta_bias"].data[:] = math.log(math.expm1(math.log(2.0)))
        x = Tensor(rng.uniform(-1, 1, (1, 3, 2)))
        a_bar, _, _, _ = discretized(p, x)
        assert np.allclose(a_bar.data, 0.5, atol=1e-12)

    def test_a_bar_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = make_params(rng, 5, 3, 4)
            x = Tensor(rng.uniform(-2, 2, (2, 6, 3)))
            a_bar, _, _, _ = discretized(p, x)
            assert np.all(a_bar.data > 0) and np.all(a_bar.data < 1)

    def test_rejects_nonfinite(self):
        p = make_params(np.random.default_rng(0), 4, 3, 2)
        for value, half in itertools.product((np.nan, np.inf, -np.inf), ("fx", "bx")):
            bad = Tensor(np.zeros((1, 2, 3)))  # silu(-inf) is -inf * 0: NaN
            bad.data[0, 0, 0] = value
            with np.errstate(invalid="ignore"), pytest.raises(TensorError):
                both_halves(p, np.zeros((1, 2, 3)), **{half: bad})

    def test_softplus_at_zero(self):
        assert np.all(constant_step(0.0) == pytest.approx(math.log(2), abs=1e-15))

    def test_softplus_large_input_safe(self):
        big, small = constant_step(800.0), constant_step(-800.0)
        assert np.all(big == pytest.approx(800.0))
        assert np.all(small == pytest.approx(0.0, abs=1e-300))
        assert np.all(np.isfinite(big)) and np.all(np.isfinite(small))

    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_step_gradient_matches_finite_differences(self, vals):
        # with w_delta = 0 every token steps softplus(delta_bias), so the
        # bias cotangent carries softplus' derivative through the scan
        rng = np.random.default_rng(20)
        p = make_params(rng, 4, 3, 2)
        p["w_delta"].data[:] = 0.0
        x = rng.uniform(-1, 1, (1, 4, 3))
        w = rng.uniform(-1, 1, (1, 4, 3))
        for v in vals:
            p["delta_bias"].data[:] = v
            p["delta_bias"].zero_grad()
            with GradTape() as tape:
                y, feats = both_halves(p, x)
                tape.backward(tt.tsum(mul(y, Tensor(np.stack([w, 0 * w])))))
            assert np.array_equal(feats["delta"], np.full((1, 4, 1), softplus(v)))

            def f(bias):
                q = dict(p, delta_bias=Tensor(bias))
                return float((scan(q, x) * w).sum())
            g = finite_difference_grad(f, np.array([v]))
            err = np.abs(p["delta_bias"].grad.data - g).max()
            assert err / max(np.abs(g).max(), 1e-12) < 1e-4


class TestSelectiveScan:
    def test_single_step_no_history(self):
        rng = np.random.default_rng(3)
        p = make_params(rng, 4, 3, 2)
        x = Tensor(rng.uniform(-1, 1, (2, 1, 3)))
        y = scan(p, x.data)
        _, b_bar, _, _ = discretized(p, x)
        xs = silu(x.data)
        c = xs @ p["w_c"].data
        expect = np.einsum("bdn,bn->bd", b_bar.data[:, 0] * xs[:, 0][:, :, None], c[:, 0])
        assert np.allclose(y[:, 0], expect, atol=1e-14)

    def test_memoryless_permutation_equivariance(self):
        # delta -> large surrogate: A_bar ~ 0, so y_t depends on x_t alone
        rng = np.random.default_rng(4)
        p = make_params(rng, 4, 3, 2)
        p["w_delta"].data[:] = 0.0
        p["delta_bias"].data[:] = 60.0
        x = rng.uniform(-1, 1, (1, 6, 3))
        perm = rng.permutation(6)
        y = scan(p, x)
        y_perm = scan(p, x[:, perm])
        assert np.allclose(y_perm, y[:, perm], atol=1e-18)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(5)
        p = make_params(rng, 4, 3, 4)
        x = rng.uniform(-1, 1, (2, 6, 3))
        y = scan(p, x)
        assert np.abs(y - naive_scan(p, silu(x))).max() < 1e-12

    def test_backward_direction_matches_reversed_naive(self):
        rng = np.random.default_rng(6)
        p = make_params(rng, 4, 3, 2)
        x = rng.uniform(-1, 1, (1, 5, 3))
        y = scan(p, x, ScanDirection.BACKWARD)
        assert np.abs(y - naive_scan(p, silu(x), reverse=True)).max() < 1e-12

    def test_causality(self):
        rng = np.random.default_rng(7)
        p = make_params(rng, 4, 3, 2)
        x = rng.uniform(-1, 1, (1, 8, 3))
        y0 = scan(p, x)
        s = 5
        x2 = x.copy()
        x2[0, s] += 0.37
        y1 = scan(p, x2)
        assert np.array_equal(y0[:, :s], y1[:, :s])
        assert not np.allclose(y0[:, s:], y1[:, s:])

    def test_anticausality_backward(self):
        rng = np.random.default_rng(8)
        p = make_params(rng, 4, 3, 2)
        x = rng.uniform(-1, 1, (1, 8, 3))
        y0 = scan(p, x, ScanDirection.BACKWARD)
        s = 3
        x2 = x.copy()
        x2[0, s] += 0.37
        y1 = scan(p, x2, ScanDirection.BACKWARD)
        assert np.array_equal(y0[:, s + 1:], y1[:, s + 1:])

    def test_empty_sequence_rejected(self):
        p = make_params(np.random.default_rng(0), 4, 3, 2)
        with pytest.raises(TensorError):
            scan(p, np.zeros((1, 0, 3)))

    def test_scan_gradient(self):
        rng = np.random.default_rng(9)
        p = make_params(rng, 4, 3, 2)
        x0 = rng.uniform(-1, 1, (1, 5, 3))
        w = rng.uniform(-1, 1, (1, 5, 3))
        x = Tensor(x0, requires_grad=True)
        with GradTape() as tape:
            y, _ = both_halves(p, x, bx=x0)
            tape.backward(tt.tsum(mul(y, Tensor(np.stack([w, w])))))
        g = finite_difference_grad(
            lambda v: float((naive_scan(p, silu(v)) * w).sum()), x0.copy())
        denom = np.abs(g).max()
        assert np.abs(g - x.grad.data).max() / denom < 1e-5


class TestScanCore:
    """scan_core's 12 inputs and both halves of its output. A test
    parametrized by direction checks that direction's inputs and half."""

    @staticmethod
    def inputs(rng, bsz=2, t_len=5, d=3, n=2):
        """scan_core's 12 inputs, keyed ``<side>.<name>``: x of each
        direction, then each direction's scan fields."""
        arrays = {f"{side}.x": rng.uniform(-1, 1, (bsz, t_len, d)) for side in ("fwd", "bwd")}
        for side in ("fwd", "bwd"):
            arrays.update({f"{side}.a_log": rng.uniform(-0.5, 0.5, (d, n)),
                           f"{side}.w_delta": rng.uniform(-0.5, 0.5, (d, 1)),
                           f"{side}.delta_bias": rng.uniform(-0.5, 0.5, (1,)),
                           f"{side}.w_b": rng.uniform(-1, 1, (d, n)),
                           f"{side}.w_c": rng.uniform(-1, 1, (d, n))})
        return arrays

    @staticmethod
    def args(tensors):
        """``taped_scan``'s arguments from a dict of Tensors keyed as ``inputs``."""
        return (*({k: tensors[f"{side}.{k}"] for k in FIELDS} for side in ("fwd", "bwd")),
                [tensors[f"{side}.x"] for side in ("fwd", "bwd")])

    @classmethod
    def call(cls, tensors):
        """scan_core, taped as ``taped_scan`` tapes it, on a dict of Tensors
        keyed as ``inputs``."""
        return taped_scan(*cls.args(tensors))

    @staticmethod
    def side(arrays, direction):
        """One direction's inputs, keyed by name alone."""
        pre = direction.value + "."
        return {k[len(pre):]: v for k, v in arrays.items() if k.startswith(pre)}

    def check_gradients(self, direction, **sizes):
        """The cotangents of one direction's six inputs against central
        differences; an input the output does not depend on must get an
        exactly zero one."""
        rng = np.random.default_rng(16)
        arrays = self.inputs(rng, **sizes)
        w = rng.uniform(-1, 1, (2, *arrays["fwd.x"].shape))
        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        with GradTape() as tape:
            y, _ = self.call(tensors)
            tape.backward(tt.tsum(mul(y, Tensor(w))))
        for name in (f"{direction.value}.{k}" for k in ("x", *FIELDS)):
            def f(v, name=name):
                args = {k: Tensor(v if k == name else a) for k, a in arrays.items()}
                return float((self.call(args)[0].data * w).sum())
            g = finite_difference_grad(f, arrays[name].copy())
            err = np.abs(g - tensors[name].grad.data).max()
            assert err < 1e-7 * np.abs(g).max() or err == 0.0, name

    @pytest.mark.parametrize("direction", list(ScanDirection))
    def test_gradient_all_inputs(self, direction):
        self.check_gradients(direction)

    # one step takes the branch with no h_prev (a_log then has no effect);
    # twelve carry dL/dh back across many steps
    @pytest.mark.parametrize("bsz, t_len", [(2, 1), (3, 12)], ids=["one-step", "long"])
    @pytest.mark.parametrize("direction", list(ScanDirection))
    def test_gradient_sequence_lengths(self, direction, bsz, t_len):
        self.check_gradients(direction, bsz=bsz, t_len=t_len)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bsz, t_len", [(3, 1), (4, 9), (16, 49)])
    def test_matches_per_step_reference_bit_for_bit(self, dtype, bsz, t_len):
        # each half's readout and every cotangent equal those of its
        # direction scanned on its own, step by step; the op holds the
        # backward half, and takes its cotangent, in loop order
        rng = np.random.default_rng(30)
        arrays = {k: v.astype(dtype) for k, v in
                  self.inputs(rng, bsz=bsz, t_len=t_len, d=8, n=4).items()}
        dy = rng.uniform(-1, 1, (2, bsz, t_len, 8)).astype(dtype)  # natural time
        got = dict(zip(["y", *arrays], self.run_taped(arrays, flipped(dy))))
        for direction in ScanDirection:
            tensors = {k: Tensor(v, requires_grad=True)
                       for k, v in self.side(arrays, direction).items()}
            with GradTape() as tape:
                y = direction_scan(tensors, tensors["x"], direction)
                want = [y.data, *tape.entries[-1][2](dy[direction.half])]
            assert np.array_equal(flipped(got["y"])[direction.half], want[0]), direction
            for name, g in zip(("x", *FIELDS), want[1:]):
                assert np.array_equal(got[f"{direction.value}.{name}"], g), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("t_len", [1, 9, 49])
    def test_backward_half_is_forward_scan_of_reversed_sequence(self, dtype, t_len):
        # the backward half's readout (in loop order) and its six
        # cotangents equal, bit for bit, what the forward half gives on the
        # sequence reversed in time with the directions' parameters swapped;
        # bx's cotangent comes back in natural time
        rng = np.random.default_rng(31)
        arrays = {k: v.astype(dtype) for k, v in
                  self.inputs(rng, bsz=4, t_len=t_len, d=8, n=4).items()}
        dy = rng.uniform(-1, 1, (2, 4, t_len, 8)).astype(dtype)  # loop order
        got = dict(zip(["y", *arrays], self.run_taped(arrays, dy)))
        swap = {"fwd": "bwd", "bwd": "fwd"}
        mirror = {f"{swap[side]}.{name}": np.ascontiguousarray(v[:, ::-1]) if name == "x" else v
                  for k, v in arrays.items() for side, name in [k.split(".")]}
        want = dict(zip(["y", *mirror], self.run_taped(mirror, np.ascontiguousarray(dy[::-1]))))
        assert np.array_equal(got["y"][1], want["y"][0])
        assert np.array_equal(got["bwd.x"], want["fwd.x"][:, ::-1])
        for name in FIELDS:
            assert np.array_equal(got[f"bwd.{name}"], want[f"fwd.{name}"]), name

    def test_float32_in_float32_out(self):
        arrays = self.inputs(np.random.default_rng(17))
        y, feats = self.call({k: Tensor(v.astype(np.float32)) for k, v in arrays.items()})
        assert y.data.dtype == np.float32
        assert all(v.dtype == np.float32 for v in feats.values())

    @pytest.mark.parametrize("direction", list(ScanDirection))
    def test_float32_activations_with_float64_weights(self, direction):
        rng = np.random.default_rng(20)
        arrays = self.inputs(rng, bsz=3, t_len=9, d=4, n=3)
        acts = [f"{side}.x" for side in ("fwd", "bwd")]
        mixed = dict(arrays, **{k: arrays[k].astype(np.float32) for k in acts})
        dy = rng.uniform(-1, 1, (2, 3, 9, 4)).astype(np.float32)
        y, *grads = self.run_taped(mixed, dy)
        assert y.dtype == np.float32
        assert all(np.all(np.isfinite(g)) for g in grads)
        # the f64 call on the same (f32-representable) activations
        want = self.run_taped(dict(arrays, **{k: mixed[k].astype(np.float64) for k in acts}),
                              dy)[0]
        np.testing.assert_allclose(y[direction.half], want[direction.half],
                                   rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("direction", list(ScanDirection))
    def test_products_match_broadcast_reference(self, direction):
        inputs = self.inputs(np.random.default_rng(21), bsz=3, t_len=7, d=4, n=3)
        for dtype in (np.float64, np.float32):
            arrays = {k: v.astype(dtype) for k, v in inputs.items()}
            y = self.call({k: Tensor(v) for k, v in arrays.items()})[0].data
            assert y.dtype == dtype
            want = broadcast_scan(self.side(arrays, direction), direction)
            assert np.array_equal(flipped(y)[direction.half], want), dtype

    def run_taped(self, arrays, dy):
        """scan_core's output and its backward pass applied to dy directly:
        [y, then the cotangents in ``arrays`` order]."""
        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        with GradTape() as tape:
            y, _ = self.call(tensors)
            key, _, backward = tape.entries[-1]  # an entry names its output by key
            assert key == y._key
        order = self.inputs(np.random.default_rng(0))  # the op's input order
        grads = dict(zip(order, backward(dy)))
        return [y.data, *(grads[k] for k in arrays)]

    @pytest.mark.parametrize("direction", list(ScanDirection))
    def test_strided_views_match_contiguous_copies(self, direction):
        rng = np.random.default_rng(18)
        arrays = self.inputs(rng, bsz=3, t_len=7, d=4, n=3)
        dy = rng.uniform(-1, 1, (7, 2, 3, 4)).transpose(1, 2, 0, 3)
        # a time-reversed view of the direction's [B,T,D] input and
        # transposed views of its [D,N] fields
        views = dict(arrays)
        for name in ("x", "a_log", "w_b", "w_c"):
            v = arrays[f"{direction.value}.{name}"]
            views[f"{direction.value}.{name}"] = v[:, ::-1] if v.ndim == 3 else v.T.copy().T
            assert not views[f"{direction.value}.{name}"].flags.c_contiguous
        copies = {k: np.ascontiguousarray(v) for k, v in views.items()}
        got = self.run_taped(views, dy[:, :, ::-1])
        want = self.run_taped(copies, np.ascontiguousarray(dy[:, :, ::-1]))
        for name, g, w in zip(["y", *arrays], got, want):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-15, err_msg=name)

    def test_silu_at_zero(self):
        # silu(0) = 0: a zero input reaches neither the state nor B and C
        arrays = self.inputs(np.random.default_rng(23))
        arrays["fwd.x"][:] = arrays["bwd.x"][:] = 0.0
        y, feats = self.call({k: Tensor(v) for k, v in arrays.items()})
        assert not np.any(y.data) and not np.any(feats["b"]) and not np.any(feats["c"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_large_input_safe(self, dtype):
        # silu(1e4) = 1e4 and silu(-1e4) = 0, with silu' = 1 and 0, and
        # nothing overflows in either pass; w_b = I makes B = silu(x)
        rng = np.random.default_rng(24)
        arrays = self.inputs(rng, d=2, n=2)
        for side in ("fwd", "bwd"):
            arrays.update({f"{side}.w_b": np.eye(2), f"{side}.w_delta": np.zeros((2, 1))})
            arrays[f"{side}.x"][...] = [1e4, -1e4]
        arrays = {k: v.astype(dtype) for k, v in arrays.items()}
        with np.errstate(over="raise", invalid="raise"):
            y, dx, dbx, *grads = self.run_taped(
                arrays, rng.uniform(-1, 1, (2, *arrays["fwd.x"].shape)).astype(dtype))
            feats = self.call({k: Tensor(v) for k, v in arrays.items()})[1]
        assert y.dtype == dtype and np.all(np.isfinite(y))
        assert np.all(feats["b"][..., 0] == 1e4) and np.all(feats["b"][..., 1] == 0.0)
        for g in (dx, dbx):
            assert np.all(np.isfinite(g)) and np.all(g[..., 1] == 0.0)
        assert all(np.all(np.isfinite(g)) for g in grads)

    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_silu_gradient_matches_finite_differences(self, vals):
        # x enters pre-silu: its cotangent carries silu'(x) at every drawn
        # value, put in one of three channels of the backward direction's x
        # so B and C never all vanish
        arrays = self.inputs(np.random.default_rng(25), bsz=1, t_len=len(vals))
        arrays["bwd.x"][0, :, 0] = vals
        w = np.random.default_rng(26).uniform(-1, 1, (2, *arrays["bwd.x"].shape))
        x = Tensor(arrays["bwd.x"], requires_grad=True)
        with GradTape() as tape:
            y, _ = self.call(dict({k: Tensor(v) for k, v in arrays.items()}, **{"bwd.x": x}))
            tape.backward(tt.tsum(mul(y, Tensor(w))))

        def f(v):
            return float((self.call({k: Tensor(v if k == "bwd.x" else a)
                                     for k, a in arrays.items()})[0].data * w).sum())
        g = finite_difference_grad(f, arrays["bwd.x"].copy())
        assert np.abs(x.grad.data - g).max() / max(np.abs(g).max(), 1e-12) < 1e-4

    def test_backward_keeps_normed_not_x(self, monkeypatch):
        # taped inside mixer, x is recomputed from the normed tokens, and
        # silu(x), sigmoid(x), the step, its pre-activation, B and C from
        # x: the closure holds the normed Tensor the call was given, no x,
        # and of arrays the readout, A and the state history alone
        arrays = mixer_inputs(np.random.default_rng(27), bsz=8, t_len=40, d=16, d_model=32, n=8)
        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        scan_core, acts = ssm.scan_core, []

        def scan_spy(sides, x, keep):
            acts.extend(weakref.ref(a) for a in x)
            return scan_core(sides, [x.pop(0), x.pop(0)], keep)
        monkeypatch.setattr(ssm, "scan_core", scan_spy)
        with GradTape() as tape, traced_memory() as mem:
            out, inter = ssm.mixer(*mixer_args(tensors))
            kept = held(tape.entries[-1][2])
            y = out.data
            del out, inter
            live = mem.live()
        assert any(a is tensors["normed"] for a in kept)
        assert len(acts) == 2 and not [r for r in acts if r() is not None]
        rest = [a for a in kept if isinstance(a, np.ndarray)]
        assert sorted(a.shape for a in rest) == [(2, 8, 16), (2, 8, 40, 16), (2, 40, 8, 8, 16)]
        assert live - y.nbytes < sum(a.nbytes for a in rest) + 16 * 2**10

    @pytest.mark.parametrize("direction", list(ScanDirection))
    def test_loop_outputs_reuse_consumed_buffers(self, direction):
        # y_s goes into silu(x)'s slot once u_s has read it, and backward
        # writes the x cotangent over its recomputed C: with dy the stacked
        # cotangent, an untaped call peaks at 3.5 x dy.nbytes and one run of
        # the closure at 6.5. The returned features keep their values. dy
        # feeds ``direction``'s half alone, so the other direction's six
        # cotangents must stay exactly zero: no reused buffer carries one
        # half's values into the other's.
        arrays = self.inputs(np.random.default_rng(28), bsz=8, t_len=40, d=16, n=8)
        dy = np.zeros((2, *arrays["fwd.x"].shape))
        dy[direction.half] = np.random.default_rng(29).uniform(-1, 1, dy.shape[1:])
        args = self.args({k: Tensor(v) for k, v in arrays.items()})
        with traced_memory() as mem:
            taped_scan(*args)
        assert mem.peak <= 4 * dy.nbytes
        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        with GradTape() as tape:
            _, feats = self.call(tensors)
            before = {k: v.copy() for k, v in feats.items()}
            backward = tape.entries[-1][2]
            with traced_memory() as mem:
                grads = dict(zip(arrays, backward(dy)))
        assert mem.peak <= 11.5 * dy.nbytes
        assert all(np.array_equal(feats[k], v) for k, v in before.items())
        for k, g in grads.items():
            assert np.any(g) == k.startswith(direction.value + "."), k

    @pytest.mark.parametrize("direction", list(ScanDirection))
    def test_leaves_inputs_untouched(self, direction):
        # and the backward pass leaves its cotangent untouched: it is the
        # tape's, which may hand the same array to another op
        rng = np.random.default_rng(19)
        arrays = self.inputs(rng, bsz=2, t_len=6)
        mine = [k for k in arrays if k.startswith(direction.value + ".")]
        before = {k: arrays[k].tobytes() for k in mine}
        self.call({k: Tensor(v) for k, v in arrays.items()})
        assert {k: arrays[k].tobytes() for k in mine} == before
        dy = rng.uniform(-1, 1, (2, *arrays["fwd.x"].shape))
        dy_before = dy.tobytes()
        self.run_taped(arrays, dy)
        assert {k: arrays[k].tobytes() for k in mine} == before
        assert dy.tobytes() == dy_before


class TestBlockTail:
    """The block's tail inside ``ssm.mixer``: each direction's silu(z) gate
    on the scan readout y, both out projections and the residual, over
    mixer's inputs as ``mixer_inputs`` draws them."""

    @staticmethod
    def call(t):
        """mixer's output on a dict of Tensors keyed as ``mixer_inputs``."""
        return ssm.mixer(*mixer_args(t))[0]

    def test_same_bits_as_separate_ops(self):
        a = mixer_inputs(np.random.default_rng(40), bsz=4, t_len=9, d=8, d_model=16)
        out, feats = ssm.mixer(*mixer_args({k: Tensor(v) for k, v in a.items()}))
        sides = [{k: Tensor(a[f"{side}.{k}"]) for k in FIELDS} for side in ("fwd", "bwd")]
        y, want_feats, _ = ssm.scan_core(
            sides, [a["normed"] @ a[f"{side}.w_in"] for side in ("fwd", "bwd")], False)
        z = [a["normed"] @ a[f"{side}.w_gate"] for side in ("fwd", "bwd")]
        g = [z[half] * ssm._sigmoid(z[half]) * flipped(y)[half] for half in range(2)]
        want = a["tokens"] + (g[0] @ a["fwd.w_out"] + g[1] @ a["bwd.w_out"])
        assert np.array_equal(out.data, want)
        assert all(np.array_equal(feats[k], v) for k, v in want_feats.items())

    def test_gradient_all_inputs(self):
        # all eighteen cotangents against central differences
        rng = np.random.default_rng(41)
        arrays = mixer_inputs(rng)
        w = rng.uniform(-1, 1, arrays["tokens"].shape)
        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        with GradTape() as tape:
            tape.backward(tt.tsum(mul(self.call(tensors), Tensor(w))))
        for name in arrays:
            def f(v, name=name):
                args = {k: Tensor(v if k == name else a) for k, a in arrays.items()}
                return float((self.call(args).data * w).sum())
            g = finite_difference_grad(f, arrays[name].copy())
            assert np.abs(g - tensors[name].grad.data).max() < 1e-8 * np.abs(g).max(), name

    def test_backward_leaves_inputs_and_cotangent_untouched(self):
        # the tape sums a repeated cotangent as a + b and hands d on as the
        # tokens' cotangent, so the closure must write into neither its
        # inputs nor d; a second taped call returns the same cotangents
        rng = np.random.default_rng(44)
        arrays = mixer_inputs(rng, bsz=3, t_len=7, d=4, d_model=5)
        before = {k: v.tobytes() for k, v in arrays.items()}
        d = rng.uniform(-1, 1, arrays["tokens"].shape)
        d_before = d.tobytes()
        runs = []
        for _ in range(2):
            with GradTape() as tape:
                self.call({k: Tensor(v, requires_grad=True) for k, v in arrays.items()})
                runs.append(tape.entries[-1][2](d))
        assert {k: v.tobytes() for k, v in arrays.items()} == before
        assert d.tobytes() == d_before
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(*runs))

    def test_closure_keeps_readout_and_normed_not_the_gates(self, monkeypatch):
        # z is recomputed from the normed tokens, and g = silu(z) * y from
        # z, in backward: the closure holds the normed Tensor and, of
        # arrays, the readout y, A and the state history, neither z nor
        # any other [B,T,D] array, and nothing the op allocated outlives it
        # but those and its output
        arrays = mixer_inputs(np.random.default_rng(42), bsz=8, t_len=40, d=16, d_model=32)
        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        gates = sigmoid_inputs(monkeypatch)
        with GradTape() as tape, traced_memory() as mem:
            out = ssm.mixer(*mixer_args(tensors))[0]
            kept = held(tape.entries[-1][2])
            live = mem.live()
        rest = [a for a in kept if isinstance(a, np.ndarray)]
        assert sorted(a.shape for a in rest) == [(2, 2, 16), (2, 8, 40, 16), (2, 40, 8, 2, 16)]
        assert any(a is tensors["normed"] for a in kept)
        assert len(gates) == 4 and all(r() is None for r in gates)  # x, then z, each side
        assert live - out.data.nbytes < sum(a.nbytes for a in rest) + 16 * 2**10

    def test_untaped_drops_readout_and_gates_before_projecting(self, monkeypatch):
        # untaped, y and both z die once g is built: before the out
        # projections read their first weight
        arrays = mixer_inputs(np.random.default_rng(43))
        tensors = {k: Tensor(v) for k, v in arrays.items()}
        refs, scan_core, reads = sigmoid_inputs(monkeypatch), ssm.scan_core, []

        def scan_spy(*args):
            y, feats, backward = scan_core(*args)
            refs.append(weakref.ref(y))
            return y, feats, backward

        def on_read():
            gc.collect()
            reads.append([r() is None for r in refs])
        monkeypatch.setattr(ssm, "scan_core", scan_spy)
        tensors["fwd.w_out"] = ReadSpy(tensors["fwd.w_out"], on_read)
        out = self.call(tensors)
        assert reads == [[True] * 5] and out.shape == (2, 5, 4)


class TestBidirectionalBlock:
    def test_zero_input_zero_delta_from_residual(self):
        rng = np.random.default_rng(11)
        blk = init_block(rng, 6, 4, 2)
        x = Tensor(np.zeros((1, 5, 6)))
        out, _ = ssm.bidirectional_block(*blk, x)
        # layer_norm(0)=0, silu(0)=0 gate kills both branches
        assert np.allclose(out.data, 0.0, atol=1e-15)

    def test_reversal_symmetry_with_swapped_directions(self):
        rng = np.random.default_rng(12)
        blk = init_block(rng, 6, 4, 2)
        swapped = blk[::-1]
        x = rng.uniform(-1, 1, (2, 7, 6))
        out, _ = ssm.bidirectional_block(*blk, Tensor(x))
        out_rev, _ = ssm.bidirectional_block(*swapped, Tensor(x[:, ::-1].copy()))
        assert np.allclose(out_rev.data[:, ::-1], out.data, atol=1e-12)

    def test_order_sensitivity(self):
        rng = np.random.default_rng(13)
        blk = init_block(rng, 6, 4, 2)
        x = rng.uniform(-1, 1, (1, 8, 6))
        perm = np.array([3, 1, 7, 0, 5, 2, 6, 4])
        out, _ = ssm.bidirectional_block(*blk, Tensor(x))
        out_p, _ = ssm.bidirectional_block(*blk, Tensor(x[:, perm]))
        # NOT permutation-invariant: permuted input != permuted output
        assert not np.allclose(out_p.data, out.data[:, perm], atol=1e-6)

    def test_block_gradient_all_params(self):
        rng = np.random.default_rng(14)
        blk = init_block(rng, 4, 3, 2)
        x = rng.uniform(-1, 1, (1, 4, 4))
        w = rng.uniform(-1, 1, (1, 4, 4))
        with GradTape() as tape:
            out, _ = ssm.bidirectional_block(*blk, Tensor(x))
            tape.backward(tt.tsum(mul(out, Tensor(w))))
        for name, p in ((f"{side}.{k}", t) for side, params in zip(("fwd", "bwd"), blk)
                        for k, t in params.items()):
            def f(arr, p=p):
                old = p.data
                p.data = arr
                o, _ = ssm.bidirectional_block(*blk, Tensor(x))
                p.data = old
                return float((o.data * w).sum())
            g = finite_difference_grad(f, p.data.copy())
            denom = max(np.abs(g).max(), 1e-10)
            assert np.abs(g - p.grad.data).max() / denom < 1e-4, name

    def test_stability_bound(self):
        rng = np.random.default_rng(15)
        p = make_params(rng, 6, 4, 3)
        x = Tensor(rng.uniform(-1, 1, (1, 64, 4)))
        a_bar, b_bar, _, _ = discretized(p, x)
        y = scan(p, x.data)
        xs = silu(x.data)
        a_max = a_bar.data.max()
        u_max = np.abs(b_bar.data * xs[..., None]).max()
        c_max = np.abs(xs @ p["w_c"].data).max()
        n = p["a_log"].shape[1]
        h_bound = u_max / (1.0 - a_max)
        assert np.abs(y).max() <= n * c_max * h_bound + 1e-9

    def test_matches_branch_by_branch_order_bit_for_bit(self):
        # a reference that tapes each direction's in and gate projections,
        # per-step scan, gate and out projection in turn, then two residual
        # adds: the block's mixer op must give every value and gradient
        # the same bits, and normed's cotangent must sum its four terms in
        # the same order
        def reference(fwd, bwd, tokens):
            normed, contribs = tt.layer_norm(tokens), []
            for p, direction in zip((fwd, bwd), ScanDirection):
                x, z = tt.matmul(normed, p["w_in"]), tt.matmul(normed, p["w_gate"])
                contribs.append(tt.matmul(gate(direction_scan(p, x, direction), z),
                                          p["w_out"]))
            return tt.add(tokens, tt.add(*contribs))

        rng = np.random.default_rng(26)
        for dtype in (np.float64, np.float32):
            x0, w = rng.uniform(-1, 1, (2, 9, 6)), rng.uniform(-1, 1, (2, 9, 6))
            runs = []
            for block in (lambda *a: ssm.bidirectional_block(*a)[0], reference):
                blk = init_block(np.random.default_rng(27), 6, 4, 3)
                for side in blk:
                    for t in side.values():
                        t.data = t.data.astype(dtype)
                x = Tensor(x0.astype(dtype), requires_grad=True)
                with GradTape() as tape:
                    out = block(*blk, x)
                    tape.backward(tt.tsum(mul(out, Tensor(w.astype(dtype)))))
                runs.append([out.data, x.grad.data,
                             *(t.grad.data for side in blk for t in side.values())])
            assert all(np.array_equal(got, want) for got, want in zip(*runs)), dtype

    def test_tapes_two_ops(self):
        # layer_norm, then mixer: both directions' in and gate projections,
        # the scan (silu(x) inside), the silu(z) gate, both out projections
        # and the residual add
        rng = np.random.default_rng(21)
        blk = init_block(rng, 6, 4, 2)
        with GradTape() as tape:
            x = Tensor(rng.uniform(-1, 1, (1, 5, 6)), requires_grad=True)
            ssm.bidirectional_block(*blk, x)
            assert len(tape.entries) == 2

    def test_untaped_block_frees_each_input_at_last_use(self, monkeypatch):
        # the normed tokens die once all four in and gate projections
        # exist, and each pre-silu x once silu(x) is stacked, before the
        # scan reads its A; both z and the scan's readout are dead before
        # the first out projection reads its weight
        rng = np.random.default_rng(23)
        blk = init_block(rng, 6, 4, 2)
        normed, arrays, calls = [], sigmoid_inputs(monkeypatch), []
        layer_norm, scan_core = tt.layer_norm, ssm.scan_core

        def norm_spy(a):
            out = layer_norm(a)
            normed.append(weakref.ref(out.data))
            return out

        def scan_spy(sides, x, keep):
            y, feats, backward = scan_core(sides, [x.pop(0), x.pop(0)], keep)
            arrays.append(weakref.ref(y))
            return y, feats, backward

        def on_scan_read():  # a_log is read once silu(x) is stacked
            gc.collect()
            assert normed[0]() is None and len(arrays) == 2
            assert all(r() is None for r in arrays)
            calls.append("scan")

        def on_tail_read():
            gc.collect()
            assert len(arrays) == 5 and all(r() is None for r in arrays)
            calls.append("tail")

        monkeypatch.setattr(tt, "layer_norm", norm_spy)
        monkeypatch.setattr(ssm, "scan_core", scan_spy)
        blk[0]["a_log"] = ReadSpy(blk[0]["a_log"], on_scan_read)
        blk[0]["w_out"] = ReadSpy(blk[0]["w_out"], on_tail_read)
        out, _ = ssm.bidirectional_block(*blk, Tensor(rng.uniform(-1, 1, (2, 5, 6))))
        assert calls == ["scan", "tail"] and out.shape == (2, 5, 6)

    def test_out_projection_outputs_die_while_tape_is_open(self):
        # no backward pass reads them: mixer forms both and sums them into
        # its output, and of arrays its closure keeps the scan's readout,
        # A and the state history alone, beside the normed tokens and the
        # weights
        rng = np.random.default_rng(22)
        blk = init_block(rng, 6, 4, 2)
        x = Tensor(rng.uniform(-1, 1, (2, 5, 6)), requires_grad=True)
        with GradTape() as tape:
            out, _ = ssm.bidirectional_block(*blk, x)
            arrays = [a for a in held(tape.entries[-1][2]) if isinstance(a, np.ndarray)]
            assert sorted(a.shape for a in arrays) == [(2, 2, 4), (2, 2, 5, 4), (2, 5, 2, 2, 4)]
            tape.backward(tt.tsum(out))
        assert all(side["w_out"].grad is not None for side in blk)

    def test_projection_outputs_die_while_tape_is_open(self, monkeypatch):
        # mixer recomputes x and z in backward from the normed tokens, which
        # it holds as layer_norm returned them: all four in and gate
        # projections are dead once the block has run
        rng = np.random.default_rng(24)
        blk = init_block(rng, 6, 4, 2)
        normed, projections, layer_norm = [], sigmoid_inputs(monkeypatch), tt.layer_norm

        def norm_spy(a):
            normed.append(layer_norm(a))
            return normed[-1]

        monkeypatch.setattr(tt, "layer_norm", norm_spy)
        x = Tensor(rng.uniform(-1, 1, (2, 5, 6)), requires_grad=True)
        with GradTape() as tape:
            out, _ = ssm.bidirectional_block(*blk, x)
            gc.collect()
            assert len(projections) == 4 and all(r() is None for r in projections)
            assert any(a is normed[0] for a in held(tape.entries[-1][2]))
            tape.backward(tt.tsum(out))
        assert all(t.grad is not None for side in blk for t in side.values())
