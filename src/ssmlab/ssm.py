"""Selective state-space recurrences and the bidirectional block built on them.

The discrete recurrence is h_t = A_bar_t * h_{t-1} + B_bar_t * x_t with
readout y_t = C_t . h_t. A is parameterized as -exp(a_log) so the recurrence
decays; A_bar = exp(delta * A) (zero-order hold) and B_bar = delta * B_t
(Euler), with one step size delta_t = softplus(x_t w_delta + delta_bias) per
token shared by all channels. x and the gate z both pass through silu.

Between its in, gate and out projections, a scan direction tapes one fused
primitive, scan_core, as Mamba's mamba_inner_fn does (Gu & Dao, arXiv
2312.00752): both silus, the step, B and C projections, a step-by-step scan
on a [B,N,D] state and the gate, with one hand-written backward pass for x,
z and the five scan weights that walks time in reverse, recomputing A_bar_t.
It keeps x, z, the ungated readout and the states. Each of its loops writes
a step's outputs over [B,T,*] slots that step has read, so the B=64 forward
loop's working set (about 1.5 MiB in f64) fits a 2 MiB L2 cache.
"""

from __future__ import annotations

import enum

import numpy as np

from . import tensor as tt
from .tensor import Tensor, TensorError, record, recording


class ScanDirection(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"  # processes indices T-1 ... 0


def _sigmoid(x):
    # the tanh form is overflow-free and needs no masked indexing; one buffer
    s = np.multiply(x, 0.5, out=np.empty_like(x))
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def scan_shapes(d_model, d, n):
    """``{field: shape}`` of one scan direction's parameters, in table order.

    a_log [D,N] gives the state matrix A = -exp(a_log); w_in and w_gate
    [D_model,D] project the normed tokens to the scan input and its gate;
    w_b and w_c [D,N] give the per-token B and C; w_delta [D,1] and
    delta_bias [1] give the step size; w_out [D,D_model] projects back.
    """
    return {"a_log": (d, n), "w_in": (d_model, d), "w_gate": (d_model, d),
            "w_b": (d, n), "w_c": (d, n), "w_delta": (d, 1),
            "delta_bias": (1,), "w_out": (d, d_model)}


def scan_core(p, x: Tensor, z: Tensor, direction=ScanDirection.FORWARD):
    """One scan direction as one taped primitive.

    p: the direction's ``{field: Tensor}``, keyed as in ``scan_shapes``;
    x: [B,T,D] pre-silu in projection; z: [B,T,D] pre-silu gate. With
    xs = silu(x), forms the step delta = softplus(xs w_delta + delta_bias)
    [B,T,1] and the projections B = xs w_b and C = xs w_c [B,T,N]. With
    A = -exp(a_log), A_bar_t = exp(delta_t A^T) and u_t = (delta_t B_t) xs_t
    (outer product over N and D), runs h_t = A_bar_t * h_prev + u_t from a
    zero state, reads out y_t[d] = sum_n C_t[n] h_t[n,d] and returns
    y * silu(z). FORWARD walks t = 0 .. T-1 and BACKWARD walks t = T-1 .. 0
    over the same arrays. Returns (out [B,T,D], {"b", "c", "delta"}): the
    features a reduction step scores, as detached ndarrays.

    The state is [B,N,D], so each step's products run along the D channels, and
    both passes work on per-step [:, t] views of the batch-major arrays,
    whatever their strides. The products delta_t A, (delta_t B_t) xs_t and C_t
    dy_t are einsum outer products, cast same_kind as ufuncs cast: a broadcast
    multiply costs about 1.5x as much here, and gives the same bits but for a
    zero's sign. A step writes its outputs over slots it has read: forward, y_t
    over xs_t; backward, the B and xs cotangents (matmuls of g) over dy_t and
    C_t. The forward pass gates y in silu(z)'s buffer and keeps the states only
    when taped; the closure keeps x, z, y, the states and A. The backward pass
    recomputes xs, the sigmoids, the step, B and C, builds dz in y, and carries
    g = dL/dh_t in one [B,N,D] buffer, adding dy_t C_t and recomputing A_bar_t
    to carry g back a step; it writes dL/d(delta_t A) = g A_bar_t h_prev over
    h_prev in the state history, which the tape's one backward run no longer
    needs, and takes the delta and a_log terms as one reduction each over that
    history. x's cotangent sums its scan, C, B and delta terms in place, then
    takes silu'(x) = s + xs (1 - s): the order, and bits, of separate ops.
    """
    if x.data.ndim != 3:
        raise TensorError("scan_core expects [B, T, D]")
    if x.shape[1] < 1:
        raise TensorError("empty sequence")
    xp, zs = x.data, z.data
    xs = _sigmoid(xp)
    xs *= xp                                                   # silu(x)
    if not np.all(np.isfinite(xs)):
        raise TensorError("non-finite scan input")
    a_log, w_delta, delta_bias, w_b, w_c = (
        p[k] for k in ("a_log", "w_delta", "delta_bias", "w_b", "w_c"))
    inputs = (x, z, a_log, w_delta, delta_bias, w_b, w_c)
    a = -np.exp(a_log.data.T, order="C")                      # [N,D]
    if not np.all(np.isfinite(a)):
        raise TensorError("exp overflow")

    def projections(xs):  # the step's pre-activation and step [B,T,1], B and C [B,T,N]
        pre = xs @ w_delta.data + delta_bias.data
        ds = np.maximum(pre, 0.0) + np.log1p(np.exp(-np.abs(pre)))  # overflow-safe softplus
        return pre, ds, xs @ w_b.data, xs @ w_c.data
    _, ds, bs, cs = projections(xs)
    bsz, t_len = xs.shape[:2]
    step = 1 if direction is ScanDirection.FORWARD else -1
    order = range(t_len)[::step]
    db = ds * bs                                               # delta_t B_t
    h = np.zeros((bsz, *a.shape), dtype=xs.dtype)              # [B,N,D]
    hs = np.empty((t_len, *h.shape), dtype=h.dtype) if recording(inputs) else None
    a_bar, u = np.empty_like(h), np.empty_like(h)
    y = xs  # y_t goes over xs_t once u_t has read it
    for t in order:
        np.einsum("b,nd->bnd", ds[:, t, 0], a, out=a_bar, casting="same_kind")
        np.exp(a_bar, out=a_bar)
        np.einsum("bn,bd->bnd", db[:, t], xs[:, t], out=u, casting="same_kind")
        h *= a_bar
        h += u
        np.matmul(cs[:, t, None, :], h, out=y[:, t, None, :])
        if hs is not None:
            hs[t] = h
    del h, a_bar, u, db
    gate = _sigmoid(zs)
    gate *= zs                                                 # silu(z)
    out = Tensor(np.multiply(y, gate, out=gate), _check=False)

    def backward(d_out):
        s_x, s = _sigmoid(xp), _sigmoid(zs)  # recomputed rather than kept
        xs = xp * s_x                                          # silu(x)
        pre, ds, bs, cs = projections(xs)                      # forward's own GEMMs
        gate = zs * s
        dy = d_out * gate
        gate *= 1.0 - s
        gate += s                                              # silu'(z)
        dz = np.multiply(d_out, y, out=y)                      # y's last read
        dz *= gate
        dc = np.matmul(hs.transpose(1, 0, 2, 3), dy[..., None])[..., 0]  # sum_d h dy
        g = np.zeros_like(hs[0])                               # dL/dh_t
        buf = np.empty_like(g)
        g_b, x_g = dy, cs  # sum_n B g and sum_d g x, each over the slot its step read
        for t in order[::-1]:
            np.einsum("bn,bd->bnd", cs[:, t], dy[:, t], out=buf, casting="same_kind")
            g += buf
            np.matmul(bs[:, t, None, :], g, out=g_b[:, t, None, :])
            np.matmul(g, xs[:, t, :, None], out=x_g[:, t, :, None])
            if t == order[0]:
                break
            np.einsum("b,nd->bnd", ds[:, t, 0], a, out=buf, casting="same_kind")
            np.exp(buf, out=buf)
            g *= buf
            # dL/d(delta_t A) = g_t * A_bar_t * h_prev, over h_prev's slot
            np.multiply(g, hs[t - step], out=hs[t - step])
        # hs[src] now holds dL/d(delta A) of the steps at dst, in (t, b) row order
        src, dst = (slice(0, -1), slice(1, None))[::step]
        d_da = hs[src].reshape(-1, a.size)
        d_delta = (g_b * xs).sum(axis=-1, keepdims=True)
        d_delta[:, dst, 0] += (d_da @ a.reshape(-1)).reshape(-1, bsz).T
        d_a_log = (a * (ds[:, dst, 0].T.reshape(-1) @ d_da).reshape(a.shape)).T
        d_b = np.multiply(x_g, ds, out=x_g)
        d_pre = d_delta * _sigmoid(pre)
        dx = np.multiply(g_b, ds, out=g_b)
        dx += dc @ w_c.data.T
        dx += d_b @ w_b.data.T
        dx += d_pre * w_delta.data[:, 0]  # the one-wide d_pre @ w_delta.T
        dx *= s_x + xs * (1.0 - s_x)                           # silu'(x)
        xt = np.swapaxes(xs, -1, -2)
        return (dx, dz, d_a_log, tt._unbroadcast(xt @ d_pre, w_delta.shape),
                tt._unbroadcast(d_pre, delta_bias.shape),
                tt._unbroadcast(xt @ d_b, w_b.shape), tt._unbroadcast(xt @ dc, w_c.shape))

    return record(out, inputs, backward), {"b": bs, "c": cs, "delta": ds}


def bidirectional_block(fwd, bwd, tokens: Tensor):
    """Residual bidirectional block over [B, T, D_model] tokens, with
    independent forward and backward scans whose parameters are ``fwd`` and
    ``bwd``, each a ``{field: Tensor}`` keyed as in ``scan_shapes``. Both scans
    run before either out projection, so the forward branch carries its D-wide
    readout, not its D_model-wide output, through the backward scan. Returns
    (out, intermediates): the forward branch's per-token B/C projections, its
    one-wide step delta and the output x (detached numpy), the features a
    reduction step scores.
    """
    normed = tt.layer_norm(tokens)
    fx, fz = tt.matmul(normed, fwd["w_in"]), tt.matmul(normed, fwd["w_gate"])
    bx, bz = tt.matmul(normed, bwd["w_in"]), tt.matmul(normed, bwd["w_gate"])
    del normed
    fy, inter = scan_core(fwd, fx, fz, ScanDirection.FORWARD)
    del fx, fz  # no x/z pair outlives its scan
    by, _ = scan_core(bwd, bx, bz, ScanDirection.BACKWARD)
    del bx, bz
    fwd_contrib = tt.matmul(fy, fwd["w_out"])
    del fy
    bwd_contrib = tt.matmul(by, bwd["w_out"])
    del by
    contrib = tt.add(fwd_contrib, bwd_contrib)
    del fwd_contrib, bwd_contrib
    out = tt.add(tokens, contrib)
    inter["x"] = out.data  # the values a downstream reduction step merges
    return out, inter
