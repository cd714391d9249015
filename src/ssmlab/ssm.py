"""Selective state-space recurrences and the bidirectional block built on them.

The discrete recurrence is h_t = A_bar_t * h_{t-1} + B_bar_t * x_t with
readout y_t = C_t . h_t. A is parameterized as -exp(a_log) so the recurrence
decays; A_bar = exp(delta * A) (zero-order hold) and B_bar = delta * B_t
(Euler), with one step size delta_t = softplus(x_t w_delta + delta_bias) per
token shared by all channels. x and the gate z both pass through silu.

A block tapes two ops: layer_norm, then mixer, one primitive for all that
follows it, as Mamba's mamba_inner_fn fuses everything from the in
projection through the out projection (Gu & Dao, arXiv 2312.00752) and
Vision Mamba fuses both directions into one autograd function (Zhu et al.,
arXiv 2401.09417). mixer recomputes x, z and the gated readout in backward
from the normed tokens it keeps: gradient checkpointing (Chen et al., arXiv
1604.06174). Its scan, scan_core, runs the backward direction as Vision
Mamba does: as the forward scan of the time-reversed sequence.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .tensor import Tensor, TensorError, record, recording

_SCAN_FIELDS = ("a_log", "w_delta", "delta_bias", "w_b", "w_c")
_ORDER = (slice(None), slice(None, None, -1))  # each half's time axis in loop order


def _sigmoid(x, out=None):
    # the tanh form is overflow-free and needs no masked indexing; one buffer
    s = np.multiply(x, 0.5, out=out)
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


def scan_core(sides, x, keep):
    """Both scan directions of a block: mixer's untaped core.

    sides: each direction's ``{field: Tensor}``, keyed as in
    ``scan_shapes``; x: ``[fx, bx]``, each direction's [B,T,D] pre-silu
    input array, handed over so that each dies once silu(x) is stacked. Per
    direction, with xs = silu(x), delta = softplus(xs w_delta + delta_bias)
    [B,T,1], B = xs w_b and C = xs w_c [B,T,N], A = -exp(a_log),
    A_bar_t = exp(delta_t A^T) and u_t = (delta_t B_t) xs_t, runs
    h_t = A_bar_t * h_prev + u_t from a zero state (t = 0 .. T-1 forward,
    T-1 .. 0 backward) and reads out y_t[d] = sum_n C_t[n] h_t[n,d].
    Returns (y, feats, backward): the ungated readout y [2,B,T,D] in loop
    order (the backward half time-reversed); the forward direction's
    {"b", "c", "delta"}, the features a reduction step scores; and
    ``backward(dy, x)``, which maps dy in loop order and x as given here to
    ``([dfx, dbx], [{field: cotangent}] per direction)`` if ``keep``.

    bx is read reversed where silu(x) is built, and every array after that
    is in loop order, so the backward half is, bit for bit, the forward scan
    of the reversed sequence. Per step, delta_t A, (delta_t B_t) xs_t and
    C_t dy_t are einsum outer products over [2,B,*] views, cast same_kind as
    ufuncs cast; y_t goes over xs_t and, backward, the x cotangent over C_t.

    The closure keeps A, the states [2,T,B,N,D] and w: both directions'
    w_delta, delta_bias, w_b and w_c, stacked once per call as [2,1,D,K]
    operands that the projections, their recompute and x's cotangent read.
    The backward pass leaves dy untouched and recomputes xs, sigmoid(x),
    the step, B and C from x. It carries g = dL/dh_t in one [2,B,N,D]
    buffer, recomputing A_bar_t to carry it back a step, and writes
    dL/d(delta_t A) = g A_bar_t h_prev over h_prev in the state history,
    which the delta and a_log terms each reduce in one op. x's cotangent
    sums its scan, C, B and delta terms in place, then takes
    silu'(x) = (1 - s) xs + s; bx's is copied back to natural time.
    """
    if x[0].ndim != 3:
        raise TensorError("scan_core expects [B, T, D]")
    if x[0].shape[1] < 1:
        raise TensorError("empty sequence")

    def silu(x, s_x, xs):
        """sigmoid(x) into s_x and silu(x) into xs, [2,B,T,D] in loop order."""
        for half, o in enumerate(_ORDER):
            np.multiply(x[half][:, o], _sigmoid(x[half][:, o], out=s_x[half]), out=xs[half])
        return xs
    xs = np.empty((2, *x[0].shape), dtype=x[0].dtype)
    silu(x, xs, xs)
    del x
    if not np.all(np.isfinite(xs)):
        raise TensorError("non-finite scan input")
    a = -np.exp(np.stack([p["a_log"].data.T for p in sides]), order="C")  # [2,N,D]
    if not np.all(np.isfinite(a)):
        raise TensorError("exp overflow")
    w = {k: np.stack([np.atleast_2d(p[k].data) for p in sides])[:, None] for k in _SCAN_FIELDS[1:]}

    def projections(xs):
        """pre, the step [2,B,T,1], B and C of xs."""
        pre = xs @ w["w_delta"] + w["delta_bias"]
        ds = np.maximum(pre, 0.0) + np.log1p(np.exp(-np.abs(pre)))  # overflow-safe softplus
        return pre, ds, xs @ w["w_b"], xs @ w["w_c"]
    _, ds, bs, cs = projections(xs)
    feats = {"b": bs[0].copy(), "c": cs[0].copy(), "delta": ds[0]}
    t_len = xs.shape[2]
    db = np.multiply(bs, ds, out=bs)                           # delta_t B_t
    h = np.zeros((*xs.shape[:2], *a.shape[1:]), dtype=xs.dtype)  # [2,B,N,D]
    hs = np.empty((2, t_len, *h.shape[1:]), dtype=h.dtype) if keep else None
    a_bar, u = np.empty_like(h), np.empty_like(h)
    y = xs  # y_s goes over xs_s once u_s has read it
    for s in range(t_len):
        np.einsum("hb,hnd->hbnd", ds[:, :, s, 0], a, out=a_bar, casting="same_kind")
        np.exp(a_bar, out=a_bar)
        np.einsum("hbn,hbd->hbnd", db[:, :, s], xs[:, :, s], out=u, casting="same_kind")
        h *= a_bar
        h += u
        np.matmul(cs[:, :, s, None, :], h, out=y[:, :, s, None, :])
        if keep:
            hs[:, s] = h

    def backward(dy, x):
        s_x = np.empty(dy.shape, x[0].dtype)
        xs = silu(x, s_x, np.empty_like(s_x))                  # recomputed rather than kept
        del x
        pre, ds, bs, cs = projections(xs)                      # forward's own GEMMs
        bsz, t_len = dy.shape[1:3]
        dc = np.matmul(hs.transpose(0, 2, 1, 3, 4), dy[..., None])[..., 0]  # sum_d h dy
        g = np.zeros_like(hs[:, 0])                            # dL/dh_t
        buf = np.empty_like(g)
        g_b, x_g = np.empty_like(dy), cs  # sum_n B g; sum_d g x over the C slot its step read
        for s in range(t_len - 1, -1, -1):
            np.einsum("hbn,hbd->hbnd", cs[:, :, s], dy[:, :, s], out=buf, casting="same_kind")
            g += buf
            np.matmul(bs[:, :, s, None, :], g, out=g_b[:, :, s, None, :])
            np.matmul(g, xs[:, :, s, :, None], out=x_g[:, :, s, :, None])
            if s == 0:
                break
            np.einsum("hb,hnd->hbnd", ds[:, :, s, 0], a, out=buf, casting="same_kind")
            np.exp(buf, out=buf)
            g *= buf
            np.multiply(g, hs[:, s - 1], out=hs[:, s - 1])     # dL/d(delta A) = g A_bar h_prev
        del g, buf, bs
        d_da = hs[:, :-1].reshape(2, -1, a[0].size)            # steps 1 .. T-1, (t, b) rows
        d_delta = (g_b * xs).sum(axis=-1, keepdims=True)
        d_delta[:, :, 1:, 0] += (d_da @ a.reshape(2, -1, 1)).reshape(2, -1, bsz).transpose(0, 2, 1)
        d_a_log = np.swapaxes(a * (ds[:, :, 1:, 0].transpose(0, 2, 1).reshape(2, 1, -1) @ d_da)
                              .reshape(a.shape), -1, -2)
        d_b = np.multiply(x_g, ds, out=x_g)
        d_pre = d_delta * _sigmoid(pre)
        dx = np.multiply(g_b, ds, out=g_b)
        dx += dc @ np.swapaxes(w["w_c"], -1, -2)
        dx += d_b @ np.swapaxes(w["w_b"], -1, -2)
        dx += d_pre * np.swapaxes(w["w_delta"], -1, -2)        # d_pre @ w_delta.T
        dx *= (1.0 - s_x) * xs + s_x                           # silu'(x)
        xt = np.swapaxes(xs, -1, -2)
        terms = (xt @ d_pre, d_pre, xt @ d_b, xt @ dc)         # w_delta, delta_bias, w_b, w_c
        grads = [{"a_log": d_a_log[half], **{k: tt._unbroadcast(t[half], p[k].shape)
                                             for t, k in zip(terms, _SCAN_FIELDS[1:])}}
                 for half, p in enumerate(sides)]
        return [dx[0], dx[1, :, ::-1].copy()], grads

    return y, feats, backward


def mixer(fwd, bwd, normed: Tensor, tokens: Tensor):
    """Everything a block does after its layer norm, as one taped op.

    fwd, bwd: each direction's ``{field: Tensor}``, keyed as in
    ``scan_shapes``; normed: the block's [B,T,D_model] normed tokens. Each
    direction's x = normed @ w_in feeds scan_core; the readout y is gated by
    silu(z), z = normed @ w_gate, in one buffer g, reading y's backward half
    reversed; the output is tokens + (g[0] @ fwd w_out + g[1] @ bwd w_out),
    summed in place in that order. Returns (out, scan_core's features).
    Untaped, normed dies once the four projections exist, as the block
    hands it over as a temporary, each z once its half of g is built, and
    y once g is.

    The closure keeps normed, y and scan_core's backward, and no x or z.
    The backward pass recomputes z, then x, with the forward's GEMMs, and
    forms every cotangent as separate ops would: the gate's and out
    projections', scan_core's, then the projections', with normed's summed
    in the order a tape of those ops pops them, ((bz + bx) + fz) + fx. It
    drops y once the gate's formulas have read it and, as scan_core's
    writes over the state history, runs once.
    """
    sides = (fwd, bwd)
    inputs = (normed, tokens, *fwd.values(), *bwd.values())
    keep = recording(inputs)
    xz = [normed.data @ p[k].data for k in ("w_in", "w_gate") for p in sides]  # fx bx fz bz
    if not keep:  # nothing reads the normed tokens again
        inputs = normed = None
    y, feats, scan_backward = scan_core(sides, [xz.pop(0), xz.pop(0)], keep)  # xz: [fz, bz]
    g = np.empty(y.shape, dtype=xz[0].dtype)
    for half, o in enumerate(_ORDER):  # each z dies once its half is gated
        z = xz.pop(0)
        np.multiply(z, _sigmoid(z, out=g[half]), out=g[half])  # silu(z)
        g[half] *= y[half, :, o]                               # flipped back
    del z
    if not keep:
        y = None  # dies here, before the out projections
    out = g[0] @ fwd["w_out"].data
    out += g[1] @ bwd["w_out"].data
    out += tokens.data

    def backward(d):
        nonlocal y
        nd = normed.data
        dy = np.empty(y.shape, np.result_type(d, fwd["w_out"].data, nd, fwd["w_gate"].data))
        dz, dw_out = [], []
        for half, (o, p) in enumerate(zip(_ORDER, sides)):
            z, w = nd @ p["w_gate"].data, p["w_out"].data
            s_z = _sigmoid(z)
            gate, yh = z * s_z, y[half, :, o]
            dw_out.append(tt._unbroadcast(np.swapaxes(gate * yh, -1, -2) @ d, w.shape))
            dg = d @ w.T
            dy[half] = dg[:, o] * gate[:, o]
            dz.append(dg * yh * (gate * (1.0 - s_z) + s_z))    # silu'(z)
        del z, s_z, gate, dg, yh
        y = None
        dx, grads = scan_backward(dy, [nd @ p["w_in"].data for p in sides])
        dn = dz[1] @ bwd["w_gate"].data.T                      # ((bz + bx) + fz) + fx
        dn += dx[1] @ bwd["w_in"].data.T
        dn += dz[0] @ fwd["w_gate"].data.T
        dn += dx[0] @ fwd["w_in"].data.T
        nt = np.swapaxes(nd, -1, -2)
        for half, p in enumerate(sides):
            grads[half].update(w_in=tt._unbroadcast(nt @ dx[half], p["w_in"].shape),
                               w_gate=tt._unbroadcast(nt @ dz[half], p["w_gate"].shape),
                               w_out=dw_out[half])
        return (dn, d, *(gr[k] for gr, p in zip(grads, sides) for k in p))

    return record(Tensor(out, _check=False), inputs or (), backward), feats


def bidirectional_block(fwd, bwd, tokens: Tensor):
    """Residual bidirectional block over [B, T, D_model] tokens, with
    independent forward and backward scans whose parameters are ``fwd`` and
    ``bwd``, each a ``{field: Tensor}`` keyed as in ``scan_shapes``: tapes
    layer_norm, then mixer. Returns (out, intermediates): the features a
    reduction step scores, the forward direction's B/C projections and step
    delta and the output x.
    """
    out, inter = mixer(fwd, bwd, tt.layer_norm(tokens), tokens)
    inter["x"] = out.data  # the values a downstream reduction step merges
    return out, inter
