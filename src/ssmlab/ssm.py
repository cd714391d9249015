"""Selective state-space recurrences and the bidirectional block built on them.

The discrete recurrence is h_t = A_bar_t * h_{t-1} + B_bar_t * x_t with
readout y_t = C_t . h_t. A is parameterized as -exp(a_log) so the recurrence
decays; A_bar = exp(delta * A) (zero-order hold) and B_bar = delta * B_t
(Euler), with one step size delta_t = softplus(x_t w_delta + delta_bias) per
token shared by all channels. x and the gate z both pass through silu.

A block tapes both scan directions as one fused primitive, scan_core, as
Mamba's mamba_inner_fn fuses one (Gu & Dao, arXiv 2312.00752) and Vision
Mamba calls selective_scan_fn once per direction (Zhu et al., arXiv
2401.09417), and runs the backward direction as Vision Mamba does: as the
forward scan of the time-reversed sequence. block_tail gates the readout
with silu(z) and applies both out projections and the residual; as in
mamba_inner_fn, the gated readout is recomputed for the out projections'
gradient rather than kept. Both ops keep the block's normed tokens rather
than the in and gate projections x and z, and recompute x = normed @ w_in
and z = normed @ w_gate in backward with the same GEMMs the projections
ran: gradient checkpointing (Chen et al., arXiv 1604.06174) of
activations one GEMM away from an array the tape keeps anyway.
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


def _stacked(sides, key):
    """Both directions' [D,K] (or [1]) field as one [2,1,D,K] right operand."""
    return np.stack([np.atleast_2d(p[key].data) for p in sides])[:, None]


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


def scan_core(fwd, bwd, x, normed):
    """Both scan directions of a block as one taped primitive.

    fwd, bwd: each direction's ``{field: Tensor}``, keyed as in
    ``scan_shapes``; x: ``[fx, bx]``, each direction's [B,T,D] pre-silu in
    projection ``normed.data @ w_in.data`` of the [B,T,D_model] normed
    tokens (only backward reads them: untaped, None will do). Per
    direction, with xs = silu(x), delta = softplus(xs w_delta + delta_bias)
    [B,T,1], B = xs w_b and C = xs w_c [B,T,N], A = -exp(a_log),
    A_bar_t = exp(delta_t A^T) and u_t = (delta_t B_t) xs_t, runs
    h_t = A_bar_t * h_prev + u_t from a zero state (t = 0 .. T-1 forward,
    T-1 .. 0 backward) and reads out y_t[d] = sum_n C_t[n] h_t[n,d].
    Returns the ungated readout y [2,B,T,D] in loop order (the backward
    half time-reversed), and the forward direction's {"b", "c", "delta"}:
    the features a reduction step scores, as detached ndarrays.

    bx is read reversed where silu(x) is built, and every array after that
    is in loop order, so the backward half is, bit for bit, the forward scan
    of the reversed sequence. Per step, delta_t A, (delta_t B_t) xs_t and
    C_t dy_t are einsum outer products over [2,B,*] views, cast same_kind as
    ufuncs cast; y_t goes over xs_t and, backward, the x cotangent over C_t.

    Taped, the closure keeps normed, A and the states [2,T,B,N,D]; each x
    dies once silu(x) is stacked, as the block passes ``x`` as a
    temporary. The backward pass takes dy in loop order, leaves it
    untouched, and recomputes x with the in projections' own GEMM, then
    xs, sigmoid(x), the step, B and C. It carries g = dL/dh_t in one
    [2,B,N,D] buffer, recomputing A_bar_t to carry it back a step, and
    writes dL/d(delta_t A) = g A_bar_t h_prev over h_prev in the state
    history, which the delta and a_log terms each reduce in one op. x's
    cotangent sums its scan, C, B and delta terms in place, then takes
    silu'(x) = (1 - s) xs + s; bx's is copied back to natural time.
    """
    sides = (fwd, bwd)
    inputs = (*x, *(p[k] for p in sides for k in _SCAN_FIELDS))
    del x
    xp = (inputs[0].data, inputs[1].data)
    if xp[0].ndim != 3:
        raise TensorError("scan_core expects [B, T, D]")
    if xp[0].shape[1] < 1:
        raise TensorError("empty sequence")

    def silu(xp, s_x, xs):
        """sigmoid(x) into s_x and silu(x) into xs, [2,B,T,D] in loop order."""
        for half, o in enumerate(_ORDER):
            np.multiply(xp[half][:, o], _sigmoid(xp[half][:, o], out=s_x[half]), out=xs[half])
        return xs
    xs = np.empty((2, *xp[0].shape), dtype=xp[0].dtype)
    silu(xp, xs, xs)
    if not np.all(np.isfinite(xs)):
        raise TensorError("non-finite scan input")
    if not recording(inputs):  # nothing reads x or the normed tokens again
        inputs = xp = normed = None
    a = -np.exp(np.stack([p["a_log"].data.T for p in sides]), order="C")  # [2,N,D]
    if not np.all(np.isfinite(a)):
        raise TensorError("exp overflow")

    def projections(xs):
        """pre, the step [2,B,T,1], B and C of xs."""
        pre = xs @ _stacked(sides, "w_delta") + _stacked(sides, "delta_bias")
        ds = np.maximum(pre, 0.0) + np.log1p(np.exp(-np.abs(pre)))  # overflow-safe softplus
        return pre, ds, xs @ _stacked(sides, "w_b"), xs @ _stacked(sides, "w_c")
    _, ds, bs, cs = projections(xs)
    feats = {"b": bs[0].copy(), "c": cs[0].copy(), "delta": ds[0]}
    t_len = xs.shape[2]
    db = np.multiply(bs, ds, out=bs)                           # delta_t B_t
    h = np.zeros((*xs.shape[:2], *a.shape[1:]), dtype=xs.dtype)  # [2,B,N,D]
    hs = np.empty((2, t_len, *h.shape[1:]), dtype=h.dtype) if inputs else None
    a_bar, u = np.empty_like(h), np.empty_like(h)
    y = xs  # y_s goes over xs_s once u_s has read it
    for s in range(t_len):
        np.einsum("hb,hnd->hbnd", ds[:, :, s, 0], a, out=a_bar, casting="same_kind")
        np.exp(a_bar, out=a_bar)
        np.einsum("hbn,hbd->hbnd", db[:, :, s], xs[:, :, s], out=u, casting="same_kind")
        h *= a_bar
        h += u
        np.matmul(cs[:, :, s, None, :], h, out=y[:, :, s, None, :])
        if hs is not None:
            hs[:, s] = h

    def backward(dy):
        xp = [normed.data @ p["w_in"].data for p in sides]    # x, as the in projections formed it
        s_x = np.empty(dy.shape, xp[0].dtype)
        xs = silu(xp, s_x, np.empty_like(s_x))                 # recomputed rather than kept
        del xp
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
        dx += dc @ np.swapaxes(_stacked(sides, "w_c"), -1, -2)
        dx += d_b @ np.swapaxes(_stacked(sides, "w_b"), -1, -2)
        dx += d_pre * np.swapaxes(_stacked(sides, "w_delta"), -1, -2)  # d_pre @ w_delta.T
        dx *= (1.0 - s_x) * xs + s_x                           # silu'(x)
        xt = np.swapaxes(xs, -1, -2)
        terms = (xt @ d_pre, d_pre, xt @ d_b, xt @ dc)         # w_delta, delta_bias, w_b, w_c
        grads = [[d_a_log[half], *(tt._unbroadcast(w[half], p[k].shape)
                                   for w, k in zip(terms, _SCAN_FIELDS[1:]))]
                 for half, p in enumerate(sides)]
        return (dx[0], dx[1, :, ::-1].copy(), *grads[0], *grads[1])

    return record(Tensor(y, _check=False), inputs or (), backward), feats


def block_tail(yz, fwd, bwd, tokens: Tensor, normed):
    """tokens + g[0] @ fwd["w_out"] + g[1] @ bwd["w_out"] as one taped op,
    for the gated readout g = silu(z) * y of scan_core's output y and each
    direction's [B,T,D] gate z = normed.data @ w_gate.data, with yz =
    ``[y, fz, bz]``; as in scan_core, only backward reads ``normed``. g is
    built in one buffer, reading y's backward half reversed, and the
    projections are summed in place in that order: the bits of tokens +
    (fwd + bwd). Untaped, y and both z are dropped once g is built, and die
    there, as the block passes ``yz`` as a temporary; g dies after the
    projections.

    The closure keeps y, normed and the weights, and no z. The backward
    pass recomputes z with the gate projection's own GEMM, then sigmoid(z),
    silu(z) and g, and returns dy in y's loop order and dz, each formed as
    separate ops would form it.
    """
    w_fwd, w_bwd = fwd["w_out"], bwd["w_out"]
    inputs = (*yz, w_fwd, w_bwd, tokens)
    del yz
    yd, zp = inputs[0].data, (inputs[1].data, inputs[2].data)
    g = np.empty(yd.shape, dtype=zp[0].dtype)
    for half, o in enumerate(_ORDER):
        np.multiply(zp[half], _sigmoid(zp[half], out=g[half]), out=g[half])  # silu(z)
        g[half] *= yd[half, :, o]                              # flipped back
    if not recording(inputs):  # nothing reads y or the normed tokens again
        inputs = yd = zp = normed = None
    out = g[0] @ w_fwd.data
    out += g[1] @ w_bwd.data
    out += tokens.data

    def backward(d):
        dy = np.empty(yd.shape, np.result_type(d, w_fwd.data, normed.data, fwd["w_gate"].data))
        dz, dw = [], []
        for half, (o, p) in enumerate(zip(_ORDER, (fwd, bwd))):
            z, w = normed.data @ p["w_gate"].data, p["w_out"].data  # as its projection formed it
            s_z = _sigmoid(z)                                  # recomputed rather than kept
            gate, y = z * s_z, yd[half, :, o]
            dw.append(tt._unbroadcast(np.swapaxes(gate * y, -1, -2) @ d, w.shape))
            dg = d @ w.T
            dy[half] = dg[:, o] * gate[:, o]
            dz.append(dg * y * (gate * (1.0 - s_z) + s_z))     # silu'(z)
        return (dy, *dz, *dw, d)

    return record(Tensor(out, _check=False), inputs or (), backward)


def _scanned(fwd, bwd, xz, normed, inter):
    """block_tail's ``[y, fz, bz]``, emptying the projections xz = [fx, fz,
    bx, bz]: scan_core's readout of both x, which die in it, and both z. The
    features scan_core returns go into ``inter``."""
    y, feats = scan_core(fwd, bwd, [xz.pop(0), xz.pop(1)], normed)  # xz keeps [fz, bz]
    inter.update(feats)
    return [y, xz.pop(0), xz.pop(0)]


def bidirectional_block(fwd, bwd, tokens: Tensor):
    """Residual bidirectional block over [B, T, D_model] tokens, with
    independent forward and backward scans whose parameters are ``fwd`` and
    ``bwd``, each a ``{field: Tensor}`` keyed as in ``scan_shapes``. Tapes
    layer_norm, the four in and gate projections, scan_core and block_tail;
    each op's inputs are handed over as temporaries, so untaped they die in
    the op that reads them last: the normed tokens at the projections, as
    only scan_core's and block_tail's backward passes read them again.
    Returns (out, intermediates): the features a reduction step scores, the
    forward direction's B/C projections and step delta and the output x.
    """
    inter, normed = {}, tt.layer_norm(tokens)
    xz = [tt.matmul(normed, p[k]) for p in (fwd, bwd) for k in ("w_in", "w_gate")]
    if not tt.recording((tokens, *fwd.values(), *bwd.values())):
        normed = None  # no op of this block is taped
    out = block_tail(_scanned(fwd, bwd, xz, normed, inter), fwd, bwd, tokens, normed)
    inter["x"] = out.data  # the values a downstream reduction step merges
    return out, inter
