"""Selective state-space recurrences and the bidirectional block built on them.

The discrete recurrence is h_t = A_bar_t * h_{t-1} + B_bar_t * x_t with
readout y_t = C_t . h_t. A is parameterized as -exp(a_log) so the recurrence
decays; A_bar = exp(delta * A) (zero-order hold) and B_bar = delta * B_t
(Euler), with one step size delta_t = softplus(x_t w_delta + delta_bias) per
token shared by all channels. x and the gate z both pass through silu.

A block tapes both scan directions as one fused primitive, scan_core, as
Mamba's mamba_inner_fn fuses one (Gu & Dao, arXiv 2312.00752) and Vision
Mamba calls selective_scan_fn once per direction (Zhu et al., arXiv
2401.09417). Its arrays stack the forward direction's half over the
backward's, [2,B,T,*], and each loop runs T steps over both: in loop
order, step s is time s of the forward half and T-1-s of the backward
half, reversed once on the way into a loop and flipped back once on the
way out. block_tail gates the readout with silu(z), reading its backward
half reversed, and applies both out projections and the residual; as in
mamba_inner_fn, the gated readout is recomputed for the out projections'
gradient rather than kept.
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


def _flip(a):
    """Reverse a stacked [2,B,T,*] array's backward half in time, in place."""
    a[1] = a[1, :, ::-1]
    return a


def _stacked(sides, key):
    """Both directions' [D,K] field as one [2,1,D,K] right operand."""
    return np.stack([p[key].data for p in sides])[:, None]


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


def scan_core(fwd, bwd, x):
    """Both scan directions of a block as one taped primitive.

    fwd, bwd: each direction's ``{field: Tensor}``, keyed as in
    ``scan_shapes``; x: ``[fx, bx]``, each direction's [B,T,D] pre-silu in
    projection. Per direction, with xs = silu(x),
    delta = softplus(xs w_delta + delta_bias) [B,T,1], B = xs w_b and
    C = xs w_c [B,T,N], A = -exp(a_log), A_bar_t = exp(delta_t A^T) and
    u_t = (delta_t B_t) xs_t, runs h_t = A_bar_t * h_prev + u_t from a zero
    state (t = 0 .. T-1 forward, T-1 .. 0 backward) and reads out
    y_t[d] = sum_n C_t[n] h_t[n,d]. Returns the ungated readout y [2,B,T,D]
    in loop order (the backward half time-reversed), and the forward
    direction's {"b", "c", "delta"}: the features a reduction step scores,
    as detached ndarrays.

    Per step, the products delta_t A, (delta_t B_t) xs_t and C_t dy_t are
    einsum outer products over [2,B,*] views, cast same_kind as ufuncs cast,
    and outputs go over slots the step has read: y_t over xs_t; backward,
    the x cotangent over C_t. Every matmul whose bits depend on its row
    order (the one-wide step GEMV, each contraction over T) reads natural
    time, so each half keeps the bits of its direction scanned alone; B and
    C read loop order.

    The closure keeps x, A and the states, kept only when taped, per half
    in natural time: [2,T,B,N,D]. Untaped, each x is dropped once silu(x)
    is stacked, and dies there, as the block passes ``x`` as a temporary.
    The backward pass takes dy in loop order and leaves it untouched. It
    recomputes xs, sigmoid(x), the step, B and C, and carries g = dL/dh_t
    in one [2,B,N,D] buffer, recomputing A_bar_t to carry g back a step. It
    writes dL/d(delta_t A) = g A_bar_t h_prev over h_prev in the state
    history and takes each half's delta and a_log terms as one reduction
    each over it. x's cotangent sums its scan, C, B and delta terms in
    place, then takes silu'(x) = s + xs (1 - s): the order, and bits, of
    separate ops.
    """
    sides = (fwd, bwd)
    inputs = (*x, *(p[k] for p in sides for k in _SCAN_FIELDS))
    del x
    xp = (inputs[0].data, inputs[1].data)
    if xp[0].ndim != 3:
        raise TensorError("scan_core expects [B, T, D]")
    if xp[0].shape[1] < 1:
        raise TensorError("empty sequence")
    xs = np.empty((2, *xp[0].shape), dtype=xp[0].dtype)
    for half in range(2):
        np.multiply(xp[half], _sigmoid(xp[half], out=xs[half]), out=xs[half])  # silu(x)
    if not np.all(np.isfinite(xs)):
        raise TensorError("non-finite scan input")
    if not recording(inputs):  # nothing reads the pre-silu x again
        inputs = xp = None
    a = -np.exp(np.stack([p["a_log"].data.T for p in sides]), order="C")  # [2,N,D]
    if not np.all(np.isfinite(a)):
        raise TensorError("exp overflow")

    def projections(xs):
        """pre and the step [2,B,T,1] of natural-time xs; B, C of xs in loop order."""
        pre = np.stack([xs[half] @ p["w_delta"].data + p["delta_bias"].data
                        for half, p in enumerate(sides)])
        ds = np.maximum(pre, 0.0) + np.log1p(np.exp(-np.abs(pre)))  # overflow-safe softplus
        _flip(xs)
        return pre, ds, xs @ _stacked(sides, "w_b"), xs @ _stacked(sides, "w_c")
    _, ds, bs, cs = projections(xs)
    feats = {"b": bs[0].copy(), "c": cs[0].copy(), "delta": ds[0]}  # half 0: natural time
    ds = _flip(ds.copy())
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
            hs[0, s], hs[1, t_len - 1 - s] = h
    del h, a_bar, u, db, bs, cs, ds, xs

    def backward(dy):
        s_x = np.empty(dy.shape, xp[0].dtype)
        xs = np.empty_like(s_x)
        for half in range(2):  # recomputed rather than kept
            np.multiply(xp[half], _sigmoid(xp[half], out=s_x[half]), out=xs[half])
        pre, ds, bs, cs = projections(xs)                      # forward's own GEMMs
        bsz, t_len = dy.shape[1:3]
        dc = np.stack([np.matmul(hs[half].transpose(1, 0, 2, 3), dy[half, :, o, :, None])
                       [..., 0] for half, o in enumerate(_ORDER)])  # sum_d h dy
        ds_loop = _flip(ds.copy())[..., 0]
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
            np.einsum("hb,hnd->hbnd", ds_loop[:, :, s], a, out=buf, casting="same_kind")
            np.exp(buf, out=buf)
            g *= buf
            # dL/d(delta A) = g * A_bar * h_prev, over h_prev's slot in each half
            np.multiply(g[0], hs[0, s - 1], out=hs[0, s - 1])
            np.multiply(g[1], hs[1, t_len - s], out=hs[1, t_len - s])
        del g, buf, bs
        _flip(g_b), _flip(x_g), _flip(xs)
        d_delta = (g_b * xs).sum(axis=-1, keepdims=True)
        grads = [[], []]
        for half, step in enumerate((1, -1)):
            # hs[half, src] holds dL/d(delta A) of the steps at dst, in (t, b) row order
            src, dst = (slice(0, -1), slice(1, None))[::step]
            d_da = hs[half, src].reshape(-1, a[half].size)
            d_delta[half, :, dst, 0] += (d_da @ a[half].reshape(-1)).reshape(-1, bsz).T
            grads[half].append((a[half] * (ds[half, :, dst, 0].T.reshape(-1) @ d_da)
                                .reshape(a[half].shape)).T)
        d_b = np.multiply(x_g, ds, out=x_g)
        d_pre = d_delta * _sigmoid(pre)
        dx = np.multiply(g_b, ds, out=g_b)
        dx += dc @ np.swapaxes(_stacked(sides, "w_c"), -1, -2)
        dx += d_b @ np.swapaxes(_stacked(sides, "w_b"), -1, -2)
        dx += d_pre * np.swapaxes(_stacked(sides, "w_delta"), -1, -2)  # d_pre @ w_delta.T
        silu_d = np.subtract(1.0, s_x)
        silu_d *= xs
        silu_d += s_x
        dx *= silu_d                                           # silu'(x)
        del silu_d, s_x
        xt = np.swapaxes(xs, -1, -2)
        for half, p in enumerate(sides):
            grads[half] += [tt._unbroadcast(w[half], p[k].shape) for w, k in
                            zip((xt @ d_pre, d_pre, xt @ d_b, xt @ dc), _SCAN_FIELDS[1:])]
        return (dx[0], dx[1], *grads[0], *grads[1])

    return record(Tensor(y, _check=False), inputs or (), backward), feats


def block_tail(yz, w_fwd: Tensor, w_bwd: Tensor, tokens: Tensor):
    """tokens + g[0] @ w_fwd + g[1] @ w_bwd as one taped op, for the gated
    readout g = silu(z) * y of scan_core's output y and each direction's
    [B,T,D] gate z, with yz = ``[y, fz, bz]``. g is built in one buffer,
    reading y's backward half reversed, and the projections are summed in
    place in that order: the bits of tokens + (fwd + bwd). Untaped, y and
    both z are dropped once g is built, and die there, as the block passes
    ``yz`` as a temporary; g dies after the projections.

    The closure keeps y, both z and the out projections [D,D_model]. The
    backward pass recomputes sigmoid(z), silu(z) and g, and returns dy in
    y's loop order and dz, each formed as separate ops would form it.
    """
    inputs = (*yz, w_fwd, w_bwd, tokens)
    del yz
    yd, zp = inputs[0].data, (inputs[1].data, inputs[2].data)
    g = np.empty(yd.shape, dtype=zp[0].dtype)
    for half, o in enumerate(_ORDER):
        np.multiply(zp[half], _sigmoid(zp[half], out=g[half]), out=g[half])  # silu(z)
        g[half] *= yd[half, :, o]                              # flipped back
    if not recording(inputs):  # nothing reads y or z again
        inputs = yd = zp = None
    out = g[0] @ w_fwd.data
    out += g[1] @ w_bwd.data
    del g
    out += tokens.data

    def backward(d):
        dy = np.empty(yd.shape, np.result_type(d, w_fwd.data, zp[0]))  # loop order
        dz, dw = [], []
        for half, (o, w) in enumerate(zip(_ORDER, (w_fwd.data, w_bwd.data))):
            s_z = _sigmoid(zp[half])                           # recomputed rather than kept
            gate = zp[half] * s_z
            g = gate.copy()
            g *= yd[half, :, o]
            dw.append(tt._unbroadcast(np.swapaxes(g, -1, -2) @ d, w.shape))
            del g
            dg = d @ w.T
            np.multiply(dg[:, o], gate[:, o], out=dy[half])
            gate *= 1.0 - s_z
            gate += s_z                                        # silu'(z)
            dz.append(np.multiply(dg, yd[half, :, o], out=s_z))
            dz[half] *= gate
        return (dy, *dz, *dw, d)

    return record(Tensor(out, _check=False), inputs or (), backward)


def _in_projections(fwd, bwd, normed):
    """[fx, fz, bx, bz], taped in that order; the normed tokens die here."""
    return [tt.matmul(normed, p[k]) for p in (fwd, bwd) for k in ("w_in", "w_gate")]


def _scanned(fwd, bwd, xz, inter):
    """block_tail's ``[y, fz, bz]`` from the projections xz = [fx, fz, bx, bz]:
    scan_core's readout of both x, which die in it, and both z. The features
    scan_core returns go into ``inter``."""
    y, feats = scan_core(fwd, bwd, [xz.pop(0), xz.pop(1)])    # xz keeps [fz, bz]
    inter.update(feats)
    return [y, *xz]


def bidirectional_block(fwd, bwd, tokens: Tensor):
    """Residual bidirectional block over [B, T, D_model] tokens, with
    independent forward and backward scans whose parameters are ``fwd`` and
    ``bwd``, each a ``{field: Tensor}`` keyed as in ``scan_shapes``. Tapes
    layer_norm, the four in and gate projections, scan_core and block_tail;
    each op's inputs are handed over as temporaries, so untaped they die in
    the op that reads them last. Returns (out, intermediates): the features
    a reduction step scores, the forward direction's B/C projections and
    step delta and the output x.
    """
    inter = {}
    out = block_tail(_scanned(fwd, bwd, _in_projections(fwd, bwd, tt.layer_norm(tokens)), inter),
                     fwd["w_out"], bwd["w_out"], tokens)
    inter["x"] = out.data  # the values a downstream reduction step merges
    return out, inter
