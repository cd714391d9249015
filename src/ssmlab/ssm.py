"""Selective state-space recurrences and the bidirectional block built on them.

The discrete recurrence is h_t = A_bar_t * h_{t-1} + B_bar_t * x_t with
readout y_t = C_t . h_t. A is parameterized as -exp(a_log) so the recurrence
decays; A_bar = exp(delta * A) (zero-order hold) and B_bar = delta * B_t
(Euler). The scan itself is a single taped primitive with a hand-written
backward pass so training does not pay per-step tape overhead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .tensor import Tensor, TensorError, record


class ScanDirection(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"  # processes indices T-1 ... 0


@dataclass
class ScanParams:
    """Learnable parameters of one scan direction."""

    a_log: Tensor       # [D, N]; state matrix A = -exp(a_log)
    w_in: Tensor        # [D_model, D]
    w_gate: Tensor      # [D_model, D]
    w_b: Tensor         # [D, N]
    w_c: Tensor         # [D, N]
    w_delta: Tensor     # [D, 1]
    delta_bias: Tensor  # [1]
    w_out: Tensor       # [D, D_model]

    def named(self):
        return [("a_log", self.a_log), ("w_in", self.w_in),
                ("w_gate", self.w_gate), ("w_b", self.w_b),
                ("w_c", self.w_c), ("w_delta", self.w_delta),
                ("delta_bias", self.delta_bias), ("w_out", self.w_out)]


@dataclass
class SsmBlockParams:
    """One bidirectional block: independent forward and backward scans."""

    fwd: ScanParams
    bwd: ScanParams

    def named(self):
        return ([("fwd." + k, t) for k, t in self.fwd.named()]
                + [("bwd." + k, t) for k, t in self.bwd.named()])


def _softplus_inverse(y):
    return math.log(math.expm1(y))


def init_scan_params(rng, d_model, d, n, out_scale=1.0):
    a_log = np.tile(np.log(np.arange(1, n + 1, dtype=np.float64)), (d, 1))
    p = ScanParams(
        a_log=Tensor(a_log, requires_grad=True),
        w_in=Tensor(rng.normal(0.0, d_model ** -0.5, (d_model, d)), requires_grad=True),
        w_gate=Tensor(rng.normal(0.0, d_model ** -0.5, (d_model, d)), requires_grad=True),
        w_b=Tensor(rng.normal(0.0, d ** -0.5, (d, n)), requires_grad=True),
        w_c=Tensor(rng.normal(0.0, d ** -0.5, (d, n)), requires_grad=True),
        w_delta=Tensor(rng.normal(0.0, d ** -0.5, (d, 1)), requires_grad=True),
        delta_bias=Tensor(np.array([_softplus_inverse(0.5)]), requires_grad=True),
        w_out=Tensor(rng.normal(0.0, out_scale * d ** -0.5, (d, d_model)), requires_grad=True),
    )
    return p


def init_block(rng, d_model, d, n, out_scale=1.0):
    return SsmBlockParams(fwd=init_scan_params(rng, d_model, d, n, out_scale),
                          bwd=init_scan_params(rng, d_model, d, n, out_scale))


def discretize(params: ScanParams, x: Tensor):
    """Input-dependent discretization of one scan direction.

    x: [B, T, D] inner activations. Returns (A_bar [B,T,D,N], B_bar [B,T,D,N],
    delta [B,T,D], B [B,T,N]); every A_bar entry lies in (0, 1).
    """
    if not np.all(np.isfinite(x.data)):
        raise TensorError("non-finite scan input")
    b, t, d = x.shape
    n = params.a_log.shape[1]
    delta_pre = tt.add(tt.matmul(x, params.w_delta), params.delta_bias)  # [B,T,1]
    delta1 = tt.softplus(delta_pre)
    ones = Tensor(np.ones((1, 1, d), dtype=x.data.dtype), _check=False)
    delta = tt.mul(delta1, ones)                                          # [B,T,D]
    a = tt.neg(tt.exp(params.a_log))                                      # [D,N]
    delta4 = tt.reshape(delta, (b, t, d, 1))
    a_bar = tt.exp(tt.mul(delta4, a))                                     # [B,T,D,N]
    b_t = tt.matmul(x, params.w_b)                                        # [B,T,N]
    b_bar = tt.mul(delta4, tt.reshape(b_t, (b, t, 1, n)))                 # [B,T,D,N]
    return a_bar, b_bar, delta, b_t


def scan_core(a_bar: Tensor, u: Tensor, c: Tensor,
              direction=ScanDirection.FORWARD) -> Tensor:
    """Run h_t = a_bar_t * h_prev + u_t, y_t[d] = sum_n c_t[n] h_t[d,n].

    a_bar, u: [B,T,D,N]; c: [B,T,N]; the state starts at zero. FORWARD
    walks t = 0 .. T-1 and BACKWARD walks t = T-1 .. 0 over the same arrays,
    with no reversed copies. One taped primitive.
    """
    ab, ud, cd = a_bar.data, u.data, c.data
    bsz, t_len, d, n = ab.shape
    step = 1 if direction is ScanDirection.FORWARD else -1
    order = range(t_len)[::step]
    hs = np.empty_like(ab)
    y = np.empty((bsz, t_len, d), dtype=ab.dtype)
    h = np.zeros((bsz, d, n), dtype=ab.dtype)
    for t in order:
        h = ab[:, t] * h + ud[:, t]
        hs[:, t] = h
        y[:, t] = np.einsum("bdn,bn->bd", h, cd[:, t])
    out = Tensor(y, _check=False)

    def backward(dy):
        da = np.empty_like(ab)
        du = np.empty_like(ab)
        dc = np.zeros((bsz, t_len, n), dtype=cd.dtype)
        dh = np.zeros((bsz, d, n), dtype=ab.dtype)
        for t in reversed(order):
            dh = dh + cd[:, t][:, None, :] * dy[:, t][:, :, None]
            dc[:, t] = np.einsum("bdn,bd->bn", hs[:, t], dy[:, t])
            h_prev = hs[:, t - step] if 0 <= t - step < t_len else 0.0
            da[:, t] = dh * h_prev
            du[:, t] = dh
            dh = dh * ab[:, t]
        return (da, du, dc)

    return record(out, (a_bar, u, c), backward)


def selective_scan(params: ScanParams, x: Tensor, direction: ScanDirection):
    """Full selective scan of [B, T, D] activations in the given direction.

    Returns (y [B,T,D], intermediates): the per-token B and C projections
    [B,T,N] and delta [B,T,D] the scan ran on, as detached ndarrays.
    """
    if x.data.ndim != 3:
        raise TensorError("selective_scan expects [B, T, D]")
    if x.shape[1] < 1:
        raise TensorError("empty sequence")
    b, t, d = x.shape
    a_bar, b_bar, delta, b_t = discretize(params, x)
    c = tt.matmul(x, params.w_c)                       # [B,T,N]
    u = tt.mul(b_bar, tt.reshape(x, (b, t, d, 1)))     # [B,T,D,N]
    y = scan_core(a_bar, u, c, direction)
    return y, {"b": b_t.data, "c": c.data, "delta": delta.data}


def _direction_branch(p: ScanParams, normed: Tensor, direction: ScanDirection):
    x_in = tt.silu(tt.matmul(normed, p.w_in))
    gate = tt.silu(tt.matmul(normed, p.w_gate))
    y, inter = selective_scan(p, x_in, direction)
    return tt.matmul(tt.mul(y, gate), p.w_out), inter


def bidirectional_block(params: SsmBlockParams, tokens: Tensor,
                        want_intermediates=False):
    """Residual bidirectional block over [B, T, D_model] tokens.

    Returns (out, intermediates); intermediates hold the forward branch's
    per-token B/C/delta projections (detached numpy) for similarity scoring.
    """
    normed = tt.layer_norm(tokens)
    fwd_contrib, inter = _direction_branch(params.fwd, normed, ScanDirection.FORWARD)
    bwd_contrib, _ = _direction_branch(params.bwd, normed, ScanDirection.BACKWARD)
    out = tt.add(tokens, tt.add(fwd_contrib, bwd_contrib))
    if not want_intermediates:
        return out, None
    inter["x"] = out.data  # the values a downstream reduction step merges
    return out, inter
