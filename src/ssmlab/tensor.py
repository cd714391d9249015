"""Dense tensors with a per-pass reverse-mode gradient tape.

Tensors hold float64 data, or float32 data when built from a float32 array
(the float32 path exists for the throughput benchmark). Ops allocate their
buffers and constants in their input's dtype, so a float32 forward stays
float32 end to end.

The tape is explicit: ops record onto the innermost active ``GradTape``
(entered as a context manager). With no active tape, ops are plain numpy
with a Tensor wrapper and nothing is recorded. Tensors are treated as
immutable once created; only optimizer code touches ``.data`` in place.
"""

from __future__ import annotations

import threading

import numpy as np


class TensorError(ValueError):
    """Shape mismatch, non-finite values, or other tensor contract violations."""


_tls = threading.local()


def _active_tape():
    stack = getattr(_tls, "tape_stack", None)
    return stack[-1] if stack else None


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, _check=True):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
        if _check and not np.all(np.isfinite(arr)):
            raise TensorError("non-finite values in tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None  # Tensor of identical shape after backward()

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise TensorError("item() on non-scalar tensor")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


class GradTape:
    """Ordered record of primitive ops for one forward pass.

    Entries are (output, inputs, backward_fn) where backward_fn maps the
    output cotangent (ndarray) to one cotangent (or None) per input.
    ``backward`` consumes the tape; a consumed tape cannot be reused.
    """

    def __init__(self):
        self.entries = []
        self._consumed = False

    def __enter__(self):
        if not hasattr(_tls, "tape_stack"):
            _tls.tape_stack = []
        _tls.tape_stack.append(self)
        return self

    def __exit__(self, *exc):
        _tls.tape_stack.pop()
        return False

    def record(self, out, inputs, backward_fn):
        if self._consumed:
            raise TensorError("gradient tape already consumed")
        self.entries.append((out, tuple(inputs), backward_fn))

    def backward(self, loss):
        """Populate ``grad`` on every reachable requires_grad tensor; clears the tape."""
        if self._consumed:
            raise TensorError("gradient tape already consumed")
        if loss.data.size != 1:
            raise TensorError("backward() requires a scalar loss")
        if not self.entries:
            raise TensorError("backward() on empty tape")
        grads = {id(loss): np.ones_like(loss.data)}
        holders = {id(loss): loss}
        for out, inputs, backward_fn in reversed(self.entries):
            dout = grads.pop(id(out), None)
            holders.pop(id(out), None)
            if dout is None:
                continue
            for inp, din in zip(inputs, backward_fn(dout)):
                if din is None or not inp.requires_grad:
                    continue
                key = id(inp)
                grads[key] = grads[key] + din if key in grads else din
                holders[key] = inp
        # whatever survived the sweep was never produced by a recorded op: a leaf
        for key, leaf in holders.items():
            g = grads[key]
            if leaf.grad is None:
                leaf.grad = Tensor(g, _check=False)
            else:
                leaf.grad = Tensor(leaf.grad.data + g, _check=False)
        self.entries = []
        self._consumed = True


def recording(inputs):
    """Whether ``record`` would tape an op on these inputs: a primitive can
    skip keeping what only its backward pass reads when this is False."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def record(out, inputs, backward_fn):
    """Record a primitive onto the active tape, if any input wants gradients."""
    if recording(inputs):
        out.requires_grad = True
        _active_tape().record(out, inputs, backward_fn)
    return out


def _unbroadcast(grad, shape):
    """Sum a broadcast cotangent back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# element-wise ops

def add(a, b):
    out = Tensor(a.data + b.data, _check=False)
    return record(out, (a, b), lambda d: (_unbroadcast(d, a.data.shape),
                                          _unbroadcast(d, b.data.shape)))


def mul(a, b):
    out = Tensor(a.data * b.data, _check=False)
    return record(out, (a, b), lambda d: (_unbroadcast(d * b.data, a.data.shape),
                                          _unbroadcast(d * a.data, b.data.shape)))


def scale(a, s):
    s = float(s)
    out = Tensor(a.data * s, _check=False)
    return record(out, (a,), lambda d: (d * s,))


def _sigmoid(x):
    # the tanh form is overflow-free and needs no masked indexing; one buffer
    s = np.multiply(x, 0.5, out=np.empty_like(x))
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def softplus(a):
    # overflow-safe: max(x,0) + log1p(exp(-|x|))
    x = a.data
    out = Tensor(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))), _check=False)
    return record(out, (a,), lambda d: (d * _sigmoid(x),))


def silu(a):
    x = a.data
    s = _sigmoid(x)
    out = Tensor(x * s, _check=False)
    return record(out, (a,), lambda d: (d * (s + x * s * (1.0 - s)),))


# ---------------------------------------------------------------------------
# linear algebra and reductions

def matmul(a, b):
    if a.data.ndim < 2 or b.data.ndim < 1:
        raise TensorError("matmul needs a 2-D (or batched) left operand")
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise TensorError(
            f"matmul inner dimension mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data, _check=False)

    def backward(d):
        da = d @ np.swapaxes(b.data, -1, -2) if b.data.ndim > 1 else np.multiply.outer(d, b.data)
        da = _unbroadcast(da, a.data.shape)
        db = np.swapaxes(a.data, -1, -2) @ d
        db = _unbroadcast(db, b.data.shape)
        return (da, db)

    return record(out, (a, b), backward)


def tsum(a, axis=None):
    out = Tensor(a.data.sum(axis=axis, keepdims=False), _check=False)

    def backward(d):
        if axis is None:
            return (np.broadcast_to(d, a.data.shape).copy(),)
        g = np.expand_dims(d, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return record(out, (a,), backward)


def tmean(a, axis=None):
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / n)


def layer_norm(a, eps=1e-6):
    """Parameter-free normalization over the last axis."""
    x = a.data
    n = x.shape[-1]
    y = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", y, y)[..., None] / n + eps)
    y *= inv
    out = Tensor(y, _check=False)

    def backward(d):
        dy_sum = d.sum(axis=-1, keepdims=True)
        dyy_sum = (d * y).sum(axis=-1, keepdims=True)
        return ((d - dy_sum / n - y * dyy_sum / n) * inv,)

    return record(out, (a,), backward)

