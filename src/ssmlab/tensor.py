"""Dense tensors with a per-pass reverse-mode gradient tape.

Tensors hold float64 data, or float32 data when built from a float32 array
(the float32 path exists for the throughput benchmark). Ops allocate their
buffers and constants in their input's dtype, so a float32 forward stays
float32 end to end.

The tape is explicit: ops record onto the innermost active ``GradTape``
(entered as a context manager). Active tapes sit on one process-wide stack;
no two threads tape at once. With no active tape, ops are plain numpy
with a Tensor wrapper and nothing is recorded. Tensors are treated as
immutable once created; only optimizer code touches ``.data`` in place.

The tape keeps only what backward passes read, as PyTorch's autograd does
(Paszke et al., 2017): an entry names its output by a key, and an op's
closure captures only the arrays or shapes its formula reads, so an
intermediate output dies once the forward pass is done with it.
``matmul``'s right operand is a 2-D weight matrix, as every layer passes,
and ``add``'s right operand broadcasts over the left's leading axes only.
"""

from __future__ import annotations

import numpy as np


class TensorError(ValueError):
    """Shape mismatch, non-finite values, or other tensor contract violations."""


_tapes = []  # the active GradTapes, innermost last


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_key")

    def __init__(self, data, requires_grad=False, _check=True):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
        if _check and not np.all(np.isfinite(arr)):
            raise TensorError("non-finite values in tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None  # Tensor of identical shape after backward()
        self._key = None  # set when a tape records the op producing this tensor

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

    Entries are (key, inputs, backward_fn): ``key`` names the op's output
    (``out._key``) without holding it; each input is the key of an earlier
    entry's output, or the Tensor itself when it is a leaf, that is when no
    entry on this tape produced it (a Tensor from an earlier, consumed tape
    is a leaf here). backward_fn maps the output cotangent (ndarray) to one
    cotangent (or None) per input. ``backward`` consumes the tape, even when
    a backward_fn raises, and pops each entry as it runs it: an op's closure
    and what it captured die once its cotangents are out, as in PyTorch.
    """

    def __init__(self):
        self.entries = []
        self._produced = set()
        self._consumed = False

    def __enter__(self):
        _tapes.append(self)
        return self

    def __exit__(self, *exc):
        _tapes.pop()

    def record(self, out, inputs, backward_fn):
        if self._consumed:
            raise TensorError("gradient tape already consumed")
        refs = tuple(t._key if t._key in self._produced else t for t in inputs)
        out._key = object()  # unlike id(out), never reused while out lives
        self._produced.add(out._key)
        self.entries.append((out._key, refs, backward_fn))

    def backward(self, loss):
        """Populate ``grad`` on every reachable requires_grad tensor; clears the tape."""
        if self._consumed:
            raise TensorError("gradient tape already consumed")
        if loss.data.size != 1:
            raise TensorError("backward() requires a scalar loss")
        if not self.entries:
            raise TensorError("backward() on empty tape")
        self._consumed = True  # before any entry runs: a raising one cannot be rerun
        # cotangents keyed by an output's key, or by the leaf Tensor itself
        grads = {loss._key if loss._key in self._produced else loss: np.ones_like(loss.data)}
        while self.entries:  # popped, an entry's closure dies once it has run
            key, inputs, backward_fn = self.entries.pop()
            dout = grads.pop(key, None)
            if dout is None:
                continue
            for ref, din in zip(inputs, backward_fn(dout)):
                if din is None or isinstance(ref, Tensor) and not ref.requires_grad:
                    continue
                # a + b, never in place: one array may be the cotangent of two inputs
                grads[ref] = din if ref not in grads else grads[ref] + din
        # every produced key was popped by its entry: what is left are leaves
        for leaf, g in grads.items():
            if leaf.grad is None:
                leaf.grad = Tensor(g, _check=False)
            else:
                leaf.grad = Tensor(leaf.grad.data + g, _check=False)


def recording(inputs):
    """Whether ``record`` would tape an op on these inputs: a primitive can
    skip keeping what only its backward pass reads when this is False."""
    return bool(_tapes) and any(t.requires_grad for t in inputs)


def record(out, inputs, backward_fn):
    """Record a primitive onto the active tape, if any input wants gradients."""
    if recording(inputs):
        out.requires_grad = True
        _tapes[-1].record(out, inputs, backward_fn)
    return out


def _unbroadcast(grad, shape):
    """Sum a cotangent broadcast over leading axes back down to ``shape``."""
    extra = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(extra))) if extra else grad


# ---------------------------------------------------------------------------
# element-wise ops

def add(a, b):
    sa, sb = a.data.shape, b.data.shape
    if sa[len(sa) - len(sb):] != sb:
        raise TensorError(f"add broadcasts {sb} only over leading axes of {sa}")
    out = Tensor(a.data + b.data, _check=False)
    return record(out, (a, b), lambda d: (d, _unbroadcast(d, sb)))


def scale(a, s):
    s = float(s)
    out = Tensor(a.data * s, _check=False)
    return record(out, (a,), lambda d: (d * s,))


# ---------------------------------------------------------------------------
# linear algebra and reductions

def matmul(a, b):
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise TensorError("matmul needs a 2-D (or batched) left, 2-D right operand")
    if a.data.shape[-1] != b.data.shape[0]:
        raise TensorError(
            f"matmul inner dimension mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data, _check=False)

    def backward(d):  # a cotangent only for an operand that wants one
        da = db = None
        if a.requires_grad:
            da = d @ b.data.T
        if b.requires_grad:
            db = _unbroadcast(np.swapaxes(a.data, -1, -2) @ d, b.data.shape)
        return (da, db)

    return record(out, (a, b), backward)


def tsum(a, axis=None):
    out = Tensor(a.data.sum(axis=axis, keepdims=False), _check=False)
    shape = a.data.shape

    def backward(d):
        g = d if axis is None else np.expand_dims(d, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return record(out, (a,), backward)


def tmean(a, axis):
    return scale(tsum(a, axis=axis), 1.0 / a.data.shape[axis])


def layer_norm(a):
    """Parameter-free normalization over the last axis; the variance gets 1e-6."""
    x = a.data
    n = x.shape[-1]
    y = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", y, y)[..., None] / n + 1e-6)
    y *= inv
    out = Tensor(y, _check=False)

    def backward(d):  # (d - mean(d) - y mean(d y)) / std
        return ((d - d.sum(axis=-1, keepdims=True) / n
                 - y * (d * y).sum(axis=-1, keepdims=True) / n) * inv,)

    return record(out, (a,), backward)

