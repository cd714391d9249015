"""Patch embedding + bidirectional SSM block stack + mean-pool classifier,
with token reduction interleaved at configured sites, the text form of the
config dataclasses, and the versioned binary checkpoint format.
"""

from __future__ import annotations

import enum
import io
import math
import struct
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from . import reduce as rd
from . import ssm
from . import tensor as tt
from .reduce import ReductionConfig
from .tensor import Tensor


class ModelError(ValueError):
    pass


@dataclass
class ModelConfig:
    image_size: int = 28
    patch_size: int = 4
    in_channels: int = 1
    depth: int = 8
    d_model: int = 64
    d_inner: int = 32
    d_state: int = 8
    num_classes: int = 10
    reduction: ReductionConfig = field(default_factory=ReductionConfig)

    def __post_init__(self):
        if min(self.image_size, self.patch_size, self.in_channels, self.depth,
               self.d_model, self.d_inner, self.d_state, self.num_classes) < 1:
            raise ModelError("all sizes, widths and depth must be >= 1")
        if self.image_size % self.patch_size != 0:
            raise ModelError("image_size must be divisible by patch_size")
        for s in self.reduction.sites:
            if not 0 <= s < self.depth:
                raise ModelError(f"reduction site {s} outside block range")

    @property
    def tokens0(self):
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self):
        return self.patch_size * self.patch_size * self.in_channels


@dataclass
class Model:
    """A config and its parameter table: ``{name: Tensor}`` in
    ``param_shapes(cfg)`` order, named as the checkpoint and the optimizer
    name them."""
    cfg: ModelConfig
    params: dict

    def named_params(self):
        return list(self.params.items())

    def side(self, l, direction):
        """Direction ``direction`` (``"fwd"`` or ``"bwd"``) of block ``l``:
        the table's own Tensors, keyed as in ``ssm.scan_shapes``."""
        pre = f"blocks.{l}.{direction}."
        return {k: self.params[pre + k]
                for k in ssm.scan_shapes(self.cfg.d_model, self.cfg.d_inner,
                                         self.cfg.d_state)}

    def astype(self, dtype):
        """Inference copy whose parameters are ``dtype`` arrays, with no gradients."""
        return Model(self.cfg, {k: Tensor(t.data.astype(dtype))
                                for k, t in self.params.items()})


def param_shapes(cfg: ModelConfig):
    """``{name: shape}`` of every parameter, in ``named_params`` order: the
    shapes init_model draws and a checkpoint must hold."""
    side = ssm.scan_shapes(cfg.d_model, cfg.d_inner, cfg.d_state)
    shapes = {"patch_proj": (cfg.patch_dim, cfg.d_model),
              "pos_embed": (cfg.tokens0, cfg.d_model)}
    for l in range(cfg.depth):
        for direction in ("fwd", "bwd"):
            shapes.update({f"blocks.{l}.{direction}.{k}": v for k, v in side.items()})
    shapes["head"] = (cfg.d_model, cfg.num_classes)
    return shapes


def init_model(cfg: ModelConfig, seed=0) -> Model:
    """Draw every parameter in ``param_shapes`` order from one rng: a normal
    draw with a per-field std, except a_log (A = -[1..N] in every channel)
    and delta_bias (an initial step of 0.5), which are constants."""
    rng = np.random.default_rng(seed)
    d_model, d = cfg.d_model, cfg.d_inner
    std = {"patch_proj": cfg.patch_dim ** -0.5, "pos_embed": 0.02,
           "w_in": d_model ** -0.5, "w_gate": d_model ** -0.5, "w_b": d ** -0.5,
           "w_c": d ** -0.5, "w_delta": d ** -0.5,
           "w_out": 1.0 / np.sqrt(cfg.depth) * d ** -0.5, "head": d_model ** -0.5}
    const = {"a_log": np.log(np.arange(1, cfg.d_state + 1, dtype=np.float64)),
             "delta_bias": np.array([math.log(math.expm1(0.5))])}  # softplus^-1
    params = {}
    for name, shape in param_shapes(cfg).items():
        k = name.rsplit(".", 1)[-1]
        data = (np.broadcast_to(const[k], shape).copy() if k in const
                else rng.normal(0.0, std[k], shape))
        params[name] = Tensor(data, requires_grad=True)
    return Model(cfg, params)


def patchify(images, cfg: ModelConfig):
    """[B,H,W,Cin] ndarray -> [B, T0, patch_dim] ndarray, row-major patches."""
    images = np.asarray(images, dtype=np.float64)
    b, h, w, c = images.shape
    if h != cfg.image_size or w != cfg.image_size or c != cfg.in_channels:
        raise ModelError(f"image shape {images.shape[1:]} does not match config")
    p = cfg.patch_size
    g = h // p
    x = images.reshape(b, g, p, g, p, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b, g * g, p * p * c)


def forward(model: Model, images, rng=None):
    """Full forward pass.

    Returns (logits [B, num_classes], trace) where trace lists the token
    count entering every block. One ``reduce.reduce_tokens`` step runs
    after each site block that takes pairs, scoring tokens on the block's
    ``reduction.feature``. Training runs the pass under a ``GradTape``;
    evaluation and the benchmark run it with no tape, in the dtype of the
    model's parameters.
    """
    cfg = model.cfg
    red = cfg.reduction
    params = model.params
    patches = patchify(images, cfg).astype(params["patch_proj"].data.dtype, copy=False)
    x = tt.add(tt.matmul(Tensor(patches), params["patch_proj"]), params["pos_embed"])
    del patches
    if rng is None:  # drawn from only by the random reduction options
        rng = np.random.default_rng(0)
    trace = []
    for l in range(cfg.depth):
        t_cur = x.shape[1]
        trace.append(t_cur)
        x, inter = ssm.bidirectional_block(model.side(l, "fwd"),
                                           model.side(l, "bwd"), x)
        r_eff = rd.effective_r(t_cur, red.r, red.pair_rank) if l in red.sites else 0
        if r_eff:
            x = rd.reduce_tokens(x, inter[red.feature.value], r_eff, red, rng)[0]
        del inter  # else its features and a site's pre-merge x live into the next block
    pooled = tt.tmean(tt.layer_norm(x), axis=1)   # [B, d_model]
    logits = tt.matmul(pooled, params["head"])
    return logits, trace


def count_flops(model_cfg: ModelConfig):
    """Analytic multiply-add count for one image, under the reduction schedule.

    Uses the same nominal per-block token counts as reduction_ratio so the
    r-dependence of compute mirrors that ratio.
    """
    cfg = model_cfg
    red = cfg.reduction
    counts = rd.token_counts(cfg.tokens0, red.sites, red.r, cfg.depth,
                             red.pair_rank)[1:]
    dm, d, n = cfg.d_model, cfg.d_inner, cfg.d_state
    per_token_block = 2 * (dm * d * 2      # in + gate projections
                           + d * n * 2     # B and C projections
                           + d             # delta projection
                           + 4 * d * n     # A_bar, B_bar x and state update
                           + d * n         # readout
                           + d * dm)       # out projection
    total = float(sum(counts)) * per_token_block
    total += cfg.tokens0 * cfg.patch_dim * dm          # patch embedding
    total += dm * cfg.num_classes                      # head
    return total


# ---------------------------------------------------------------------------
# config text and the checkpoint format. The config dataclasses are the only
# list of config fields: the run config's keys and the checkpoint's config
# lines both come from their fields through config_text and config_from_text.

def config_text(cfg, prefix=""):
    """``{key: text}`` for every field of config dataclass ``cfg``, keyed
    ``<prefix><field>``; a nested config goes under ``<prefix><field>.``."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        key = prefix + f.name
        if is_dataclass(value):
            out.update(config_text(value, key + "."))
        elif isinstance(value, enum.Enum):
            out[key] = value.value
        elif isinstance(value, tuple):
            out[key] = ",".join(str(v) for v in value)
        else:
            out[key] = str(value)
    return out


def _parse(key, default, text):
    """``text`` as a value of the type of ``default`` (int, finite float, an
    Enum, or a tuple of ints); a ValueError names ``key``, and for an Enum
    the accepted values."""
    kind = type(default)
    try:
        if kind is tuple:
            return tuple(int(s) for s in text.split(",")) if text else ()
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError("not finite")
        return value
    except ValueError as e:
        if isinstance(default, enum.Enum):
            choices = ", ".join(m.value for m in kind)
            raise ValueError(f"bad value for {key}: {text!r} (one of {choices})") from e
        name = {int: "integer", float: "float",
                tuple: "integer list"}.get(kind, kind.__name__)
        raise ValueError(f"bad {name} for {key}: {text!r}") from e


def config_from_text(cls, text, prefix="", **given):
    """Config dataclass ``cls`` from ``{key: text}``, the inverse of
    ``config_text``. Fields in ``given`` are taken as they are; a nested
    config not given is read from under ``<prefix><field>.``. A missing key
    raises KeyError, a value that does not parse ValueError."""
    kwargs = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        key = prefix + f.name
        default = f.default if f.default is not MISSING else f.default_factory()
        if is_dataclass(default):
            kwargs[f.name] = config_from_text(type(default), text, key + ".")
        else:
            kwargs[f.name] = _parse(key, default, text[key])
    return cls(**kwargs)


# checkpoint: magic "MEETO1", length-prefixed config lines (config_text of
# the ModelConfig), then the named tensors

_MAGIC = b"MEETO1"


def save_checkpoint(model: Model, path):
    buf = io.BytesIO()
    buf.write(_MAGIC)
    lines = [f"{k}={v}" for k, v in config_text(model.cfg).items()]
    buf.write(struct.pack("<Q", len(lines)))
    for line in lines:
        raw = line.encode("utf-8")
        buf.write(struct.pack("<Q", len(raw)))
        buf.write(raw)
    params = model.named_params()
    buf.write(struct.pack("<Q", len(params)))
    for name, t in params:
        raw = name.encode("utf-8")
        buf.write(struct.pack("<Q", len(raw)))
        buf.write(raw)
        buf.write(struct.pack("<Q", t.data.ndim))
        for dim in t.data.shape:
            buf.write(struct.pack("<q", dim))
        buf.write(t.data.astype("<f8").tobytes(order="C"))
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_checkpoint(path) -> Model:
    """Read a checkpoint; content that does not parse raises ModelError."""
    with open(path, "rb") as f:
        data = f.read()
    view = io.BytesIO(data)
    if view.read(len(_MAGIC)) != _MAGIC:
        raise ModelError("bad checkpoint magic")

    def read(n):
        raw = view.read(n) if n <= len(data) else b""
        if len(raw) != n:
            raise ModelError("truncated checkpoint")
        return raw

    def read_u64():
        return struct.unpack("<Q", read(8))[0]

    def read_text():
        return read(read_u64()).decode("utf-8")

    try:
        lines = [read_text() for _ in range(read_u64())]
        cfg = config_from_text(ModelConfig, dict(line.split("=", 1) for line in lines))
        shapes = param_shapes(cfg)
        tensors = {}
        for _ in range(read_u64()):
            name = read_text()
            if name not in shapes:
                raise ModelError(f"unknown parameter {name} in checkpoint")
            if name in tensors:
                raise ModelError(f"repeated parameter {name} in checkpoint")
            shape = tuple(struct.unpack("<q", read(8))[0] for _ in range(read_u64()))
            if min(shape, default=0) < 0:
                raise ModelError(f"negative dimension for {name}")
            payload = read(8 * math.prod(shape))
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    except ModelError:
        raise
    except (KeyError, ValueError) as e:  # a missing key, a bad value, bad UTF-8
        raise ModelError(f"corrupt checkpoint: {e!r}") from e
    for name, shape in shapes.items():
        if name not in tensors:
            raise ModelError(f"missing parameter {name} in checkpoint")
        if tensors[name].shape != shape:
            raise ModelError(f"shape mismatch for {name}")
        if not np.all(np.isfinite(tensors[name])):
            raise ModelError(f"non-finite values in {name}")
    return Model(cfg, {k: Tensor(tensors[k], requires_grad=True, _check=False)
                       for k in shapes})
