"""Desk-scale data supply: IDX image/label files and a deterministic
synthetic class-template dataset."""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataError(ValueError):
    pass


class Source(enum.Enum):
    SYNTH = "synth"
    IDX = "idx"


@dataclass
class DataConfig:
    """The ``data.*`` keys; with no eval IDX files, eval uses the train files."""
    source: Source = Source.SYNTH
    images: str = ""
    labels: str = ""
    eval_images: str = ""
    eval_labels: str = ""
    classes: int = 10
    per_class: int = 32
    eval_per_class: int = 16
    seed: int = 1234
    noise_sigma: float = 0.1

    def __post_init__(self):
        for name, low in (("classes", 1), ("per_class", 1), ("eval_per_class", 1),
                          ("seed", 0), ("noise_sigma", 0)):
            if not low <= getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"data.{name} must be finite and >= {low}")
        if bool(self.eval_images) != bool(self.eval_labels):
            raise ValueError("data.eval_images and data.eval_labels must be set together")


@dataclass
class Dataset:
    images: np.ndarray          # [N, H, W, 1] f64 in [0, 1]
    labels: np.ndarray          # [N] int
    num_classes: int

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataError("image/label count mismatch")
        if self.labels.size and self.labels.max() >= self.num_classes:
            raise DataError("label exceeds num_classes")

    @property
    def size(self):
        return self.images.shape[0]


def text_lines(path, error):
    """``(line number, text)`` of each line of UTF-8 file ``path`` that is not
    blank once its '#' comment is cut; a file that is not UTF-8 raises ``error``."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [line.split("#", 1)[0].strip() for line in f]
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason})") from e
    return [(n, line) for n, line in enumerate(lines, 1) if line]


def _read_idx(path, kind, magic, ndim):
    """(dims, u8 payload) of the IDX file ``path`` with ``ndim`` dimensions."""
    with open(path, "rb") as f:
        raw = f.read()
    head = 4 + 4 * ndim
    if len(raw) < head:
        raise DataError(f"truncated {kind} header")
    got, *dims = struct.unpack(f">{1 + ndim}I", raw[:head])
    if got != magic:
        raise DataError(f"bad {kind} magic 0x{got:08X}")
    size = head + math.prod(dims)
    if len(raw) != size:
        raise DataError(f"{kind} payload longer than its header says" if len(raw) > size
                        else f"truncated {kind} payload")
    return dims, np.frombuffer(raw, dtype=np.uint8, offset=head)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse big-endian IDX ubyte files (images: 3 dims, labels: 1 dim)."""
    (n, h, w), pix = _read_idx(images_path, "image", IDX_IMAGES_MAGIC, 3)
    images = pix.reshape(n, h, w, 1).astype(np.float64) / 255.0
    (nl,), labels = _read_idx(labels_path, "label", IDX_LABELS_MAGIC, 1)
    labels = labels.astype(np.int64)
    return Dataset(images, labels, num_classes=int(labels.max()) + 1 if nl else 0)


def write_idx(dataset: Dataset, images_path, labels_path):
    """Write u8 IDX files; pixels are rounded to the 1/255 grid. A label
    outside 0..255 does not fit the format and raises DataError."""
    n, h, w, _ = dataset.images.shape
    if n and not 0 <= dataset.labels.min() <= dataset.labels.max() <= 255:
        raise DataError("IDX labels must lie in 0..255")
    pix = np.clip(np.rint(dataset.images[..., 0] * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(pix.tobytes(order="C"))
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def class_templates(num_classes, image_size):
    """Oriented soft bars through the image center, one angle per class."""
    coords = np.arange(image_size, dtype=np.float64) - (image_size - 1) / 2.0
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    width = image_size / 10.0
    templates = np.empty((num_classes, image_size, image_size))
    for k in range(num_classes):
        theta = np.pi * k / num_classes
        # signed distance from the line through the origin at angle theta
        dist = np.abs(-np.sin(theta) * xx + np.cos(theta) * yy)
        templates[k] = np.exp(-(dist ** 2) / (2.0 * width ** 2))
    return templates


def synth_dataset(n_per_class, num_classes, image_size, seed,
                  noise_sigma=0.1) -> Dataset:
    """Deterministic class-conditional bar patterns plus seeded noise, in one buffer."""
    if min(n_per_class, num_classes, image_size) < 1:
        raise DataError("sizes must be >= 1")
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((num_classes, n_per_class, image_size, image_size))
    images *= noise_sigma
    images += class_templates(num_classes, image_size)[:, None]
    images = np.clip(images, 0.0, 1.0, out=images).reshape(-1, image_size, image_size, 1)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    return Dataset(images, labels, num_classes)


def subset(dataset: Dataset, fraction, seed) -> Dataset:
    """Class-stratified deterministic sample of floor(fraction * N) items."""
    if not 0 < fraction <= 1:
        raise DataError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return dataset
    n_keep = int(fraction * dataset.size)
    if n_keep == 0:
        raise DataError("fraction selects zero items")
    rng = np.random.default_rng(seed)
    by_class = [np.flatnonzero(dataset.labels == k)
                for k in range(dataset.num_classes)]
    # proportional allocation, remainders to the largest fractional shares
    shares = np.array([idx.size * fraction for idx in by_class])
    take = np.floor(shares).astype(int)
    rem = n_keep - take.sum()
    if rem > 0:
        order = np.argsort(-(shares - take), kind="stable")
        take[order[:rem]] += 1
    chosen = []
    for k, idx in enumerate(by_class):
        pick = rng.choice(idx.size, size=min(take[k], idx.size), replace=False)
        chosen.append(idx[np.sort(pick)])
    sel = np.sort(np.concatenate(chosen))
    return Dataset(dataset.images[sel], dataset.labels[sel], dataset.num_classes)
