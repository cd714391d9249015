"""The binary and text parsers given arbitrary bytes: each either parses or
raises its own module's error, never anything else.

Each example writes to a fresh file name: rewriting a file that already
holds data can cost tens of milliseconds on some disks, which would dominate
the run."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmlab import data as ds
from ssmlab import model as mdl
from ssmlab.config import ConfigError, RunConfig

FUZZ = settings(max_examples=200, deadline=None)

SERIAL = itertools.count()  # a fresh name per example

TINY_MODEL = mdl.ModelConfig(image_size=8, patch_size=4, depth=2, d_model=6,
                             d_inner=4, d_state=2, num_classes=3)


def draw_bytes(data, valid, prefix):
    """Arbitrary bytes, arbitrary bytes after ``prefix``, or ``valid`` cut
    short and with a few bytes replaced."""
    kind = data.draw(st.sampled_from(["raw", "prefixed", "mangled"]))
    if kind == "raw":
        return data.draw(st.binary(max_size=300))
    if kind == "prefixed":
        return prefix + data.draw(st.binary(max_size=300))
    blob = bytearray(valid[:data.draw(st.integers(0, len(valid)))])
    for _ in range(data.draw(st.integers(0, 4)) if blob else 0):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    return bytes(blob)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_checkpoint(fuzz_dir):
    path = fuzz_dir / "valid.meeto"
    mdl.save_checkpoint(mdl.init_model(TINY_MODEL), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def valid_idx(fuzz_dir):
    rng = np.random.default_rng(0)
    dataset = ds.Dataset(rng.uniform(0, 1, (3, 4, 4, 1)), np.arange(3), 3)
    ds.write_idx(dataset, fuzz_dir / "i.idx", fuzz_dir / "l.idx")
    return (fuzz_dir / "i.idx").read_bytes(), (fuzz_dir / "l.idx").read_bytes()


@given(data=st.data())
@FUZZ
def test_checkpoint_raises_only_model_error(data, fuzz_dir, valid_checkpoint):
    path = fuzz_dir / f"fuzz{next(SERIAL)}.meeto"
    path.write_bytes(draw_bytes(data, valid_checkpoint, b"MEETO1"))
    try:
        mdl.load_checkpoint(path)
    except mdl.ModelError:
        pass


@given(data=st.data())
@FUZZ
def test_idx_raises_only_data_error(data, fuzz_dir, valid_idx):
    images, labels = valid_idx
    n = next(SERIAL)
    image_path, label_path = fuzz_dir / f"fi{n}.idx", fuzz_dir / f"fl{n}.idx"
    image_path.write_bytes(draw_bytes(data, images, images[:4]))
    label_path.write_bytes(draw_bytes(data, labels, labels[:4]))
    try:
        ds.load_idx(image_path, label_path)
    except ds.DataError:
        pass


@given(data=st.data())
@FUZZ
def test_run_config_raises_only_config_error(data, fuzz_dir):
    valid = b"model.depth=4\nreduce.r=3  # comment\n\nreduce.sites=1,3\n"
    path = fuzz_dir / f"fuzz{next(SERIAL)}.cfg"
    path.write_bytes(draw_bytes(data, valid, b"reduce.r="))
    try:
        RunConfig.load(path)
    except ConfigError:
        pass
