import struct

import numpy as np
import pytest

from conftest import traced_memory
from ssmlab import data as ds
from ssmlab.data import DataError, Dataset


class TestIdxFormat:
    def write_fixture(self, tmp_path, n=3, h=4, w=4):
        rng = np.random.default_rng(0)
        images = rng.uniform(0, 1, (n, h, w, 1))
        labels = rng.integers(0, 3, n)
        dataset = Dataset(images, labels, 3)
        ip = tmp_path / "images.idx3-ubyte"
        lp = tmp_path / "labels.idx1-ubyte"
        ds.write_idx(dataset, ip, lp)
        return dataset, ip, lp

    def test_roundtrip_on_pixel_grid(self, tmp_path):
        dataset, ip, lp = self.write_fixture(tmp_path)
        back = ds.load_idx(ip, lp)
        assert back.size == dataset.size
        assert np.array_equal(back.labels, dataset.labels)
        # pixels survive up to u8 quantization
        assert np.abs(back.images - dataset.images).max() <= 0.5 / 255 + 1e-12
        # a second roundtrip is exact: values already sit on the grid
        ds.write_idx(back, ip, lp)
        again = ds.load_idx(ip, lp)
        assert np.array_equal(again.images, back.images)

    @pytest.mark.parametrize("labels", [[0, 256], [-1, 0]])
    def test_label_outside_u8_rejected(self, tmp_path, labels):
        dataset = Dataset(np.zeros((2, 4, 4, 1)), np.array(labels), 257)
        ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
        with pytest.raises(DataError, match="0..255"):
            ds.write_idx(dataset, ip, lp)
        assert not ip.exists() and not lp.exists()

    def test_header_layout(self, tmp_path):
        _, ip, lp = self.write_fixture(tmp_path, n=3, h=4, w=5)
        raw = ip.read_bytes()
        assert struct.unpack(">IIII", raw[:16]) == (0x00000803, 3, 4, 5)
        assert len(raw) == 16 + 3 * 4 * 5
        raw = lp.read_bytes()
        assert struct.unpack(">II", raw[:8]) == (0x00000801, 3)

    def test_bad_image_magic(self, tmp_path):
        _, ip, lp = self.write_fixture(tmp_path)
        raw = bytearray(ip.read_bytes())
        raw[3] = 0x42
        ip.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            ds.load_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        _, ip, lp = self.write_fixture(tmp_path)
        raw = bytearray(lp.read_bytes())
        raw[3] = 0x42
        lp.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            ds.load_idx(ip, lp)

    def test_truncated_payload(self, tmp_path):
        _, ip, lp = self.write_fixture(tmp_path)
        raw = ip.read_bytes()
        ip.write_bytes(raw[:-1])
        with pytest.raises(DataError):
            ds.load_idx(ip, lp)

    def test_truncated_label_payload(self, tmp_path):
        _, ip, lp = self.write_fixture(tmp_path)
        lp.write_bytes(lp.read_bytes()[:-1])
        with pytest.raises(DataError, match="truncated label payload"):
            ds.load_idx(ip, lp)

    def test_truncated_header(self, tmp_path):
        _, ip, lp = self.write_fixture(tmp_path)
        ip.write_bytes(b"\x00\x00")
        with pytest.raises(DataError):
            ds.load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        _, ip, lp = self.write_fixture(tmp_path)
        raw = bytearray(lp.read_bytes())
        raw[4:8] = struct.pack(">I", 2)
        lp.write_bytes(bytes(raw[:8 + 2]))
        with pytest.raises(DataError):
            ds.load_idx(ip, lp)

    @pytest.mark.parametrize("which, corrupt, message", [
        ("images", lambda raw: raw[:15], "truncated image header"),
        ("images", lambda raw: b"\x00\x00\x08\x01" + raw[4:], "bad image magic 0x00000801"),
        ("images", lambda raw: raw[:-1], "truncated image payload"),
        ("images", lambda raw: raw + b"\x00", "image payload longer than its header says"),
        ("labels", lambda raw: raw[:7], "truncated label header"),
        ("labels", lambda raw: b"\x00\x00\x08\x03" + raw[4:], "bad label magic 0x00000803"),
        ("labels", lambda raw: raw[:-1], "truncated label payload"),
        ("labels", lambda raw: raw + b"\x00", "label payload longer than its header says"),
    ], ids=["image-header", "image-magic", "image-short", "image-long",
            "label-header", "label-magic", "label-short", "label-long"])
    def test_each_corruption_has_its_message(self, tmp_path, which, corrupt, message):
        """Each file's length, magic and payload size are checked; a payload
        longer than its header says is rejected as well as a shorter one."""
        _, ip, lp = self.write_fixture(tmp_path)
        path = ip if which == "images" else lp
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(DataError) as e:
            ds.load_idx(ip, lp)
        assert str(e.value) == message


class TestSynth:
    def test_deterministic_by_seed(self):
        a = ds.synth_dataset(3, 4, 12, seed=9)
        b = ds.synth_dataset(3, 4, 12, seed=9)
        c = ds.synth_dataset(3, 4, 12, seed=10)
        assert np.array_equal(a.images, b.images)
        assert not np.array_equal(a.images, c.images)

    def test_zero_noise_equals_templates(self):
        d = ds.synth_dataset(2, 5, 16, seed=0, noise_sigma=0.0)
        templates = np.clip(ds.class_templates(5, 16), 0.0, 1.0)
        for i in range(d.size):
            assert np.array_equal(d.images[i, :, :, 0], templates[d.labels[i]])

    @pytest.mark.parametrize("sigma", [0.0, 0.1, 2.5])
    def test_matches_per_image_draws(self, sigma):
        d = ds.synth_dataset(3, 4, 9, seed=5, noise_sigma=sigma)
        rng = np.random.default_rng(5)
        templates = ds.class_templates(4, 9)
        for i in range(d.size):
            k = i // 3
            want = np.clip(templates[k] + rng.normal(0.0, sigma, (9, 9)), 0.0, 1.0)
            assert d.labels[i] == k
            assert np.array_equal(d.images[i, :, :, 0], want)

    @pytest.mark.parametrize("n, classes, size, seed, sigma", [
        (3, 4, 9, 5, 2.5), (64, 10, 28, 7, 0.1), (2, 5, 16, 0, 0.0)])
    def test_matches_repeated_template_draw(self, n, classes, size, seed, sigma):
        # the reference: one normal draw about the class-major repeated templates
        rng = np.random.default_rng(seed)
        templates = np.repeat(ds.class_templates(classes, size), n, axis=0)
        want = np.clip(rng.normal(templates, sigma), 0.0, 1.0)[..., None]
        got = ds.synth_dataset(n, classes, size, seed, sigma).images
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_draws_into_one_image_buffer(self):
        with traced_memory() as mem:
            d = ds.synth_dataset(64, 10, 28, seed=3)
        assert d.size == 640 and mem.peak <= 1.5 * d.images.nbytes

    def test_pixel_range_and_balance(self):
        d = ds.synth_dataset(4, 3, 10, seed=1)
        assert d.images.min() >= 0.0 and d.images.max() <= 1.0
        counts = np.bincount(d.labels, minlength=3)
        assert list(counts) == [4, 4, 4]

    def test_classes_separable_by_nearest_template(self):
        d = ds.synth_dataset(8, 10, 28, seed=2, noise_sigma=0.1)
        templates = ds.class_templates(10, 28)
        flat_t = templates.reshape(10, -1)
        flat_x = d.images[..., 0].reshape(d.size, -1)
        pred = np.argmin(
            ((flat_x[:, None, :] - flat_t[None]) ** 2).sum(-1), axis=1)
        assert (pred == d.labels).mean() >= 0.95

    def test_bad_sizes(self):
        with pytest.raises(DataError):
            ds.synth_dataset(0, 3, 8, seed=0)


class TestSubset:
    def test_stratified_counts(self):
        d = ds.synth_dataset(8, 4, 8, seed=0)
        s = ds.subset(d, 0.5, seed=1)
        assert s.size == 16
        assert list(np.bincount(s.labels, minlength=4)) == [4, 4, 4, 4]

    def test_uneven_fraction_total(self):
        d = ds.synth_dataset(5, 3, 8, seed=0)  # 15 items
        s = ds.subset(d, 0.4, seed=1)
        assert s.size == 6
        counts = np.bincount(s.labels, minlength=3)
        assert counts.sum() == 6 and counts.max() - counts.min() <= 1

    def test_remainders_go_to_the_lowest_tied_class(self):
        d = ds.synth_dataset(5, 3, 8, seed=0)  # 15 items, each share 2.5
        s = ds.subset(d, 0.5, seed=1)
        assert s.size == 7
        assert list(np.bincount(s.labels, minlength=3)) == [3, 2, 2]

    def test_deterministic(self):
        d = ds.synth_dataset(8, 4, 8, seed=0)
        a = ds.subset(d, 0.25, seed=7)
        b = ds.subset(d, 0.25, seed=7)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_full_fraction_is_identity(self):
        d = ds.synth_dataset(2, 3, 8, seed=0)
        assert ds.subset(d, 1.0, seed=0) is d

    def test_zero_selection_rejected(self):
        d = ds.synth_dataset(1, 3, 8, seed=0)
        with pytest.raises(DataError):
            ds.subset(d, 0.1, seed=0)

    def test_bad_fraction(self):
        d = ds.synth_dataset(1, 3, 8, seed=0)
        with pytest.raises(DataError):
            ds.subset(d, 1.5, seed=0)


class TestDatasetValidation:
    def test_count_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 4, 4, 1)), np.zeros(3, dtype=int), 3)

    def test_label_exceeds_classes(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 4, 4, 1)), np.array([0, 5]), 3)
