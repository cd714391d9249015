import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference_grad
from ssmlab import model as mdl, reduce as rd, ssm, tensor as tt
from ssmlab.model import Model, ModelConfig, ModelError
from ssmlab.reduce import MergeOp, Mode, ReductionConfig
from ssmlab.tensor import GradTape, Tensor


def small_cfg(**red_kwargs):
    red = ReductionConfig(**red_kwargs) if red_kwargs else ReductionConfig()
    return ModelConfig(image_size=8, patch_size=4, in_channels=1, depth=3,
                       d_model=6, d_inner=4, d_state=2, num_classes=3,
                       reduction=red)


def small_images(n=2, seed=0, size=8):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, size, size, 1))


class TestConfig:
    def test_token_and_patch_dims(self):
        cfg = ModelConfig()
        assert cfg.tokens0 == 49 and cfg.patch_dim == 16

    def test_default_sites(self):
        assert mdl.default_sites(8) == (2, 4, 6)
        assert mdl.default_sites(3) == (2,)
        assert mdl.default_sites(2) == ()

    def test_indivisible_patch(self):
        with pytest.raises(ModelError):
            ModelConfig(image_size=28, patch_size=5)

    def test_site_out_of_range(self):
        with pytest.raises(ModelError):
            ModelConfig(depth=4, reduction=ReductionConfig(sites=(4,)))

    def test_bad_width(self):
        with pytest.raises(ModelError):
            ModelConfig(d_model=0)
        with pytest.raises(ModelError):
            ModelConfig(patch_size=0)


class TestPatchify:
    def test_reconstructs_blocks(self):
        cfg = ModelConfig(image_size=4, patch_size=2, depth=2,
                          d_model=4, d_inner=2, d_state=2, num_classes=2)
        img = np.arange(16.0).reshape(1, 4, 4, 1)
        p = mdl.patchify(img, cfg)
        assert p.shape == (1, 4, 4)
        # top-left patch is rows 0-1, cols 0-1 in row-major order
        assert list(p[0, 0]) == [0.0, 1.0, 4.0, 5.0]
        assert list(p[0, 3]) == [10.0, 11.0, 14.0, 15.0]

    def test_wrong_shape(self):
        with pytest.raises(ModelError):
            mdl.patchify(np.zeros((1, 5, 5, 1)), small_cfg())


class TestInit:
    def test_deterministic_by_seed(self):
        a = mdl.init_model(small_cfg(), seed=7)
        b = mdl.init_model(small_cfg(), seed=7)
        for (na, ta), (nb, tb) in zip(a.named_params(), b.named_params()):
            assert na == nb and np.array_equal(ta.data, tb.data)

    def test_param_count_matches_shapes(self):
        cfg = small_cfg()
        m = mdl.init_model(cfg, seed=0)
        assert ({k: t.shape for k, t in m.named_params()}
                == mdl.param_shapes(cfg))
        assert sum(t.size for _, t in m.named_params()) > 0

    def test_default_checkpoint_bytes_are_frozen(self, tmp_path):
        path = tmp_path / "m.meeto"
        mdl.save_checkpoint(mdl.init_model(ModelConfig(), seed=0), path)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == "c5ab1048eae2865724a00e0577ed31d777cc1c23c26f2859c2315d65db7cd2d6")

    def test_no_two_params_share_memory(self, tmp_path):
        # AdamW updates each array in place, so a shared buffer (say one
        # a_log for both directions) would couple parameters
        m = mdl.init_model(small_cfg(), seed=0)
        path = tmp_path / "m.meeto"
        mdl.save_checkpoint(m, path)
        for model in (m, mdl.load_checkpoint(path), m.astype(np.float32)):
            arrays = [t.data for _, t in model.named_params()]
            for i, a in enumerate(arrays):
                assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    def test_block_views_hold_the_table_tensors(self):
        cfg = small_cfg()
        m = mdl.init_model(cfg, seed=0)
        for l in range(cfg.depth):
            for side in ("fwd", "bwd"):
                view = m.side(l, side)
                assert list(view) == list(ssm.scan_shapes(cfg.d_model, cfg.d_inner,
                                                          cfg.d_state))
                for k, t in view.items():
                    assert t is m.params[f"blocks.{l}.{side}.{k}"]


class TestForward:
    def test_baseline_trace_constant(self):
        m = mdl.init_model(small_cfg(), seed=0)
        logits, trace = mdl.forward(m, small_images())
        assert logits.shape == (2, 3)
        assert trace == [4, 4, 4]

    def test_trace_matches_schedule(self):
        cfg = ModelConfig(image_size=16, patch_size=4, depth=4, d_model=6,
                          d_inner=4, d_state=2, num_classes=3,
                          reduction=ReductionConfig(r=3, sites=(2,)))
        m = mdl.init_model(cfg, seed=0)
        _, trace = mdl.forward(m, small_images(1, size=16))
        assert trace == [16, 16, 16, 13]
        assert trace == rd.token_counts(16, (2,), 3, 4)[:-1]

    @given(st.integers(2, 7), st.integers(1, 30), st.integers(1, 14),
           st.sampled_from(list(rd.Grouping)), st.sampled_from(list(rd.Selection)),
           st.sampled_from(list(rd.Pairing)), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_row_runs_the_schedule(self, side, r, pair_rank, grouping,
                                         selection, pairing, seed):
        # T = side**2 tokens; every row must pick the scheduled count at
        # each site, whatever pair_rank does to its open partners
        cfg = ModelConfig(image_size=side, patch_size=1, depth=4, d_model=4,
                          d_inner=3, d_state=2, num_classes=2,
                          reduction=ReductionConfig(
                              r=r, sites=(0, 1, 2), pair_rank=pair_rank,
                              grouping=grouping, selection=selection,
                              pairing=pairing))
        m = mdl.init_model(cfg, seed=seed % 7)
        _, trace = mdl.forward(m, small_images(4, seed=seed, size=side),
                               rng=np.random.default_rng(seed))
        assert trace == rd.token_counts(side * side, (0, 1, 2), r, 4,
                                        pair_rank)[:-1]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_empty_batch_runs_the_schedule(self, mode):
        cfg = ModelConfig(image_size=16, patch_size=4, depth=4, d_model=6,
                          d_inner=4, d_state=2, num_classes=3,
                          reduction=ReductionConfig(r=5, sites=(1, 2), mode=mode))
        logits, trace = mdl.forward(mdl.init_model(cfg, seed=0),
                                    np.zeros((0, 16, 16, 1)))
        assert logits.shape == (0, 3)
        assert trace == rd.token_counts(16, (1, 2), 5, 4)[:-1] == [16, 16, 11, 6]

    def test_r_zero_identical_to_no_sites(self):
        m0 = mdl.init_model(small_cfg(r=0, sites=(1,)), seed=3)
        m1 = mdl.init_model(small_cfg(), seed=3)
        imgs = small_images()
        l0, _ = mdl.forward(m0, imgs)
        l1, _ = mdl.forward(m1, imgs)
        assert np.array_equal(l0.data, l1.data)

    def test_merge_changes_logits(self):
        imgs = small_images()
        m0 = mdl.init_model(small_cfg(), seed=3)
        m1 = mdl.init_model(small_cfg(r=1, sites=(1,)), seed=3)
        l0, _ = mdl.forward(m0, imgs)
        l1, trace = mdl.forward(m1, imgs)
        assert trace == [4, 4, 3]
        assert not np.allclose(l0.data, l1.data)

    @pytest.mark.parametrize("mode", [Mode.MERGE, Mode.PRUNE])
    @pytest.mark.parametrize("op", list(MergeOp))
    def test_matches_tapefree_path(self, mode, op):
        cfg = small_cfg(r=1, sites=(1, 2), merge_op=op, mode=mode)
        m = mdl.init_model(cfg, seed=5)
        imgs = small_images(3, seed=9)
        with GradTape() as tape:
            taped, trace_a = mdl.forward(m, imgs)
        plain, trace_b = mdl.forward(m, imgs)
        assert tape.entries and not plain.requires_grad
        assert trace_a == trace_b
        assert np.array_equal(taped.data, plain.data)

    def test_matches_tapefree_with_shuffle_and_random_grouping(self):
        cfg = small_cfg(r=1, sites=(1,), shuffle_ratio=0.5,
                        grouping=rd.Grouping.RANDOM)
        m = mdl.init_model(cfg, seed=5)
        imgs = small_images(2, seed=11)
        with GradTape() as tape:
            taped, trace_a = mdl.forward(m, imgs, rng=np.random.default_rng(42))
        plain, trace_b = mdl.forward(m, imgs, rng=np.random.default_rng(42))
        assert tape.entries and trace_a == trace_b
        assert np.array_equal(taped.data, plain.data)

    def test_float32_copy_runs_in_float32(self):
        cfg = small_cfg(r=1, sites=(1, 2))
        m = mdl.init_model(cfg, seed=5)
        imgs = small_images(3, seed=9)
        ref, trace64 = mdl.forward(m, imgs)
        got, trace32 = mdl.forward(m.astype(np.float32), imgs.astype(np.float32))
        assert got.data.dtype == np.float32
        assert trace32 == trace64
        assert np.abs(got.data - ref.data).max() < 1e-4

    def test_wrong_image_shape(self):
        m = mdl.init_model(small_cfg(), seed=0)
        with pytest.raises(ModelError):
            mdl.forward(m, np.zeros((1, 7, 7, 1)))


class TestDeltaFeature:
    """The delta feature is the block's one step per token, [B, T, 1]."""

    @staticmethod
    def block_step(distance, mode=Mode.MERGE):
        m = mdl.init_model(small_cfg(), seed=0)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 9, 6)))
        _, inter = ssm.bidirectional_block(m.side(0, "fwd"), m.side(0, "bwd"), x)
        delta = inter["delta"]
        cfg = ReductionConfig(feature=rd.Feature.DELTA, distance=distance, mode=mode)
        _, step = rd.reduce_tokens(x, delta, 3, cfg, np.random.default_rng(0))
        return delta, step

    @pytest.mark.parametrize("mode", list(Mode))
    def test_cosine_ties_every_pair(self, mode):
        # one positive number per token points one way: every distance is 0,
        # so group-1 token k pairs with group-2 token k
        delta, step = self.block_step(rd.Distance.COSINE, mode)
        assert delta.shape == (2, 9, 1)
        assert np.all(step.dists == 0.0)
        assert step.pairs.tolist() == [[[0, 1], [2, 3], [4, 5]]] * 2

    def test_l1_is_the_step_difference(self):
        delta, step = self.block_step(rd.Distance.L1)
        d = delta[..., 0]
        assert np.array_equal(step.dists,
                              np.abs(d[:, step.g1, None] - d[:, None, step.g2]))


class TestGradients:
    def _loss(self, m, imgs, w):
        logits, _ = mdl.forward(m, imgs)
        return tt.tsum(tt.mul(logits, Tensor(w)))

    @pytest.mark.parametrize("op", list(MergeOp))
    def test_flow_through_merge(self, op):
        m = mdl.init_model(small_cfg(r=1, sites=(1,), merge_op=op), seed=2)
        imgs = small_images()
        w = np.random.default_rng(0).uniform(-1, 1, (2, 3))
        with GradTape() as tape:
            tape.backward(self._loss(m, imgs, w))
        for name, p in m.named_params():
            assert p.grad is not None, name
            assert np.all(np.isfinite(p.grad.data)), name
        assert np.abs(m.params["patch_proj"].grad.data).max() > 0

    # the site sees 4 tokens: a ratio of 1 shuffles them to [0, 2, 1, 3],
    # where 0.5 would interleave 2 slots, which leaves them as they are
    @pytest.mark.parametrize("shuffle_ratio, mode", [
        (0.0, Mode.MERGE), (1.0, Mode.MERGE), (1.0, Mode.PRUNE)],
        ids=["merge", "shuffle-merge", "shuffle-prune"])
    def test_head_and_patch_proj_match_finite_differences(self, shuffle_ratio, mode):
        m = mdl.init_model(small_cfg(r=1, sites=(1,), shuffle_ratio=shuffle_ratio,
                                     mode=mode), seed=2)
        imgs = small_images()
        w = np.random.default_rng(1).uniform(-1, 1, (2, 3))
        with GradTape() as tape:
            tape.backward(self._loss(m, imgs, w))
        for p in (m.params["head"], m.params["patch_proj"]):
            got = p.grad.data

            def f(arr, p=p):
                old = p.data
                p.data = arr
                logits, _ = mdl.forward(m, imgs)
                p.data = old
                return float((logits.data * w).sum())

            fd = finite_difference_grad(f, p.data.copy())
            denom = max(np.abs(fd).max(), 1e-10)
            assert np.abs(fd - got).max() / denom < 1e-5


class TestFlops:
    def test_monotone_decreasing_in_r(self):
        vals = [mdl.count_flops(ModelConfig(
            reduction=ReductionConfig(r=r, sites=mdl.default_sites(8))))
            for r in (0, 5, 11, 20)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_difference_tracks_token_counts(self):
        sites = mdl.default_sites(8)
        cfgs = {r: ModelConfig(reduction=ReductionConfig(r=r, sites=sites))
                for r in (0, 5, 11)}
        f = {r: mdl.count_flops(c) for r, c in cfgs.items()}
        s = {r: sum(rd.token_counts(49, sites, r, 8)[1:])
             for r in (0, 5, 11)}
        got = (f[0] - f[5]) / (f[0] - f[11])
        want = (s[0] - s[5]) / (s[0] - s[11])
        assert got == pytest.approx(want, rel=1e-12)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = small_cfg(r=2, sites=(1,), merge_op=MergeOp.MEAN,
                        distance=rd.Distance.L1)
        m = mdl.init_model(cfg, seed=4)
        path = tmp_path / "m.bin"
        mdl.save_checkpoint(m, path)
        again = mdl.load_checkpoint(path)
        assert again.cfg == m.cfg
        for (na, ta), (nb, tb) in zip(m.named_params(), again.named_params()):
            assert na == nb and np.array_equal(ta.data, tb.data)
        imgs = small_images()
        l0, _ = mdl.forward(m, imgs)
        l1, _ = mdl.forward(again, imgs)
        assert np.array_equal(l0.data, l1.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTME1" + b"\x00" * 64)
        with pytest.raises(ModelError):
            mdl.load_checkpoint(path)

    def test_truncated(self, tmp_path):
        m = mdl.init_model(small_cfg(), seed=0)
        path = tmp_path / "m.bin"
        mdl.save_checkpoint(m, path)
        blob = path.read_bytes()
        short = tmp_path / "short.bin"
        short.write_bytes(blob[: len(blob) - 37])
        with pytest.raises(ModelError):
            mdl.load_checkpoint(short)

    def test_non_finite_tensor_named(self, tmp_path):
        m = mdl.init_model(small_cfg(), seed=0)
        m.params["head"].data[0, 0] = np.nan
        path = tmp_path / "nan.bin"
        mdl.save_checkpoint(m, path)
        with pytest.raises(ModelError, match="head"):
            mdl.load_checkpoint(path)

    @pytest.mark.parametrize("edit, blob_edit, message", [
        (lambda p: {**p, "blocks.7.fwd.w_in": Tensor(np.zeros((6, 4)))},
         lambda b: b, "unknown parameter blocks.7.fwd.w_in"),
        (lambda p: {**p, "patch_prox": Tensor(np.zeros((16, 6)))},
         lambda b: b.replace(b"patch_prox", b"patch_proj"),
         "repeated parameter patch_proj"),
        (lambda p: p, lambda b: b.replace(b"head" + struct.pack("<Qqq", 2, 6, 3),
                                          b"head" + struct.pack("<Qqq", 2, -6, 3)),
         "negative dimension for head"),
        (lambda p: {k: t for k, t in p.items() if k != "head"}, lambda b: b,
         "missing parameter head"),
        (lambda p: {**p, "head": Tensor(np.zeros((6, 4)))}, lambda b: b,
         "shape mismatch for head"),
    ], ids=["unknown-name", "repeated-name", "negative-dimension",
            "missing-parameter", "shape-mismatch"])
    def test_table_must_be_param_shapes(self, tmp_path, edit, blob_edit, message):
        # save the model with its table edited, then edit the file's bytes
        m = mdl.init_model(small_cfg(), seed=0)
        path = tmp_path / "t.bin"
        mdl.save_checkpoint(Model(m.cfg, edit(dict(m.params))), path)
        path.write_bytes(blob_edit(path.read_bytes()))
        with pytest.raises(ModelError, match=message):
            mdl.load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            mdl.load_checkpoint(tmp_path / "nope.bin")
