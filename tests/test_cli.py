import ctypes
import importlib
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ssmlab
from ssmlab import cli, data as ds, model as mdl, reduce as rd
from ssmlab.bench import BenchConfig
from ssmlab.config import ConfigError, RunConfig, RunOptions
from ssmlab.data import DataConfig
from ssmlab.model import ModelConfig
from ssmlab.reduce import ReductionConfig
from ssmlab.tensor import Tensor
from ssmlab.train import TrainConfig

DATA_DIR = Path(__file__).parent / "data"

TINY = """
model.image_size=8
model.patch_size=4
model.depth=2
model.d_model=6
model.d_inner=4
model.d_state=2
model.num_classes=3
reduce.r=1
reduce.sites=1
data.classes=3
data.per_class=2
data.eval_per_class=2
train.epochs=1
train.batch_size=6
train.lr_start=1e-3
train.lr_end=1e-4
bench.r_values=0,1
bench.iters=2
bench.warmup=0
bench.batch=2
"""


def write_cfg(tmp_path, extra="", base=TINY):
    path = tmp_path / "run.cfg"
    if isinstance(extra, bytes):
        path.write_bytes(base.encode() + extra)
    else:
        path.write_text(base + extra)
    return str(path)


class TestRunConfig:
    def test_load_ignores_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\n\nreduce.r=3  # trailing\n")
        cfg = RunConfig.load(p)
        assert cfg.settings().model.reduction.r == 3

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("no.such.key=1\n")
        with pytest.raises(ConfigError):
            RunConfig.load(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("reduce.r\n")
        with pytest.raises(ConfigError):
            RunConfig.load(p)

    def test_bad_int(self):
        cfg = RunConfig()
        cfg.set("reduce.r", "many")
        with pytest.raises(ConfigError):
            cfg.settings()

    def test_dump_roundtrip(self, tmp_path):
        cfg = RunConfig()
        cfg.set("reduce.r", "7")
        p = tmp_path / "out.cfg"
        cfg.dump(p)
        again = RunConfig.load(p)
        assert again.values == cfg.values

    def test_sites_spellings(self):
        cfg = RunConfig()
        cfg.set("model.depth", "8")
        cfg.set("reduce.sites", "even")
        assert cfg.reduction_config().sites == (2, 4, 6)
        cfg.set("reduce.sites", "odd")
        assert cfg.reduction_config().sites == (1, 3, 5, 7)
        cfg.set("reduce.sites", "1,3")
        assert cfg.reduction_config().sites == (1, 3)
        cfg.set("reduce.sites", "none")
        assert cfg.reduction_config().sites == ()
        cfg.set("reduce.sites", "x,y")
        with pytest.raises(ConfigError):
            cfg.reduction_config()

    def test_bad_enum_value(self):
        cfg = RunConfig()
        cfg.set("reduce.distance", "chebyshev")
        with pytest.raises(ConfigError):
            cfg.reduction_config()

    SECTIONS = [(ModelConfig, "model."), (ReductionConfig, "reduce."),
                (TrainConfig, "train."), (DataConfig, "data."),
                (BenchConfig, "bench."), (RunOptions, "run.")]

    def test_every_config_field_has_a_key(self):
        for cls, prefix in self.SECTIONS:
            for f in fields(cls):
                if f.name != "reduction":  # the reduce.* section
                    assert prefix + f.name in RunConfig().values, (cls, f.name)

    def test_every_key_is_a_config_field(self):
        names = {prefix + f.name for cls, prefix in self.SECTIONS
                 for f in fields(cls)}
        assert set(RunConfig().values) <= names

    def test_default_dump_is_frozen(self, tmp_path):
        RunConfig().dump(tmp_path / "d.txt")
        assert ((tmp_path / "d.txt").read_bytes()
                == (DATA_DIR / "default_config.txt").read_bytes())

    def test_every_reduction_field_survives_a_checkpoint(self, tmp_path):
        cfg = RunConfig()
        for line in TINY.split():
            cfg.set(*line.split("="))
        settings = {"r": "2", "sites": "0,1", "feature": "c", "distance": "l2",
                    "merge_op": "max", "grouping": "random", "pair_rank": "2",
                    "selection": "random_r", "pairing": "random_pair",
                    "shuffle_ratio": "0.25", "mode": "prune"}
        assert sorted(settings) == sorted(f.name for f in fields(ReductionConfig))
        for name, value in settings.items():
            cfg.set("reduce." + name, value)
        model_cfg = cfg.model_config()
        for f in fields(ReductionConfig):
            assert (getattr(model_cfg.reduction, f.name)
                    != getattr(ReductionConfig(), f.name)), f.name
        path = tmp_path / "c.meeto"
        mdl.save_checkpoint(mdl.init_model(model_cfg), path)
        assert mdl.load_checkpoint(path).cfg == model_cfg

    @pytest.mark.parametrize("key, value", [
        ("reduce.r", "many"), ("reduce.distance", "chebyshev"),
        ("reduce.sites", "x,y"), ("model.d_state", "1.5"),
        ("train.lr_start", "abc"), ("data.noise_sigma", "nan"),
        ("train.weight_decay", "-inf")])
    def test_bad_value_names_its_key(self, key, value):
        cfg = RunConfig()
        cfg.set(key, value)
        with pytest.raises(ConfigError, match=re.escape(f"{key}: {value!r}")):
            cfg.settings()

    @pytest.mark.parametrize("key, value, choices", [
        ("data.source", "foo", "synth, idx"),
        ("bench.dataset", "foo", "none, eval"),
        ("reduce.distance", "chebyshev", "cosine, l1, l2")])
    def test_bad_enum_value_lists_choices(self, key, value, choices):
        cfg = RunConfig()
        cfg.set(key, value)
        with pytest.raises(ConfigError, match=re.escape(
                f"{key}: {value!r} (one of {choices})")):
            cfg.settings()


class TestThreadCap:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("MEETO_THREADS", raising=False)
        assert cli.worker_cap() == 1

    def test_explicit(self, monkeypatch):
        monkeypatch.setenv("MEETO_THREADS", "4")
        assert cli.worker_cap() == 4

    def test_bad_value_exits_config(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MEETO_THREADS", "lots")
        cfg = write_cfg(tmp_path)
        assert cli.main(["eval", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    def test_zero_rejected(self, monkeypatch):
        monkeypatch.setenv("MEETO_THREADS", "0")
        with pytest.raises(ConfigError):
            cli.worker_cap()

    def test_import_sets_unset_thread_variables(self):
        out = run_python(PRINT_THREAD_VARIABLES, MEETO_THREADS="2",
                         OPENBLAS_NUM_THREADS="3")
        assert out.split() == ["3", "2", "2"]

    @pytest.mark.parametrize("raw", ["0", "lots", "-2", ""])
    def test_import_reads_a_bad_value_as_one(self, raw):
        """OpenBLAS reads 0 as every core, so a bad value must not be copied."""
        assert run_python(PRINT_THREAD_VARIABLES, MEETO_THREADS=raw).split() == ["1"] * 3


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PRINT_THREAD_VARIABLES = (
    f"import os, ssmlab; print(*(os.environ[k] for k in {THREAD_VARIABLES}))")


def run_python(code, **env):
    """stdout of ``python -c code`` with ssmlab importable, the BLAS
    thread variables unset and ``env`` added."""
    full = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    full.update(env, PYTHONPATH=str(Path(ssmlab.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=full, check=True,
                          capture_output=True, text=True).stdout


def glibc_version():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None


COUNT_FAULTS = """
import resource
import numpy as np
import ssmlab
from ssmlab import model as mdl
from ssmlab.reduce import ReductionConfig
images = np.random.default_rng(0).random((64, 28, 28, 1))
for r in (0, 20):
    cfg = mdl.ModelConfig(reduction=ReductionConfig(r=r, sites=(2, 4, 6)))
    m = mdl.init_model(cfg, seed=0)
    for _ in range(3):
        mdl.forward(m, images)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        mdl.forward(m, images)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


class TestAllocator:
    @pytest.mark.skipif(glibc_version() is None, reason="glibc malloc only")
    def test_forward_reuses_freed_buffers(self):
        """At glibc's default thresholds a 64-image forward faults its
        buffers in again: about 7,700 minor faults at r=0, 4,700 at r=20."""
        per_forward = [float(v) for v in run_python(COUNT_FAULTS).split()]
        assert len(per_forward) == 2 and max(per_forward) < 64, per_forward

    @pytest.mark.parametrize("confstr, calls", [
        (ValueError("unrecognized configuration name"), []),
        (None, []),
        ("glibc 2.36", [(-3, 32 << 20), (-1, 256 << 20)])],
        ids=["confstr-raises", "confstr-none", "glibc"])
    def test_mallopt_only_under_glibc(self, monkeypatch, confstr, calls):
        seen = []

        def fake_confstr(name):
            if isinstance(confstr, Exception):
                raise confstr
            return confstr

        def mallopt(param, value):
            seen.append((param, value))
            return 1

        monkeypatch.setattr(os, "confstr", fake_confstr)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        importlib.reload(ssmlab)
        assert seen == calls


def idx_labels_past_num_classes(tmp_path):
    """Config lines for IDX files labelled 0..5, past TINY's 3 classes."""
    ds.write_idx(ds.Dataset(np.zeros((6, 8, 8, 1)), np.arange(6), 6),
                 tmp_path / "i.idx", tmp_path / "l.idx")
    return (f"data.source=idx\ndata.images={tmp_path}/i.idx\n"
            f"data.labels={tmp_path}/l.idx\n")


def idx_with_no_images(tmp_path):
    """Config lines for an IDX image/label pair that holds zero images."""
    ds.write_idx(ds.Dataset(np.zeros((0, 8, 8, 1)), np.zeros(0, dtype=int), 3),
                 tmp_path / "i.idx", tmp_path / "l.idx")
    return (f"data.source=idx\ndata.images={tmp_path}/i.idx\n"
            f"data.labels={tmp_path}/l.idx\n")


def tiny_model():
    cfg = RunConfig()
    for line in TINY.split():
        cfg.set(*line.split("="))
    return mdl.init_model(cfg.model_config())


def checkpoint_with_bad_utf8(tmp_path):
    """A config line pointing at a checkpoint whose config text is not UTF-8."""
    path = tmp_path / "bad.meeto"
    mdl.save_checkpoint(tiny_model(), path)
    blob = path.read_bytes()
    assert blob.count(b"image_size=8") == 1
    path.write_bytes(blob.replace(b"image_size=8", b"image_size=\xff"))
    return f"run.init_checkpoint={path}\n"


def checkpoint_with_huge_head(tmp_path):
    """A config line pointing at a finite checkpoint whose head, +-1e308,
    overflows the logits."""
    model = tiny_model()
    head = model.params["head"].data
    head[:] = np.where(np.arange(head.size).reshape(head.shape) % 2, 1e308, -1e308)
    path = tmp_path / "huge.meeto"
    mdl.save_checkpoint(model, path)
    return f"run.init_checkpoint={path}\n"


def checkpoint_with_nan(tmp_path):
    """A config line pointing at a checkpoint whose head holds a NaN."""
    model = tiny_model()
    model.params["head"].data[0, 0] = np.nan
    path = tmp_path / "nan.meeto"
    mdl.save_checkpoint(model, path)
    return f"run.init_checkpoint={path}\n"


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, extra="bogus.key=1\n")
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_is_data_error(self, tmp_path):
        rc = cli.main(["train", "--config", str(tmp_path / "absent.cfg")])
        assert rc == cli.EXIT_DATA

    def test_config_directory_is_data_error(self, tmp_path, capsys):
        rc = cli.main(["eval", "--config", str(tmp_path)])
        assert rc == cli.EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_idx_files(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, extra="data.source=idx\n"
                                        f"data.images={tmp_path}/no.idx\n"
                                        f"data.labels={tmp_path}/no.idx\n")
        rc = cli.main(["eval", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA

    def test_corrupt_idx_magic(self, tmp_path):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00" * 32)
        cfg = write_cfg(tmp_path, extra="data.source=idx\n"
                                        f"data.images={bad}\n"
                                        f"data.labels={bad}\n")
        rc = cli.main(["eval", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA

    @pytest.mark.parametrize("setting", ["train.batch_size=0", "train.epochs=-1"])
    def test_bad_train_setting_is_config_error(self, tmp_path, capsys, setting):
        cfg = write_cfg(tmp_path, extra=setting + "\n")
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert len(captured.err.strip().splitlines()) == 1
        assert "config error" in captured.err and "Traceback" not in captured.err
        assert "final accuracy" not in captured.out

    @pytest.mark.parametrize("command, extra, tokens, code", [
        ("merge-demo", "reduce.distance=cosine\n", "0 0\n0 0\n1 0\n0 1\n",
         cli.EXIT_DATA),
        ("merge-demo", "", "1 0\n", cli.EXIT_DATA),
        ("bench", "bench.r_values=0,x\n", None, cli.EXIT_CONFIG),
        ("bench", "bench.dtype=float16\n", None, cli.EXIT_CONFIG),
        ("train", idx_labels_past_num_classes, None, cli.EXIT_DATA),
        ("eval", checkpoint_with_bad_utf8, None, cli.EXIT_DATA),
        ("eval", b"run.seed=\xff\xfe\n", None, cli.EXIT_CONFIG),
        ("eval", "train.batch_size=0\n", None, cli.EXIT_CONFIG),
        ("merge-demo", "train.lr_start=abc\n", "0 1\n1 0\n1 1\n0 2\n",
         cli.EXIT_CONFIG),
        ("eval", "bench.iters=abc\n", None, cli.EXIT_CONFIG),
        ("eval", "data.per_class=-1\n", None, cli.EXIT_CONFIG),
        ("eval", "data.source=foo\n", None, cli.EXIT_CONFIG),
        ("eval", "data.noise_sigma=-1\n", None, cli.EXIT_CONFIG),
        ("bench", "bench.iters=0\n", None, cli.EXIT_CONFIG),
        ("bench", "bench.batch=0\n", None, cli.EXIT_CONFIG),
        ("bench", "bench.r_values=\n", None, cli.EXIT_CONFIG),
        ("bench", "bench.r_values=0,-3\n", None, cli.EXIT_CONFIG),
        ("bench", "bench.dataset=foo\n", None, cli.EXIT_CONFIG),
        ("bench", "bench.warmup=-1\n", None, cli.EXIT_CONFIG),
        ("merge-demo", "", b"\xff\xfe 1\n0 1\n", cli.EXIT_DATA),
        ("eval", "data.noise_sigma=nan\n", None, cli.EXIT_CONFIG),
        ("train", "train.weight_decay=nan\n", None, cli.EXIT_CONFIG),
        ("eval", lambda tmp_path: f"run.init_checkpoint={tmp_path}\n", None,
         cli.EXIT_DATA),
        ("eval", idx_with_no_images, None, cli.EXIT_DATA),
        ("merge-demo", "reduce.r=0\n", "0 1\nnan 0\n", cli.EXIT_DATA),
        ("eval", checkpoint_with_nan, None, cli.EXIT_DATA),
        ("eval", "run.seed=-1\n", None, cli.EXIT_CONFIG),
        ("train", "train.seed=-1\n", None, cli.EXIT_CONFIG),
        ("eval", "data.seed=-1\n", None, cli.EXIT_CONFIG),
        ("eval", "data.noise_sigma=inf\n", None, cli.EXIT_CONFIG),
        # each first large array is over 128 TiB, so it fails at once
        ("eval", "model.d_model=10000000000000\n", None, cli.EXIT_CONFIG),
        ("train", "model.d_model=10000000000000\n", None, cli.EXIT_CONFIG),
        ("bench", "model.d_model=10000000000000\n", None, cli.EXIT_CONFIG),
        ("eval", "data.per_class=100000000000\n", None, cli.EXIT_CONFIG),
        ("eval", "model.image_size=10000000\n", None, cli.EXIT_CONFIG),
        ("merge-demo", "", "0 1\n1 x\n", cli.EXIT_DATA),
        ("eval", checkpoint_with_huge_head, None, cli.EXIT_NUMERIC),
        ("merge-demo", "reduce.distance=l1\n", "1e308 1e308\n" * 4,
         cli.EXIT_NUMERIC),
    ], ids=["cosine-zero-vectors", "single-token", "bench-r-values",
            "bench-dtype", "label-past-num-classes", "checkpoint-not-utf8",
            "config-not-utf8", "eval-bad-train-key", "merge-demo-bad-train-key",
            "eval-bench-iters-abc", "eval-data-per-class", "eval-data-source",
            "eval-data-noise-sigma", "bench-iters-zero", "bench-batch-zero",
            "bench-r-values-empty", "bench-r-values-negative", "bench-dataset",
            "bench-warmup-negative", "merge-demo-tokens-not-utf8",
            "eval-data-noise-sigma-nan", "train-weight-decay-nan",
            "init-checkpoint-directory", "idx-no-images", "merge-demo-tokens-nan",
            "checkpoint-nan", "run-seed-negative", "train-seed-negative",
            "data-seed-negative", "eval-data-noise-sigma-inf",
            "eval-d-model-unallocatable", "train-d-model-unallocatable",
            "bench-d-model-unallocatable", "eval-per-class-unallocatable",
            "eval-image-size-unallocatable", "merge-demo-bad-token-line",
            "eval-logits-overflow", "merge-demo-merged-overflow"])
    @pytest.mark.filterwarnings("error")  # a numpy warning is a second line
    def test_bad_input_table(self, tmp_path, capsys, command, extra, tokens, code):
        if callable(extra):
            extra = extra(tmp_path)
        argv = [command, "--config", write_cfg(tmp_path, extra=extra),
                "--out", str(tmp_path / "o")]
        if tokens is not None:
            (tmp_path / "t.txt").write_bytes(
                tokens if isinstance(tokens, bytes) else tokens.encode())
            argv.append(str(tmp_path / "t.txt"))
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == code
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        assert "final accuracy" not in captured.out

    def test_bad_enum_value_lists_choices(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, extra="data.source=foo\n")
        assert cli.main(["eval", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "data.source: 'foo' (one of synth, idx)" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # an overflow warning is a failure
    def test_divergence_exits_numeric(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, extra="train.lr_start=1e12\n"
                                        "train.lr_end=1e11\n"
                                        "train.epochs=3\n")
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "numeric failure" in err


class TestTrainEval:
    def test_train_writes_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert (out / "checkpoint.bin").exists()
        assert (out / "report.csv").exists()
        assert (out / "resolved_config.txt").exists()
        assert "final accuracy" in capsys.readouterr().out
        # the resolved config reloads cleanly
        RunConfig.load(out / "resolved_config.txt")

    def test_eval_from_checkpoint(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        cfg2 = write_cfg(tmp_path,
                         extra=f"run.init_checkpoint={out}/checkpoint.bin\n")
        out2 = tmp_path / "eval"
        assert cli.main(["eval", "--config", cfg2, "--out", str(out2)]) == 0
        text = (out2 / "eval.txt").read_text()
        assert text.startswith("accuracy=")

    def test_checkpoint_arch_mismatch(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        cfg2 = write_cfg(tmp_path, base=TINY.replace("model.depth=2",
                                                     "model.depth=4"),
                         extra=f"run.init_checkpoint={out}/checkpoint.bin\n")
        rc = cli.main(["eval", "--config", cfg2, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG

    def test_checkpoint_inner_width_mismatch(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        cfg2 = write_cfg(tmp_path, base=TINY.replace("model.d_inner=4",
                                                     "model.d_inner=5"),
                         extra=f"run.init_checkpoint={out}/checkpoint.bin\n")
        capsys.readouterr()
        rc = cli.main(["eval", "--config", cfg2, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert len(err.strip().splitlines()) == 1
        assert "d_inner" in err and "Traceback" not in err

    def test_training_free_run(self, tmp_path):
        cfg = write_cfg(tmp_path, extra="train.epochs=0\n")
        out = tmp_path / "tf"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0,")


class TestBench:
    def test_writes_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "bench"
        assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bench.csv").read_text().strip().splitlines()
        assert lines[0] == ("r,ratio,imgs_per_sec,imgs_per_sec_q1,imgs_per_sec_q3,"
                            "speedup,accuracy,flops")
        assert len(lines) == 3
        assert "speedup" in capsys.readouterr().out


class TestAblate:
    def test_distance_axis(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "ab"
        rc = cli.main(["ablate", "--config", cfg, "--axis", "distance",
                       "--out", str(out)])
        assert rc == 0
        lines = (out / "ablate_distance.csv").read_text().strip().splitlines()
        assert lines[0] == "distance,training_free,retrained,delta"
        assert len(lines) == 4
        assert [l.split(",")[0] for l in lines[1:]] == ["cosine", "l1", "l2"]

    def test_interval_axis_sets_sites(self, tmp_path):
        cfg = write_cfg(tmp_path, base=TINY.replace("model.depth=2",
                                                    "model.depth=4"))
        out = tmp_path / "ab"
        rc = cli.main(["ablate", "--config", cfg, "--axis", "interval",
                       "--out", str(out)])
        assert rc == 0
        lines = (out / "ablate_interval.csv").read_text().strip().splitlines()
        assert len(lines) == 5

    def test_unknown_axis_rejected_by_parser(self, tmp_path):
        cfg = write_cfg(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["ablate", "--config", cfg, "--axis", "nonsense"])


class TestMergeDemo:
    def test_golden_output(self, tmp_path, capsys):
        out = tmp_path / "demo"
        rc = cli.main(["merge-demo", "--config", str(DATA_DIR / "demo.cfg"),
                       "--out", str(out), str(DATA_DIR / "tokens8.txt")])
        assert rc == 0
        golden = (DATA_DIR / "merge_demo_golden.txt").read_bytes()
        assert (out / "merge_demo.txt").read_bytes() == golden
        assert capsys.readouterr().out.encode() == golden

    def test_no_pairs_when_r_zero(self, tmp_path, capsys):
        cfg = tmp_path / "r0.cfg"
        cfg.write_text("reduce.r=0\n")
        out = tmp_path / "demo"
        rc = cli.main(["merge-demo", "--config", str(cfg), "--out", str(out),
                       str(DATA_DIR / "tokens8.txt")])
        assert rc == 0
        assert "no pairs" in capsys.readouterr().out

    def test_odd_token_count(self, tmp_path, capsys):
        tokens = tmp_path / "t5.txt"
        tokens.write_text("1 0\n0 1\n1 1\n-1 0.5\n0.5 -1\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("reduce.r=2\n")
        out = tmp_path / "demo"
        rc = cli.main(["merge-demo", "--config", str(cfg), "--out", str(out),
                       str(tokens)])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.startswith("tokens 5 dim 2")
        assert len([l for l in text.splitlines()
                    if l and l[0].isdigit()]) == 3  # 5 tokens - 2 pairs

    def test_traces_the_forward_step(self, tmp_path, capsys):
        # every random option and a shuffle: the trace is what reduce_tokens
        # gives for the same tokens and one rng seeded with run.seed
        cfg = tmp_path / "c.cfg"
        cfg.write_text("reduce.r=3\nreduce.grouping=random\n"
                       "reduce.selection=random_r\nreduce.pairing=random_pair\n"
                       "reduce.shuffle_ratio=0.5\nreduce.mode=prune\nrun.seed=5\n")
        rc = cli.main(["merge-demo", "--config", str(cfg), "--out",
                       str(tmp_path / "demo"), str(DATA_DIR / "tokens8.txt")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        values = cli._read_token_file(DATA_DIR / "tokens8.txt")
        red = RunConfig.load(cfg).model_config().reduction
        x, step = rd.reduce_tokens(Tensor(values[None]), values[None], 3, red,
                                   np.random.default_rng(5))
        assert step.perm is not None
        assert [l for l in lines if l.startswith("shuffle ")] == [
            "shuffle " + " ".join(str(i) for i in step.perm)]
        assert [l for l in lines if l.startswith("pair ")] == [
            f"pair {i} {j}" for i, j in step.pairs[0].tolist()]
        merged = lines[lines.index("merged") + 1:]
        assert merged == [f"{pos} " + " ".join(f"{v:.6f}" for v in row)
                          for row, pos in zip(x.data[0], step.idx[0])]

    def test_no_pairs_when_rank_passes_group_size(self, tmp_path, capsys):
        # 8 tokens give a group 2 of 4, so pair rank 5 leaves the site no pairs
        cfg = tmp_path / "c.cfg"
        cfg.write_text("reduce.r=2\nreduce.pair_rank=5\n")
        rc = cli.main(["merge-demo", "--config", str(cfg), "--out",
                       str(tmp_path / "demo"), str(DATA_DIR / "tokens8.txt")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "no pairs" in text and "dist 0 |" in text

    def test_ragged_token_file_rejected(self, tmp_path):
        tokens = tmp_path / "bad.txt"
        tokens.write_text("1 0\n0\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("reduce.r=1\n")
        rc = cli.main(["merge-demo", "--config", str(cfg),
                       "--out", str(tmp_path / "o"), str(tokens)])
        assert rc == cli.EXIT_DATA


class TestSynthCommand:
    def test_writes_loadable_idx(self, tmp_path, capsys):
        out = tmp_path / "ds"
        rc = cli.main(["synth", "--classes", "3", "--per-class", "2",
                       "--image-size", "8", "--out", str(out)])
        assert rc == 0
        back = ds.load_idx(out / "images.idx3-ubyte", out / "labels.idx1-ubyte")
        assert back.size == 6
        assert "wrote 6 images" in capsys.readouterr().out

    def test_feeds_idx_training(self, tmp_path):
        out = tmp_path / "ds"
        assert cli.main(["synth", "--classes", "3", "--per-class", "2",
                         "--image-size", "8", "--out", str(out)]) == 0
        cfg = write_cfg(tmp_path,
                        extra="data.source=idx\n"
                              f"data.images={out}/images.idx3-ubyte\n"
                              f"data.labels={out}/labels.idx1-ubyte\n")
        run = tmp_path / "run"
        assert cli.main(["train", "--config", cfg, "--out", str(run)]) == 0
        assert (run / "checkpoint.bin").exists()

    @pytest.mark.parametrize("flags, code", [
        (["--seed", "-1"], cli.EXIT_CONFIG),
        (["--noise-sigma", "-1"], cli.EXIT_CONFIG),
        (["--noise-sigma", "nan"], cli.EXIT_CONFIG),
        (["--noise-sigma", "inf"], cli.EXIT_CONFIG),
        (["--classes", "300", "--per-class", "1"], cli.EXIT_DATA),
        (["--image-size", "0"], cli.EXIT_CONFIG),
        # about 728 TiB for the first array: the allocation fails at once
        (["--image-size", "10000000"], cli.EXIT_CONFIG),
    ], ids=["seed-negative", "noise-sigma-negative", "noise-sigma-nan",
            "noise-sigma-inf", "label-past-u8", "image-size-zero",
            "image-size-unallocatable"])
    def test_bad_flag_exits_with_one_line(self, tmp_path, capsys, flags, code):
        out = tmp_path / "ds"
        rc = cli.main(["synth", "--image-size", "8", "--out", str(out), *flags])
        captured = capsys.readouterr()
        assert rc == code
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        assert "wrote" not in captured.out


class TestSeedOverride:
    def test_seed_flag_lands_in_resolved_config(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "o"
        assert cli.main(["eval", "--config", cfg, "--out", str(out),
                         "--seed", "99"]) == 0
        resolved = RunConfig.load(out / "resolved_config.txt")
        assert resolved.settings().run.seed == 99

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["eval", "--config", write_cfg(tmp_path),
                       "--out", str(tmp_path / "o"), "--seed", "-5"])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_CONFIG
        assert captured.err.strip() == "config error: run.seed must be >= 0"
