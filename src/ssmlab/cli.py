"""Command-line entry point: train / eval / bench / ablate / merge-demo / synth."""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import bench as bn
from . import data as ds
from . import model as mdl
from . import reduce as rd
from . import train as tr
from .config import ConfigError, RunConfig, RunOptions, Settings
from .tensor import Tensor, TensorError

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def worker_cap():
    """``MEETO_THREADS`` checked; importing ssmlab applies it to the BLAS pools."""
    raw = os.environ.get("MEETO_THREADS", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigError(f"MEETO_THREADS must be an integer >= 1, got {raw!r}")
    return int(raw)


def _load_datasets(data: ds.DataConfig, model_cfg: mdl.ModelConfig):
    """(train, eval) datasets; an empty dataset, or a label the model has no
    class for, is a DataError."""
    if data.source is ds.Source.SYNTH:
        train, evald = (ds.synth_dataset(n, data.classes, model_cfg.image_size,
                                         data.seed + i, data.noise_sigma)
                        for i, n in enumerate((data.per_class, data.eval_per_class)))
    else:
        train = ds.load_idx(data.images, data.labels)
        evald = (ds.load_idx(data.eval_images, data.eval_labels)
                 if data.eval_images else train)
    num_classes = model_cfg.num_classes
    for d in (train, evald):
        if d.size == 0:
            raise ds.DataError("dataset holds no images")
        if d.labels.max() >= num_classes:
            raise ds.DataError(f"label {d.labels.max()} >= model.num_classes "
                               f"{num_classes}")
    return train, evald


def _build_model(run: RunOptions, model_cfg: mdl.ModelConfig):
    if run.init_checkpoint:
        model = mdl.load_checkpoint(run.init_checkpoint)
        # weights come from the checkpoint; the reduction policy from this run
        model.cfg = replace(model.cfg, reduction=model_cfg.reduction)
        diff = [f"{f.name} {getattr(model.cfg, f.name)} != {getattr(model_cfg, f.name)}"
                for f in fields(model_cfg)
                if getattr(model.cfg, f.name) != getattr(model_cfg, f.name)]
        if diff:
            raise ConfigError("checkpoint architecture does not match config: "
                              + ", ".join(diff))
        return model
    return mdl.init_model(model_cfg, seed=run.seed)


def cmd_train(s: Settings, out):
    train_data, eval_data = _load_datasets(s.data, s.model)
    model = _build_model(s.run, s.model)
    report = tr.retrain(model, train_data, s.train, eval_data)
    mdl.save_checkpoint(model, out / "checkpoint.bin")
    report.write_csv(out / "report.csv")
    print(f"final accuracy {report.final_accuracy:.4f}")
    return 0


def cmd_eval(s: Settings, out):
    _, eval_data = _load_datasets(s.data, s.model)
    model = _build_model(s.run, s.model)
    acc = tr.evaluate(model, eval_data)
    (out / "eval.txt").write_text(f"accuracy={acc:.6f}\n")
    print(f"accuracy {acc:.4f}")
    return 0


def cmd_bench(s: Settings, out):
    cfg = s.bench
    model = _build_model(s.run, s.model)
    dataset = (_load_datasets(s.data, s.model)[1]
               if cfg.dataset is bn.BenchData.EVAL else None)
    results = bn.sweep(model, cfg.r_values, dataset=dataset, batch=cfg.batch,
                       warmup=cfg.warmup, iters=cfg.iters,
                       dtype=cfg.dtype.value, seed=s.run.seed)
    bn.write_csv(results, out / "bench.csv")
    for b in results:
        print(f"r={b.r} ratio={b.reduction_ratio:.2f} "
              f"imgs/s={b.images_per_second:.1f} "
              f"(q1-q3 {b.images_per_second_q1:.1f}-{b.images_per_second_q3:.1f}) "
              f"speedup={b.speedup:.2f}x")
    return 0


ABLATION_AXES = {
    "distance": ("reduce.distance", [m.value for m in rd.Distance]),
    "feature": ("reduce.feature", [m.value for m in rd.Feature]),
    "merge_op": ("reduce.merge_op", [m.value for m in rd.MergeOp]),
    "shuffle": ("reduce.shuffle_ratio", ["0.1", "0.3", "0.5", "0.7"]),
    "grouping": ("reduce.grouping", [m.value for m in rd.Grouping]),
    "selection": ("reduce.selection", [m.value for m in rd.Selection]),
    "pairing": ("reduce.pairing", [m.value for m in rd.Pairing]),
    "rank": ("reduce.pair_rank", ["1", "3", "5", "7", "14"]),
    "interval": ("interval", ["2", "4", "6", "8"]),
    "sites": ("reduce.sites", ["even", "odd"]),
}


def cmd_ablate(cfg: RunConfig, s: Settings, axis, out):
    key, values = ABLATION_AXES[axis]
    train_data, eval_data = _load_datasets(s.data, s.model)
    rows = []
    for value in values:
        cell = RunConfig(dict(cfg.values))
        if key == "interval":
            k = int(value)
            cell.set("reduce.sites",
                     ",".join(str(b) for b in range(k, s.model.depth, k)))
        else:
            cell.set(key, value)
        model = _build_model(s.run, cell.model_config())
        training_free = tr.evaluate(model, eval_data)
        report = tr.retrain(model, train_data, s.train, eval_data)
        retrained = report.final_accuracy
        rows.append((value, training_free, retrained))
        print(f"{axis}={value} training-free={training_free:.4f} "
              f"re-trained={retrained:.4f}")
    with open(out / f"ablate_{axis}.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([axis, "training_free", "retrained", "delta"])
        for value, tf, rt in rows:
            w.writerow([value, f"{tf:.6f}", f"{rt:.6f}", f"{rt - tf:.6f}"])
    return 0


def _read_token_file(path):
    rows = []
    for lineno, line in ds.text_lines(path, ds.DataError):
        try:
            rows.append([float(v) for v in line.split()])
        except ValueError as e:
            raise ds.DataError(f"{path}:{lineno}: bad token line") from e
        if not np.all(np.isfinite(rows[-1])):
            raise ds.DataError(f"{path}:{lineno}: non-finite token value")
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ds.DataError("token file must be a rectangular float table")
    return np.asarray(rows)


def cmd_merge_demo(s: Settings, tokens_path, out):
    """Trace the step a site runs, ``reduce.reduce_tokens``, on the tokens of
    ``tokens_path``, scored on their values, with one rng seeded by run.seed."""
    values = _read_token_file(tokens_path)
    red = s.model.reduction
    t_len, dim = values.shape
    r_eff = rd.effective_r(t_len, red.r, red.pair_rank)
    x, step = rd.reduce_tokens(Tensor(values[None]), values[None], r_eff, red,
                               np.random.default_rng(s.run.seed))
    if not np.all(np.isfinite(x.data)):
        raise TensorError("merged tokens are not finite")
    join = lambda v: " ".join(str(i) for i in v)
    lines = [f"tokens {t_len} dim {dim}"]
    if step.perm is not None:
        lines.append("shuffle " + join(step.perm))
    lines += ["group1 " + join(step.g1), "group2 " + join(step.g2)]
    lines += [f"dist {i} | " + " ".join(f"{d:.6f}" for d in row)
              for i, row in zip(step.g1, step.dists[0])]
    pairs = step.pairs[0]
    if len(pairs) == 0:
        lines.append("no pairs")
    else:
        lines.append("plan")
        lines += [f"pair {i} {j}" for i, j in pairs.tolist()]
        lines += [f"survivor {k}" for k in np.setdiff1d(np.arange(t_len), pairs)]
    lines.append("merged")
    for row, pos in zip(x.data[0], step.idx[0]):
        lines.append(f"{pos} " + " ".join(f"{v:.6f}" for v in row))
    text = "\n".join(lines) + "\n"
    (out / "merge_demo.txt").write_text(text)
    sys.stdout.write(text)
    return 0


def cmd_synth(args):
    try:
        cfg = ds.DataConfig(classes=args.classes, per_class=args.per_class,
                            seed=args.seed, noise_sigma=args.noise_sigma)
        dataset = ds.synth_dataset(cfg.per_class, cfg.classes, args.image_size,
                                   cfg.seed, cfg.noise_sigma)
    except ValueError as e:  # a DataError too: every size here is a flag
        raise ConfigError(str(e)) from e
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ds.write_idx(dataset, out / "images.idx3-ubyte", out / "labels.idx1-ubyte")
    print(f"wrote {dataset.size} images to {out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="ssmlab",
                                description="Bidirectional selective-SSM lab "
                                            "with token merging and re-training")
    sub = p.add_subparsers(dest="command", required=True)

    def add_config(sp):
        sp.add_argument("--config", required=True, help="key=value run config")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed", type=int, default=None, help="run seed override")

    add_config(sub.add_parser("train", help="(re-)train a model per config"))
    add_config(sub.add_parser("eval", help="evaluate a model per config"))
    add_config(sub.add_parser("bench", help="throughput sweep over r values"))
    ab = sub.add_parser("ablate", help="run one ablation axis")
    add_config(ab)
    ab.add_argument("--axis", required=True, choices=sorted(ABLATION_AXES))
    md = sub.add_parser("merge-demo", help="trace the reduction step a site runs")
    add_config(md)
    md.add_argument("tokens", help="text file, one token per line")
    sy = sub.add_parser("synth", help="write a synthetic IDX dataset")
    sy.add_argument("--classes", type=int, default=10)
    sy.add_argument("--per-class", type=int, default=32)
    sy.add_argument("--image-size", type=int, default=28)
    sy.add_argument("--seed", type=int, default=1234)
    sy.add_argument("--noise-sigma", type=float, default=0.1)
    sy.add_argument("--out", required=True)
    return p


@np.errstate(all="ignore")  # every non-finite result has its own check
def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        worker_cap()
        if args.command == "synth":
            return cmd_synth(args)
        cfg = RunConfig.load(args.config)
        if args.seed is not None:
            cfg.set("run.seed", str(args.seed))
        if args.out:
            cfg.set("run.out", str(args.out))
        s = cfg.settings()  # every key is checked here, whatever the command reads
        out = Path(s.run.out)
        out.mkdir(parents=True, exist_ok=True)
        cfg.dump(out / "resolved_config.txt")
        run = {"train": lambda: cmd_train(s, out), "eval": lambda: cmd_eval(s, out),
               "bench": lambda: cmd_bench(s, out),
               "ablate": lambda: cmd_ablate(cfg, s, args.axis, out),
               "merge-demo": lambda: cmd_merge_demo(s, args.tokens, out)}
        return run[args.command]()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:  # a size too large; numpy names the array
        print(f"config error: too large to allocate: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ds.DataError, OSError, mdl.ModelError, rd.ReduceError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (tr.NumericError, TensorError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
