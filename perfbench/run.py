"""perfbench: throughput, latency, memory, set-up time and accuracy of ssmlab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload infer-merge --seed 3 --seconds 30 --trace 0

Each run measures one workload (see perfbench/README.md) in a fresh worker
process, with the BLAS and OpenMP thread pools capped before numpy is
imported and the checkout's ``src/`` first on PYTHONPATH. With ``--trace 0``
the last line of standard output is a JSON object holding every end-to-end
metric; with ``--trace 1`` the wrappers of perfbench/tracer.py are installed
and it holds the per-layer metrics instead. Full results, the environment
record and a traced run's spans go to ``.perfbench_out/``.

The run exits non-zero, printing no result, when the checkout holds no
ssmlab sources, the committed checkpoint does not match its hash, or a
worker fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("infer-dense", "infer-merge", "retrain-merge")

# One BLAS thread: the matrices are small (at most [64*49, 64] x [64, 32]),
# and the machine's cores are shared with other jobs. ssmlab's CLI validates
# MEETO_THREADS but never applies it, so the launcher sets these itself.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

SETUP_RUNS = 3      # worker processes whose set-up is timed; setup_s is the median
RUN_LIMIT_S = 170   # every worker of one run together

END_TO_END = (
    ("throughput_img_s", "img/s"),
    ("batch_ms_p50", "ms"),
    ("batch_ms_p80", "ms"),
    ("peak_rss_mb", "MB"),
    ("eval_accuracy", "ratio"),
    ("cross_entropy", "nats"),
    ("setup_s", "s"),
)


class WorkerError(RuntimeError):
    pass


def git_commit(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def call_worker(argv, env, deadline):
    """Run worker.py to completion and return its JSON result."""
    env = dict(env, PERFBENCH_T0=repr(time.perf_counter()))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description="ssmlab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ssmlab", "__init__.py")):
        print("perfbench: no ssmlab sources under ./src; run from a checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    caps = {var: str(BLAS_THREADS) for var in THREAD_VARS}
    env = dict(os.environ, PYTHONPATH=src, **caps)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{a.workload}-s{a.seed}-t{a.trace}")
    worker_args = ["--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", str(a.trace)]

    try:
        setups = [] if a.trace else [
            call_worker(worker_args + ["--setup-only"], env, deadline)
            for _ in range(SETUP_RUNS - 1)]
        result = call_worker(worker_args + (["--spans", stem + ".spans.jsonl"]
                                            if a.trace else []), env, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if a.trace:
        units = [(name, unit) for name, unit, _ in tracer.PER_LAYER]
    else:
        setups.append({"setup_s": result["setup_s"],
                       "raw_setup_s": result["info"]["raw_setup_s"]})
        result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        result["info"]["setup_runs"] = setups
        units = END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units}
    env_record = dict(result.pop("env"), workload=a.workload, seed=a.seed,
                      seconds=a.seconds, trace=a.trace,
                      launcher_python=platform.python_version(),
                      git_commit=git_commit(root), thread_caps=caps,
                      note="ssmlab's CLI validates MEETO_THREADS but never "
                           "applies it; the launcher sets the thread caps")
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    with open(stem + ".json", "w") as f:
        json.dump({"result": line, "info": result["info"], "env": env_record},
                  f, indent=1)
    print("perfbench env " + json.dumps(env_record))
    print("perfbench info " + json.dumps(
        {k: v for k, v in result["info"].items() if k not in ("op_ms", "probe_ms")}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
