"""Desk-scale lab for bidirectional selective-SSM blocks with token merging
and short re-training. ``MEETO_THREADS`` (default 1) fills each BLAS/OpenMP
thread-count variable not already set, before ssmlab first imports numpy."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, os.environ.get("MEETO_THREADS", "1"))

__version__ = "0.1.0"
