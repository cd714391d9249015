"""Desk-scale lab for bidirectional selective-SSM blocks with token merging
and short re-training. ``MEETO_THREADS`` (default 1; a value that is not an
integer >= 1 reads as 1) fills each BLAS/OpenMP thread-count variable not
already set, before ssmlab first imports numpy. Under glibc, importing ssmlab
also raises the process's malloc mmap threshold to 32 MiB and its trim
threshold to 256 MiB."""

import ctypes
import os


def thread_count():
    """``MEETO_THREADS`` (default 1) as an int; None unless an integer >= 1."""
    raw = os.environ.get("MEETO_THREADS", "1")
    return int(raw) if raw.isdecimal() and int(raw) >= 1 else None


for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(thread_count() or 1))

# At glibc's defaults a freed [B,T,*] array (up to a few MB) goes back to the
# OS, through munmap or a heap-top trim, and the next batch faults it in again.
try:
    _glibc = os.confstr("CS_GNU_LIBC_VERSION")
except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
    _glibc = None
if _glibc:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    _mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD

__version__ = "0.1.0"
