"""BLAS thread count of numpy's bundled OpenBLAS.

Every CLI command and the benchmark sweep run BLAS on one thread
(:func:`_one_blas_thread`). The module needs numpy and the standard library
alone, so a command loads it without loading the modules it does not run.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager

import numpy as np


# numpy's wheels bundle OpenBLAS under these names (64- and 32-bit integer builds)
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_calls():
    """The (get, set) thread-count calls of the OpenBLAS in numpy's wheel, or None.

    numpy has no call for the BLAS thread count, so it is reached through
    that library; with any other BLAS there is none.
    """
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, "..", "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                return getattr(lib, get_name), getattr(lib, set_name)
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with BLAS on one thread, where its thread count can be set.

    Every CLI command runs inside it. The fits' matrices are small, so a
    second BLAS thread costs far more CPU than it saves in wall time, and a
    benchmark row's seconds are the CPU time of the thread that ran the fit,
    which counts its wait for BLAS workers but not their work: with four
    fits at a time on two cores and two BLAS threads, spectral fits at 8192
    read 0.03-0.06 s against 0.02-0.025 s on one.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get_threads, set_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
