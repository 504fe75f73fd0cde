"""The BLAS thread count of numpy's bundled OpenBLAS, read and set at run time.

numpy's wheels load OpenBLAS from ``numpy.libs/libscipy_openblas64_-*.so``,
which exports ``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_``. ``threads`` and ``limit`` call them
through ``ctypes``. Where the library or a symbol is missing (another numpy
build), ``threads`` reads the count as OpenBLAS reads it at load and ``limit``
does nothing, so forked processes keep their parent's count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np


def cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def env_threads(cpus: int) -> int:
    """BLAS threads per process, read the way OpenBLAS reads them at load:
    ``OPENBLAS_NUM_THREADS``, then ``OMP_NUM_THREADS``, at most ``cpus``;
    ``cpus`` when neither is a positive integer."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return min(threads, cpus)
    return cpus


@functools.cache
def _openblas():
    """The get and set functions of numpy's bundled OpenBLAS, or None where
    the library or a symbol is missing."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if len(libs) != 1:
        return None
    try:
        lib = ctypes.CDLL(libs[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


def settable() -> bool:
    """Whether ``limit`` can change the thread count."""
    return _openblas() is not None


def threads() -> int:
    """The BLAS threads of this process: OpenBLAS's current count, or the
    ``env_threads`` rule where it cannot be read."""
    lib = _openblas()
    return lib[0]() if lib is not None else env_threads(cpus())


def share(k: int) -> int:
    """The BLAS threads each of ``k`` busy processes gets: ``threads()``, at
    most the CPUs over ``k`` (at least 1) where ``limit`` can set the count, so
    a count the user lowered is never raised; ``threads()`` where it cannot."""
    count = threads()
    return min(count, max(1, cpus() // k)) if settable() else count


@contextlib.contextmanager
def limit(k: int):
    """Runs the body at ``k`` BLAS threads and restores the previous count
    however the body exits; does nothing where the count cannot be set."""
    lib = _openblas()
    if lib is None:
        yield
        return
    get, set_ = lib
    before = get()
    set_(k)
    try:
        yield
    finally:
        set_(before)
