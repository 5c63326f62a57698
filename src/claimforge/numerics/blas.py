"""The thread count of the OpenBLAS numpy loaded, read and pinned through ``ctypes``."""

import ctypes
from contextlib import ExitStack, contextmanager
from functools import cache

import numpy as np


@cache
def _openblas():
    """(getter, setter), looked up at first use on numpy's ``_multiarray_umath``,
    whose ``dlsym`` also searches the libraries it links; None under MKL or Accelerate."""
    lib = ctypes.CDLL((getattr(np, "_core", None) or np.core)._multiarray_umath.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):  # numpy 2's scipy-openblas, then older wheels
        getter, setter = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
        if getter is not None and setter is not None:  # ctypes' default int(int) fits both
            return getter, setter
    return None


def blas_threads() -> int | None:
    """The OpenBLAS thread count, or None where no OpenBLAS was found."""
    return None if _openblas() is None else _openblas()[0]()


@contextmanager
def one_blas_thread():
    """OpenBLAS on one thread while active, also as ``@one_blas_thread()``; on exit,
    also by an exception, restores only a count it changed, so nested pins are no-ops."""
    with ExitStack() as restore:
        if blas_threads() not in (None, 1):
            restore.callback(_openblas()[1], blas_threads())
            _openblas()[1](1)
        yield
