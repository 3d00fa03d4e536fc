"""One BLAS thread for the command line and the acceptance gate.

At the dense sizes the lab solves (n up to a few hundred) a second
OpenBLAS thread costs more than it saves, and it changes the rounding of
the Schur and LU factorisations, so a run's CSV bytes would depend on
``OPENBLAS_NUM_THREADS``.  :func:`serial_blas` runs a block on one thread
in every OpenBLAS pool the process has loaded (numpy and scipy each bundle
one) and restores each pool's count on exit.  Without ``/proc`` or
OpenBLAS (MKL, Accelerate) it finds no pool and does nothing.

Nothing is cached: every call scans the loaded libraries again (under a
millisecond), so the module holds no state that a call could change.
"""

from __future__ import annotations

import contextlib
import ctypes
import os

# (get, set) symbol pairs, first match wins: scipy-openblas ILP64 and LP64
# builds, then plain OpenBLAS with and without the 64-bit suffix.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def openblas_pools() -> dict:
    """``{library basename: (get, set)}`` of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line})
    except OSError:
        return {}
    pools = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, ()
                set_.restype, set_.argtypes = None, (ctypes.c_int,)
                pools[os.path.basename(path)] = (get, set_)
                break
    return pools


def thread_counts() -> dict:
    """``{library basename: thread count}`` of each OpenBLAS pool, now."""
    return {name: get() for name, (get, _) in openblas_pools().items()}


@contextlib.contextmanager
def serial_blas():
    """Run the block on one thread per OpenBLAS pool; restore each count after."""
    saved = [(set_, get()) for get, set_ in openblas_pools().values()]
    try:
        for set_, _ in saved:
            set_(1)
        yield
    finally:
        for set_, count in saved:
            set_(count)
