"""numpy's bundled OpenBLAS, reached by ctypes: LAPACK's dsterf, and a
switch that runs a call on one BLAS thread so its bits do not depend on
the process's thread count (OPENBLAS_NUM_THREADS).

Only the scipy-openblas (ILP64) library that numpy ships in numpy.libs,
and has already loaded, is looked up; RTLD_NOLOAD never maps a second
copy.  Where it is absent (numpy built against another BLAS, or a
platform without RTLD_NOLOAD), dsterf() is None and one_thread runs the
call as it is.
"""

import ctypes
import functools
import os
import threading

import numpy as np

_LOCK = threading.RLock()   # the thread count is process-wide


@functools.cache
def _openblas():
    """The loaded OpenBLAS of numpy.libs, or None."""
    mode = getattr(os, "RTLD_NOLOAD", None)     # Unix only
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    if mode is None or not os.path.isdir(libs):
        return None
    for name in os.listdir(libs):
        try:
            lib = ctypes.CDLL(os.path.join(libs, name), mode=mode)
        except OSError:                          # not loaded
            continue
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return lib
    return None


@functools.cache
def dsterf():
    """LAPACK dsterf(n, d, e, info) with ILP64 ints, or None."""
    fn = getattr(_openblas(), "scipy_dsterf_64_", None)
    if fn is not None:
        vec = np.ctypeslib.ndpointer(np.float64, flags="C,W")
        fn.argtypes = [ctypes.POINTER(ctypes.c_int64), vec, vec,
                       ctypes.POINTER(ctypes.c_int64)]
        fn.restype = None
    return fn


@functools.cache
def _thread_count():
    """OpenBLAS's (get, set) for its thread count, or None."""
    lib = _openblas()
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or put is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def one_thread(fn):
    """Decorate fn to run on one BLAS thread, restoring the previous count
    after it returns or raises.  Calls so decorated run one at a time, so
    one cannot restore the count while another runs; they may nest."""

    @functools.wraps(fn)
    def on_one_thread(*args, **kwargs):
        switch = _thread_count()
        if switch is None:
            return fn(*args, **kwargs)
        get, put = switch
        with _LOCK:
            before = get()
            if before == 1:
                return fn(*args, **kwargs)
            put(1)
            try:
                return fn(*args, **kwargs)
            finally:
                put(before)

    return on_one_thread
