"""numpy's bundled OpenBLAS, reached by ctypes: LAPACK's dsterf, a
section that runs calls on one BLAS thread so their bits do not depend
on the process's thread count (OPENBLAS_NUM_THREADS), and blocks(),
which spreads a list of independent blocks over the usable cores.

Only the scipy-openblas (ILP64) library that numpy ships in numpy.libs,
and has already loaded, is looked up; RTLD_NOLOAD never maps a second
copy.  Where it is absent (numpy built against another BLAS, or a
platform without RTLD_NOLOAD), dsterf() is None and one_thread runs the
call as it is.  Each function is built from its own ctypes prototype,
not configured in place on the library's shared function object, so
threads may look one up and call it at the same time.
"""

import ctypes
import functools
import os
import threading

import numpy as np

_LOCK = threading.Lock()   # guards _SECTION's count


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


def _function(name, restype, *argtypes):
    """name in the loaded OpenBLAS as a ctypes function, or None."""
    lib = _openblas()
    if lib is None or not hasattr(lib, name):
        return None
    return ctypes.CFUNCTYPE(restype, *argtypes)((name, lib))


@functools.cache
def dsterf():
    """LAPACK dsterf(n, d, e, info) with ILP64 ints, or None."""
    vec = np.ctypeslib.ndpointer(np.float64, flags="C,W")
    int_p = ctypes.POINTER(ctypes.c_int64)
    return _function("scipy_dsterf_64_", None, int_p, vec, vec, int_p)


@functools.cache
def _thread_count():
    """OpenBLAS's (get, set) for its thread count, or None."""
    get = _function("scipy_openblas_get_num_threads64_", ctypes.c_int)
    put = _function("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    if get is None or put is None:
        return None
    return get, put


class _OneThreadSection:
    """A counted section: the first thread to enter saves the OpenBLAS
    thread count and sets it to 1; the last to leave, on a return or a
    raise, restores it.  Any number of threads may be inside at once,
    and sections may nest."""

    def __init__(self):
        self.inside = 0     # threads inside, guarded by _LOCK
        self.saved = 1      # the count to restore when the last one leaves

    def __enter__(self):
        switch = _thread_count()
        if switch is not None:
            with _LOCK:
                if self.inside == 0:
                    self.saved = switch[0]()
                    if self.saved != 1:
                        switch[1](1)
                self.inside += 1

    def __exit__(self, *exc):
        switch = _thread_count()
        if switch is not None:
            with _LOCK:
                self.inside -= 1
                if self.inside == 0 and self.saved != 1:
                    switch[1](self.saved)


_SECTION = _OneThreadSection()


def one_thread(fn):
    """Decorate fn to run inside the one-BLAS-thread section: the count
    is 1 while any decorated call runs, and the count from before the
    first of them comes back when the last returns or raises."""

    @functools.wraps(fn)
    def on_one_thread(*args, **kwargs):
        with _SECTION:
            return fn(*args, **kwargs)

    return on_one_thread


def _usable_cores() -> int:
    """The CPUs this process may run on, or 1 where that is not known."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def blocks(fn, items):
    """[fn(x) for x in items], in input order, on every usable core.

    Every item runs inside one one_thread section.  The calling thread
    and min(usable cores, len(items)) - 1 helper threads each take the
    next unclaimed item until none is left; the helpers are joined
    before the call returns.  Once an item raises, no further item is
    taken, and the first exception raised in any thread is raised here.
    Each item runs as it would alone, so where fn's blocks are cut by
    the input, no bit of the result depends on the number of cores.
    The helpers gain only where fn spends its time in native code that
    releases the interpreter lock (BLAS, LAPACK, numpy's loops).
    """
    items = list(items)
    out = [None] * len(items)
    claims = iter(range(len(items)))
    errors = []
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                i = None if errors else next(claims, None)
            if i is None:
                return
            try:
                out[i] = fn(items[i])
            except BaseException as exc:     # raised again by the caller
                with lock:
                    errors.append(exc)
                return

    with _SECTION:
        helpers = [threading.Thread(target=work)
                   for _ in range(min(_usable_cores(), len(items)) - 1)]
        for helper in helpers:
            helper.start()
        try:
            work()
        finally:
            for helper in helpers:
                helper.join()
    if errors:
        raise errors[0]
    return out
