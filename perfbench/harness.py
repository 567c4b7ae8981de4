"""Call accounting, spans, speed calibration and the machine block for the
fraczeta benchmark.

Every public fraczeta call the benchmark makes goes through Ops.call.  With
tracing off it only counts attempts and documented failures; with tracing on
it also records one span per call (name, start, end, parent span, run id).
Spans stay in memory and are written as JSON lines when the run ends.

CALIBRATIONS holds fixed blocks of work that use no fraczeta code.  The
reference machine shares its cores with other tenants and runs at speeds
up to 1.7x apart, in phases that can outlast a run; timing a block between
rounds measures the speed a run got, so round times can be scaled to the
reference speed.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter


class Ops:
    """Counts calls and failures; records spans when tracing is on.

    `documented` holds the exception types that count as a failed operation
    (the library's named errors); workloads add theirs at set-up.  Any other
    exception propagates and ends the run.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.tracing = False
        self.documented: tuple = ()
        self.attempted = 0
        self.failed = 0
        self.spans: list = []   # [id, parent, name, start, end, counts, failed]
        self._stack: list = []

    def call(self, name, fn, *args, counts=None, ok=None, measure=None):
        """Run fn(*args); return its result, or None if it failed.

        A call fails when it raises a documented error or when `ok(result)`
        is false (used for CLI exit codes).  `counts` are sizes computed from
        the inputs; `measure(result)` adds counts read from the output, and
        runs only when tracing, after the span has ended.
        """
        self.attempted += 1
        start = perf_counter() if self.tracing else 0.0
        try:
            result = fn(*args)
            failed = ok is not None and not ok(result)
        except self.documented:
            result, failed = None, True
        if self.tracing:
            end = perf_counter()
            if measure is not None and not failed:
                counts = dict(counts or {}, **measure(result))
            parent = self._stack[-1] if self._stack else None
            self.spans.append([len(self.spans), parent, name, start, end,
                               counts, failed])
        if failed:
            self.failed += 1
            return None
        return result

    @contextmanager
    def span(self, name, **counts):
        """Group the calls inside into one parent span (no-op untraced)."""
        if not self.tracing:
            yield
            return
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, perf_counter(), None, counts or None, False]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            self._stack.pop()
            rec[4] = perf_counter()

    def self_times(self) -> list:
        """Each span's duration minus the part its children cover."""
        covered = [[] for _ in self.spans]
        for sid, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                covered[parent].append((start, end))
        out = []
        for (sid, _, _, start, end, _, _), kids in zip(self.spans, covered):
            busy, reach = 0.0, start
            for a, b in sorted(kids):
                a = max(a, reach)
                if b > a:
                    busy += b - a
                    reach = b
            out.append((end - start) - busy)
        return out

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec, self_s in zip(self.spans, self.self_times()):
                sid, parent, name, start, end, counts, failed = rec
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent,
                    "name": name, "start": start, "end": end,
                    "self_s": self_s, "failed": failed,
                    "counts": counts}) + "\n")


# --- speed calibration ---------------------------------------------------------
#
# The reference machine's slow phases do not slow all code alike: on it an
# interpreter loop slows about three times as much as numpy's array loops.
# So each workload is scaled by a block of the kind of work it does most.
# Neither block calls fraczeta, and both are single-threaded, so BLAS
# threads do not enter them.


def _interpreter_block() -> float:
    """An interpreter loop, a large complex exp (memory-bound) and many
    small numpy calls (call overhead): bisection and Dirichlet sums,
    factoring, fitting."""
    import numpy as np
    grid = np.linspace(0.0, 60.0, 1200 * 1000).reshape(1200, 1000)
    row = grid[0].copy()
    start = perf_counter()
    for _ in range(2):
        acc = 0
        for i in range(600_000):
            acc += i * i % 7
        np.exp(-1j * grid).sum()
        for _ in range(3000):
            np.exp(-1j * row).sum()
    return perf_counter() - start


def _array_block() -> float:
    """Row gathers, cumulative sums and comparisons over a 2000 x 201
    array, with uniform draws: categorical sampling of many walkers."""
    import numpy as np
    rng = np.random.default_rng(0)
    g = rng.random((201, 201))
    b = rng.random(201)
    cur = rng.integers(0, 201, 2000)
    start = perf_counter()
    for _ in range(100):
        cs = np.cumsum(g[cur] * b[None, :], axis=1)
        u = rng.random(cur.size) * cs[:, -1]
        cur = np.minimum((cs < u[:, None]).sum(axis=1), 200)
    return perf_counter() - start


# kind -> (block, its median time on the reference machine, 2 cores, Intel
# Xeon 2.0 GHz, Python 3.11, numpy 2.4, in the machine's fast phase)
CALIBRATIONS = {"interpreter": (_interpreter_block, 0.33),
                "array": (_array_block, 0.35)}


class Calibrator:
    """Times calibration blocks in a helper interpreter, one block a request.

    The blocks allocate up to 50 MB; run in the helper, they never count in
    the benchmark process's peak_rss_mb.  Between requests the helper waits
    on its stdin and takes no CPU.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self, kind: str) -> float:
        """Wall time of one `kind` block, timed inside the helper."""
        self._proc.stdin.write(kind + "\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()        # end of input ends the helper
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    xs = sorted(values)
    if not xs:
        return float("nan")
    k = max(0, min(len(xs) - 1, -(-len(xs) * q // 100) - 1))
    return xs[int(k)]


# --- machine block -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> dict:
    """Thread counts reported by each OpenBLAS loaded in this process."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh
                    if "openblas" in ln.lower() and ln.rstrip().endswith(".so")}
    except OSError:
        return out
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def numpy_blas_threads() -> int:
    """Threads of the BLAS numpy calls (the 64-bit-integer OpenBLAS)."""
    threads = _openblas_threads()
    for name, n in threads.items():
        if "openblas64" in name:
            return n
    return max(threads.values(), default=0)


def machine_block() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
    }


if __name__ == "__main__":
    # the Calibrator's helper: one block per line naming its kind
    for line in sys.stdin:
        print(repr(CALIBRATIONS[line.strip()][0]()), flush=True)
