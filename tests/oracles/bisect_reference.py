"""Reference route for fraczeta.zetalab.find_zeros: direct scan, scalar bisection.

This is the original zero finder.  It evaluates the sign scan in blocks of
4096 grid points through the direct Euler-Maclaurin main sum, then halves
each sign change on its own with one riemann_siegel_Z call per step.  The
library scans by the factored grid sum in the grid chunks that start
below t = 200, and refines all brackets together by regula-falsi probes
with a midpoint safeguard.  Every later scan point and every probe goes
through one chain of routes: the Riemann-Siegel formula, then an
Euler-Maclaurin sum over ascending chunks of points at about a third of
this file's cutoff.  A sign from either is kept only when |Z| clears
that route's bound plus a majorant of the scalar Euler-Maclaurin bound;
every other point is decided by this file's scalar evaluation,
riemann_siegel_Z.  So every sign either route reads is the scalar one,
but the two probe different points: tests/test_zetalab.py requires the
same zero count, ordinates within the bracket width 1e-9 of this
file's, and a scalar sign change across each library ordinate.
Imported by the tests; it has no script entry.
"""

import math

import numpy as np

from fraczeta.zetalab import _ZERO_TOL, _z_block, riemann_siegel_Z


def direct_scan(t_max: float, grid: float = 0.05):
    """(ts, z, bound) of Z on the scan grid, t_max appended when off it."""
    k = int(math.floor(t_max / grid + 1e-9))
    ts = np.arange(1, k + 1, dtype=float) * grid
    if ts.size == 0 or ts[-1] < t_max - 1e-12:
        ts = np.append(ts, t_max)
    z, bound = np.empty_like(ts), np.empty_like(ts)
    block = 4096
    for lo in range(0, ts.size, block):
        z[lo: lo + block], bound[lo: lo + block] = _z_block(ts[lo: lo + block])
    return ts, z, bound


def find_zeros(t_max: float, grid: float = 0.05) -> list:
    """Sorted zero ordinates of Z on (0, t_max], each bisected to _ZERO_TOL."""
    ts, z, _ = direct_scan(t_max, grid)
    ordinates = []
    flips = np.nonzero(np.sign(z[:-1]) * np.sign(z[1:]) < 0)[0]
    for i in flips:
        a, b = float(ts[i]), float(ts[i + 1])
        za = float(z[i])
        while b - a > _ZERO_TOL:
            m = 0.5 * (a + b)
            zm = riemann_siegel_Z(m)
            if zm == 0.0:
                a = b = m
                break
            if (za < 0.0) == (zm < 0.0):
                a, za = m, zm
            else:
                b = m
        ordinates.append(0.5 * (a + b))
    exact_hits = np.nonzero(z == 0.0)[0]
    for i in exact_hits:
        ordinates.append(float(ts[i]))
    ordinates.sort()
    return ordinates
