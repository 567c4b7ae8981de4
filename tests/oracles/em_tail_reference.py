"""The Euler-Maclaurin block evaluator with the full-array Bernoulli stop test.

fraczeta.zetalab._em_block checks its two stop tests (remainder bound at
tol everywhere; terms no longer shrinking anywhere) on one probe entry
first and runs the full-array test only where the probe cannot rule a
stop out.  This is the evaluator before that change, which builds |term|
and the bound at every term.  Its stopping term, correction and bound
are the ones the library must reproduce, so tests/test_zetalab.py
requires equal bits, not close values.

This oracle pins the stop test, not N^{-s}: it takes N^{-s} as the
library does, by the rank-one product exp(-b_j log N) exp(-i t_k log N).
With per_entry=True it takes exp(-s log N) entry by entry, the form the
library used before; for a real base the two give the same bits, and the
tests check that too.  Like the library, it runs on one BLAS thread.
Imported by the tests; it has no script entry.
"""

import math

import numpy as np

from fraczeta._blas import one_thread
from fraczeta.zetalab import _B2F, _EPS, _M_CAP, _cutoff


def _setup(base, shifts, cutoff, per_entry):
    """s, N and N^{-s} of the block."""
    s = base[None, :] + 1j * shifts[:, None]
    big_n = float(_cutoff(base, shifts) if cutoff is None else cutoff)
    log_big_n = math.log(big_n)
    if per_entry:
        ninvs = np.exp(-s * log_big_n)
    else:
        ninvs = (np.exp(-base.astype(complex) * log_big_n)[None, :]
                 * np.exp(-1j * log_big_n * shifts)[:, None])
    return s, big_n, ninvs


def _tail_terms(s, big_n, ninvs):
    """(term, |term|, remainder bound) of the Bernoulli terms k = 1.._M_CAP."""
    rising = s                                     # (s)_1
    npow = ninvs / big_n                           # N^{-s-1}
    inv_n2 = 1.0 / (big_n * big_n)
    for k in range(1, _M_CAP + 1):
        term = _B2F[k] * rising * npow
        mag = np.abs(term)
        yield term, mag, np.abs(s + (2 * k - 1)) / (s.real + (2 * k - 1)) * mag
        rising = rising * ((s + (2 * k - 1)) * (s + 2 * k))
        npow = npow * inv_n2


def tail_bound(base: np.ndarray, shifts: np.ndarray, k: int,
               cutoff: int | None = None) -> np.ndarray:
    """The remainder bound em_block tests at Bernoulli term k, bit for bit."""
    for j, (_, _, bound) in enumerate(_tail_terms(*_setup(
            base, shifts, cutoff, False)), start=1):
        if j == k:
            return bound
    raise ValueError(f"k must be in 1..{_M_CAP}, got {k}")


@one_thread                   # as the library, so its products' bits match
def em_block(base: np.ndarray, shifts: np.ndarray, tol: float,
             phases: np.ndarray | None = None, cutoff: int | None = None,
             per_entry: bool = False):
    """zeta(b_j + i t_k) and its error bound, shaped (shifts, base), and
    how the Bernoulli loop ended: "converged", "stopped shrinking" or
    "cap" (all _M_CAP terms added).  phases is the bare grid factor
    exp(-i k step log n)."""
    s, big_n, ninvs = _setup(base, shifts, cutoff, per_entry)
    n = np.arange(1, int(big_n), dtype=float)
    log_n = np.log(n)
    if np.iscomplexobj(base):
        p = np.exp(-np.outer(log_n, base))
    else:
        p = n[:, None] ** -base
    if phases is None:
        main = np.exp(-1j * np.outer(shifts, log_n)) @ p
    else:
        main = (phases[:shifts.size, :n.size]
                @ (np.exp(-1j * shifts[0] * log_n)[:, None] * p))
    corr = ninvs * (big_n / (s - 1.0) + 0.5)
    prev_mag = np.inf
    exit_ = "cap"
    for term, mag, bound in _tail_terms(s, big_n, ninvs):
        if (bound <= tol).all():
            exit_ = "converged"
            break
        if (mag >= prev_mag).all():
            exit_ = "stopped shrinking"
            break
        corr = corr + term
        prev_mag = mag
    # float-noise floor: each term n^{-s} carries a phase rounded through
    # t*log n, so its absolute error scales like eps*|term|*(1 + |t| log n)
    mags = np.abs(p)
    noise = _EPS * (mags.sum(axis=0) + np.abs(s.imag) * (log_n @ mags)
                    + np.abs(corr))
    return main + corr, bound + 2.0 * noise, exit_
