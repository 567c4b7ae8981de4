"""The Euler-Maclaurin block evaluator with the full-array Bernoulli stop test.

fraczeta.zetalab._em_block checks its two stop tests (remainder bound at
tol everywhere; terms no longer shrinking anywhere) on one probe entry
first and runs the full-array test only where the probe cannot rule a
stop out.  This is the evaluator before that change, which builds |term|
and the bound at every term.  Its stopping term, correction and bound
are the ones the library must reproduce, so tests/test_zetalab.py
requires equal bits, not close values.  Imported by the tests; it has no
script entry.
"""

import math

import numpy as np

from fraczeta.zetalab import _B2F, _EPS, _M_CAP, _cutoff


def em_block(base: np.ndarray, shifts: np.ndarray, tol: float,
             phases: np.ndarray | None = None, cutoff: int | None = None):
    """zeta(b_j + i t_k) and its error bound, shaped (shifts, base), and
    how the Bernoulli loop ended: "converged", "stopped shrinking" or
    "cap" (all _M_CAP terms added).  phases is the bare grid factor
    exp(-i k step log n)."""
    s = base[None, :] + 1j * shifts[:, None]
    n_used = _cutoff(base, shifts) if cutoff is None else cutoff
    n = np.arange(1, n_used, dtype=float)
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
    sigma = s.real
    big_n = float(n_used)
    ninvs = np.exp(-s * math.log(big_n))           # N^{-s}
    corr = ninvs * (big_n / (s - 1.0) + 0.5)
    rising = s                                     # (s)_1
    npow = ninvs / big_n                           # N^{-s-1}
    inv_n2 = 1.0 / (big_n * big_n)
    prev_mag = np.inf
    for k in range(1, _M_CAP + 1):
        term = _B2F[k] * rising * npow
        mag = np.abs(term)
        bound = np.abs(s + (2 * k - 1)) / (sigma + (2 * k - 1)) * mag
        if (bound <= tol).all() or (mag >= prev_mag).all():
            break                                  # converged, or divergent tail
        corr = corr + term
        prev_mag = mag
        rising = rising * ((s + (2 * k - 1)) * (s + 2 * k))
        npow = npow * inv_n2
    else:
        k = 0
    exit_ = ("cap" if k == 0 else "converged" if (bound <= tol).all()
             else "stopped shrinking")
    # float-noise floor: each term n^{-s} carries a phase rounded through
    # t*log n, so its absolute error scales like eps*|term|*(1 + |t| log n)
    mags = np.abs(p)
    noise = _EPS * (mags.sum(axis=0) + np.abs(s.imag) * (log_n @ mags)
                    + np.abs(corr))
    return main + corr, bound + 2.0 * noise, exit_
