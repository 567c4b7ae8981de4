"""Freeze mpmath.siegelz at the ordinates the Riemann-Siegel bound is tested on.

tests/test_zetalab.py requires |_z_rs(t) - Z(t)| <= its reported bound
on 500 seeded ordinates: 400 log-uniform in [200, 1e4] and 100 uniform
in [200, 260], where Gabcke's term is most of the bound.  Z(t) there is
mpmath.siegelz at 25 digits, rounded to double.  Those 500 values take
seconds to compute, so they are frozen in siegelz_table.txt, one
"t Z(t)" line each in shortest round-trip decimals; the test recomputes
a seeded handful live, so the table cannot drift from mpmath.
Regenerate with:

    python3 tests/oracles/siegelz_reference.py > tests/oracles/siegelz_table.txt
"""

import math

import numpy as np

_DPS = 25


def ordinates():
    """The 500 seeded ordinates, ascending."""
    rng = np.random.default_rng(2029)
    return np.sort(np.concatenate([
        np.exp(rng.uniform(math.log(200.0), math.log(1.0e4), 400)),
        rng.uniform(200.0, 260.0, 100)]))


def siegelz(ts):
    """mpmath.siegelz at _DPS digits on each t, rounded to double."""
    import mpmath

    with mpmath.workdps(_DPS):
        return np.array([float(mpmath.siegelz(mpmath.mpf(float(t))))
                         for t in ts])


if __name__ == "__main__":
    ts = ordinates()
    for t, z in zip(ts, siegelz(ts)):
        print(repr(float(t)), repr(float(z)))
