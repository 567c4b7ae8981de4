"""Freeze Mittag-Leffler reference values with a 60-digit mpmath series.

E_a(z) = sum_k z^k / Gamma(a k + 1).  At 60 digits the alternating-series
cancellation that plagues float64 is irrelevant, so plain truncation works
for every argument used in the test suite.  Run directly to print the dict
pasted into tests/test_fracdyn.py.
"""

import mpmath as mp


def ml(a, z, kmax=5000):
    # peak series term has magnitude ~ exp(|z|^(1/a)); give mpmath enough
    # digits to absorb the cancellation, plus a 60-digit floor
    mp.mp.dps = 60 + int(1.0 * abs(complex(z)) ** (1.0 / a))
    a, z = mp.mpf(a), mp.mpmathify(z)
    s, k = mp.mpf(0), 0
    while k < kmax:
        t = z**k / mp.gamma(a * k + 1)
        s += t
        if k > 10 and abs(t) < mp.mpf(10) ** (-45) * max(1, abs(s)):
            break
        k += 1
    return s


CASES = [
    (1.0, -1.0),
    (2.0, -1.0),
    (0.5, -1.0),     # = e * erfc(1)
    (0.5, -3.0),
    (0.8, -1.0),
    (0.8, -6.0),     # asymptotic branch of the implementation
    (0.6, -10.0),    # asymptotic branch
    (0.9, -2.5),
    (0.75, 2.0),
    (0.5, 1.0),      # = e * erfc(-1)
    (0.7, -40.0),    # deep asymptotic branch
    (0.5, -30.0),    # z^-k underflows before rgamma(1 - a k) overflows
    (0.8, -400.0 ** 0.8),
]

if __name__ == "__main__":
    for a, z in CASES:
        print(f"({a}, {z}): {mp.nstr(ml(a, z), 17)},")
    # closed forms quoted in docstrings/tests
    print("e*erfc(1)      =", mp.nstr(mp.e * mp.erfc(1), 17))
    print("cos(1)         =", mp.nstr(mp.cos(1), 17))
    print("2/sqrt(pi)     =", mp.nstr(2 / mp.sqrt(mp.pi), 17))
    print("1/sqrt(pi)     =", mp.nstr(1 / mp.sqrt(mp.pi), 17))
