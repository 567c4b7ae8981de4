"""Reference factorizations for tests/test_eprspace.py.

Runs sympy.factorint on the frozen cases (including semiprimes whose
factors exceed the trial-division bound, so the rho stage is exercised)
and verifies every table entry by direct multiplication.
"""

import sympy

CASES = [
    360,
    1,
    2,
    97,
    1024,
    1099511627777,          # 2^40 + 1
    9223372036854775807,    # 2^63 - 1
    1000036000099,          # 1000003 * 1000033, both beyond trial division
    9223372021822390277,    # 2147483647 * 4294967291, near the upper bound
    600851475143,
    2305843009213693951,    # 2^61 - 1, a Mersenne prime
    999983,                 # largest prime below 10^6
    1000003,                # smallest prime above 10^6
    1000000,
    999966000289,           # 999983^2
    2000006,                # 2 * 1000003
    999985999949,           # 999983 * 1000003
]

if __name__ == "__main__":
    for n in CASES:
        fac = sympy.factorint(n)
        prod = 1
        for p, r in fac.items():
            assert sympy.isprime(p), (n, p)
            prod *= p ** r
        assert prod == n, n
        print(f"{n} -> {dict(sorted(fac.items()))}")
