"""Tests for fraczeta.eprspace.

Frozen factorizations come from tests/oracles/factor_reference.py
(sympy.factorint, each entry verified by multiplication).
"""

import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from fraczeta.eprspace import (
    FiberDomain,
    PrimeVector,
    Rectangle,
    divides,
    factorize,
    fiber_copies,
    is_prime,
    lcm_gcd,
    log_norm,
    pair,
    to_int,
    trace_exp,
    unpair,
)
from fraczeta.fracdyn import phase_angles

FACTOR_TABLE = {
    360: {2: 3, 3: 2, 5: 1},
    1: {},
    2: {2: 1},
    97: {97: 1},
    1024: {2: 10},
    1099511627777: {257: 1, 4278255361: 1},
    9223372036854775807: {7: 2, 73: 1, 127: 1, 337: 1, 92737: 1, 649657: 1},
    1000036000099: {1000003: 1, 1000033: 1},
    9223372021822390277: {2147483647: 1, 4294967291: 1},
    600851475143: {71: 1, 839: 1, 1471: 1, 6857: 1},
    2305843009213693951: {2305843009213693951: 1},
    999983: {999983: 1},                    # largest prime in the sieve
    1000003: {1000003: 1},                  # smallest prime above it
    1000000: {2: 6, 5: 6},
    999966000289: {999983: 2},
    2000006: {2: 1, 1000003: 1},
    999985999949: {999983: 1, 1000003: 1},
}


def _random_vectors(rng, count, hi=10 ** 6):
    return [factorize(int(rng.integers(1, hi))) for _ in range(count)]


# --- factorization ------------------------------------------------------------


def test_factorize_frozen_table():
    for n, expected in FACTOR_TABLE.items():
        v = factorize(n)
        assert v.coords == expected
        assert to_int(v) == n


def test_factor_table_matches_oracle():
    sympy = pytest.importorskip("sympy")
    spec = importlib.util.spec_from_file_location(
        "factor_reference", Path(__file__).parent / "oracles" / "factor_reference.py")
    factor_reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(factor_reference)
    assert list(FACTOR_TABLE) == factor_reference.CASES
    for n, expected in FACTOR_TABLE.items():
        assert sympy.factorint(n) == expected, n


def test_factorize_validation():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)
    with pytest.raises(ValueError):
        factorize(2 ** 63)
    with pytest.raises(TypeError):
        factorize(12.0)
    with pytest.raises(TypeError):
        factorize(True)


def test_unique_factorization_range():
    # smallest-prime-factor sieve as the independent oracle
    limit = 10 ** 5
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            spf[p::p] = np.where(spf[p::p] == 0, p, spf[p::p])
    for n in range(1, limit + 1):
        expected = {}
        m = n
        while m > 1:
            p = int(spf[m])
            expected[p] = expected.get(p, 0) + 1
            m //= p
        v = factorize(n)
        assert v.coords == expected, n
        assert to_int(v) == n


def test_primality_against_sieve():
    # covers both sides of is_prime's switch from lookup to Miller-Rabin at 1e6
    limit = 1_001_000
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    for n in [*range(10 ** 4 + 1), *range(999_000, limit + 1)]:
        assert is_prime(n) == bool(sieve[n]), n
    # Carmichael numbers fool Fermat but not Miller-Rabin; the last three
    # lie above the sieve, so Miller-Rabin itself must reject them
    for n in (561, 1105, 1729, 41041, 825265, 1024651, 1152271, 1461241):
        assert not is_prime(n)
    # strong pseudoprimes to the first 4, 5, 6, 8 and 11 prime bases; the
    # last one passes every Miller-Rabin witness but 37
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321,
              3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2 ** 31 - 1)
    assert is_prime(2 ** 61 - 1)


def test_prime_vector_validation():
    with pytest.raises(ValueError):
        PrimeVector({4: 1})
    with pytest.raises(ValueError):
        PrimeVector({2: 0})
    with pytest.raises(ValueError):
        PrimeVector({2: -1})
    with pytest.raises(ValueError, match="exponent of 2"):
        PrimeVector({2: True})
    # 2.0 == 2 would pass the primality check and make to_int a float
    for coords in ({2.0: 1, 3: 2}, {True: 1}, {np.int64(3): 1}):
        with pytest.raises(ValueError, match="keys must be integers"):
            PrimeVector(coords)


# --- lattice ------------------------------------------------------------------


def test_lcm_gcd_examples():
    j, m = lcm_gcd(factorize(12), factorize(18))
    assert to_int(j) == 36 and to_int(m) == 6
    p, one = factorize(7), factorize(1)
    j, m = lcm_gcd(p, one)
    assert j == p and m == one


def test_lcm_gcd_product_identity():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        a, b = int(rng.integers(1, 10 ** 6)), int(rng.integers(1, 10 ** 6))
        j, m = lcm_gcd(factorize(a), factorize(b))
        assert to_int(j) * to_int(m) == a * b


def test_lattice_laws():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        a, b, c = _random_vectors(rng, 3)
        assert lcm_gcd(a, a) == (a, a)
        assert lcm_gcd(a, b) == lcm_gcd(b, a)
        jab, mab = lcm_gcd(a, b)
        jbc, mbc = lcm_gcd(b, c)
        assert lcm_gcd(jab, c)[0] == lcm_gcd(a, jbc)[0]
        assert lcm_gcd(mab, c)[1] == lcm_gcd(a, mbc)[1]
        # absorption
        assert lcm_gcd(a, mab)[0] == a
        assert lcm_gcd(a, jab)[1] == a


def test_log_norm():
    assert log_norm(PrimeVector({})) == 0.0
    assert abs(log_norm(factorize(2)) - 0.6931471805599453) < 1e-15
    rng = np.random.default_rng(107)
    for _ in range(200):
        n = int(rng.integers(2, 10 ** 9))
        v = factorize(n)
        assert abs(log_norm(v) - math.log(n)) < 1e-12 * math.log(n)


def test_aczel_identity():
    cases = [(12, 18)]
    rng = np.random.default_rng(109)
    cases += [(int(rng.integers(2, 10 ** 6)), int(rng.integers(2, 10 ** 6)))
              for _ in range(200)]
    for a, b in cases:
        va, vb = factorize(a), factorize(b)
        j, m = lcm_gcd(va, vb)
        lhs = log_norm(j)
        rhs = log_norm(va) + log_norm(vb) - log_norm(m)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_divides():
    assert divides(factorize(6), factorize(12))
    assert not divides(factorize(4), factorize(6))
    assert not divides(factorize(6), factorize(4))
    # distinct primes form an antichain
    for p, q in ((2, 3), (3, 5), (101, 103)):
        assert not divides(factorize(p), factorize(q))
        assert not divides(factorize(q), factorize(p))
    # divisibility implies valuation monotonicity
    rng = np.random.default_rng(113)
    for _ in range(200):
        d = int(rng.integers(1, 10 ** 4))
        k = int(rng.integers(1, 10 ** 4))
        a, b = factorize(d), factorize(d * k)
        assert divides(a, b)
        assert log_norm(a) <= log_norm(b) + 1e-12


# --- scaling action and trace ---------------------------------------------------


def test_scale():
    # N(s) maps v to exp(-s * log_norm(v)) = n^{-s}, the term trace_exp sums
    def term(n, s):
        return cmath.exp(-s * log_norm(factorize(n)))

    assert term(1, 2.0 + 3.0j) == 1.0
    assert abs(term(2, 1.0) - 0.5) < 1e-15
    assert abs(abs(term(3, 0.5 + 14.134725j)) - 3 ** -0.5) < 1e-12
    rng = np.random.default_rng(127)
    for _ in range(100):
        n = int(rng.integers(2, 10 ** 6))
        s = complex(rng.uniform(0.2, 3.0), rng.uniform(-30.0, 30.0))
        v = term(n, s)
        ref = n ** -s
        assert abs(v - ref) < 1e-12 * abs(ref)


def test_trace_exp_examples():
    assert abs(trace_exp(3, 2.0) - (1.0 + 0.25 + 1.0 / 9.0)) < 1e-14
    assert trace_exp(1, 0.5 + 100.0j) == 1.0
    with pytest.raises(ValueError):
        trace_exp(0, 2.0)


def test_trace_exp_matches_direct_sum():
    # the factorization route against a direct Dirichlet partial sum
    rng = np.random.default_rng(131)
    for _ in range(50):
        n_max = int(rng.integers(1, 10 ** 4 + 1))
        s = complex(rng.uniform(0.5, 3.0), rng.uniform(-50.0, 50.0))
        n = np.arange(1, n_max + 1, dtype=float)
        direct = np.sum(np.exp(-s * np.log(n)))
        got = trace_exp(n_max, s)
        assert abs(got - direct) < 1e-10 * max(1.0, abs(direct))


# --- pairing --------------------------------------------------------------------


def test_pair_examples():
    assert pair(0, 0) == 0
    assert pair(1, 0) == 1
    assert pair(0, 1) == 2
    with pytest.raises(ValueError):
        pair(2 ** 31, 0)
    with pytest.raises(ValueError):
        pair(-1, 3)
    with pytest.raises(ValueError):
        unpair(-1)


def test_pair_bijection():
    seen = set()
    for m in range(1001):
        for n in range(1001):
            k = pair(m, n)
            assert k not in seen
            seen.add(k)
            assert unpair(k) == (m, n)
    # the image of the full triangle m+n <= 1000 is exactly 0..501500
    triangle = {pair(m, n) for m in range(1001) for n in range(1001 - m)}
    assert triangle == set(range(1001 * 1002 // 2))


# --- fiber domains ---------------------------------------------------------------


def test_fiber_examples():
    k = Rectangle(0.0, 1.0, 0.0, 2.0)
    assert fiber_copies(k, 3.0, 5).disjoint
    assert not fiber_copies(k, 1.5, 4).disjoint
    assert not fiber_copies(k, 2.0, 4).disjoint  # equality still overlaps
    phi = phase_angles(0.8).phi
    dom = fiber_copies(Rectangle(0.5, 1.0, 0.0, phi), 1.0, 3)
    assert abs(dom.min_period - 0.31416) < 1e-5


def test_fiber_sheets_geometry():
    k = Rectangle(-1.0, 2.0, 0.5, 1.25)
    dom = fiber_copies(k, 2.0, 4)
    sheets = dom.sheets()
    assert len(sheets) == 4
    for j, sheet in enumerate(sheets):
        assert sheet.re_min == k.re_min and sheet.re_max == k.re_max
        assert abs(sheet.im_min - (k.im_min + 2.0 * j)) < 1e-15
    # period above the height: vertical intervals are pairwise disjoint
    assert dom.disjoint
    for i in range(4):
        for j in range(i + 1, 4):
            assert sheets[i].im_max < sheets[j].im_min or sheets[j].im_max < sheets[i].im_min


def test_fiber_validation():
    k = Rectangle(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        fiber_copies(k, 0.0, 3)
    with pytest.raises(ValueError):
        fiber_copies(k, 2.0, 0)
    with pytest.raises(ValueError):
        Rectangle(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rectangle(0.0, 1.0, 1.0, 1.0)
