"""Prime-exponent space.

An integer n = prod p_i^{r_i} is stored as the sparse vector of its
exponents.  Divisibility becomes the coordinatewise partial order, lcm
and gcd the lattice join and meet, and log n = sum r_i log p_i the
monoid homomorphism into (R, +).  The scaling action N(s) maps the
vector v to exp(-s * log_norm(v)) = n^{-s}, the term trace_exp sums;
summing it over n = 1..n_max reproduces the Dirichlet partial sum of
zeta, term by term, through the factorization route.
The Cantor polynomial realizes the bijection N x N = N, and
fiber_copies stacks vertically translated copies of a compact rectangle
with a disjointness certificate.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

_N_MAX = 2 ** 63 - 1
_SIEVE_LIMIT = 10 ** 6
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def primes_upto(limit: int) -> np.ndarray:
    """Sieve of Eratosthenes: every prime p <= limit, ascending."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.flatnonzero(flags)


@functools.cache
def _small_primes() -> tuple[tuple[int, ...], frozenset[int]]:
    """The primes up to 10^6, ascending and as a set, built on first use."""
    primes = tuple(primes_upto(_SIEVE_LIMIT).tolist())
    return primes, frozenset(primes)


def is_prime(n: int) -> bool:
    """Sieve lookup to 10^6, then deterministic Miller-Rabin (exact below 3.3e24)."""
    if n <= _SIEVE_LIMIT:
        return n in _small_primes()[1]
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeVector:
    """Sparse prime -> exponent map; the empty vector is the integer 1."""

    coords: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        checked = {}
        if any(isinstance(p, bool) or not isinstance(p, int) for p in self.coords):
            raise ValueError(f"keys must be integers, got {list(self.coords)}")
        for p in sorted(self.coords):
            r = self.coords[p]
            if not is_prime(p):
                raise ValueError(f"key {p} is not prime")
            if isinstance(r, bool) or not (isinstance(r, int) and r >= 1):
                raise ValueError(f"exponent of {p} must be a positive integer, got {r}")
            checked[p] = r
        object.__setattr__(self, "coords", checked)

    def __hash__(self):
        return hash(tuple(self.coords.items()))


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned closed rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max))):
            raise ValueError("rectangle bounds must be finite")
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise ValueError("degenerate rectangle (needs positive width and height)")

    @property
    def height(self) -> float:
        return self.im_max - self.im_min


@dataclass(frozen=True)
class FiberDomain:
    """m vertical translates K + i*k*period of a base rectangle K."""

    base_region: Rectangle
    period: float
    copies: int

    @property
    def min_period(self) -> float:
        """Smallest period with no overlap between consecutive sheets."""
        return self.base_region.height

    @property
    def disjoint(self) -> bool:
        return self.period > self.base_region.height

    def sheets(self) -> tuple[Rectangle, ...]:
        k = self.base_region
        return tuple(
            Rectangle(k.re_min, k.re_max,
                      k.im_min + j * self.period, k.im_max + j * self.period)
            for j in range(self.copies)
        )


def _rho_split(n: int) -> int:
    """Brent-cycle rho: one nontrivial factor of an odd composite n."""
    for c in range(1, 100):
        y, m = 2, 128
        g = q = r = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho cycle search exhausted on {n}")


def factorize(n: int) -> PrimeVector:
    """Complete prime factorization of 1 <= n <= 2^63 - 1.

    Trial division by the sieve's primes, then deterministic Miller-Rabin
    plus rho splitting for whatever survives; exact over the full range.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _N_MAX:
        raise ValueError(f"n must be <= 2^63 - 1, got {n}")
    coords: dict[int, int] = {}
    for p in _small_primes()[0]:
        if p * p > n:
            break
        while n % p == 0:
            coords[p] = coords.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            coords[m] = coords.get(m, 0) + 1
            continue
        g = _rho_split(m)
        stack.append(g)
        stack.append(m // g)
    return PrimeVector(coords)


def to_int(v: PrimeVector) -> int:
    out = 1
    for p, r in v.coords.items():
        out *= p ** r
    return out


def lcm_gcd(a: PrimeVector, b: PrimeVector) -> tuple[PrimeVector, PrimeVector]:
    """Lattice join and meet: coordinatewise (max, min) of exponents."""
    join: dict[int, int] = {}
    meet: dict[int, int] = {}
    for p in set(a.coords) | set(b.coords):
        ra, rb = a.coords.get(p, 0), b.coords.get(p, 0)
        join[p] = max(ra, rb)
        lo = min(ra, rb)
        if lo:
            meet[p] = lo
    return PrimeVector(join), PrimeVector(meet)


def log_norm(v: PrimeVector) -> float:
    """sum r_i log p_i = log to_int(v)."""
    return sum(r * math.log(p) for p, r in v.coords.items())


def divides(a: PrimeVector, b: PrimeVector) -> bool:
    return all(r <= b.coords.get(p, 0) for p, r in a.coords.items())


def trace_exp(n_max: int, s: complex) -> complex:
    """sum_{n=1..n_max} exp(-s * log_norm(factorize(n))).

    Every term goes through the factorization route, so agreement with
    the direct Dirichlet partial sum is a genuine two-route check.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    total = 0.0 + 0.0j
    for n in range(1, n_max + 1):
        total += cmath.exp(-s * log_norm(factorize(n)))
    return total


def pair(m: int, n: int) -> int:
    """Cantor pairing k = (m+n)(m+n+1)/2 + n; (1,0) -> 1, (0,1) -> 2."""
    for v in (m, n):
        if v < 0:
            raise ValueError(f"arguments must be nonnegative, got {v}")
        if v >= 2 ** 31:
            raise ValueError(f"argument {v} exceeds 2^31, pairing would overflow")
    w = m + n
    return w * (w + 1) // 2 + n


def unpair(k: int) -> tuple[int, int]:
    """Exact inverse of pair via integer square root."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    w = (math.isqrt(8 * k + 1) - 1) // 2
    n = k - w * (w + 1) // 2
    return w - n, n


def fiber_copies(base: Rectangle, tau: float, m: int) -> FiberDomain:
    """Stack m copies K + i*k*tau; disjoint iff tau exceeds height(K)."""
    if m < 1:
        raise ValueError(f"copy count must be >= 1, got {m}")
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"period must be positive and finite, got {tau}")
    return FiberDomain(base_region=base, period=float(tau), copies=int(m))
