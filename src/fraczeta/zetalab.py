"""Riemann zeta numerics at desk scale.

Evaluation in the strip 0 < Re s, |Im s| <= 1e4 runs through a single
Euler-Maclaurin core

    zeta(s) = sum_{n<N} n^{-s} + N^{1-s}/(s-1) + N^{-s}/2
            + sum_k B_{2k}/(2k)! (s)_{2k-1} N^{-s-2k+1} + R

with the classical remainder bound |R| <= |(s+2M+1)/(sigma+2M+1)| times
the first omitted term; every value carries that bound.  On the
critical line the Riemann-Siegel rotation Z(t) = exp(i theta(t))
zeta(1/2+it) is real, and its sign changes localize the zeros; the
zero scan and refinement decide most signs by the Riemann-Siegel formula,
O(sqrt t) terms, where Gabcke's remainder bound certifies them.  Zero
lists are unfolded by the smooth counting function

    Nbar(T) = (T/2pi) log(T/2pi) - T/2pi + 7/8

to unit mean spacing, after which pairwise separations are compared
against the sine-kernel density R2(u) = 1 - (sin(pi u)/(pi u))^2 and
against the same statistic extracted from sampled GUE matrices.  A
disc-region scan measures how often the vertical shift t keeps
max_j |zeta(s_j + it) - f(s_j)| below epsilon (self-approximation when
f is zeta itself).
"""

from __future__ import annotations

import cmath
import ctypes
import functools
import math
import warnings
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import _blas
from .eprspace import primes_upto

_EPS = 2.220446049250313e-16
_TWO_PI = 2.0 * math.pi
_T_CEIL = 1.0e4
_M_CAP = 60
_ZERO_TOL = 1e-9      # bracket width find_zeros refines to and reports
_GRID_ROWS = 512      # largest grid chunk; a chunk shares one cutoff N
_GRID_CELLS = 2 ** 21  # complex entries of the grid factor, 32 MB
_FAST_CHUNK = 128     # points per _z_fast call; each chunk gets its own N
_RS_SCAN_BLOCK = 4096  # points per _z_rs call; 1.3 MB arrays at t = 1e4
_Z_TOL = 1e-12        # Bernoulli-tail tolerance of every Z evaluation
_SCALAR_CELLS = 2 ** 16  # phase entries per part of a _z_scalar call, 1 MB


def _bernoulli(count):
    """B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), k = 1..count, as exact
    (numerator, denominator) pairs; the tangent numbers T_k come from Brent
    and Harvey's in-place integer recurrence (arXiv:1108.0286)."""
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
            for k in range(1, count + 1)]


# B_{2k}/(2k)! for k = 0..cap+1, the only Bernoulli data the tail needs;
# Python rounds int / int correctly, so each is the nearest float
_B2F = (1.0,) + tuple(n / (d * math.factorial(2 * k)) for k, (n, d)
                      in enumerate(_bernoulli(_M_CAP + 1), 1))


class ZetaAccuracyError(ArithmeticError):
    """The error bound cannot be pushed below the accuracy floor."""


class MissedZerosError(RuntimeError):
    """Zero count disagrees with the smooth estimate; grid too coarse."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature did not converge to the requested tolerance."""


@dataclass(frozen=True)
class ZetaPoint:
    s: complex
    value: complex
    abs_err_bound: float

    def __post_init__(self):
        if not (self.abs_err_bound >= 0.0):
            raise ValueError("abs_err_bound must be nonnegative")


@dataclass(frozen=True)
class ZeroList:
    """Ordinates t with zeta(1/2+it) = 0, localized to bracket width tol.

    min_sign_margin is the smallest |Z|/gate over the sign decisions that
    placed the zeros, where the gate is the deciding route's bound, plus
    the scalar-bound majorant where a fast route decided (see
    _certified_z); below 1, one was not certified.  reference_decisions
    counts the signs the scalar route decided, scan points included.
    """

    ordinates: tuple
    tol: float
    t_max: float
    min_sign_margin: float = math.inf
    reference_decisions: int = 0

    def __post_init__(self):
        ts = self.ordinates
        if not all(0.0 < t < math.inf for t in ts):
            raise ValueError("ordinates must be finite and positive")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("ordinates must be strictly increasing")


@dataclass(frozen=True)
class PairCorrelation:
    """Histogram of unfolded pairwise separations against the sine kernel."""

    bin_edges: np.ndarray
    empirical: np.ndarray
    reference: np.ndarray
    ks_distance: float
    n_positions: int
    pair_count: int


@dataclass(frozen=True)
class Disc:
    center: complex
    radius: float

    def __post_init__(self):
        if not cmath.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")


@dataclass(frozen=True)
class UniversalityReport:
    """Shift-scan result; err_bounds[k] bounds the evaluation error of
    zeta(s_j + i t_grid[k]) over the region points s_j (the target's own
    error is not included)."""

    region: Disc
    epsilon: float
    t_max: float
    t_step: float
    hit_measure: float
    witnesses: np.ndarray
    t_grid: np.ndarray
    sup_errors: np.ndarray
    err_bounds: np.ndarray


# --- evaluation core ----------------------------------------------------------


def _cutoff(base: np.ndarray, shifts: np.ndarray) -> int:
    """The block's shared Euler-Maclaurin cutoff N = max(20, ceil(max |Im s|))."""
    return max(20, math.ceil(np.abs(np.imag(base)[None, :]
                                    + shifts[:, None]).max()))


def _dirichlet_table(base: np.ndarray, n_used: int):
    """log n, p = n^{-b_j} (real for a real base) and |p| for n < n_used."""
    n = np.arange(1, n_used, dtype=float)
    log_n = np.log(n)
    p = (np.exp(-np.outer(log_n, base)) if np.iscomplexobj(base)
         else n[:, None] ** -base)
    return log_n, p, np.abs(p)


@_blas.one_thread
def _em_block(base: np.ndarray, shifts: np.ndarray, tol: float,
              grid: tuple | None = None, cutoff: int | None = None):
    """zeta(b_j + i t_k) for base points b_j and ordinate shifts t_k.

    Returns (values, err), both shaped (shifts, base).  The whole block
    shares one cutoff N (default _cutoff(base, shifts)); the main sum is factored
    as exp(-i t_k log n) @ n^{-b_j}.  On a grid t_k = t_0 + k*step, grid
    may hold what _grid_chunks yields: the factor phases[k, n-1] =
    exp(-i k step log n) for at least as many k as there are shifts, and a
    _dirichlet_table of at least N-1 rows; the main sum is then
    phases @ (exp(-i t_0 log n) n^{-b_j}).  N^{-s} is the rank-one product
    exp(-b_j log N) exp(-i t_k log N), both complex exps; for a real base
    that is the arithmetic of exp(-s log N) entry by entry, bit for bit.
    It runs on one BLAS thread, so its bits do not depend on the process's
    thread count.  Bernoulli terms are
    added until the remainder bound drops to tol everywhere or the terms
    stop shrinking; err is that bound plus twice the float-noise floor.
    The entry of largest |s| is tried first, in Python floats with a 1e-6
    margin (far above their few-ulp gap to numpy's); the full-array tests
    run only where it cannot rule a stop out, and at the last term.
    """
    s = base[None, :] + 1j * shifts[:, None]
    n_used = _cutoff(base, shifts) if cutoff is None else cutoff
    if grid is None:
        log_n, p, mags = _dirichlet_table(base, n_used)
        main = np.exp(-1j * np.outer(shifts, log_n)) @ p
    else:
        phases, *table = grid
        log_n, p, mags = (a[:n_used - 1] for a in table)
        main = (phases[:shifts.size, :n_used - 1]
                @ (np.exp(-1j * shifts[0] * log_n)[:, None] * p))
    big_n = float(n_used)
    log_big_n = math.log(big_n)
    ninvs = (np.exp(-base.astype(complex) * log_big_n)[None, :]   # N^{-s}
             * np.exp(-1j * log_big_n * shifts)[:, None])
    corr = ninvs * (big_n / (s - 1.0) + 0.5)
    rising = s                                     # (s)_1
    npow = ninvs / big_n                           # N^{-s-1}
    inv_n2 = 1.0 / (big_n * big_n)
    probe = int(np.argmax(np.abs(s)))
    s_p = s.item(probe)
    prev, prev_p = np.inf, math.inf    # last term added, |its probe entry|
    for k in range(1, _M_CAP + 1):
        term = _B2F[k] * rising * npow
        mag_p = abs(term.item(probe))
        bound_p = abs(s_p + (2 * k - 1)) / (s_p.real + (2 * k - 1)) * mag_p
        if (k == _M_CAP or bound_p <= tol * (1.0 + 1e-6)
                or mag_p >= prev_p * (1.0 - 1e-6)):
            mag = np.abs(term)
            bound = np.abs(s + (2 * k - 1)) / (s.real + (2 * k - 1)) * mag
            if (bound <= tol).all() or (mag >= np.abs(prev)).all():
                break                          # converged, or divergent tail
        corr = corr + term
        prev, prev_p = term, mag_p
        rising = rising * ((s + (2 * k - 1)) * (s + 2 * k))
        npow = npow * inv_n2
    # float-noise floor: each term n^{-s} carries a phase rounded through
    # t*log n, so its absolute error scales like eps*|term|*(1 + |t| log n)
    noise = _EPS * (mags.sum(axis=0) + np.abs(s.imag) * (log_n @ mags)
                    + np.abs(corr))
    return main + corr, bound + 2.0 * noise


def _grid_chunks(base: np.ndarray, shifts: np.ndarray, step: float):
    """Split the ascending grid shifts[k] = shifts[0] + k*step into chunks
    of up to _GRID_ROWS shifts, fewer where that many rows of the largest
    cutoff would pass _GRID_CELLS entries; each chunk is one cutoff and one
    product in _em_block.

    Yields (slice, grid) per chunk, where grid is what _em_block takes:
    the grid factor phases[k, n-1] = exp(-i k step log n), k below the
    chunk length, then the _dirichlet_table, both built once with columns
    (rows) for the grid's largest cutoff.  The factor is the product of
    two short tables, exp(-i (k - k % f) step log n) exp(-i (k % f) step
    log n) with f about the square root of its rows (32 of 512), written f
    rows at a time into one array of exactly its rows, so it holds no more
    than _GRID_CELLS entries.
    """
    if shifts.size == 0:
        return
    n_max = _cutoff(base, shifts[[0, -1]])         # |Im b + t| peaks at an end
    rows = max(1, min(_GRID_ROWS, _GRID_CELLS // n_max))
    table = _dirichlet_table(base, n_max)
    fine = 1 << ((rows - 1).bit_length() + 1) // 2

    def phase(k):
        return np.exp(-1j * np.outer(k * step, table[0]))

    coarse, short = phase(np.arange(0, rows, fine)), phase(np.arange(fine))
    phases = np.empty((rows, n_max - 1), dtype=complex)
    for j, lo in enumerate(range(0, rows, fine)):
        part = phases[lo:lo + fine]
        np.multiply(coarse[j], short[:len(part)], out=part)
    grid = (phases, *table)
    for lo in range(0, shifts.size, rows):
        yield slice(lo, min(lo + rows, shifts.size)), grid


def _finite_s(s) -> complex:
    """s as a complex number, or ValueError when either part is not finite."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    return s


def partial_zeta(s: complex, n_max: int) -> complex:
    """Finite Dirichlet sum over n = 1..n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    s = _finite_s(s)
    total = 0.0 + 0.0j
    for lo in range(1, n_max + 1, 10 ** 6):
        n = np.arange(lo, min(lo + 10 ** 6, n_max + 1), dtype=float)
        total += np.sum(np.exp(-s * np.log(n)))
    return complex(total)


def euler_product(s: complex, p_max: int) -> complex:
    """prod_{p <= p_max} (1 - p^{-s})^{-1}; needs Re s > 1."""
    s = _finite_s(s)
    if s.real <= 1.0:
        raise ValueError(f"Euler product requires Re s > 1, got {s.real}")
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    p = primes_upto(p_max).astype(float)
    return complex(np.prod(1.0 / (1.0 - np.exp(-s * np.log(p)))))


def zeta(s: complex) -> ZetaPoint:
    """Euler-Maclaurin zeta on 0 < Re s, s != 1, |Im s| <= 1e4."""
    s = _finite_s(s)
    if s == 1.0:
        raise ValueError("zeta has a pole at s = 1")
    if s.real <= 0.0:
        raise ValueError(f"evaluation domain is Re s > 0, got {s.real}")
    if abs(s.imag) > _T_CEIL:
        raise ValueError(f"|Im s| is capped at {_T_CEIL:g}, got {s.imag}")
    values, errs = _em_block(np.array([s.real]), np.array([s.imag]), 1e-15)
    err = float(errs[0, 0])
    if err > 1e-8:
        raise ZetaAccuracyError(
            f"error bound {err:.2e} exceeds 1e-8 at s={s}")
    return ZetaPoint(s=s, value=complex(values[0, 0]), abs_err_bound=err)


def completed_xi(s: complex) -> complex:
    """xi(s) = (1/2) s (s-1) pi^{-s/2} Gamma(s/2) zeta(s); xi(0)=xi(1)=1/2."""
    s = complex(s)
    if s == 0.0 or s == 1.0:
        return 0.5 + 0.0j
    from scipy.special import gamma

    z = zeta(s).value
    return 0.5 * s * (s - 1.0) * cmath.exp(-0.5 * s * math.log(math.pi)) \
        * complex(gamma(s / 2.0)) * z


# --- critical line -------------------------------------------------------------


# B_{2k}/(2k(2k-1)), k = 1..7: the Stirling series of log Gamma
_STIRLING = tuple(n / (d * 2 * k * (2 * k - 1)) for k, (n, d)
                  in enumerate(_bernoulli(7), 1))


def _rs_theta(t):
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, continuous.

    The log-Gamma asymptotic expansion is used for t >= 10 (error below
    1e-8 there).  For smaller t, z = 1/4 + it/2 is shifted to w = z + 10:
    log Gamma(z) = log Gamma(w) - sum_{j<10} log(z + j), with every
    Re(z + j) > 0, so each log is principal and the sum continuous; log
    Gamma(w) is Stirling's series to the B_14 term.  Its remainder is at
    most sec^16(arg(w)/2) < 1.52 times the first omitted term, the B_16
    one (DLMF 5.11.ii): under 3.1e-17, as |w| >= 10.25 and |arg w| < 0.454.
    The terms sum to under 55 in magnitude and each carries at most 4
    roundings, so theta is off by less than 5e-14.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    hi = t >= 10.0
    if np.any(hi):
        th = t[hi]
        out[hi] = (th / 2.0 * np.log(th / _TWO_PI) - th / 2.0 - math.pi / 8.0
                   + 1.0 / (48.0 * th) + 7.0 / (5760.0 * th ** 3)
                   + 31.0 / (80640.0 * th ** 5))
    lo = ~hi
    if np.any(lo):
        tl = t[lo]
        z = 0.25 + 0.5j * tl
        w = z + 10.0
        w2 = w * w
        series = _STIRLING[-1]
        for c in _STIRLING[-2::-1]:
            series = series / w2 + c
        log_gamma_w = (w - 0.5) * np.log(w) - w + series / w
        shift = np.angle(z[:, None] + np.arange(10.0)).sum(axis=1)
        out[lo] = log_gamma_w.imag - shift - 0.5 * tl * math.log(math.pi)
    return out


def _z_block(t_block: np.ndarray, grid: tuple | None = None,
             cutoff: int | None = None):
    """Z(t) and its error bound on an ascending array of positive
    ordinates, one shared N; grid and cutoff as in _em_block."""
    vals, err = _em_block(np.array([0.5]), t_block, _Z_TOL, grid, cutoff)
    return (np.exp(1j * _rs_theta(t_block)) * vals[:, 0]).real, err[:, 0]


@_blas.one_thread
def _z_scalar(t: np.ndarray):
    """(z, bound) at each t_i as _z_block(np.array([t_i])) gives them, bit
    for bit, in one call.  All elementwise work runs over every point at
    once, each point's Bernoulli tail stopping where its own full-array
    stop test would (the _M_CAP exit included).  Three reductions take
    their bits from their length, so each point makes its own call of them:
    the (1 x N-1) @ (N-1 x 1) main sum, mags.sum and log_n @ mags; log N is
    math.log's, as np.log can differ from it.  The phases are built for
    the points in parts of about _SCALAR_CELLS entries.
    """
    n_used = np.maximum(20, np.ceil(t)).astype(int)          # as _cutoff
    log_n, p, mags = _dirichlet_table(np.array([0.5]), n_used.max(initial=20))
    main, mag_sum, log_sum = (np.empty(t.size, dtype=d)
                              for d in (complex, float, float))
    width = n_used - 1
    cuts = np.flatnonzero(np.diff(np.cumsum(width) // _SCALAR_CELLS)) + 1
    for part in np.split(np.arange(t.size), cuts):
        starts = np.cumsum(width[part]) - width[part]
        cols = np.arange(width[part].sum()) - np.repeat(starts, width[part])
        phase = np.exp(-1j * (np.repeat(t[part], width[part]) * log_n[cols]))
        for i, at in zip(part, starts):
            m = width[i]
            main[i] = (phase[at:at + m][None, :] @ p[:m])[0, 0]
            mag_sum[i] = mags[:m].sum(axis=0)[0]
            log_sum[i] = (log_n[:m] @ mags[:m])[0]
    big_n = n_used.astype(float)
    log_big_n = np.array([math.log(v) for v in big_n])
    s = 0.5 + 1j * t
    ninvs = np.exp(-(0.5 + 0j) * log_big_n) * np.exp(-1j * log_big_n * t)
    corr = ninvs * (big_n / (s - 1.0) + 0.5)
    bound = np.empty(t.size)
    live, s_k, prev = np.arange(t.size), s, np.full(t.size, np.inf)
    rising, npow, inv_n2 = s, ninvs / big_n, 1.0 / (big_n * big_n)
    for k in range(1, _M_CAP + 1):
        term = _B2F[k] * rising * npow
        mag = np.abs(term)
        bound[live] = np.abs(s_k + (2 * k - 1)) / (s_k.real + (2 * k - 1)) * mag
        go = ~((bound[live] <= _Z_TOL) | (mag >= prev))
        corr[live[go]] += term[go]
        if k == _M_CAP or not go.any():
            break
        live, s_k, prev = live[go], s_k[go], mag[go]
        rising = rising[go] * ((s_k + (2 * k - 1)) * (s_k + 2 * k))
        npow = npow[go] * inv_n2[live]
    noise = _EPS * (mag_sum + np.abs(t) * log_sum + np.abs(corr))
    return (np.exp(1j * _rs_theta(t)) * (main + corr)).real, bound + 2.0 * noise


def _z_fast(t_block: np.ndarray):
    """_z_block at N = max(20, ceil(max t / pi)), a third of the default;
    |s|/(2 pi N) <= 1/2 still takes the tail to _Z_TOL in few terms."""
    return _z_block(t_block, cutoff=max(20, math.ceil(t_block.max() / math.pi)))


@functools.cache
def _prefix_sums():
    """sum_{m<=n} m^{-1/2} and sum_{m<=n} m^{-1/2} log m at index n - 1, for
    every n below _T_CEIL; built on first use, 160 kB, read-only."""
    n = np.arange(1, _T_CEIL, dtype=float)
    w = n ** -0.5
    sums = np.cumsum(w), np.cumsum(w * np.log(n))
    for s in sums:
        s.flags.writeable = False
    return sums


def _z_scalar_bound_cap(t: np.ndarray) -> np.ndarray:
    """A majorant of the bound _z_block(np.array([t_i])) reports at each t_i:
    _Z_TOL plus twice the noise floor over n < N = max(20, ceil t_i), with
    1 standing in for |corr| (below 1/2 on the critical line for t >= 14)."""
    n_t = np.maximum(20, np.ceil(t)).astype(int)
    s0, s1 = (s[n_t - 2] for s in _prefix_sums())
    return _Z_TOL + 2.0 * _EPS * (s0 + t * s1 + 1.0)


# Taylor coefficients of the Riemann-Siegel corrections C_0..C_4 in
# x = p - 1/2, of k's parity: row k holds the coefficients of x^(2i + k%2).
# Regenerated by tests/oracles/rs_coefficients.py (mpmath at 100 digits);
# the terms dropped past each row sum to under 1e-17 at |x| = 1/2.
_RS_COEFFS = (
    (0.3826834323650898, 1.7489618723100817, 2.118025207685496,
     -0.8707216670511481, -3.4733112243465167, -1.6626947308999325,
     1.216731288919232, 1.3014304161007977, 0.03051102182736167,
     -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
     0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
     -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
     -2.3025650027239108e-05, -9.380006601906792e-06),
    (-0.053650205256750697, 0.11027818741081483, 1.2317200154315227,
     1.2634964862799458, -1.695108997559503, -2.9998711967650102,
     -0.10819944959899208, 1.9407662946212714, 0.7838423561500687,
     -0.5054829667900366, -0.38450723496057976, 0.03747264646531532,
     0.09092026610973176, 0.01044923755006451, -0.012582979651583417,
     -0.003399503721151274, 0.0010410950537714891, 0.0005010949051118486,
     -3.956359669003182e-05, -4.7624592453571896e-05),
    (0.005188542830293168, 0.0012378633552253898, -0.18137505725166997,
     0.14291492748532125, 1.3303391766687565, 0.3522472353403734,
     -2.421001595891951, -1.6760787022538108, 1.3689416723328371,
     1.5539019430222982, -0.1722164273472998, -0.6359068055045431,
     -0.09911649873041208, 0.14033480067387008, 0.04782352019827292,
     -0.017356040641479782, -0.010225012534028593, 0.0009274149159794888,
     0.0013572194372373386, 6.41369012029388e-05, -0.0001230080569819663),
    (-0.0026794321814389136, 0.02995372109103515, -0.042570172541828696,
     -0.28997965779803886, 0.4888831999235446, 1.230855876395746,
     -0.8297560708527408, -2.249763536666567, 0.07845139961005472,
     1.7467492800868893, 0.45968080979749937, -0.6619353471039775,
     -0.31590441036173633, 0.12844792545207495, 0.10073382716626152,
     -0.009530183848825268, -0.019264421687514088, -0.001246463715876929,
     0.0024243969641103086, 0.000437647697741857, -0.00020714032687001792),
    (0.00046483389361763383, -0.004022642946136188, 0.003847177051796127,
     0.06581175135809486, -0.19604124343694448, -0.20854053686358853,
     0.9507754185141751, 0.5341535312914873, -1.67634944117634,
     -1.076747157875129, 1.235339301656597, 1.0257825340057276,
     -0.40124095793988546, -0.5036663995108304, 0.03573487795502745,
     0.14431763086785418, 0.01509152741790347, -0.026098874779194363,
     -0.006126628379519262, 0.003077503129870841, 0.0011562478934088753,
     -0.00022775966758472127),
)
_RS_T_MIN = 200.0      # Gabcke's bound on the K = 4 remainder holds from here
# _RS_COEFFS as a matrix: row k holds the coefficients of x^(2m + k%2), m = 0..21
_RS_MATRIX = np.array(list(zip_longest(*_RS_COEFFS, fillvalue=0.0))).T


@_blas.one_thread
def _z_rs(t_block: np.ndarray, step: float | None = None):
    """Riemann-Siegel Z on positive ordinates: (z, bound), |z - Z(t)| <= bound.

    With a = sqrt(t/2pi), N = floor(a) and p = a - N,

        Z(t) = 2 sum_{n<=N} n^{-1/2} cos(theta(t) - t log n)
             + (-1)^{N-1} (2pi/t)^{1/4} sum_{k<=4} C_k(p) (2pi/t)^{k/2} + R_4,

    and |R_4| <= 0.017 t^{-11/4} for t >= 200 (Gabcke, thesis, Goettingen
    1979; Arias de Reyna, Math. Comp. 80 (2011) 995-1009).  The bound adds
    a rounding floor to that.  The phase theta^ - t log n is off by at most
    dtheta + eps (|theta^| + 2 t log n), where dtheta = 4 eps (|theta^| + t)
    plus the first omitted term of _rs_theta's series bounds theta^'s own
    error; dtheta is counted twice, since the scalar route rotates by
    theta^ and so takes Z cos(dtheta) for Z.  Each term adds 3 eps for its
    cosine, weight and product, and the sum N eps of its total; the floor
    takes these sums over n from _prefix_sums.  C_0..C_4 are one matrix
    product, _RS_MATRIX times the powers x^{2m} of x = p - 1/2 (each built
    by one more multiplication), on one BLAS thread.  They add (2pi/t)^{1/4}
    eps (32 + 16 a): a term c_km x^{2m+k%2} is off by at most (m + 12) eps
    relative (2m - 1 roundings of eps/2 in its power, 22 in a dot product
    of 22 terms in any order, one for the odd rows' factor x), and sum_k sum_m
    |c_km| 2^{-2m-k%2} (m + 12) <= 14.5; the Horner steps in (2pi/t)^{1/2},
    its own rounding and the fourth root add at most 8 eps sum_k |C_k|,
    where sum_k sum_m |c_km| 2^{-2m-k%2} <= 1.2; and p is off by 2 a eps
    under sum_k max |C_k'| <= 4.4.

    With step, t_block holds evenly spaced points t_j = fl(k_j step), k_j
    consecutive, as the zero scan has them.  The main sum is then
    2 Re(e^{i theta} sum_n n^{-1/2} e^{-i t_j log n}), whose phases come from
    two tables: e^{-i T log n} at every f-th point T (f about the square
    root of the block) times e^{-i fl(r step) log n}, r < f, taken by one
    complex matrix product per distinct N.  The floor gains, per term, the
    phase that writing t_j as T + fl(r step) moves, |t_j - T - fl(r step)|
    log n (about eps t log n on the grid; t_j - T is exact), and 4 eps for
    the two tables' exps and their product; a point off the grid thus only
    loses its certificate.  Below t = 200, where Gabcke's bound does not
    hold, z is 0 and the bound inf.
    """
    t = np.asarray(t_block, dtype=float)
    z, bound = np.zeros_like(t), np.full_like(t, np.inf)
    hi = t >= _RS_T_MIN
    if not hi.any():
        return z, bound
    t = t[hi]
    a = np.sqrt(t / _TWO_PI)
    n_main = np.floor(a)
    x = a - n_main - 0.5
    theta = _rs_theta(t)
    n = np.arange(1.0, n_main.max() + 1.0)
    log_n, w = np.log(n), n ** -0.5
    s0, s1 = (s[n_main.astype(int) - 1] for s in _prefix_sums())
    d_theta = 4.0 * _EPS * (np.abs(theta) + t) + 127.0 / (430080.0 * t ** 7)
    floor = 2.0 * (2.0 * _EPS * t * s1
                   + (2.0 * d_theta + _EPS * (np.abs(theta) + 3.0 + n_main)) * s0)
    if step is None:
        used = n[None, :] <= n_main[:, None]
        terms = np.cos(theta[:, None] - np.outer(t, log_n),
                       out=np.zeros((t.size, n.size)), where=used)
        terms *= np.where(used, w, 0.0)
        main = 2.0 * np.sum(terms, axis=1)
    else:
        fine = 1 << ((t.size - 1).bit_length() + 1) // 2
        j = np.arange(t.size)
        offset = np.arange(fine) * step
        coarse = np.exp(-1j * np.outer(t[::fine], log_n)) * w
        short = np.exp(-1j * np.outer(offset, log_n))
        sums = np.empty(t.size, dtype=complex)
        edges = [0, *(np.flatnonzero(np.diff(n_main)) + 1), t.size]
        for j0, j1 in zip(edges, edges[1:]):           # runs of one N
            top, c0 = int(n_main[j0]), j0 // fine
            part = coarse[c0:(j1 - 1) // fine + 1, :top] @ short[:, :top].T
            sums[j0:j1] = part.ravel()[j0 - c0 * fine:j1 - c0 * fine]
        main = 2.0 * (np.cos(theta) * sums.real - np.sin(theta) * sums.imag)
        shift = np.abs((t - t[j - j % fine]) - offset[j % fine])
        floor += 2.0 * (shift * s1 + 4.0 * _EPS * s0)
    powers = np.empty((_RS_MATRIX.shape[1], t.size))
    powers[0], powers[1] = 1.0, x * x
    for m in range(2, len(powers)):
        np.multiply(powers[m - 1], powers[1], out=powers[m])
    c_k = _RS_MATRIX @ powers
    c_k[1::2] *= x
    u = np.sqrt(_TWO_PI / t)
    corr = c_k[-1]
    for k in range(len(_RS_COEFFS) - 2, -1, -1):
        corr = corr * u + c_k[k]
    sign = np.where(n_main % 2 == 1.0, 1.0, -1.0)
    z[hi] = main + sign * np.sqrt(u) * corr
    floor += np.sqrt(u) * _EPS * (32.0 + 16.0 * a)
    bound[hi] = 0.017 * t ** -2.75 + floor
    return z, bound


def riemann_siegel_Z(t: float) -> float:
    """Rotated critical-line value Z(t) = e^{i theta(t)} zeta(1/2+it)."""
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t}")
    if t > _T_CEIL:
        raise ValueError(f"t is capped at {_T_CEIL:g}, got {t}")
    z, _ = _z_block(np.array([t]))
    return float(z[0])


def mean_zero_count(t: float) -> float:
    """Smooth zero-count estimate Nbar(T) = (T/2pi)log(T/2pi) - T/2pi + 7/8."""
    if not (0.0 < t < math.inf):
        raise ValueError(f"t must be finite and positive, got {t}")
    x = t / _TWO_PI
    return x * math.log(x) - x + 0.875


def _certified_z(t: np.ndarray, step: float | None = None):
    """Z on an ascending array of positive ordinates, each sign equal to the
    scalar route's (riemann_siegel_Z); returns (z, gate, n_scalar).

    Two fast routes are tried in turn, each on the points the one before
    left open: _z_rs in blocks of _RS_SCAN_BLOCK (from its phase tables
    where step says t is the scan grid), then _z_fast in chunks of
    _FAST_CHUNK.  No block holds points from both sides of _RS_T_MIN:
    a _z_fast chunk's cutoff follows its largest t, and the points below,
    all left open by _z_rs, would pay the cutoff of the few Riemann-Siegel
    misses above.  A value stands only where |z| > gate = its bound +
    _z_scalar_bound_cap(t): both bounds cover Z as the scalar route
    rotates it, so its sign is the scalar route's.  The scalar route
    decides the other n_scalar points, by one _z_scalar call; gate is its
    bound.  The zero scan reads only the signs; _refine also reads the
    values, each within its gate of Z, to place its next probes.
    """
    z, gate = np.empty_like(t), np.empty_like(t)
    cap = _z_scalar_bound_cap(t)
    open_ = np.arange(t.size)
    rs = functools.partial(_z_rs, step=step)
    for route, size in ((rs, _RS_SCAN_BLOCK), (_z_fast, _FAST_CHUNK)):
        cut = np.searchsorted(t[open_], _RS_T_MIN)
        for run in (open_[:cut], open_[cut:]):
            for lo in range(0, run.size, size):
                i = run[lo:lo + size]
                z[i], bound = route(t[i])
                gate[i] = bound + cap[i]
        open_ = open_[np.abs(z[open_]) <= gate[open_]]
    if open_.size:
        z[open_], gate[open_] = _z_scalar(t[open_])
    return z, gate, open_.size


def _z_scan(t_max: float, grid: float):
    """Z on t = grid, 2*grid, ... up to t_max, with t_max appended when it
    is off the grid; returns (ts, z, gate, n_scalar).

    The grid is cut into chunks of _GRID_ROWS points.  Those that start
    below _RS_T_MIN go through the factored grid route, whose factor has
    only the columns they need; there gate is the route's bound.  Every
    later point, an off-grid t_max included, goes through _certified_z,
    whose Riemann-Siegel blocks take their phases from the grid's tables.
    """
    k = int(math.floor(t_max / grid + 1e-9))
    ts = np.arange(1, k + 1, dtype=float) * grid
    if ts.size == 0 or ts[-1] < t_max - 1e-12:
        ts = np.append(ts, t_max)
    z, gate = np.empty_like(ts), np.empty_like(ts)
    first = min(k, _GRID_ROWS * int(np.sum(ts[:k:_GRID_ROWS] < _RS_T_MIN)))
    for sl, chunk in _grid_chunks(np.array([0.5]), ts[:first], grid):
        z[sl], gate[sl] = _z_block(ts[sl], chunk)
    z[first:], gate[first:], n_scalar = _certified_z(ts[first:], grid)
    return ts, z, gate, n_scalar


def _refine(a: np.ndarray, b: np.ndarray, za: np.ndarray, zb: np.ndarray):
    """Shrink every bracket [a_i, b_i], where Z(a_i) = za_i and Z(b_i) = zb_i
    differ in sign, until b - a <= _ZERO_TOL.

    Each sweep probes a live bracket of width w at x - h and x + h around
    its regula-falsi point x = a + w za/(za - zb), h = max(0.49 _ZERO_TOL,
    2 w^2): near a simple zero r, x is off by |Z''/2Z'| (r - a)(b - r), at
    most |Z''/Z'| w^2/8, so the pair straddles r wherever |Z''/Z'| <= 16,
    and the final pair, 0.98 _ZERO_TOL apart, is within _ZERO_TOL after
    rounding.  A probe outside (a, b) is dropped.  A
    bracket that its last sweep did not at least halve is probed once, at
    its midpoint, so no bracket takes more than twice the sweeps of a
    bisection.  All probes go to one ascending _certified_z call, so every
    sign equals the scalar route's.  The bracket becomes the narrowest of
    its parts whose ends differ in sign; an exact zero closes it.  Returns
    the centres, the smallest |Z|/gate over the probes and the number of
    scalar decisions.
    """
    pos, val = np.stack([a, b], axis=1), np.stack([za, zb], axis=1)
    halve = np.zeros(a.size, dtype=bool)
    margin, n_ref = math.inf, 0
    live = np.nonzero(b - a > _ZERO_TOL)[0]
    while live.size:
        p, z, mid = pos[live], val[live], halve[live]
        w = p[:, 1] - p[:, 0]
        x = p[:, 0] + w * (z[:, 0] / (z[:, 0] - z[:, 1]))
        h = np.maximum(0.49 * _ZERO_TOL, 2.0 * w * w)
        x[mid], h[mid] = 0.5 * (p[mid, 0] + p[mid, 1]), 0.0
        q = np.stack([x - h, x + h], axis=1)
        use = (q > p[:, :1]) & (q < p[:, 1:])
        use[mid, 1] = False
        zq = np.empty_like(q)
        zq[use], gate, n_scalar = _certified_z(q[use])
        n_ref += n_scalar
        margin = min(margin, float(np.min(np.abs(zq[use]) / gate)))
        # a dropped probe stands in for the end beside it
        ts = np.hstack([p[:, :1], np.where(use, q, p), p[:, 1:]])
        zs = np.hstack([z[:, :1], np.where(use, zq, z), z[:, 1:]])
        neg = zs < 0.0
        part = np.where(neg[:, :-1] != neg[:, 1:], np.diff(ts), np.inf)
        k = np.argmin(part, axis=1)[:, None]
        pos[live] = np.take_along_axis(ts, np.hstack([k, k + 1]), axis=1)
        val[live] = np.take_along_axis(zs, np.hstack([k, k + 1]), axis=1)
        hit = np.nonzero((zq == 0.0) & use)
        pos[live[hit[0]]] = q[hit][:, None]
        halve[live] = ~mid & (pos[live, 1] - pos[live, 0] > 0.5 * w)
        live = live[pos[live, 1] - pos[live, 0] > _ZERO_TOL]
    return 0.5 * (pos[:, 0] + pos[:, 1]), margin, n_ref


def find_zeros(t_max: float, grid: float = 0.05) -> ZeroList:
    """Sign-scan Z on the grid and refine each sign change until its
    bracket is at most 1e-9 wide; each ordinate is the centre of its final
    bracket, and ZeroList.tol reports that bracket width.

    In the grid chunks that start below t = 200 the scan takes Z from the
    factored grid sum (_grid_chunks).  Every later scan point, and every
    refinement probe, goes through one chain, _certified_z:
    Riemann-Siegel (on the scan, from the grid's phase tables), then a
    t/pi-cutoff Euler-Maclaurin sum, each kept only where it certifies the
    sign, then the scalar route, batched per call.  The refinement
    (_refine) probes all brackets together, by regula falsi with a
    midpoint safeguard, and every sign it reads is the scalar route's, so
    each final bracket holds a sign change of riemann_siegel_Z.
    ZeroList.min_sign_margin is the smallest |Z|/gate over the scan
    values at each sign change and over every probe.  It is reported,
    never raised on: a margin below 1 means a probe went past what the
    bounds certify.

    The count is checked against the smooth estimate; a mismatch beyond
    +-2 raises MissedZerosError (rerun with a finer grid).
    """
    if not (0.0 < t_max <= _T_CEIL):
        raise ValueError(f"t_max must be in (0, {_T_CEIL:g}], got {t_max}")
    if not (0.0 < grid <= 0.1):
        raise ValueError(f"grid must be in (0, 0.1], got {grid}")
    ts, z, gate, n_scan = _z_scan(t_max, grid)
    flips = np.nonzero(np.sign(z[:-1]) * np.sign(z[1:]) < 0)[0]
    exact_hits = np.nonzero(z == 0.0)[0]
    centres, margin, n_ref = _refine(ts[flips], ts[flips + 1], z[flips],
                                     z[flips + 1])
    decided = np.concatenate([flips, flips + 1, exact_hits])
    if decided.size:
        margin = min(margin, float(np.min(np.abs(z[decided]) / gate[decided])))
    ordinates = sorted(centres.tolist() + ts[exact_hits].tolist())
    expected = mean_zero_count(t_max)
    if abs(len(ordinates) - expected) > 2.0:
        raise MissedZerosError(
            f"found {len(ordinates)} zeros to t={t_max} but the smooth count "
            f"gives {expected:.2f}; rerun with a finer grid than {grid}")
    return ZeroList(ordinates=tuple(ordinates), tol=_ZERO_TOL,
                    t_max=float(t_max), min_sign_margin=margin,
                    reference_decisions=n_scan + n_ref)


def unfold(zeros: ZeroList) -> np.ndarray:
    """Map each ordinate through Nbar, giving unit mean spacing."""
    if len(zeros.ordinates) == 0:
        raise ValueError("cannot unfold an empty zero list")
    return np.array([mean_zero_count(t) for t in zeros.ordinates])


# --- pair statistics -----------------------------------------------------------


def pair_correlation(unfolded, max_sep: float, bins: int) -> PairCorrelation:
    """Histogram of pairwise separations in (0, max_sep] per unit length
    per position, with the sine-kernel density as the reference column.
    """
    x = np.sort(np.asarray(unfolded, dtype=float).ravel())
    if x.size < 100:
        raise ValueError(f"need >= 100 positions, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("positions must be finite")
    if not (max_sep > 0.0 and math.isfinite(max_sep)):
        raise ValueError(f"max_sep must be positive, got {max_sep}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    # x[i + d] - x[i] for each offset d below span_i, the window from x[i]
    span = np.searchsorted(x, x + max_sep, side="right") - np.arange(x.size)
    diffs = np.concatenate([np.empty(0)] + [
        (x[d:] - x[:-d])[span[:-d] > d] for d in range(1, int(span.max()))])
    counts, edges = np.histogram(diffs, bins=bins, range=(0.0, max_sep))
    total = int(counts.sum())
    if total == 0:
        raise ValueError("no pairs fall inside (0, max_sep]")
    width = edges[1:] - edges[:-1]
    empirical = counts / (x.size * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    reference = 1.0 - np.sinc(centers) ** 2
    f_emp = np.cumsum(counts) / total
    ref_mass = reference * width
    f_ref = np.cumsum(ref_mass) / ref_mass.sum()
    ks = float(np.max(np.abs(f_emp - f_ref)))
    return PairCorrelation(bin_edges=edges, empirical=empirical,
                           reference=reference, ks_distance=ks,
                           n_positions=int(x.size), pair_count=total)


def gue_eigenvalues(dim: int, seed) -> np.ndarray:
    """Eigenvalues of one GUE draw by the beta = 2 Hermite tridiagonal model
    (Dumitriu & Edelman, J. Math. Phys. 43 (2002) 5830-5847): N(0,1) diagonal,
    off-diagonal sqrt(chi2_2k / 2), k = dim-1..1, as Householder reduces the
    dense GUE (N(0,1) diagonal, (x+iy)/sqrt(2) above): same law and radius
    2 sqrt(dim).  LAPACK's dsterf solves it in O(dim^2) time, O(dim) memory,
    on no BLAS thread.  Dense eigvalsh, the route where numpy's BLAS has no
    dsterf, gives the same bits: its Householder pass leaves a tridiagonal
    matrix as it is, then it calls dsterf."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(dim)
    e = np.sqrt(rng.chisquare(2.0 * np.arange(dim - 1, 0, -1)) / 2.0)
    dsterf = _blas.dsterf()
    if dsterf is not None:
        lam, off, info = d.copy(), e.copy(), ctypes.c_int64()  # overwritten
        dsterf(ctypes.byref(ctypes.c_int64(dim)), lam, off, ctypes.byref(info))
        if info.value == 0:
            return lam
    h = np.diag(d)
    h.flat[1::dim + 1] = h.flat[dim::dim + 1] = e
    return np.linalg.eigvalsh(h)


def gue_sample(dim: int, trials: int, seed: int) -> np.ndarray:
    """Unfolded central-bulk GUE eigenvalue positions, trials concatenated:
    each trial, one gue_eigenvalues draw (O(dim^2) time, O(dim) memory),
    is unfolded by F(x) = 1/2 + x sqrt(R^2-x^2)/(pi R^2) + asin(x/R)/pi,
    R = 2 sqrt(dim), times dim; its middle half is shifted by trial_index*dim,
    ~dim/2 clear of other trials for any max_sep.  Deterministic per seed.
    """
    if dim < 20:
        raise ValueError(f"dim must be >= 20, got {dim}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    radius = 2.0 * math.sqrt(dim)
    lo, hi = dim // 4, dim - dim // 4
    out = []
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        lam = np.clip(gue_eigenvalues(dim, child), -radius, radius)
        f = (0.5 + lam * np.sqrt(radius ** 2 - lam ** 2) / (math.pi * radius ** 2)
             + np.arcsin(lam / radius) / math.pi)
        out.append(dim * f[lo:hi] + k * float(dim))
    return np.concatenate(out)


# --- spectral side -------------------------------------------------------------


def _spectrum(eigenvalues) -> np.ndarray:
    """A finite positive spectrum as a flat float array, or ValueError."""
    lam = np.asarray(eigenvalues, dtype=float).ravel()
    if lam.size == 0:
        raise ValueError("empty spectrum")
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
        raise ValueError("eigenvalues must be finite and positive")
    return lam


def spectral_zeta(eigenvalues, s: complex) -> complex:
    """sum_n lambda_n^{-s} over a finite positive spectrum."""
    lam = _spectrum(eigenvalues)
    s = _finite_s(s)
    return complex(np.sum(np.exp(-s * np.log(lam))))


def heat_trace_mellin(eigenvalues, s: float) -> float:
    """(1/Gamma(s)) integral_0^inf t^{s-1} sum_n e^{-t lambda_n} dt.

    Quadrature runs on u = log t; the normalized transform equals
    spectral_zeta for any finite positive spectrum.
    """
    from scipy.integrate import IntegrationWarning, quad
    from scipy.special import gamma

    lam = _spectrum(eigenvalues)
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError(f"s must be positive and finite, got {s}")

    def integrand(u):
        # t^{s-1} e^{-t lam} dt with t = e^u, fused so the exponent goes to
        # -inf (not inf*0) in both tails
        with np.errstate(over="ignore"):
            return float(np.sum(np.exp(s * u - lam * np.exp(u))))

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, abserr = quad(integrand, -np.inf, np.inf,
                               epsabs=1e-12, epsrel=1e-12, limit=300)
        except IntegrationWarning as exc:
            raise QuadratureError(f"heat-trace quadrature failed: {exc}") from exc
    gamma_s = float(gamma(s))
    out = val / gamma_s
    if abserr / gamma_s > 1e-8 * max(1.0, abs(out)):
        raise QuadratureError(
            f"quadrature error {abserr:.2e} above tolerance at s={s}")
    return out


# --- universality ---------------------------------------------------------------

_RING_LAYOUT = ((1.0, 16), (0.75, 8), (0.5, 6), (0.25, 2))


def region_grid(region: Disc) -> np.ndarray:
    """33 sample points on boundary-heavy concentric rings plus center."""
    pts = [region.center]
    for frac, count in _RING_LAYOUT:
        r = region.radius * frac
        for j in range(count):
            ang = _TWO_PI * j / count
            pts.append(region.center + r * cmath.exp(1j * ang))
    return np.array(pts, dtype=complex)


def universality_scan(region: Disc, target, epsilon: float,
                      t_max: float, t_step: float) -> UniversalityReport:
    """Measure how often the shift t keeps zeta within epsilon of target.

    target is a callable evaluated on the region grid, whose values must
    be finite, or None for self-approximation (target = zeta on the grid).
    The t grid is k*t_step for k = 0..round(t_max/t_step)-1; a step is a
    hit when max_j |zeta(s_j + it) - target(s_j)| < epsilon, so at
    epsilon = inf every step hits.  Each step also
    carries err_bounds, the largest over j of the Euler-Maclaurin
    remainder bound plus the float-noise floor, as zeta() works them out.
    The grid goes through one factored grid sum (_grid_chunks), whose
    block width is about t_max + |Im center| + radius; that reach is
    capped at 1e4 like zeta's, and beyond it ValueError is raised.
    """
    if not (region.center.real - region.radius > 0.5
            and region.center.real + region.radius < 1.0):
        raise ValueError("region must lie strictly inside the strip "
                         "1/2 < Re s < 1")
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not (t_step > 0.0 and t_max >= t_step):
        raise ValueError("need t_step > 0 and t_max >= t_step")
    reach = t_max + abs(region.center.imag) + region.radius
    if not (reach <= _T_CEIL):
        raise ValueError(f"t_max + |Im center| + radius is capped at "
                         f"{_T_CEIL:g}, got {reach}")
    pts = region_grid(region)
    if target is None:
        tgt = np.array([zeta(s).value for s in pts])
    else:
        tgt = np.array([complex(target(s)) for s in pts])
        if not np.all(np.isfinite(tgt)):
            raise ValueError("target must be finite on the region grid")
    k_steps = int(round(t_max / t_step))
    tvals = np.arange(k_steps, dtype=float) * t_step
    sup = np.empty(k_steps)
    err = np.empty(k_steps)
    for sl, grid in _grid_chunks(pts, tvals, t_step):
        vals, bounds = _em_block(pts, tvals[sl], 1e-10, grid)
        sup[sl] = np.max(np.abs(vals - tgt[None, :]), axis=1)
        err[sl] = np.max(bounds, axis=1)
    hits = sup < epsilon
    measure = float(np.count_nonzero(hits)) * t_step / t_max
    return UniversalityReport(region=region, epsilon=float(epsilon),
                              t_max=float(t_max), t_step=float(t_step),
                              hit_measure=measure, witnesses=tvals[hits],
                              t_grid=tvals, sup_errors=sup, err_bounds=err)
