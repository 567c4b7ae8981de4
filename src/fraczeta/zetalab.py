"""Riemann zeta numerics at desk scale.

Evaluation in the strip 0 < Re s, |Im s| <= 1e4 runs through a single
Euler-Maclaurin core

    zeta(s) = sum_{n<N} n^{-s} + N^{1-s}/(s-1) + N^{-s}/2
            + sum_k B_{2k}/(2k)! (s)_{2k-1} N^{-s-2k+1} + R

with the classical remainder bound |R| <= |(s+2M+1)/(sigma+2M+1)| times
the first omitted term; every value carries that bound.  On the
critical line the Riemann-Siegel rotation Z(t) = exp(i theta(t))
zeta(1/2+it) is real, and its sign changes localize the zeros.  Zero
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
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import bernoulli, gamma as _gamma_fn, loggamma

_EPS = 2.220446049250313e-16
_TWO_PI = 2.0 * math.pi
_T_CEIL = 1.0e4
_M_CAP = 60
_ZERO_TOL = 1e-9      # bracket width find_zeros bisects to and reports
_GRID_ROWS = 512      # shifts per grid chunk; a chunk shares one cutoff N
_GRID_CELLS = 2 ** 21  # complex entries of the grid factor, 32 MB
_BISECT_CHUNK = 128   # midpoints per _z_block call; each chunk gets its own N

# B_{2k}/(2k)! for k = 0..cap, the only Bernoulli data the tail needs
_B2F = bernoulli(2 * _M_CAP + 2)[0::2] / np.array(
    [math.factorial(2 * k) for k in range(_M_CAP + 2)])


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

    min_sign_margin is the smallest |Z|/bound over the sign decisions that
    placed the zeros; below 1, a decision was not certified by the bound.
    """

    ordinates: tuple
    tol: float
    t_max: float
    min_sign_margin: float = math.inf

    def __post_init__(self):
        ts = self.ordinates
        if any(t <= 0.0 for t in ts):
            raise ValueError("ordinates must be positive")
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


def _em_block(base: np.ndarray, shifts: np.ndarray, tol: float,
              phases: np.ndarray | None = None):
    """zeta(b_j + i t_k) for base points b_j and ordinate shifts t_k.

    Returns (values, err), both shaped (shifts, base).  The whole block
    shares one cutoff N = _cutoff(base, shifts); the main sum is factored
    as exp(-i t_k log n) @ n^{-b_j}, with n^{-b_j} kept real when the base
    is real.  For shifts t_k = t_0 + k*step on a grid, phases may hold
    the grid factor exp(-i k step log n) for k < rows (see _grid_chunks);
    the main sum of each run of rows shifts from t_r on is then
    phases @ (exp(-i t_r log n) n^{-b_j}).  Bernoulli terms are
    added until the remainder bound drops to tol everywhere or the terms
    stop shrinking; err is that bound plus twice the float-noise floor.
    """
    s = base[None, :] + 1j * shifts[:, None]
    n_used = _cutoff(base, shifts)
    n = np.arange(1, n_used, dtype=float)
    log_n = np.log(n)
    if np.iscomplexobj(base):
        p = np.exp(-np.outer(log_n, base))
    else:
        p = n[:, None] ** -base
    if phases is None:
        main = np.exp(-1j * np.outer(shifts, log_n)) @ p
    else:
        rows = phases.shape[0]
        main = np.concatenate([
            phases[:shifts[lo: lo + rows].size, :n.size]
            @ (np.exp(-1j * shifts[lo] * log_n)[:, None] * p)
            for lo in range(0, shifts.size, rows)])
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
    # float-noise floor: each term n^{-s} carries a phase rounded through
    # t*log n, so its absolute error scales like eps*|term|*(1 + |t| log n)
    mags = np.abs(p)
    noise = _EPS * (mags.sum(axis=0) + np.abs(s.imag) * (log_n @ mags)
                    + np.abs(corr))
    return main + corr, bound + 2.0 * noise


def _grid_chunks(base: np.ndarray, shifts: np.ndarray, step: float):
    """Split the ascending grid shifts[k] = shifts[0] + k*step into chunks
    of _GRID_ROWS shifts, each to share one cutoff in _em_block.

    Yields (slice, phases) per chunk, where phases[k, n-1] =
    exp(-i k step log n) is the grid factor _em_block takes.  It is built
    once, with columns for the largest cutoff on the grid and at most
    _GRID_ROWS rows, fewer when needed to stay within _GRID_CELLS entries.
    """
    if shifts.size == 0:
        return
    n_max = _cutoff(base, shifts[[0, -1]])         # |Im b + t| peaks at an end
    rows = max(1, min(_GRID_ROWS, _GRID_CELLS // n_max))
    log_n = np.log(np.arange(1, n_max, dtype=float))
    phases = np.exp(-1j * np.outer(np.arange(rows) * step, log_n))
    for lo in range(0, shifts.size, _GRID_ROWS):
        yield slice(lo, min(lo + _GRID_ROWS, shifts.size)), phases


def partial_zeta(s: complex, n_max: int) -> complex:
    """Finite Dirichlet sum over n = 1..n_max."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    s = complex(s)
    total = 0.0 + 0.0j
    for lo in range(1, n_max + 1, 10 ** 6):
        n = np.arange(lo, min(lo + 10 ** 6, n_max + 1), dtype=float)
        total += np.sum(np.exp(-s * np.log(n)))
    return complex(total)


def _primes_upto(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0]


def euler_product(s: complex, p_max: int) -> complex:
    """prod_{p <= p_max} (1 - p^{-s})^{-1}; needs Re s > 1."""
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError(f"Euler product requires Re s > 1, got {s.real}")
    if p_max < 2:
        raise ValueError(f"p_max must be >= 2, got {p_max}")
    p = _primes_upto(p_max).astype(float)
    return complex(np.prod(1.0 / (1.0 - np.exp(-s * np.log(p)))))


def zeta(s: complex) -> ZetaPoint:
    """Euler-Maclaurin zeta on 0 < Re s, s != 1, |Im s| <= 1e4."""
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError(f"s must be finite, got {s}")
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
    z = zeta(s).value
    return 0.5 * s * (s - 1.0) * cmath.exp(-0.5 * s * math.log(math.pi)) \
        * complex(_gamma_fn(s / 2.0)) * z


# --- critical line -------------------------------------------------------------


def _rs_theta(t):
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, continuous.

    The log-Gamma asymptotic expansion is used for t >= 10 (error below
    1e-8 there); direct log-Gamma takes over for smaller t.
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
        out[lo] = np.imag(loggamma(0.25 + 0.5j * tl)) - 0.5 * tl * math.log(math.pi)
    return out


def _z_block(t_block: np.ndarray, phases: np.ndarray | None = None):
    """Z(t) and its error bound on an ascending array of positive
    ordinates, one shared N; phases as in _em_block."""
    vals, err = _em_block(np.array([0.5]), t_block, 1e-12, phases)
    return (np.exp(1j * _rs_theta(t_block)) * vals[:, 0]).real, err[:, 0]


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
    x = t / _TWO_PI
    return x * math.log(x) - x + 0.875


def _z_scan(t_max: float, grid: float):
    """Z and its bound on t = grid, 2*grid, ... up to t_max, with t_max
    appended when it is off the grid; returns (ts, z, bound).  The grid
    goes through the factored route, an off-grid t_max through the
    direct one."""
    k = int(math.floor(t_max / grid + 1e-9))
    ts = np.arange(1, k + 1, dtype=float) * grid
    if ts.size == 0 or ts[-1] < t_max - 1e-12:
        ts = np.append(ts, t_max)
    z = np.empty_like(ts)
    bound = np.empty_like(ts)
    for sl, phases in _grid_chunks(np.array([0.5]), ts[:k], grid):
        z[sl], bound[sl] = _z_block(ts[sl], phases)
    if ts.size > k:
        z[k:], bound[k:] = _z_block(ts[k:])
    return ts, z, bound


def _bisect(a: np.ndarray, b: np.ndarray, za: np.ndarray):
    """Halve every bracket [a_i, b_i], Z(a_i) = za_i, until b - a <= _ZERO_TOL.

    Each sweep evaluates the midpoints of all live brackets, in ascending
    chunks of _BISECT_CHUNK; an exact zero at a midpoint closes its
    bracket there.  Returns the bracket centres and the smallest |Z|/bound
    at a midpoint.
    """
    a, b, za = a.copy(), b.copy(), za.copy()
    margin = math.inf
    live = np.nonzero(b - a > _ZERO_TOL)[0]
    while live.size:
        m = 0.5 * (a[live] + b[live])
        zm = np.empty_like(m)
        bound = np.empty_like(m)
        for lo in range(0, m.size, _BISECT_CHUNK):
            sl = slice(lo, lo + _BISECT_CHUNK)
            zm[sl], bound[sl] = _z_block(m[sl])
        margin = min(margin, float(np.min(np.abs(zm) / bound)))
        hit = zm == 0.0
        left = ~hit & ((za[live] < 0.0) == (zm < 0.0))
        right = ~hit & ~left
        a[live[left]], za[live[left]] = m[left], zm[left]
        b[live[right]] = m[right]
        a[live[hit]] = b[live[hit]] = m[hit]
        live = live[b[live] - a[live] > _ZERO_TOL]
    return 0.5 * (a + b), margin


def find_zeros(t_max: float, grid: float = 0.05) -> ZeroList:
    """Sign-scan Z on the grid and bisect each sign change until the
    bracket is at most 1e-9 wide; ZeroList.tol reports that bracket width.

    The scan evaluates the evenly spaced grid through one factored grid
    sum (_grid_chunks); the bisection halves all brackets together.
    ZeroList.min_sign_margin is the smallest |Z|/bound over the scan
    values at each sign change and over every bisection midpoint.  It is
    reported, never raised on: a margin below 1 means the last halvings
    went past what the Euler-Maclaurin bound certifies.

    The count is checked against the smooth estimate; a mismatch beyond
    +-2 raises MissedZerosError (rerun with a finer grid).
    """
    if not (0.0 < t_max <= _T_CEIL):
        raise ValueError(f"t_max must be in (0, {_T_CEIL:g}], got {t_max}")
    if not (0.0 < grid <= 0.1):
        raise ValueError(f"grid must be in (0, 0.1], got {grid}")
    ts, z, bound = _z_scan(t_max, grid)
    flips = np.nonzero(np.sign(z[:-1]) * np.sign(z[1:]) < 0)[0]
    exact_hits = np.nonzero(z == 0.0)[0]
    centres, margin = _bisect(ts[flips], ts[flips + 1], z[flips])
    decided = np.concatenate([flips, flips + 1, exact_hits])
    if decided.size:
        margin = min(margin, float(np.min(np.abs(z[decided]) / bound[decided])))
    ordinates = sorted(centres.tolist() + ts[exact_hits].tolist())
    expected = mean_zero_count(t_max)
    if abs(len(ordinates) - expected) > 2.0:
        raise MissedZerosError(
            f"found {len(ordinates)} zeros to t={t_max} but the smooth count "
            f"gives {expected:.2f}; rerun with a finer grid than {grid}")
    return ZeroList(ordinates=tuple(ordinates), tol=_ZERO_TOL,
                    t_max=float(t_max), min_sign_margin=margin)


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
    if not (max_sep > 0.0 and math.isfinite(max_sep)):
        raise ValueError(f"max_sep must be positive, got {max_sep}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    hi = np.searchsorted(x, x + max_sep, side="right")
    diffs = np.concatenate([x[i + 1: hi[i]] - x[i] for i in range(x.size)]) \
        if x.size else np.empty(0)
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
    """Eigenvalues of one GUE draw: real N(0,1) diagonal, (x+iy)/sqrt(2)
    above it; semicircle support radius 2 sqrt(dim)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim))
    y = rng.standard_normal((dim, dim))
    off = (np.triu(x, 1) + 1j * np.triu(y, 1)) / math.sqrt(2.0)
    h = off + off.conj().T + np.diag(np.diag(x))
    return np.linalg.eigvalsh(h)


def gue_sample(dim: int, trials: int, seed: int) -> np.ndarray:
    """Unfolded central-bulk GUE eigenvalue positions, trials concatenated.

    Each trial is unfolded by the integrated semicircle density
    F(x) = 1/2 + x sqrt(R^2-x^2)/(pi R^2) + asin(x/R)/pi, R = 2 sqrt(dim),
    scaled by dim, and shifted by trial_index*dim so that cross-trial
    separations exceed any reasonable max_sep (each bulk spans ~dim/2).
    Deterministic per seed.
    """
    if dim < 20:
        raise ValueError(f"dim must be >= 20, got {dim}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    radius = 2.0 * math.sqrt(dim)
    lo, hi = dim // 4, dim - dim // 4
    out = []
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        lam = gue_eigenvalues(dim, child)
        lam = np.clip(lam, -radius, radius)
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
    s = complex(s)
    return complex(np.sum(np.exp(-s * np.log(lam))))


def heat_trace_mellin(eigenvalues, s: float) -> float:
    """(1/Gamma(s)) integral_0^inf t^{s-1} sum_n e^{-t lambda_n} dt.

    Quadrature runs on u = log t; the normalized transform equals
    spectral_zeta for any finite positive spectrum.
    """
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
    out = val / float(_gamma_fn(s))
    if abserr / float(_gamma_fn(s)) > 1e-8 * max(1.0, abs(out)):
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

    target is a callable evaluated on the region grid, or None for
    self-approximation (target = zeta on the grid).  The t grid is
    k*t_step for k = 0..round(t_max/t_step)-1; a step is a hit when
    max_j |zeta(s_j + it) - target(s_j)| < epsilon.  Each step also
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
    k_steps = int(round(t_max / t_step))
    tvals = np.arange(k_steps, dtype=float) * t_step
    sup = np.empty(k_steps)
    err = np.empty(k_steps)
    for sl, phases in _grid_chunks(pts, tvals, t_step):
        vals, bounds = _em_block(pts, tvals[sl], 1e-10, phases)
        sup[sl] = np.max(np.abs(vals - tgt[None, :]), axis=1)
        err[sl] = np.max(bounds, axis=1)
    hits = sup < epsilon
    measure = float(np.count_nonzero(hits)) * t_step / t_max
    return UniversalityReport(region=region, epsilon=float(epsilon),
                              t_max=float(t_max), t_step=float(t_step),
                              hit_measure=measure, witnesses=tvals[hits],
                              t_grid=tvals, sup_errors=sup, err_bounds=err)
