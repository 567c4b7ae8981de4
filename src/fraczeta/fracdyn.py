"""Fractional (Cole-Cole) dynamics.

The canonical object is the depressed-arc impedance

    Z(w) = r_s + r_ct / (1 + (i w tau)^alpha),    0 < alpha <= 1,

whose locus in the complex plane is a circular arc with chord [r_s,
r_s + r_ct] on the real axis and center sitting below it by the
depression angle (1-alpha)*pi/2.  The exponent alpha splits pi/4 into
the phase pair

    phi(alpha)   = (pi/2)(1-alpha)        (deterministic basis)
    delta(alpha) = pi/4 - phi(alpha)      (stochastic basis)

with |delta| + |phi| = pi/4 identically on alpha in [1/2, 1].  The time
domain side is Mittag-Leffler relaxation U(t) = E_alpha(-(t/tau)^alpha)
and the Grunwald-Letnikov derivative; the algebraic side is a twisted
shift (Weyl) composition whose commutator phase is exp(2i*delta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

_EPS = 2.220446049250313e-16
_TWO_PI = 2.0 * math.pi


class DegenerateArcError(ValueError):
    """Circle fit requested on collinear or otherwise degenerate points."""


class MittagLefflerError(ArithmeticError):
    """No implemented regime reaches an acceptable accuracy estimate."""


@dataclass(frozen=True)
class ColeColeModel:
    """Parameters of the generalized Cole-Cole element.

    alpha is dimensionless in (0, 1], tau in seconds, r_ct and r_s in
    ohms.  The canonical textbook form is recovered at r_s=0, r_ct=1.
    """

    alpha: float
    tau: float
    r_ct: float
    r_s: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (self.r_ct > 0.0 and math.isfinite(self.r_ct)):
            raise ValueError(f"r_ct must be positive and finite, got {self.r_ct}")
        if not (self.r_s >= 0.0 and math.isfinite(self.r_s)):
            raise ValueError(f"r_s must be nonnegative and finite, got {self.r_s}")


@dataclass(frozen=True)
class PhasePair:
    """phi/delta split of pi/4; both in radians."""

    phi: float
    delta: float

    def __post_init__(self):
        if abs(abs(self.delta) + abs(self.phi) - math.pi / 4) > 1e-12:
            raise ValueError("|delta| + |phi| must equal pi/4")


@dataclass(frozen=True)
class ArcFit:
    """Algebraic circle fit of an impedance locus (all lengths in ohms)."""

    center: complex
    radius: float
    depression_angle: float
    rms_residual: float

    @property
    def alpha_implied(self) -> float:
        """Cole-Cole exponent of a depression angle psi, 1 - 2 psi/pi."""
        return 1.0 - 2.0 * self.depression_angle / math.pi


@dataclass(frozen=True)
class TwistedShift:
    """Group element (a, b, theta): a V-steps, b U-steps, phase mod 2*pi."""

    a: int
    b: int
    theta: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        th = math.fmod(self.theta, _TWO_PI)
        if th < 0.0:
            th += _TWO_PI
        object.__setattr__(self, "theta", th)


SHIFT_U = TwistedShift(0, 1, 0.0)
SHIFT_V = TwistedShift(1, 0, 0.0)


def cole_cole_impedance(model: ColeColeModel, omega):
    """Z(omega) = r_s + r_ct/(1 + (i*omega*tau)^alpha), principal branch.

    (i)^alpha is taken as exp(i*alpha*pi/2), which places the arc in the
    fourth quadrant (capacitive) for omega > 0.  omega may be a scalar
    (returns complex) or an array (returns a complex ndarray).
    """
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("omega must be finite")
    if np.any(w < 0.0):
        raise ValueError("omega must be nonnegative")
    mag = (w * model.tau) ** model.alpha
    n = mag * cmath.exp(1j * model.alpha * math.pi / 2)
    z = model.r_s + model.r_ct / (1.0 + n)
    if np.ndim(omega) == 0:
        return complex(z)
    return z


def arc_fit(points) -> ArcFit:
    """Kasa algebraic circle fit.

    Minimizes sum((x-cx)^2 + (y-cy)^2 - R^2)^2, linear in (cx, cy,
    R^2 - cx^2 - cy^2).  depression_angle is the unsigned angle between
    the real axis and the radius drawn from a real-axis crossing to the
    center, asin(|Im c| / R).  For a Cole-Cole arc the crossings are the
    omega->0 and omega->infinity chord endpoints, so this equals
    (1-alpha)*pi/2 regardless of whether the data carry Im Z or the
    plotting convention -Im Z.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size < 3:
        raise DegenerateArcError(f"need >= 3 points, got {pts.size}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    x, y = pts.real, pts.imag
    spread = np.column_stack([x - x.mean(), y - y.mean()])
    sv = np.linalg.svd(spread, compute_uv=False)
    if sv[1] <= 1e-12 * max(sv[0], 1e-300):
        raise DegenerateArcError("points are collinear (or coincident)")
    design = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    rhs = x * x + y * y
    (cx, cy, c0), *_ = np.linalg.lstsq(design, rhs, rcond=None)
    r_sq = c0 + cx * cx + cy * cy
    if not (r_sq > 0.0):
        raise DegenerateArcError("fit collapsed to nonpositive radius")
    radius = math.sqrt(r_sq)
    rms = math.sqrt(np.mean((np.hypot(x - cx, y - cy) - radius) ** 2))
    depression = math.asin(min(1.0, abs(cy) / radius))
    return ArcFit(center=complex(cx, cy), radius=radius,
                  depression_angle=depression, rms_residual=rms)


def phase_angles(alpha: float) -> PhasePair:
    """Split pi/4 into (phi, delta) = ((pi/2)(1-alpha), pi/4 - phi)."""
    if not (0.5 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [1/2, 1] (critical band), got {alpha}")
    phi = (math.pi / 2) * (1.0 - alpha)
    return PhasePair(phi=phi, delta=math.pi / 4 - phi)


# --- Mittag-Leffler ---------------------------------------------------------
#
# E_a(z) = sum_k z^k / Gamma(a k + 1).  Two float64 regimes with opposite
# error scales, both governed by x = |z|^(1/a):
#   series     : cancellation loses ~ eps * exp(x)   (alternating terms)
#   asymptotic : optimal truncation ~ exp(-x)        (real z < 0 only)
# The scales cross at x = -ln(eps)/2 ~ 18, which is where the branch flips.


def _ml_series(alpha: float, z: complex):
    # terms built in log space so the pre-cancellation peak (~ exp(x)) never
    # overflows; peak magnitude is retained for the cancellation estimate
    log_az = math.log(abs(z))
    arg_z = cmath.phase(z)
    total = 1.0 + 0.0j  # k = 0 term
    peak = 1.0
    k = 1
    while k < 8000:
        log_mag = k * log_az - math.lgamma(alpha * k + 1.0)
        if log_mag > 700.0:
            raise MittagLefflerError(
                f"series term overflow for alpha={alpha}, z={z}")
        term = math.exp(log_mag) * cmath.exp(1j * arg_z * k)
        total += term
        mag = abs(term)
        peak = max(peak, mag)
        if mag < 1e-17 * max(abs(total), 1e-300) and k > 4:
            break
        k += 1
    est = _EPS * peak / max(abs(total), 1e-300)
    if z.imag == 0.0:  # E_a is real on the real axis
        total = complex(total.real, 0.0)
    return total, est


def _ml_asymptotic_neg(alpha: float, z: complex):
    # E_a(z) ~ -sum_{k>=1} z^{-k} / Gamma(1 - a k) for real z < 0;
    # divergent tail, truncated at the smallest term (first omitted term
    # taken as the error).  rgamma is zero at the Gamma poles.  For a > 1
    # the two saddles r e^{+-i pi/a}, r = |z|^(1/a), add
    # (2/a) exp(r cos(pi/a)) cos(r sin(pi/a)), which is not small there:
    # it is cos(sqrt(-z)) itself at a = 2.
    from scipy.special import rgamma

    inv = 1.0 / z.real  # negative
    u = 1.0
    total = 0.0
    if alpha > 1.0:
        r = (-z.real) ** (1.0 / alpha)
        total = (2.0 / alpha) * math.exp(r * math.cos(math.pi / alpha)) \
            * math.cos(r * math.sin(math.pi / alpha))
    prev = math.inf
    omitted = 0.0
    for k in range(1, 400):
        u *= inv
        if u == 0.0:  # z^-k underflowed; 0 * an overflowed rgamma is NaN
            omitted = prev
            break
        term = u * float(rgamma(1.0 - alpha * k))
        mag = abs(term)
        if mag == 0.0:
            continue
        if mag > prev:
            omitted = mag
            break
        total -= term
        prev = mag
    else:
        omitted = prev
    est = max(omitted, _EPS) / max(abs(total), 1e-300)
    return complex(total), est


def mittag_leffler(alpha: float, z) -> complex:
    """E_alpha(z), relative accuracy target 1e-8.

    The routes are tried in order of predicted error and the first whose
    a-posteriori estimate is within 1e-6 is returned; when none is,
    MittagLefflerError is raised rather than a silently wrong value.
    """
    if not (0.0 < alpha <= 2.0):
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"z must be finite, got {z}")
    if alpha == 1.0:
        return cmath.exp(z)
    if alpha == 2.0:
        return cmath.cosh(cmath.sqrt(z))
    if z == 0:
        return 1.0 + 0.0j
    routes = [_ml_series]
    if z.imag == 0.0 and z.real < 0.0:
        past_crossover = abs(z) ** (1.0 / alpha) >= 18.0
        routes.insert(0 if past_crossover else 1, _ml_asymptotic_neg)
    best_est = math.inf
    for route in routes:
        val, est = route(alpha, z)
        if est <= 1e-6:
            return val
        best_est = min(best_est, est)
    raise MittagLefflerError(
        f"no regime reaches 1e-6 for alpha={alpha}, z={z} "
        f"(best estimate {best_est:.2e})")


def relaxation_response(model: ColeColeModel, t_grid) -> np.ndarray:
    """U(t) = E_alpha(-(t/tau)^alpha) on a grid of times >= 0."""
    t = np.asarray(t_grid, dtype=float).ravel()
    if t.size == 0:
        raise ValueError("empty time grid")
    if np.any(t < 0.0) or not np.all(np.isfinite(t)):
        raise ValueError("times must be finite and nonnegative")
    out = np.empty(t.size)
    for i, ti in enumerate(t):
        out[i] = mittag_leffler(model.alpha, -((ti / model.tau) ** model.alpha)).real
    return out


def gl_weights(alpha: float, n: int) -> np.ndarray:
    """First n Grunwald-Letnikov weights (-1)^j C(alpha, j).

    Recurrence w_0 = 1, w_j = w_{j-1} * (1 - (alpha+1)/j).
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    w = np.empty(n)
    w[0] = 1.0
    for j in range(1, n):
        w[j] = w[j - 1] * (1.0 - (alpha + 1.0) / j)
    return w


def gl_fracderiv(samples, alpha: float, h: float) -> np.ndarray:
    """Grunwald-Letnikov fractional derivative on a uniform grid.

    D^alpha f(t_k) = h^(-alpha) * sum_{j=0..k} w_j f(t_{k-j}) with the
    lower terminal at the first sample; first-order accurate in h.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h must be positive and finite, got {h}")
    f = np.asarray(samples, dtype=float).ravel()
    if f.size < 2:
        raise ValueError(f"need >= 2 samples, got {f.size}")
    if not np.all(np.isfinite(f)):
        raise ValueError("samples must be finite")
    w = gl_weights(alpha, f.size)
    return h ** (-alpha) * np.convolve(f, w)[: f.size]


def twisted_compose(g1: TwistedShift, g2: TwistedShift, delta: float) -> TwistedShift:
    """Weyl composition (a1,b1,t1)*(a2,b2,t2) = (a1+a2, b1+b2, t1+t2+2*delta*b1*a2).

    With generators U=(0,1,0), V=(1,0,0) this gives U*V = (V*U) carrying
    the extra phase 2*delta; delta=0 makes the group abelian.  The phase
    arithmetic is ordered so that generator compositions are bit-exact.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    theta = (g1.theta + g2.theta) + 2.0 * delta * (g1.b * g2.a)
    return TwistedShift(g1.a + g2.a, g1.b + g2.b, theta)
