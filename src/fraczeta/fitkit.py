"""Impedance-spectrum ingestion and depressed-arc model fitting.

Spectra travel as (omega, Z) pairs; files use the CSV schema
freq_hz,re_z_ohm,im_z_ohm with omega = 2*pi*freq_hz.  Fitting minimizes
the modulus-weighted squared residual sum |Z(omega;theta) - z|^2/|z|^2
by Nelder-Mead on smoothly reparametrized coordinates, after an internal
rescaling of impedance and frequency that makes the reported parameters
equivariant under unit changes.
"""

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .fracdyn import ColeColeModel, arc_fit, cole_cole_impedance

_HEADER = "freq_hz,re_z_ohm,im_z_ohm"
_LOG_MAX = math.log(sys.float_info.max)  # exp of anything above overflows


class FitDivergedError(OverflowError):
    """Nelder-Mead drove tau or r_ct out of the float range: the spectrum
    does not constrain that parameter, so no fit is returned."""


class SingularFitError(ArithmeticError):
    """J^T J is singular at the optimum: the spectrum does not separate the
    four parameters, so they have no error bars and no fit is returned."""


@dataclass(frozen=True)
class Spectrum:
    """Measured or synthetic impedance points, sorted by frequency."""

    points: tuple

    def __post_init__(self):
        w = [p[0] for p in self.points]
        if any(not (x > 0.0 and math.isfinite(x)) for x in w):
            raise ValueError("omegas must be positive and finite")
        if any(b <= a for a, b in zip(w, w[1:])):
            raise ValueError("omegas must be increasing, with no duplicates")
        if any(not cmath.isfinite(p[1]) for p in self.points):
            raise ValueError("impedances must be finite")

    def omegas(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    def z(self) -> np.ndarray:
        return np.array([p[1] for p in self.points], dtype=complex)


@dataclass(frozen=True)
class FitResult:
    model: ColeColeModel
    loss: float
    n_iter: int
    converged: bool
    per_param_uncertainty: dict

    def __post_init__(self):
        if not (self.loss >= 0.0):
            raise ValueError(f"loss must be nonnegative, got {self.loss}")


def read_table(path, header: str) -> np.ndarray:
    """Numeric CSV file whose first line after any '#' metadata lines is
    `header`, as an array of shape (rows, columns).  Blank lines are
    skipped; a malformed row is reported by its line number in the file."""
    n_cols = len(header.split(","))
    rows = []
    with open(path, encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        first = next((ln for _, ln in lines if not ln.startswith("#")), "")
        if first.strip() != header:
            raise ValueError(f"{path}: first line must be the header {header!r}")
        for i, ln in lines:
            if not ln.strip():
                continue
            parts = ln.split(",")
            if len(parts) != n_cols:
                raise ValueError(f"{path}: line {i}: expected {n_cols} "
                                 f"comma-separated values, got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ValueError(f"{path}: line {i}: non-numeric value in "
                                 f"{ln.rstrip()!r}") from None
    return np.array(rows, dtype=float).reshape(-1, n_cols)


def load_spectrum(path) -> Spectrum:
    """Read a spectrum file, sorted by frequency; every error names the
    file, and a malformed row its line number."""
    rows = sorted(read_table(path, _HEADER).tolist())
    pts = tuple((2.0 * math.pi * f, complex(re_z, im_z))
                for f, re_z, im_z in rows)
    try:
        return Spectrum(points=pts)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_spectrum(spectrum: Spectrum, path) -> None:
    """Write the schema CSV using shortest round-trip decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        for w, z in spectrum.points:
            f = w / (2.0 * math.pi)
            fh.write(f"{f!r},{z.real!r},{z.imag!r}\n")


def synth_spectrum(model: ColeColeModel, omegas, noise_rel: float,
                   seed: int) -> Spectrum:
    """Model values plus independent Gaussian noise of scale
    noise_rel*|z| on the real and imaginary parts; deterministic per seed."""
    if not (noise_rel >= 0.0 and math.isfinite(noise_rel)):
        raise ValueError(f"noise_rel must be finite and >= 0, got {noise_rel}")
    w = np.sort(np.asarray(omegas, dtype=float).ravel())
    z = cole_cole_impedance(model, w)
    if noise_rel > 0.0:
        rng = np.random.default_rng(seed)
        scale = noise_rel * np.abs(z)
        z = z + scale * rng.standard_normal(w.size) \
            + 1j * scale * rng.standard_normal(w.size)
    pts = tuple((float(wi), complex(zi)) for wi, zi in zip(w, z))
    return Spectrum(points=pts)


def _softplus_inv(y: float) -> float:
    y = max(y, 1e-12)
    return y + math.log1p(-math.exp(-y)) if y > 1e-8 else math.log(math.expm1(y))


def _to_params(raw) -> tuple:
    from scipy.special import expit

    a, b, c, d = raw
    for name, log_v in (("tau", b), ("r_ct", c)):
        if log_v > _LOG_MAX:
            raise FitDivergedError(
                f"fit diverged: {name} left the float range (ln {name} = "
                f"{log_v:.1f} in normalized units); the spectrum does not "
                f"constrain it")
    return (float(expit(a)), math.exp(b), math.exp(c),
            float(np.logaddexp(0.0, d)))


def _to_raw(alpha, tau, r_ct, r_s) -> np.ndarray:
    """Inverse of _to_params, with alpha clamped to 0.99 first: nearer 1
    the sigmoid is too flat for the simplex to move alpha at all."""
    alpha = min(alpha, 0.99)
    logit = math.log(alpha / (1.0 - alpha))
    return np.array([logit, math.log(tau), math.log(r_ct), _softplus_inv(r_s)])


def _heuristic_init(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Starting point in raw coordinates, on already-normalized data."""
    re = z.real
    r_s0 = max(float(np.min(re)), 1e-6)
    r_ct0 = max(float(np.max(re) - np.min(re)), 1e-3)
    apex = int(np.argmax(-z.imag))
    tau0 = 1.0 / w[apex] if -z.imag[apex] > 0.0 else 1.0
    try:
        alpha0 = max(arc_fit(z).alpha_implied, 0.3)
    except (ValueError, np.linalg.LinAlgError):
        alpha0 = 0.9
    return _to_raw(alpha0, tau0, r_ct0, r_s0)


def fit_cole_cole(spec: Spectrum, init=None) -> FitResult:
    """Recover (alpha, tau, r_ct, r_s) from a spectrum.

    Box constraints ride on smooth transforms (alpha through a sigmoid,
    tau and r_ct through exp, r_s through softplus), so the simplex is
    unconstrained.  A single restart from the 10%-perturbed heuristic
    init runs when the first pass fails to converge.
    """
    from scipy.optimize import minimize

    n_pts = len(spec.points)
    if n_pts < 5:
        raise ValueError(f"need >= 5 points to fit, got {n_pts}")
    w_all = spec.omegas()
    z_all = spec.z()
    if np.any(np.abs(z_all) == 0.0):
        raise ValueError("zero-modulus impedance point cannot be weighted")
    span = float(w_all[-1] / w_all[0])
    if span < 3.0:
        warnings.warn("frequencies form a single cluster; the fit is "
                      "ill-conditioned", stacklevel=2)
    elif span < 100.0:
        warnings.warn("spectrum spans less than two decades of frequency; "
                      "parameters may be poorly constrained", stacklevel=2)

    # internal gauge: impedance in units of median |z|, frequency in
    # units of the geometric mean omega; the weighted loss is invariant
    z_scale = float(np.median(np.abs(z_all)))
    w_scale = float(np.exp(np.mean(np.log(w_all))))
    w = w_all / w_scale
    z = z_all / z_scale
    inv_mod2 = 1.0 / np.abs(z) ** 2

    def loss_raw(raw) -> float:
        alpha, tau, r_ct, r_s = _to_params(raw)
        try:
            model = ColeColeModel(alpha=alpha, tau=tau, r_ct=r_ct, r_s=r_s)
        except ValueError:
            return math.inf
        resid = cole_cole_impedance(model, w) - z
        return float(np.sum((resid.real ** 2 + resid.imag ** 2) * inv_mod2))

    if init is not None:
        x0 = _to_raw(init.alpha, init.tau * w_scale, init.r_ct / z_scale,
                     init.r_s / z_scale)
    else:
        x0 = _heuristic_init(w, z)

    opts = dict(maxiter=4000, maxfev=8000, xatol=1e-10, fatol=1e-14)
    res = minimize(loss_raw, x0, method="Nelder-Mead", options=opts)
    n_iter = int(res.nit)
    if not res.success:
        x1 = x0 * np.array([1.1, 0.9, 1.1, 0.9])
        res2 = minimize(loss_raw, x1, method="Nelder-Mead", options=opts)
        n_iter += int(res2.nit)
        if res2.fun < res.fun:
            res = res2

    alpha, tau_n, rct_n, rs_n = _to_params(res.x)
    model = ColeColeModel(alpha=alpha, tau=tau_n / w_scale,
                          r_ct=rct_n * z_scale, r_s=rs_n * z_scale)
    sig = _standard_errors(ColeColeModel(alpha=alpha, tau=tau_n, r_ct=rct_n,
                                         r_s=rs_n), w, z, float(res.fun))
    unc = dict(zip(("alpha", "tau", "r_ct", "r_s"),
                   (sig * (1.0, 1.0 / w_scale, z_scale, z_scale)).tolist()))
    return FitResult(model=model, loss=float(res.fun), n_iter=n_iter,
                     converged=bool(res.success), per_param_uncertainty=unc)


def _standard_errors(model: ColeColeModel, w: np.ndarray, z: np.ndarray,
                     loss: float) -> np.ndarray:
    """Standard errors of (alpha, tau, r_ct, r_s): the square roots of the
    diagonal of s^2 (J^T J)^-1, s^2 = loss/(2N - 4), with J the analytic
    Jacobian of the modulus-weighted residuals.  The columns of J are
    scaled to unit norm before the solve: unscaled, J^T J can have a
    condition number near 1e9."""
    wt = w * model.tau
    u = wt ** model.alpha * cmath.exp(1j * model.alpha * math.pi / 2)
    du = -model.r_ct * u / (1.0 + u) ** 2  # u dZ/du
    dz = np.stack([du * (np.log(wt) + 0.5j * math.pi),
                   du * model.alpha / model.tau,
                   1.0 / (1.0 + u), np.ones_like(u)], axis=1)
    dz /= np.abs(z)[:, None]
    jac = np.concatenate([dz.real, dz.imag])
    norms = np.linalg.norm(jac, axis=0)
    if np.all(np.isfinite(jac)) and np.all(norms > 0.0):
        sv, vt = np.linalg.svd(jac / norms, full_matrices=False)[1:]
        if sv[-1] > sv[0] * jac.shape[0] * np.finfo(float).eps:
            s2 = loss / (jac.shape[0] - 4)
            return np.sqrt(s2 * np.sum((vt / sv[:, None]) ** 2, axis=0)) / norms
    raise SingularFitError("J^T J is singular at the optimum: the spectrum "
                           "does not separate the four parameters")
