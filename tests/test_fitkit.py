"""Tests for spectrum I/O, synthesis, and depressed-arc fitting."""

import math

import numpy as np
import pytest

from fraczeta.fitkit import (
    FitDivergedError,
    FitResult,
    SingularFitError,
    Spectrum,
    _standard_errors,
    fit_cole_cole,
    load_spectrum,
    save_spectrum,
    synth_spectrum,
)
from fraczeta.fracdyn import ColeColeModel, cole_cole_impedance

TRUTH = ColeColeModel(alpha=0.8, tau=1e-3, r_ct=50.0, r_s=5.0)
OMEGAS = 2.0 * math.pi * np.logspace(0.0, 5.0, 60)  # 1 Hz .. 100 kHz


def _weighted_loss(model, spec):
    resid = cole_cole_impedance(model, spec.omegas()) - spec.z()
    return float(np.sum(np.abs(resid) ** 2 / np.abs(spec.z()) ** 2))


# --- containers -----------------------------------------------------------------


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(points=((0.0, 1 + 0j), (1.0, 1 + 0j)))
    with pytest.raises(ValueError):
        Spectrum(points=((2.0, 1 + 0j), (1.0, 1 + 0j)))
    with pytest.raises(ValueError):
        FitResult(model=TRUTH, loss=-1.0, n_iter=1, converged=True,
                  per_param_uncertainty={})


def test_spectrum_rejects_non_finite_impedance(tmp_path):
    for bad in (complex(math.nan, -10.0), complex(1.0, math.inf)):
        with pytest.raises(ValueError, match="impedances must be finite"):
            Spectrum(points=((1.0, 1 + 0j), (2.0, bad)))
    p = tmp_path / "nan.csv"
    p.write_text("freq_hz,re_z_ohm,im_z_ohm\n10.0,55.0,-12.0\n1000,nan,-10\n")
    with pytest.raises(ValueError, match="impedances must be finite") as exc:
        load_spectrum(p)
    assert str(exc.value).startswith(f"{p}: ")


# --- file I/O -------------------------------------------------------------------


def test_load_spectrum_basic(tmp_path):
    p = tmp_path / "spec.csv"
    p.write_text("freq_hz,re_z_ohm,im_z_ohm\n10.0,55.0,-12.0\n1.0,54.0,-2.0\n"
                 "100.0,12.0,-9.0\n")
    spec = load_spectrum(p)
    assert len(spec.points) == 3
    w = spec.omegas()
    assert np.all(np.diff(w) > 0.0)  # sorted by frequency
    assert abs(w[0] - 2.0 * math.pi) < 1e-12
    assert spec.points[0][1] == 54.0 - 2.0j


def test_load_spectrum_reports_bad_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("freq_hz,re_z_ohm,im_z_ohm\n1.0,54.0,-2.0\n10.0,oops,-12.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_spectrum(p)
    p.write_text("freq_hz,re_z_ohm,im_z_ohm\n1.0,54.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_spectrum(p)


def test_load_spectrum_header_and_duplicates(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("frequency,re,im\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="header"):
        load_spectrum(p)
    p.write_text("freq_hz,re_z_ohm,im_z_ohm\n1.0,2.0,3.0\n1.0,2.5,3.5\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_spectrum(p)


def test_synth_save_load_round_trip(tmp_path):
    spec = synth_spectrum(TRUTH, OMEGAS, 0.01, seed=5)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_spectrum(spec, p1)
    back = load_spectrum(p1)
    save_spectrum(back, p2)
    assert p1.read_text() == p2.read_text()
    assert np.array_equal(back.z(), spec.z())
    assert np.array_equal(back.omegas(), spec.omegas())


# --- synthesis -------------------------------------------------------------------


def test_synth_noiseless_exact():
    spec = synth_spectrum(TRUTH, OMEGAS, 0.0, seed=1)
    assert np.array_equal(spec.z(), cole_cole_impedance(TRUTH, OMEGAS))


def test_synth_deterministic():
    a = synth_spectrum(TRUTH, OMEGAS, 0.02, seed=9)
    b = synth_spectrum(TRUTH, OMEGAS, 0.02, seed=9)
    assert np.array_equal(a.z(), b.z())
    c = synth_spectrum(TRUTH, OMEGAS, 0.02, seed=10)
    assert not np.array_equal(a.z(), c.z())
    with pytest.raises(ValueError):
        synth_spectrum(TRUTH, OMEGAS, -0.1, seed=0)


@pytest.mark.parametrize("noise_rel", [math.nan, math.inf])
def test_synth_rejects_non_finite_noise(noise_rel):
    with pytest.raises(ValueError, match="noise_rel must be finite"):
        synth_spectrum(TRUTH, OMEGAS, noise_rel, seed=0)


def test_synth_noise_scale():
    clean = cole_cole_impedance(TRUTH, OMEGAS)
    pooled = []
    for sd in range(100):
        noisy = synth_spectrum(TRUTH, OMEGAS, 0.01, seed=sd).z()
        r = (noisy - clean) / np.abs(clean)
        pooled.extend(r.real)
        pooled.extend(r.imag)
    std = float(np.std(pooled))
    assert 0.005 < std < 0.02


# --- fitting ---------------------------------------------------------------------


def test_fit_noiseless_recovery():
    spec = synth_spectrum(TRUTH, OMEGAS, 0.0, seed=0)
    res = fit_cole_cole(spec)
    m = res.model
    assert res.converged
    assert abs(m.alpha - TRUTH.alpha) / TRUTH.alpha < 1e-3
    assert abs(m.tau - TRUTH.tau) / TRUTH.tau < 1e-3
    assert abs(m.r_ct - TRUTH.r_ct) / TRUTH.r_ct < 1e-3
    assert abs(m.r_s - TRUTH.r_s) / TRUTH.r_s < 1e-3


def test_fit_reaches_global_basin():
    spec = synth_spectrum(TRUTH, OMEGAS, 0.0, seed=0)
    res = fit_cole_cole(spec)
    assert res.loss <= _weighted_loss(TRUTH, spec) + 1e-10


def test_fit_noisy_recovery():
    alpha_err, tau_err = [], []
    for sd in range(20):
        spec = synth_spectrum(TRUTH, OMEGAS, 0.01, seed=sd)
        m = fit_cole_cole(spec).model
        alpha_err.append(abs(m.alpha - TRUTH.alpha))
        tau_err.append(abs(m.tau - TRUTH.tau) / TRUTH.tau)
    assert float(np.median(alpha_err)) <= 0.02
    assert float(np.median(tau_err)) <= 0.05


def test_fit_restarts_when_the_first_pass_stops_short():
    # both Nelder-Mead passes hit their 4,000-iteration cap on this arc
    spec = synth_spectrum(ColeColeModel(0.88, 3e-4, 1400.0, 0.01),
                          np.logspace(-1.5, 2.5, 32), 0.0, 0)
    res = fit_cole_cole(spec)
    assert res.n_iter == 8000 and res.converged is False


def test_fit_alpha_one_boundary():
    pure = ColeColeModel(alpha=1.0, tau=1e-3, r_ct=50.0, r_s=5.0)
    res = fit_cole_cole(synth_spectrum(pure, OMEGAS, 0.0, seed=0))
    assert 0.99 <= res.model.alpha <= 1.0


def test_fit_scale_equivariance():
    spec = synth_spectrum(TRUTH, OMEGAS, 0.005, seed=3)
    base = fit_cole_cole(spec).model
    c = 7.5
    scaled = Spectrum(points=tuple((w, c * z) for w, z in spec.points))
    m = fit_cole_cole(scaled).model
    assert abs(m.alpha - base.alpha) < 1e-6
    assert abs(m.tau - base.tau) / base.tau < 1e-6
    assert abs(m.r_ct - c * base.r_ct) / (c * base.r_ct) < 1e-6
    assert abs(m.r_s - c * base.r_s) / (c * base.r_s) < 1e-6


def test_fit_frequency_equivariance():
    spec = synth_spectrum(TRUTH, OMEGAS, 0.005, seed=4)
    base = fit_cole_cole(spec).model
    c = 3.0
    shifted = Spectrum(points=tuple((c * w, z) for w, z in spec.points))
    m = fit_cole_cole(shifted).model
    assert abs(m.alpha - base.alpha) < 1e-6
    assert abs(m.tau - base.tau / c) / (base.tau / c) < 1e-6


def test_fit_deterministic():
    spec = synth_spectrum(TRUTH, OMEGAS, 0.01, seed=8)
    a = fit_cole_cole(spec)
    b = fit_cole_cole(spec)
    assert a.model == b.model
    assert a.loss == b.loss
    assert a.n_iter == b.n_iter
    assert a.per_param_uncertainty == b.per_param_uncertainty


def test_fit_with_explicit_init():
    spec = synth_spectrum(TRUTH, OMEGAS, 0.0, seed=0)
    res = fit_cole_cole(spec, init=TRUTH)
    assert abs(res.model.alpha - TRUTH.alpha) < 1e-6


def test_fit_from_alpha_one_init_leaves_the_boundary():
    # alpha = 1 has no logit, and near it the sigmoid is too flat for the
    # simplex to move alpha; the start is clamped to 0.99, so the fit
    # reaches the heuristic start's optimum with finite error bars
    spec = synth_spectrum(TRUTH, OMEGAS, 0.01, seed=2)
    res = fit_cole_cole(spec, init=ColeColeModel(alpha=1.0, tau=1e-3,
                                                 r_ct=50.0, r_s=5.0))
    assert res.converged
    assert res.model.alpha == pytest.approx(0.8012, abs=1e-4)
    assert res.loss == pytest.approx(0.0115, abs=1e-4)
    unc = res.per_param_uncertainty
    assert all(math.isfinite(v) and v > 0.0 for v in unc.values())


def test_fit_uncertainties_finite_on_noisy_data():
    spec = synth_spectrum(TRUTH, OMEGAS, 0.01, seed=2)
    unc = fit_cole_cole(spec).per_param_uncertainty
    assert set(unc) == {"alpha", "tau", "r_ct", "r_s"}
    for v in unc.values():
        assert math.isfinite(v) and v > 0.0


def test_fit_alpha_error_bar_matches_the_alpha_spread():
    fits = [fit_cole_cole(synth_spectrum(TRUTH, OMEGAS, 0.01, seed))
            for seed in range(40)]
    spread = np.std([f.model.alpha for f in fits], ddof=1)
    bar = np.median([f.per_param_uncertainty["alpha"] for f in fits])
    assert abs(bar / spread - 1.0) < 0.2


def test_singular_jacobian_is_a_named_error():
    # one frequency repeated: J has rank 2, the four parameters none
    w = np.full(10, 1e3)
    with pytest.raises(SingularFitError, match="singular"):
        _standard_errors(TRUTH, w, cole_cole_impedance(TRUTH, w), 1.0)


def test_fit_validation_and_warnings():
    with pytest.raises(ValueError):
        fit_cole_cole(synth_spectrum(TRUTH, 2 * math.pi *
                                     np.logspace(0, 3, 4), 0.0, seed=0))
    cluster = synth_spectrum(TRUTH, np.linspace(100.0, 150.0, 8), 0.0, seed=0)
    with pytest.warns(UserWarning, match="cluster"):
        fit_cole_cole(cluster)
    narrow = synth_spectrum(TRUTH, np.logspace(2.0, 3.0, 10) * 2 * math.pi,
                            0.0, seed=0)
    with pytest.warns(UserWarning, match="decades"):
        fit_cole_cole(narrow)


def test_fit_refuses_a_parameter_the_spectrum_does_not_constrain():
    # a 1-ohm arc under 5% noise on 20 ohms: the simplex walks ln tau past
    # the float range; a named error, never a bare overflow or a result
    buried = ColeColeModel(alpha=0.5, tau=0.15, r_ct=1.0, r_s=20.0)
    spec = synth_spectrum(buried, 2.0 * math.pi * np.logspace(0.0, 5.0, 50),
                          0.05, seed=1)
    with pytest.raises(FitDivergedError, match="tau left the float range"):
        fit_cole_cole(spec)
