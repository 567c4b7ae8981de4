"""Tests for fraczeta.fracdyn.

Frozen reference values come from tests/oracles/ml_reference.py (60+ digit
arbitrary-precision series evaluation) and tests/oracles/arc_geometry.py
(closed-form circle geometry of the canonical locus, cross-checked by a
direct 3-point solve).
"""

import cmath
import math

import numpy as np
import pytest
from scipy.special import erfcx

from fraczeta.fracdyn import (
    SHIFT_U,
    SHIFT_V,
    ArcFit,
    ColeColeModel,
    DegenerateArcError,
    MittagLefflerError,
    PhasePair,
    TwistedShift,
    arc_fit,
    cole_cole_impedance,
    gl_fracderiv,
    gl_weights,
    mittag_leffler,
    phase_angles,
    relaxation_response,
    twisted_compose,
)

# E_alpha(z) to 17 digits, from tests/oracles/ml_reference.py
ML_TABLE = [
    (1.0, -1.0, 0.36787944117144232),
    (2.0, -1.0, 0.54030230586813972),
    (0.5, -1.0, 0.427583576155807),
    (0.5, -3.0, 0.17900115118138995),
    (0.8, -1.0, 0.38694857861897685),
    (0.8, -6.0, 0.045741376541625757),
    (0.6, -10.0, 0.046589654426804281),
    (0.9, -2.5, 0.11469986754557785),
    (0.75, 2.0, 16.477360564726636),
    (0.5, 1.0, 5.0089800807622835),
    (0.7, -40.0, 0.0085261702309107444),
]

# deep negative-axis tail, same oracle: z^-k underflows to 0 in the
# asymptotic sum before rgamma(1 - alpha k) overflows
ML_TAIL = [
    (0.5, -30.0, 0.018795888861416751),
    (0.8, -400.0 ** 0.8, 0.0018237146467564717),
]

# 1 < alpha < 2 past the crossover |z|^(1/alpha) = 18, same oracle; the
# asymptotic route needs its two exponential terms here
ML_ABOVE_ONE = [
    (1.5, -20.0 ** 1.5, -0.0031463121228842019),
    (1.5, -25.0 ** 1.5, -0.002259565055480369),
    (1.2, -20.0 ** 1.2, -0.0050267200493519098),
    (1.8, -20.0 ** 1.8, 0.022067984546615992),
]


# --- impedance --------------------------------------------------------------


def test_impedance_alpha1():
    m = ColeColeModel(alpha=1.0, tau=1.0, r_ct=1.0)
    z = cole_cole_impedance(m, 1.0)
    assert abs(z - (0.5 - 0.5j)) < 1e-15


def test_impedance_dc_limit():
    for m in (ColeColeModel(0.6, 2.0, 3.0, 0.5), ColeColeModel(1.0, 1e-3, 10.0)):
        assert cole_cole_impedance(m, 0.0) == m.r_s + m.r_ct


def test_impedance_alpha_half():
    m = ColeColeModel(alpha=0.5, tau=1.0, r_ct=1.0)
    # 1/(1 + e^{i pi/4}): real part is exactly 1/2, imag is -1/(2+sqrt(2))
    z = cole_cole_impedance(m, 1.0)
    assert abs(z - (0.5 - 0.20710678118654752j)) < 1e-15


def test_impedance_array_matches_scalar():
    m = ColeColeModel(alpha=0.8, tau=0.3, r_ct=20.0, r_s=2.0)
    omegas = np.logspace(-2, 4, 25)
    vec = cole_cole_impedance(m, omegas)
    assert vec.shape == omegas.shape
    for w, zv in zip(omegas, vec):
        assert cole_cole_impedance(m, float(w)) == zv


def test_impedance_rejects_bad_omega():
    m = ColeColeModel(alpha=0.8, tau=1.0, r_ct=1.0)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            cole_cole_impedance(m, bad)


def test_model_validation():
    for kwargs in (
        dict(alpha=0.0, tau=1.0, r_ct=1.0),
        dict(alpha=1.2, tau=1.0, r_ct=1.0),
        dict(alpha=0.5, tau=0.0, r_ct=1.0),
        dict(alpha=0.5, tau=1.0, r_ct=0.0),
        dict(alpha=0.5, tau=1.0, r_ct=1.0, r_s=-1.0),
        dict(alpha=0.5, tau=math.nan, r_ct=1.0),
    ):
        with pytest.raises(ValueError):
            ColeColeModel(**kwargs)


def test_principal_branch_phase():
    tau = 0.7
    for alpha in (0.3, 0.5, 0.8, 0.95):
        # the branch itself: arg[(i w tau)^alpha] = alpha*pi/2
        for omega in np.logspace(-6, 6, 40):
            n = (1j * omega * tau) ** alpha
            assert abs(cmath.phase(n) - alpha * math.pi / 2) < 1e-12
        # and the impedance uses it: recover n = r_ct/(Z - r_s) - 1 on a
        # range where the subtraction stays well conditioned
        m = ColeColeModel(alpha=alpha, tau=tau, r_ct=5.0, r_s=1.0)
        for omega in np.logspace(-3, 3, 25):
            z = cole_cole_impedance(m, float(omega))
            n = m.r_ct / (z - m.r_s) - 1.0
            assert abs(cmath.phase(n) - alpha * math.pi / 2) < 1e-12
        # high-frequency asymptote of the full impedance
        z = cole_cole_impedance(ColeColeModel(alpha, 1.0, 1.0, 2.0), 1e6)
        if alpha >= 0.5:
            assert abs(cmath.phase(z - 2.0) + alpha * math.pi / 2) < 1e-3


# --- arc geometry ------------------------------------------------------------


def test_arc_law():
    # 200 log-spaced samples of the canonical locus lie on one circle with
    # depression angle (1-alpha)*pi/2
    omegas = np.logspace(-4, 4, 200)
    for alpha in (0.3, 0.5, 0.7, 0.8, 0.95, 1.0):
        m = ColeColeModel(alpha=alpha, tau=1.0, r_ct=1.0)
        fit = arc_fit(cole_cole_impedance(m, omegas))
        assert fit.rms_residual < 1e-9 * m.r_ct
        assert abs(fit.depression_angle - (1.0 - alpha) * math.pi / 2) < 1e-6


def test_arc_frozen_geometry():
    # closed forms: center = r_s + r_ct e^{i(1-a)pi/2} / (2 sin(a pi/2)),
    # radius = r_ct / (2 sin(a pi/2)); frozen in tests/oracles/arc_geometry.py
    omegas = np.logspace(-4, 4, 200)
    fit = arc_fit(cole_cole_impedance(ColeColeModel(0.8, 1.0, 50.0, 5.0), omegas))
    assert abs(fit.center - (30.0 + 8.12299240582266j)) < 1e-9
    assert abs(fit.radius - 26.286555605956682) < 1e-9
    assert abs(fit.depression_angle - 0.3141592653589793) < 1e-12

    fit = arc_fit(cole_cole_impedance(ColeColeModel(0.7, 1.0, 1.0), omegas))
    assert abs(fit.center - (0.5 + 0.254762724747214j)) < 1e-12
    assert abs(fit.radius - 0.5611631188171804) < 1e-12
    assert abs(fit.depression_angle - 0.471238898038469) < 1e-12


def test_arc_nyquist_semicircle():
    omegas = np.logspace(-3, 3, 50)
    m = ColeColeModel(alpha=1.0, tau=1.0, r_ct=4.0, r_s=1.0)
    fit = arc_fit(cole_cole_impedance(m, omegas))
    assert abs(fit.center - (m.r_s + m.r_ct / 2)) < 1e-9
    assert abs(fit.radius - m.r_ct / 2) < 1e-9
    assert fit.depression_angle < 1e-9
    assert fit.rms_residual < 1e-9


def test_arc_three_points_unit_circle():
    fit = arc_fit([1.0 + 0.0j, 1.0j, -1.0 + 0.0j])
    assert abs(fit.radius - 1.0) < 1e-12
    assert abs(fit.center) < 1e-12
    assert fit.rms_residual < 1e-12


def test_arc_degenerate():
    with pytest.raises(DegenerateArcError):
        arc_fit([0.0 + 0.0j, 1.0 + 1.0j, 2.0 + 2.0j])
    with pytest.raises(DegenerateArcError):
        arc_fit([1.0 + 0.0j, 1.0j])
    with pytest.raises(DegenerateArcError):
        arc_fit([0.5 + 0.5j] * 10)


# --- phase pair --------------------------------------------------------------


def test_phase_values():
    p = phase_angles(0.5)
    assert p.phi == math.pi / 4 and p.delta == 0.0
    p = phase_angles(1.0)
    assert p.phi == 0.0 and p.delta == math.pi / 4
    p = phase_angles(0.8)
    assert abs(p.phi - 0.3141592653589793) < 1e-15
    assert abs(p.delta - 0.471238898038469) < 1e-15


def test_phase_domain():
    for bad in (0.49, 1.01, 0.3, -1.0):
        with pytest.raises(ValueError):
            phase_angles(bad)


def test_phase_budget_grid():
    for alpha in np.linspace(0.5, 1.0, 1000):
        p = phase_angles(float(alpha))
        assert abs(abs(p.delta) + abs(p.phi) - math.pi / 4) < 1e-12


def test_phasepair_invariant_enforced():
    with pytest.raises(ValueError):
        PhasePair(phi=0.3, delta=0.3)


# --- Mittag-Leffler ----------------------------------------------------------


def test_ml_frozen_values():
    for alpha, z, expected in ML_TABLE:
        got = mittag_leffler(alpha, z)
        assert got.imag == 0.0
        assert abs(got.real - expected) < 1e-8 * abs(expected), (alpha, z)


def test_ml_asymptotic_tail_no_nan():
    for alpha, z, expected in ML_TAIL:
        got = mittag_leffler(alpha, z)
        assert got.imag == 0.0
        assert abs(got.real - expected) < 1e-15 * expected, (alpha, z)


def test_ml_asymptotic_above_one():
    # relative errors 5e-10 to 7e-8, each below its route's estimate
    for alpha, z, expected in ML_ABOVE_ONE:
        got = mittag_leffler(alpha, z)
        assert got.imag == 0.0
        assert abs(got.real - expected) < 1e-7 * abs(expected), (alpha, z)


def test_ml_special_cases():
    for alpha in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0):
        assert mittag_leffler(alpha, 0.0) == 1.0
    z = 0.3 - 1.2j
    assert abs(mittag_leffler(1.0, z) - cmath.exp(z)) < 1e-14
    assert abs(mittag_leffler(2.0, -1.0) - math.cos(1.0)) < 1e-14


def test_ml_erfc_identity():
    # E_{1/2}(-x) = e^{x^2} erfc(x) at x = 1
    expected = math.exp(1.0) * math.erfc(1.0)
    assert abs(mittag_leffler(0.5, -1.0).real - expected) < 1e-10


def test_ml_complex_argument():
    # series regime, checked against the conjugate symmetry E(z*) = E(z)*
    z = 1.0 + 2.0j
    a = mittag_leffler(0.8, z)
    b = mittag_leffler(0.8, z.conjugate())
    assert abs(a - b.conjugate()) < 1e-12 * abs(a)


def test_ml_flagged_not_silent():
    # imaginary argument far outside both regimes: cancellation kills the
    # series and no asymptotic route is implemented off the negative axis
    with pytest.raises(MittagLefflerError):
        mittag_leffler(0.7, 30.0j)


def test_ml_domain_errors():
    for bad_alpha in (0.0, -0.3, 2.5):
        with pytest.raises(ValueError):
            mittag_leffler(bad_alpha, -1.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.8, complex(math.inf, 0.0))


# --- relaxation --------------------------------------------------------------


def test_relaxation_examples():
    m = ColeColeModel(alpha=1.0, tau=1.0, r_ct=1.0)
    u = relaxation_response(m, [0.0, 1.0])
    assert u[0] == 1.0
    assert abs(u[1] - math.exp(-1.0)) < 1e-12

    m = ColeColeModel(alpha=0.5, tau=1.0, r_ct=1.0)
    u = relaxation_response(m, [1.0])
    assert abs(u[0] - 0.427583576155807) < 1e-8


def test_relaxation_alpha_half_power_law_tail():
    # E_{1/2}(-x) = exp(x^2) erfc(x) = erfcx(x) with x = (t/tau)^(1/2)
    m = ColeColeModel(alpha=0.5, tau=1e-3, r_ct=1.0)
    x2 = np.logspace(3.0, 6.0, 31)
    u = relaxation_response(m, x2 * m.tau)
    ref = erfcx(np.sqrt(x2))
    assert np.all(np.abs(u / ref - 1.0) < 1e-8)


def test_relaxation_monotone_decay():
    m = ColeColeModel(alpha=0.7, tau=2.0, r_ct=1.0)
    t = np.linspace(0.0, 20.0, 200)
    u = relaxation_response(m, t)
    assert np.all(np.diff(u) < 0.0)
    assert np.all(u > 0.0)


def test_relaxation_validation():
    m = ColeColeModel(alpha=0.8, tau=1.0, r_ct=1.0)
    with pytest.raises(ValueError):
        relaxation_response(m, [])
    with pytest.raises(ValueError):
        relaxation_response(m, [-1.0])


def test_tauberian_alpha1():
    # DFT of exp(-t/tau) against tau-normalized impedance: the one-sided
    # Fourier integral of the alpha=1 response is tau/(1 + i omega tau)
    tau = 1.0
    m = ColeColeModel(alpha=1.0, tau=tau, r_ct=1.0)
    t = np.linspace(0.0, 40.0 * tau, 20001)
    u = relaxation_response(m, t)
    for omega in np.logspace(-1, 1, 21) / tau:
        ft = np.trapezoid(u * np.exp(-1j * omega * t), t)
        z = cole_cole_impedance(m, float(omega))
        assert abs(ft / tau - z) < 0.01 * abs(z)


# --- Grunwald-Letnikov --------------------------------------------------------


def test_gl_weights_alpha_half():
    w = gl_weights(0.5, 4)
    assert np.allclose(w, [1.0, -0.5, -0.125, -0.0625], rtol=0, atol=1e-15)


def test_gl_alpha1_is_backward_difference():
    t = np.linspace(0.0, 1.0, 101)
    d = gl_fracderiv(t, 1.0, t[1] - t[0])
    assert np.allclose(d[1:], 1.0, atol=1e-10)


def test_gl_half_derivative_of_t():
    # D^{1/2} t = 2 sqrt(t/pi); at t=1 that is 2/sqrt(pi) = 1.1283791670955126
    n = 4096
    t = np.linspace(0.0, 1.0, n + 1)
    d = gl_fracderiv(t, 0.5, 1.0 / n)
    assert abs(d[-1] - 1.1283791670955126) < 3e-4


def test_gl_half_derivative_of_const():
    # D^{1/2} 1 = t^{-1/2}/Gamma(1/2); at t=1 that is 1/sqrt(pi) = 0.5641895835477563
    n = 4096
    f = np.ones(n + 1)
    d = gl_fracderiv(f, 0.5, 1.0 / n)
    assert abs(d[-1] - 0.5641895835477563) < 2e-4


def test_gl_first_order_convergence():
    exact = 1.1283791670955126
    errs = []
    for n in (1024, 2048):
        t = np.linspace(0.0, 1.0, n + 1)
        d = gl_fracderiv(t, 0.5, 1.0 / n)
        errs.append(abs(d[-1] - exact))
    ratio = errs[0] / errs[1]
    assert 1.8 <= ratio <= 2.2


def test_gl_validation():
    with pytest.raises(ValueError):
        gl_fracderiv([0.0, 1.0], 0.0, 0.1)
    with pytest.raises(ValueError):
        gl_fracderiv([0.0, 1.0], 1.1, 0.1)
    with pytest.raises(ValueError):
        gl_fracderiv([0.0, 1.0], 0.5, 0.0)
    with pytest.raises(ValueError):
        gl_fracderiv([1.0], 0.5, 0.1)


# --- twisted shifts -----------------------------------------------------------


def test_twist_generator_commutator():
    delta = phase_angles(0.8).delta
    uv = twisted_compose(SHIFT_U, SHIFT_V, delta)
    vu = twisted_compose(SHIFT_V, SHIFT_U, delta)
    assert (uv.a, uv.b) == (vu.a, vu.b) == (1, 1)
    assert vu.theta == 0.0
    assert uv.theta == 2.0 * delta  # bit-exact
    assert abs(uv.theta - 0.942477796076938) < 1e-15


def test_twist_identity():
    e = TwistedShift(0, 0, 0.0)
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = TwistedShift(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)),
                         float(rng.uniform(0.0, 2.0 * math.pi)))
        for h in (twisted_compose(g, e, 0.37), twisted_compose(e, g, 0.37)):
            assert (h.a, h.b, h.theta) == (g.a, g.b, g.theta)


def test_twist_delta_zero_abelian():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        g1 = TwistedShift(int(rng.integers(-20, 21)), int(rng.integers(-20, 21)),
                          float(rng.uniform(0.0, 2.0 * math.pi)))
        g2 = TwistedShift(int(rng.integers(-20, 21)), int(rng.integers(-20, 21)),
                          float(rng.uniform(0.0, 2.0 * math.pi)))
        a = twisted_compose(g1, g2, 0.0)
        b = twisted_compose(g2, g1, 0.0)
        assert (a.a, a.b, a.theta) == (b.a, b.b, b.theta)


def test_twist_associativity_exact_on_dyadic_grid():
    # all phases and delta are multiples of 2^-16 and all intermediates stay
    # inside [0, 2pi), so every float operation is exact and associativity
    # can be asserted bit for bit
    rng = np.random.default_rng(13)
    scale = 2.0 ** -16
    for _ in range(1000):
        gs = [TwistedShift(int(rng.integers(0, 5)), int(rng.integers(0, 5)),
                           int(rng.integers(0, 32768)) * scale)
              for _ in range(3)]
        delta = int(rng.integers(0, 1024)) * scale
        left = twisted_compose(twisted_compose(gs[0], gs[1], delta), gs[2], delta)
        right = twisted_compose(gs[0], twisted_compose(gs[1], gs[2], delta), delta)
        assert (left.a, left.b, left.theta) == (right.a, right.b, right.theta)


def test_twist_associativity_general_floats():
    rng = np.random.default_rng(17)
    delta = phase_angles(0.8).delta
    two_pi = 2.0 * math.pi
    for _ in range(1000):
        gs = [TwistedShift(int(rng.integers(-10, 11)), int(rng.integers(-10, 11)),
                           float(rng.uniform(0.0, two_pi)))
              for _ in range(3)]
        left = twisted_compose(twisted_compose(gs[0], gs[1], delta), gs[2], delta)
        right = twisted_compose(gs[0], twisted_compose(gs[1], gs[2], delta), delta)
        assert (left.a, left.b) == (right.a, right.b)
        d = abs(left.theta - right.theta)
        assert min(d, two_pi - d) < 1e-12


def test_twist_general_commutator_phase():
    rng = np.random.default_rng(19)
    delta = 0.2345
    two_pi = 2.0 * math.pi
    for _ in range(200):
        g1 = TwistedShift(int(rng.integers(-10, 11)), int(rng.integers(-10, 11)))
        g2 = TwistedShift(int(rng.integers(-10, 11)), int(rng.integers(-10, 11)))
        fwd = twisted_compose(g1, g2, delta)
        rev = twisted_compose(g2, g1, delta)
        expected = 2.0 * delta * (g1.b * g2.a - g2.b * g1.a)
        d = abs((fwd.theta - rev.theta) - expected) % two_pi
        assert min(d, two_pi - d) < 1e-12


def test_twist_theta_normalization():
    assert abs(TwistedShift(0, 0, 7.0).theta - (7.0 - 2.0 * math.pi)) < 1e-15
    assert abs(TwistedShift(0, 0, -1.0).theta - (2.0 * math.pi - 1.0)) < 1e-15
    assert 0.0 <= TwistedShift(0, 0, -123.456).theta < 2.0 * math.pi
