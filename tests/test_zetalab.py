"""Tests for the zeta evaluation stack, zero statistics, and the shift scan.

Reference values were generated once with tests/oracles/zeta_reference.py
(mpmath at 40 digits) and are frozen here.
"""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fraczeta import _blas, zetalab
from fraczeta.zetalab import (
    Disc,
    MissedZerosError,
    PairCorrelation,
    ZeroList,
    ZetaAccuracyError,
    completed_xi,
    euler_product,
    find_zeros,
    gue_eigenvalues,
    gue_sample,
    heat_trace_mellin,
    mean_zero_count,
    pair_correlation,
    partial_zeta,
    region_grid,
    riemann_siegel_Z,
    spectral_zeta,
    unfold,
    universality_scan,
    zeta,
    _BISECT_CHUNK,
    _GRID_ROWS,
    _RS_COEFFS,
    _RS_MATRIX,
    _RS_SCAN_BLOCK,
    _RS_T_MIN,
    _certified_z,
    _em_block,
    _grid_chunks,
    _z_block,
    _z_fast,
    _z_rs,
    _z_scalar,
    _z_scalar_bound_cap,
    _z_scan,
)

# mpmath (40 digits), rounded to double.
ZETA_TABLE = {
    2.0 + 0.0j: 1.6449340668482264 + 0.0j,
    3.0 + 0.0j: 1.2020569031595942 + 0.0j,
    0.5 + 0.0j: -1.4603545088095868 + 0.0j,
    0.75 + 10.0j: 1.461434953126222 - 0.11416177125806473j,
    0.5 + 25.0j: 0.004984593364035676 - 0.014012301962583382j,
    0.9 + 100.0j: 1.7546360258845368 - 0.06438371357600144j,
    0.6 + 1000.0j: 0.6288612811538082 + 0.5984607865281872j,
    0.95 + 9999.0j: 1.4028721877881276 - 0.6011638665657238j,
    0.1 + 3.0j: 0.45748513482791187 - 0.045723698181463164j,
}

FIRST_ZEROS = (14.134725141734695, 21.022039638771556, 25.01085758014569)
ZERO_1000 = 1419.4224809459956
ZERO_COUNTS = {50.0: 10, 100.0: 29, 200.0: 79}

XI_HALF = 0.4971207781883141
XI_03_5J = 0.27552016666804474 - 0.013309198198120313j
THETA_20 = 1.1868948084444841
THETA_5 = -3.4596203753634627
Z_30 = 0.596028519239885


# sha256 of the float64 bytes of find_zeros(1419.5).ordinates as produced by
# the direct-scan, scalar-bisection reference route
ZEROS_1000_SHA256 = (
    "68f8656aea5020f5da5d2232fa4fc12fb720c3a49b2c161f06c67cc1874fee66")


def _load_oracle(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parent / "oracles" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bisect_reference = _load_oracle("bisect_reference")
em_tail_reference = _load_oracle("em_tail_reference")
gue_dense = _load_oracle("gue_dense")
siegelz_reference = _load_oracle("siegelz_reference")


@pytest.fixture(scope="module")
def zeros_1000():
    return find_zeros(1419.5)


# --- Dirichlet pieces ----------------------------------------------------------


def test_partial_zeta_small_cases():
    assert partial_zeta(2.0, 1) == 1.0 + 0.0j
    assert abs(partial_zeta(2.0, 3) - (1.0 + 0.25 + 1.0 / 9.0)) < 1e-15


def test_partial_zeta_tail_bound():
    # |zeta(s) - sum_{n<=N}| <= N^{1-sigma}/(sigma-1) for real s > 1
    for s, ref in ((2.0, 1.6449340668482264), (3.0, 1.2020569031595942)):
        for n_max in (10, 100, 1000):
            tail = n_max ** (1.0 - s) / (s - 1.0)
            assert abs(partial_zeta(s, n_max) - ref) <= tail


def test_euler_product_examples():
    assert abs(euler_product(2.0, 2) - 4.0 / 3.0) < 1e-15
    # slow convergence, so compare against a long partial sum
    approx = euler_product(2.0, 10 ** 4)
    assert abs(approx - 1.6449340668482264) < 1e-4
    assert abs(approx.imag) < 1e-15


def test_euler_product_domain():
    with pytest.raises(ValueError):
        euler_product(1.0, 100)
    with pytest.raises(ValueError):
        euler_product(2.0, 1)


# --- analytic continuation ------------------------------------------------------


def test_zeta_frozen_values():
    for s, ref in ZETA_TABLE.items():
        pt = zeta(s)
        assert pt.s == s
        assert pt.abs_err_bound < 1e-8
        assert abs(pt.value - ref) <= pt.abs_err_bound + 1e-12


def test_zeta_near_first_zero():
    # |zeta| at t = 14.134725 (6 decimals of the true ordinate)
    val = zeta(0.5 + 14.134725j)
    assert abs(val.value) < 1e-4
    assert abs(abs(val.value) - 1.1241834983941753e-07) < 5e-13


def test_zeta_reflection():
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = complex(rng.uniform(0.05, 3.0), rng.uniform(-900.0, 900.0))
        if abs(s - 1.0) < 1e-3:
            continue
        a = zeta(s).value
        b = zeta(s.conjugate()).value
        assert abs(a - b.conjugate()) < 1e-12 * max(1.0, abs(a))


def test_zeta_domain_errors():
    for bad in (1.0 + 0.0j, 0.0 + 5.0j, -1.0 + 0.0j, 0.5 + 10001.0j,
                complex(math.nan, 0.0)):
        with pytest.raises(ValueError):
            zeta(bad)


def test_completed_xi_frozen_and_symmetric():
    assert abs(completed_xi(0.5) - XI_HALF) < 1e-10
    assert abs(completed_xi(0.3 + 5.0j) - XI_03_5J) < 1e-10 * abs(XI_03_5J)
    rng = np.random.default_rng(12)
    for _ in range(100):
        s = complex(rng.uniform(0.1, 0.9), rng.uniform(-50.0, 50.0))
        a, b = completed_xi(s), completed_xi(1.0 - s)
        assert abs(a - b) < 1e-8 * max(1.0, abs(a))


def test_completed_xi_trivial_points():
    # xi(0) = xi(1) = 1/2 after the (s-1) factor kills the pole
    assert abs(completed_xi(1.0) - 0.5) < 1e-10
    assert abs(completed_xi(0.0) - 0.5) < 1e-10


# --- hardy Z ---------------------------------------------------------------------


def test_riemann_siegel_Z_frozen():
    assert abs(riemann_siegel_Z(30.0) - Z_30) < 1e-8
    from fraczeta.zetalab import _rs_theta

    assert abs(_rs_theta(20.0) - THETA_20) < 1e-8
    assert abs(_rs_theta(5.0) - THETA_5) < 1e-10


THETA_LO_BOUND = 5e-14   # _rs_theta's stated error below t = 10
ASYMPTOTIC_THETA_ERR = 1e-8   # its stated error from t = 10 on


def _theta_scipy(t):
    from scipy.special import loggamma

    return np.imag(loggamma(0.25 + 0.5j * t)) - 0.5 * t * math.log(math.pi)


def test_rs_theta_low_branch_matches_log_gamma():
    from fraczeta.zetalab import _rs_theta

    t = np.sort(np.random.default_rng(20231).uniform(0.0, 10.0, 400))
    t = np.concatenate([[1e-300, 1e-9, 0.5, 9.999], t, [np.nextafter(10.0, 0.0)]])
    theta = _rs_theta(t)
    assert np.max(np.abs(theta - _theta_scipy(t))) < THETA_LO_BOUND
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.im(mpmath.loggamma(0.25 + 0.5j * mpmath.mpf(x)))
                              - mpmath.mpf(x) / 2 * mpmath.log(mpmath.pi))
                        for x in t])
    assert np.max(np.abs(theta - ref)) < THETA_LO_BOUND


def test_rs_theta_branches_meet_at_ten():
    from fraczeta.zetalab import _rs_theta

    below, at = _rs_theta(np.array([np.nextafter(10.0, 0.0), 10.0]))
    assert abs(below - at) < ASYMPTOTIC_THETA_ERR
    assert abs(at - _theta_scipy(10.0)) < ASYMPTOTIC_THETA_ERR


def _exact_b2f(count):
    """B_{2k}/(2k)! for k < count as Fractions, from the recurrence
    sum_{j<=m} C(m+1, j) B_j = 0."""
    from fractions import Fraction

    b = [Fraction(1)]
    for m in range(1, 2 * count - 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return [b[2 * k] / math.factorial(2 * k) for k in range(count)]


def test_b2f_table_is_the_nearest_floats():
    """_B2F, from the tangent numbers, is bit for bit the nearest float to
    each B_2k/(2k)! of the classical recurrence; _STIRLING keeps the bits
    of its literal fractions."""
    from fraczeta.zetalab import _B2F, _M_CAP, _STIRLING

    assert len(_B2F) == _M_CAP + 2
    nearest = [float(e) for e in _exact_b2f(_M_CAP + 2)]
    assert np.array(_B2F).tobytes() == np.array(nearest).tobytes()
    literal = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
               -691 / 360360, 1 / 156)
    assert np.array(_STIRLING).tobytes() == np.array(literal).tobytes()


def test_b2f_deviation_from_exact_stays_inside_zeta_bound(monkeypatch):
    """scipy's Bernoulli floats over (2k)!, the table the tail was first
    pinned with, are off by 1.7e-12 relative at B_4 and 6e-14 at B_6;
    swapping them back in moves zeta(1/2 + 20i) by far less than its
    reported bound."""
    from scipy.special import bernoulli

    from fraczeta import zetalab

    scipy_b2f = (bernoulli(2 * zetalab._M_CAP + 2)[0::2] / np.array(
        [math.factorial(2 * k) for k in range(zetalab._M_CAP + 2)])
    ).astype(float)  # object dtype until here
    rel = np.abs(scipy_b2f / np.array(zetalab._B2F) - 1.0)
    assert 1.7e-12 < rel[2] < 1.8e-12
    assert 5e-14 < rel[3] < 7e-14
    point = zeta(0.5 + 20.0j)
    monkeypatch.setattr(zetalab, "_B2F", tuple(scipy_b2f))
    moved = abs(zeta(0.5 + 20.0j).value - point.value)
    assert 0.0 < moved < 1e-2 * point.abs_err_bound


def test_Z_modulus_matches_zeta():
    ts = np.linspace(10.0, 100.0, 1000)
    for t in ts[::37]:
        assert abs(abs(riemann_siegel_Z(t)) - abs(zeta(0.5 + 1j * t).value)) < 1e-8


def test_Z_sign_change_at_first_zero():
    assert riemann_siegel_Z(14.0) * riemann_siegel_Z(14.2) < 0.0


def test_Z_continuity():
    assert abs(riemann_siegel_Z(25.0 + 1e-6) - riemann_siegel_Z(25.0)) < 1e-3


def test_Z_domain():
    with pytest.raises(ValueError):
        riemann_siegel_Z(0.0)
    with pytest.raises(ValueError):
        riemann_siegel_Z(-3.0)


# sha256 of zeta()'s (value, bound) at 600 seeded points on the critical
# line and 600 inside the strip 0 < Re s < 1, then riemann_siegel_Z at 300
# seeded t (integers and their next floats among them), as float64 bytes
REFERENCE_ROUTE_SHA256 = (
    "56f9e181ab218b9e589b27b4f9e5fccb9926dd6d10705ceb42c9c2e79e7028ff")


def _reference_route_digest():
    rng = np.random.default_rng(26)
    line = 0.5 + 1j * rng.uniform(14.0, 9999.0, 600)
    # the float-noise floor keeps zeta()'s bound under 1e-8 for Re s >= 0.05
    # up to |t| = 1e3 and for Re s >= 1/2 up to |t| = 9999
    strip = np.concatenate([
        rng.uniform(0.05, 0.95, 300) + 1j * rng.uniform(-1e3, 1e3, 300),
        rng.uniform(0.5, 0.95, 300) + 1j * rng.uniform(-9999.0, 9999.0, 300)])
    whole = np.floor(rng.uniform(14.0, 9999.0, 50))
    ts = np.concatenate([rng.uniform(14.0, 9999.0, 200), whole,
                         np.nextafter(whole, np.inf)])
    h = hashlib.sha256()
    for s in np.concatenate([line, strip]):
        point = zeta(s)
        h.update(np.array([point.value.real, point.value.imag,
                           point.abs_err_bound]).tobytes())
    h.update(np.array([riemann_siegel_Z(t) for t in ts]).tobytes())
    return h.hexdigest()


def test_reference_route_bits_pinned():
    assert _reference_route_digest() == REFERENCE_ROUTE_SHA256


# --- zero finding ----------------------------------------------------------------


def test_find_zeros_first_three():
    zl = find_zeros(30.0)
    assert len(zl.ordinates) == 3
    for got, ref in zip(zl.ordinates, FIRST_ZEROS):
        assert abs(got - ref) < 1e-6


def test_find_zeros_counts():
    for t_max, count in ZERO_COUNTS.items():
        zl = find_zeros(t_max)
        assert len(zl.ordinates) == count
        assert abs(count - mean_zero_count(t_max)) <= 2.0


def test_find_zeros_empty_below_first():
    assert find_zeros(5.0).ordinates == ()


def test_find_zeros_below_one_grid_step():
    # t_max under the grid step leaves no grid points, only t_max itself
    assert find_zeros(0.03).ordinates == ()


def test_find_zeros_validation():
    with pytest.raises(ValueError):
        find_zeros(100.0, grid=0.2)
    with pytest.raises(ValueError):
        find_zeros(2.0e4)
    with pytest.raises(ValueError):
        find_zeros(0.0)


def test_zero_ordinates_are_zeros_of_zeta(zeros_1000):
    for t in zeros_1000.ordinates[:3]:
        up = zeta(0.5 + 1j * t).value
        down = zeta(0.5 - 1j * t).value
        assert abs(up) < 1e-6
        assert abs(abs(up) - abs(down)) < 1e-12


def test_zero_tol_is_the_bracket_width(zeros_1000):
    tol = zeros_1000.tol
    assert tol == 1e-9
    ords = zeros_1000.ordinates
    for t in (*ords[:3], ords[999]):
        assert riemann_siegel_Z(t - tol) * riemann_siegel_Z(t + tol) < 0.0


# 200.0 leaves _certified_z no scan point, 204.8 ends the grid chunks
# that start below t = 200 at the last grid point, and 204.85 puts the
# off-grid end right after them
@pytest.mark.parametrize("t_max", [200.0, 100.03, 204.8, 204.85])
def test_find_zeros_matches_scalar_bisection(t_max):
    got = find_zeros(t_max).ordinates
    assert np.array_equal(got, bisect_reference.find_zeros(t_max))


def test_zeros_1000_hash_pinned(zeros_1000):
    digest = hashlib.sha256(np.array(zeros_1000.ordinates).tobytes()).hexdigest()
    assert digest == ZEROS_1000_SHA256


def test_min_sign_margin_reported(zeros_1000):
    margin = zeros_1000.min_sign_margin
    assert math.isfinite(margin) and margin > 0.0
    assert find_zeros(5.0).min_sign_margin == math.inf


@pytest.fixture(scope="module")
def fast_and_scalar():
    """400 seeded ordinates in [14, 1e4], through _z_fast in ascending
    chunks of _BISECT_CHUNK as _bisect takes them, and through the scalar
    route one at a time."""
    ts = np.sort(np.random.default_rng(1009).uniform(14.0, 1.0e4, 400))
    z_fast, b_fast, cap = (np.empty_like(ts) for _ in range(3))
    for lo in range(0, ts.size, _BISECT_CHUNK):
        sl = slice(lo, lo + _BISECT_CHUNK)
        z_fast[sl], b_fast[sl] = _z_fast(ts[sl])
        cap[sl] = _z_scalar_bound_cap(ts[sl])
    scalar = np.array([_z_block(ts[i:i + 1]) for i in range(ts.size)])[:, :, 0]
    return ts, z_fast, b_fast, cap, scalar[:, 0], scalar[:, 1]


def test_fast_sign_gate_is_sound(fast_and_scalar):
    _, z_fast, b_fast, cap, z_ref, b_ref = fast_and_scalar
    assert np.all(np.abs(z_fast - z_ref) <= b_fast + b_ref)
    assert np.all(b_ref <= cap)


def test_fast_route_matches_mpmath(fast_and_scalar):
    mpmath = pytest.importorskip("mpmath")
    ts, z_fast, b_fast = fast_and_scalar[:3]
    # every 20th ordinate, plus each chunk's largest, where |s|/(2 pi N)
    # is closest to 1/2
    ends = np.minimum(np.arange(_BISECT_CHUNK, ts.size + _BISECT_CHUNK,
                                _BISECT_CHUNK), ts.size) - 1
    with mpmath.workdps(20):
        for i in np.union1d(np.arange(0, ts.size, 20), ends):
            ref = float(mpmath.siegelz(mpmath.mpf(float(ts[i]))))
            assert abs(z_fast[i] - ref) <= b_fast[i]


def test_reference_decisions_counted(zeros_1000):
    # the scalar route decides at most 2 % of the 26,000 midpoints
    assert 0 < zeros_1000.reference_decisions <= 520
    assert find_zeros(5.0).reference_decisions == 0


@pytest.fixture(scope="module")
def rs_and_scalar():
    """400 seeded ordinates log-uniform in [200, 1e4] and 100 uniform in
    [200, 260], where Gabcke's term is most of the bound, through _z_rs
    and through the scalar route one at a time."""
    ts = siegelz_reference.ordinates()
    z_rs, b_rs = _z_rs(ts)
    scalar = np.array([_z_block(ts[i:i + 1]) for i in range(ts.size)])[:, :, 0]
    return ts, z_rs, b_rs, scalar[:, 0]


def test_rs_sign_gate_is_sound(rs_and_scalar):
    ts, z_rs, b_rs, z_ref = rs_and_scalar
    assert np.all(np.abs(z_rs - z_ref) <= b_rs + _z_scalar_bound_cap(ts))


def test_rs_bound_covers_mpmath(rs_and_scalar):
    # mpmath.siegelz at 25 digits, frozen by tests/oracles/siegelz_reference.py;
    # eight seeded entries are recomputed live against the table
    pytest.importorskip("mpmath")
    ts, z_rs, b_rs, _ = rs_and_scalar
    table_t, ref = np.loadtxt(
        Path(__file__).parent / "oracles" / "siegelz_table.txt", unpack=True)
    assert np.array_equal(table_t, ts)
    live = np.random.default_rng(77).choice(ts.size, 8, replace=False)
    assert np.allclose(siegelz_reference.siegelz(ts[live]), ref[live],
                       rtol=4.0 * np.finfo(float).eps, atol=1e-15)
    assert np.all(np.abs(z_rs - ref) <= b_rs)


def _grid_route_at(ts, step=0.05, rows=64):
    """_z_rs(block, step) at each t, where t sits at row j <= 37 of a block
    of evenly spaced points t - j step + fl(r step) from t = 200 up, so
    that, except at j = 0, its phases come from the two tables."""
    z, bound = np.empty_like(ts), np.empty_like(ts)
    for i, t in enumerate(ts):
        j = min(37, int((t - _RS_T_MIN) // step))
        block = (t - j * step) + np.arange(rows) * step
        block[j] = t
        z_block, b_block = _z_rs(block, step)
        z[i], bound[i] = z_block[j], b_block[j]
    return z, bound


def test_rs_grid_route_covers_mpmath_and_the_direct_route(rs_and_scalar,
                                                          scan_600):
    pytest.importorskip("mpmath")
    ts, z_rs, b_rs, _ = rs_and_scalar
    _, ref = np.loadtxt(
        Path(__file__).parent / "oracles" / "siegelz_table.txt", unpack=True)
    z_grid, b_grid = _grid_route_at(ts)
    assert np.all(np.abs(z_grid - ref) <= b_grid)
    assert np.all(np.abs(z_grid - z_rs) <= b_grid + b_rs)
    # on the scan grid, and at a point moved 0.01 off it, which keeps a
    # bound only through the shift term
    scan = scan_600[0][4096:]
    off = scan.copy()
    off[100] += 0.01
    for block in (scan, off):
        z_grid, b_grid = _z_rs(block, 0.05)
        z_dir, b_dir = _z_rs(block)
        assert np.all(np.abs(z_grid - z_dir) <= b_grid + b_dir)
    assert b_grid[100] > 1e-3 > b_grid[99]


def test_rs_bound_is_infinite_below_200():
    z, bound = _z_rs(np.array([14.0, 150.0, 199.99, 200.0]))
    assert np.all(np.isinf(bound[:3])) and np.all(z[:3] == 0.0)
    assert np.isfinite(bound[3]) and z[3] != 0.0


def test_rs_floor_constants_hold_for_the_table():
    # _z_rs's rounding floor for the corrections, (2pi/t)^{1/4} eps
    # (32 + 16 a), takes on |x| <= 1/2, with e = 2m + k % 2 the power of x:
    # sum_k sum_m |c_km| 2^-e (m + 12) <= 14.5 (a term's relative error in
    # a dot product of 22 powers), sum_k sum_m |c_km| 2^-e <= 1.2 (for the
    # 8 eps of the Horner steps in u) and sum_k max |C_k'| <= 4.4 (for p)
    size = slope = terms = 0.0
    for k, row in enumerate(_RS_COEFFS):
        m = np.arange(len(row))
        e = 2 * m + k % 2
        weight = np.abs(row) * 0.5 ** e
        size += float(np.sum(weight))
        terms += float(np.sum(weight * (m + 12)))
        slope += float(np.sum(e * np.abs(row) * 0.5 ** (e - 1.0)))
    assert size <= 1.2 and slope <= 4.4 and terms <= 14.5
    assert 14.5 + 8 * 1.2 <= 32 and 2 * 4.4 <= 16
    assert _RS_MATRIX.shape == (len(_RS_COEFFS), 22)
    for k, row in enumerate(_RS_COEFFS):
        assert _RS_MATRIX[k].tolist() == [*row, *[0.0] * (22 - len(row))]


def test_rs_coefficient_table_matches_oracle():
    pytest.importorskip("mpmath")
    oracle = _load_oracle("rs_coefficients")
    assert _RS_COEFFS == oracle.rs_coefficients()
    assert all(tail < 1e-17 for tail in oracle.dropped_tails())


def _blind_fast(t_block, step=None):
    z, bound = _z_block(t_block)
    return z, np.full_like(bound, np.inf)


def _lying_fast(t_block, step=None):
    # the scalar value's opposite sign, with the smallest bound that still
    # covers it (|z' - z| <= bound' + bound); a gate on bound' alone would
    # take the wrong sign wherever |z| < bound, as at t = 176.4
    z, bound = np.array([_z_block(t_block[i:i + 1])
                         for i in range(t_block.size)])[:, :, 0].T
    return -z, np.maximum(0.0, 2.0 * np.abs(z) - bound)


@pytest.fixture(scope="module")
def zeros_300_reference():
    return bisect_reference.find_zeros(300.0)


@pytest.mark.parametrize("fake_fast", [_blind_fast, _lying_fast])
def test_reference_route_alone_matches_scalar_bisection(
        monkeypatch, zeros_300_reference, fake_fast):
    scalar_calls = []

    def spy(t):
        z, gate = _z_scalar(t)
        scalar_calls.append((t.copy(), z, gate))
        return z, gate

    # both fast routes, Riemann-Siegel (from t = 200, from the scan's phase
    # tables or direct) and the chunked Euler-Maclaurin sum, are replaced
    # by the fake, so the batched scalar route decides every sign
    monkeypatch.setattr("fraczeta.zetalab._z_rs", fake_fast)
    monkeypatch.setattr("fraczeta.zetalab._z_fast", fake_fast)
    monkeypatch.setattr("fraczeta.zetalab._z_scalar", spy)
    zl = find_zeros(300.0)
    assert np.array_equal(zl.ordinates, zeros_300_reference)
    # the scalar route decides the 1,904 scan points past the 8 grid
    # chunks that start below t = 200, and each of the 26 halvings that
    # take every 0.05 bracket to 1e-9: one call for the scan, one a sweep
    scan_points = 6000 - 8 * _GRID_ROWS
    assert zl.reference_decisions == scan_points + 26 * len(zl.ordinates)
    assert len(scalar_calls) == 27 and scalar_calls[0][0].size == scan_points
    assert sum(t.size for t, _, _ in scalar_calls) == zl.reference_decisions
    # each decision is the one-point scalar route's, bit for bit
    for t, z, gate in scalar_calls:
        one = np.array([_z_block(t[i:i + 1]) for i in range(t.size)])[:, :, 0]
        assert z.tobytes() == one[:, 0].tobytes()
        assert gate.tobytes() == one[:, 1].tobytes()
    assert math.isfinite(zl.min_sign_margin)


def test_scalar_batch_equals_one_point_route_bit_for_bit():
    # 2,404 seeded t in [14, 1e4], unsorted, with 200 integers and the next
    # float above each, where ceil(t) and so the cutoff N steps, and two t
    # at N = 9170, the one N in [20, 1e4] where np.log is not math.log
    rng = np.random.default_rng(2611)
    whole = np.floor(rng.uniform(14.0, 1.0e4, 200))
    ts = np.concatenate([rng.uniform(14.0, 1.0e4, 1000),
                         np.exp(rng.uniform(math.log(14.0), math.log(1.0e4),
                                            1000)),
                         whole, np.nextafter(whole, np.inf),
                         [14.0, 9169.5, 9170.0, 1.0e4]])
    rng.shuffle(ts)
    z, bound = _z_scalar(ts)
    one = np.array([_z_block(ts[i:i + 1]) for i in range(ts.size)])[:, :, 0]
    assert z.tobytes() == one[:, 0].tobytes()
    assert bound.tobytes() == one[:, 1].tobytes()


def _assert_each_within_the_others_err(a, err_a, b, err_b):
    diff = np.abs(a - b)
    assert np.all(diff <= err_a) and np.all(diff <= err_b)


@pytest.mark.parametrize("t0, step, phase_rows", [
    (10.0, 0.05, 512),
    (4000.0, 0.9, 420),     # cutoff 4990: fewer phase rows than a chunk
])
def test_grid_route_matches_direct_ragged_grid(t0, step, phase_rows):
    base = np.array([0.5])
    shifts = t0 + np.arange(1100) * step
    chunks = list(_grid_chunks(base, shifts, step))
    assert [sl.stop - sl.start for sl, _ in chunks] == [
        phase_rows, phase_rows, 1100 - 2 * phase_rows]
    assert chunks[0][1][0].shape[0] == phase_rows
    for sl, phases in chunks:
        grid_vals, grid_err = _em_block(base, shifts[sl], 1e-12, phases)
        vals, err = _em_block(base, shifts[sl], 1e-12)
        _assert_each_within_the_others_err(grid_vals, grid_err, vals, err)


_EXITS = ("converged", "stopped shrinking", "cap")


def _tail_block(shape, exit_):
    """(base, shifts, tol, grid, cutoff) of one seeded block whose Bernoulli
    loop ends by exit_, in one of the shapes _em_block is called on."""
    rng = np.random.default_rng(_EXITS.index(exit_))
    if shape == "split chunk":
        # ordinates 10..200 at N = 30: the top stops shrinking at once while
        # the bottom converges, so the full-array test runs at every term
        shifts = np.sort(rng.uniform(10.0, 200.0, _BISECT_CHUNK))
        return np.array([0.5]), shifts, 1e-15, None, 30
    tol = 1e-300 if exit_ == "cap" else 1e-12
    cutoff = 20 if exit_ == "stopped shrinking" else None
    t0 = 1000.0 if exit_ == "stopped shrinking" else rng.uniform(1.0, 20.0)
    if shape == "grid":
        # 512 x 33 complex base, as universality_scan hands it over
        pts = region_grid(Disc(complex(0.75, rng.uniform(-0.3, 0.3)), 0.05))
        shifts = t0 + np.arange(1200) * 0.05
        sl, grid = next(_grid_chunks(pts, shifts, 0.05))
        return pts, shifts[sl], tol, grid, cutoff
    base = np.array([rng.uniform(0.05, 2.0)])
    if shape == "point":
        return base, np.array([t0]), tol, None, cutoff
    shifts = np.sort(t0 + rng.uniform(0.0, 20.0, _BISECT_CHUNK))  # as _z_fast
    if exit_ == "converged":
        cutoff = max(20, math.ceil(shifts.max() / math.pi))
    return base, shifts, tol, None, cutoff


@pytest.mark.parametrize("shape, exit_", [
    *((shape, exit_) for shape in ("point", "chunk", "grid")
      for exit_ in _EXITS),
    ("split chunk", "cap"),
])
def test_em_tail_matches_full_array_stop_test_bit_for_bit(shape, exit_):
    base, shifts, tol, grid, cutoff = _tail_block(shape, exit_)
    phases = None if grid is None else grid[0]
    want, want_err, how = em_tail_reference.em_block(base, shifts, tol,
                                                     phases, cutoff)
    assert how == exit_
    got, got_err = _em_block(base, shifts, tol, grid, cutoff)
    assert got.tobytes() == want.tobytes()
    assert got_err.tobytes() == want_err.tobytes()


@pytest.mark.parametrize("shape, exit_", [
    *(("point", exit_) for exit_ in _EXITS),
    *(("chunk", exit_) for exit_ in _EXITS),
    ("split chunk", "cap"),
    ("wide", "converged"),
])
def test_em_block_real_base_keeps_per_entry_n_power_bits(shape, exit_):
    # for a real base the rank-one N^{-s} is exp(-s log N)'s arithmetic; in
    # the wide block, 64 x 128 entries, numpy's real exp would differ
    if shape == "wide":
        rng = np.random.default_rng(64)
        base, shifts = rng.uniform(0.05, 2.0, 64), np.sort(
            rng.uniform(1.0, 40.0, _BISECT_CHUNK))
        tol, grid, cutoff = 1e-12, None, None
    else:
        base, shifts, tol, grid, cutoff = _tail_block(shape, exit_)
    want, want_err, _ = em_tail_reference.em_block(base, shifts, tol, None,
                                                   cutoff, per_entry=True)
    got, got_err = _em_block(base, shifts, tol, grid, cutoff)
    assert got.tobytes() == want.tobytes()
    assert got_err.tobytes() == want_err.tobytes()


@pytest.mark.parametrize("k", [2, 3, 5])
def test_em_tail_stops_where_the_probe_bound_meets_tol(k):
    # tol is the probe entry's remainder bound at term k, the largest in
    # the block, so the full-array test converges at k exactly; a probe
    # that ran it only further below tol would add term k as well
    base, shifts, _, _, cutoff = _tail_block("chunk", "converged")
    bound = em_tail_reference.tail_bound(base, shifts, k, cutoff)
    tol = float(bound[np.argmax(shifts), 0])         # the largest |s|
    assert tol == bound.max()
    assert em_tail_reference.tail_bound(base, shifts, k - 1, cutoff).max() > tol
    want, want_err, how = em_tail_reference.em_block(base, shifts, tol, None,
                                                     cutoff)
    assert how == "converged"
    got, got_err = _em_block(base, shifts, tol, None, cutoff)
    assert got.tobytes() == want.tobytes()
    assert got_err.tobytes() == want_err.tobytes()


def test_grid_route_off_axis_disc():
    # Im center = 0.3 raises the cutoff above t_max; the phase columns
    # must cover it
    pts = region_grid(Disc(0.75 + 0.3j, 0.05))
    shifts = np.arange(1200) * 0.05
    for sl, phases in _grid_chunks(pts, shifts, 0.05):
        grid_vals, grid_err = _em_block(pts, shifts[sl], 1e-10, phases)
        vals, err = _em_block(pts, shifts[sl], 1e-10)
        _assert_each_within_the_others_err(grid_vals, grid_err, vals, err)


def test_grid_route_scan_off_grid_t_max():
    ts, z, gate, _ = _z_scan(100.03, 0.05)
    assert ts.size == 2001 and ts[-1] == 100.03
    for sl, _ in _grid_chunks(np.array([0.5]), ts[:-1], 0.05):
        z_direct, bound_direct = _z_block(ts[sl])
        _assert_each_within_the_others_err(z[sl], gate[sl],
                                           z_direct, bound_direct)
    # the off-grid end goes through the certified chain, with the scalar sign
    z_last, gate_last, _ = _certified_z(ts[-1:])
    assert z[-1] == z_last[0] and gate[-1] == gate_last[0]
    assert np.sign(z[-1]) == np.sign(_z_block(ts[-1:])[0][0])


@pytest.fixture(scope="module")
def scan_600():
    """_z_scan(600), the grid route's values on the same grid, and the
    direct route's in bisect_reference's blocks of 4096."""
    ts, z, gate, n_scalar = _z_scan(600.0, 0.05)      # 600 is on the grid
    assert n_scalar == 0
    grid = np.empty((2, ts.size))
    for sl, phases in _grid_chunks(np.array([0.5]), ts, 0.05):
        grid[:, sl] = _z_block(ts[sl], phases)
    _, z_dir, b_dir = bisect_reference.direct_scan(600.0)
    return ts, z, gate, grid, z_dir, b_dir


def test_scan_signs_match_direct_route(scan_600):
    ts, z, _, _, z_dir, _ = scan_600
    assert np.array_equal(np.sign(z), np.sign(z_dir))


def test_scan_rs_points_clear_their_gate(scan_600):
    # from the first chunk that starts at t >= 200, every point is the
    # Riemann-Siegel value from the grid's phase tables, which clears its
    # bound plus the scalar majorant
    ts, z, gate, grid, _, _ = scan_600
    lo = _GRID_ROWS * math.ceil(np.searchsorted(ts, _RS_T_MIN) / _GRID_ROWS)
    assert ts[lo - _GRID_ROWS] < _RS_T_MIN <= ts[lo]
    for blk in range(lo, ts.size, _RS_SCAN_BLOCK):
        sl = slice(blk, blk + _RS_SCAN_BLOCK)
        z_rs, b_rs = _z_rs(ts[sl], 0.05)
        assert np.array_equal(z[sl], z_rs)
        assert np.array_equal(gate[sl], b_rs + _z_scalar_bound_cap(ts[sl]))
        assert np.all(np.abs(z[sl]) > gate[sl])
    assert np.array_equal(z[:lo], grid[0, :lo])
    assert np.array_equal(gate[:lo], grid[1, :lo])


def test_scan_point_failing_the_rs_gate_takes_the_fast_route(
        monkeypatch, scan_600):
    ts, z, gate, _, _, _ = scan_600
    ordinates = find_zeros(600.0).ordinates
    weak = 6000
    assert ts[weak] == 300.05

    def rs_weak_at_one_point(t_block, step=None):
        z_rs, b_rs = _z_rs(t_block, step)
        return z_rs, np.where(t_block == ts[weak], np.inf, b_rs)

    monkeypatch.setattr("fraczeta.zetalab._z_rs", rs_weak_at_one_point)
    _, z2, gate2, n_scalar = _z_scan(600.0, 0.05)
    z_fast, b_fast = _z_fast(ts[weak:weak + 1])
    assert z2[weak] == z_fast[0] and n_scalar == 0
    assert gate2[weak] == b_fast[0] + _z_scalar_bound_cap(ts[weak:weak + 1])[0]
    assert abs(z2[weak]) > gate2[weak]
    rest = np.arange(ts.size) != weak
    assert np.array_equal(z2[rest], z[rest])
    assert np.array_equal(gate2[rest], gate[rest])
    assert find_zeros(600.0).ordinates == ordinates


def test_find_zeros_peak_memory():
    # the scan builds its grid factor only for the chunks below t = 200,
    # 512 x 204 entries at T = 1419.5 where the whole grid needs 512 x 1419
    tracemalloc.start()
    try:
        find_zeros(1419.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_thousandth_zero(zeros_1000):
    assert len(zeros_1000.ordinates) == 1000
    assert abs(zeros_1000.ordinates[-1] - ZERO_1000) < 1e-6


def test_zerolist_validation():
    with pytest.raises(ValueError):
        ZeroList(ordinates=(2.0, 1.0), tol=1e-6, t_max=10.0)
    with pytest.raises(ValueError):
        ZeroList(ordinates=(-1.0,), tol=1e-6, t_max=10.0)


# --- unfolding and pair statistics ------------------------------------------------


def test_unfold_mean_spacing(zeros_1000):
    u = unfold(zeros_1000)
    spacing = np.diff(u)
    assert np.all(spacing > 0.0)
    assert 0.98 < float(np.mean(spacing)) < 1.02


def test_unfold_empty_raises():
    with pytest.raises(ValueError):
        unfold(ZeroList(ordinates=(), tol=1e-6, t_max=5.0))


def test_pair_correlation_reference_limits():
    # small-separation reference ~ (pi u)^2/3 -> 0
    x = np.arange(150, dtype=float) * 1e-6
    pc = pair_correlation(x, max_sep=2e-6, bins=1)
    assert pc.reference[0] < 1e-9
    # large-separation reference -> 1
    y = np.linspace(0.0, 2000.0, 200)
    pc2 = pair_correlation(y, max_sep=2000.0, bins=1)
    assert abs(pc2.reference[0] - 1.0) < 1e-6


def test_pair_correlation_zeros_vs_sine_kernel(zeros_1000):
    pc = pair_correlation(unfold(zeros_1000), max_sep=3.0, bins=30)
    assert pc.ks_distance < 0.10


def test_pair_correlation_normalization(zeros_1000):
    pc = pair_correlation(unfold(zeros_1000), max_sep=3.0, bins=30)
    width = pc.bin_edges[1:] - pc.bin_edges[:-1]
    mass = float(np.sum(pc.empirical * width)) * pc.n_positions
    assert abs(mass - pc.pair_count) < 1e-9 * pc.pair_count


def _pair_counts_by_position(x, max_sep, bins):
    """Histogram counts of the separations, built position by position."""
    x = np.sort(x)
    hi = np.searchsorted(x, x + max_sep, side="right")
    diffs = np.concatenate([x[i + 1: hi[i]] - x[i] for i in range(x.size)])
    return np.histogram(diffs, bins=bins, range=(0.0, max_sep))[0]


@pytest.mark.parametrize("source", ["zeros", "gue"])
def test_pair_correlation_matches_position_loop(zeros_1000, source):
    x = unfold(zeros_1000) if source == "zeros" else gue_sample(200, 20, 4242)
    pc = pair_correlation(x, max_sep=3.0, bins=30)
    counts = _pair_counts_by_position(x, 3.0, 30)
    width = pc.bin_edges[1:] - pc.bin_edges[:-1]
    assert pc.pair_count == counts.sum()
    assert np.array_equal(pc.empirical, counts / (x.size * width))


def test_pair_correlation_validation():
    with pytest.raises(ValueError):
        pair_correlation(np.arange(50, dtype=float), 3.0, 30)
    with pytest.raises(ValueError):
        pair_correlation(np.arange(150, dtype=float), -1.0, 30)
    with pytest.raises(ValueError):
        pair_correlation(np.arange(150, dtype=float), 3.0, 0)


# --- GUE side ----------------------------------------------------------------------


def test_gue_deterministic():
    a = gue_eigenvalues(80, 123)
    b = gue_eigenvalues(80, 123)
    assert np.array_equal(a, b)
    c = gue_sample(50, 4, seed=9)
    d = gue_sample(50, 4, seed=9)
    assert np.array_equal(c, d)
    assert not np.array_equal(c, gue_sample(50, 4, seed=10))


def test_gue_eigenvalues_real_and_bounded():
    lam = gue_eigenvalues(200, 42)
    assert lam.dtype == np.float64
    assert lam.shape == (200,)
    radius = 2.0 * math.sqrt(200)
    assert np.all(np.abs(lam) < radius * 1.1)
    assert np.all(np.diff(lam) >= 0.0)


def test_gue_pair_correlation_matches_sine_kernel():
    pos = gue_sample(200, 50, seed=7)
    pc = pair_correlation(pos, max_sep=3.0, bins=30)
    assert pc.ks_distance < 0.08


def test_gue_sample_validation():
    with pytest.raises(ValueError):
        gue_sample(10, 5, seed=0)
    with pytest.raises(ValueError):
        gue_sample(50, 0, seed=0)


def _gue_law_batches(route):
    """Per seed 1000..1009, gue_sample(200, 20, seed) drawn through route:
    the bulk spacings' mean and variance, then the pair-correlation
    histogram (10 bins to separation 3)."""
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zetalab, "gue_eigenvalues", route)
        for seed in range(1000, 1010):
            x = gue_sample(200, 20, seed)
            gaps = np.diff(x.reshape(20, -1))
            pc = pair_correlation(x, max_sep=3.0, bins=10)
            rows.append([gaps.mean(), gaps.var(), *pc.empirical])
    return np.array(rows)


def test_gue_tridiagonal_matches_dense_in_law():
    # 19,800 gaps a route; each statistic's standard error is estimated
    # from its spread over the ten seeds, which carries the correlations
    # between spacings and between pairs that share a position
    tri = _gue_law_batches(gue_eigenvalues)
    dense = _gue_law_batches(gue_dense.gue_eigenvalues)
    se = np.hypot(tri.std(axis=0, ddof=1),
                  dense.std(axis=0, ddof=1)) / math.sqrt(len(tri))
    assert np.all(np.abs(tri.mean(axis=0) - dense.mean(axis=0)) <= 4.0 * se)


def _gue_tridiagonal(dim, seed):
    """The (d, e) gue_eigenvalues draws for (dim, seed), as a dense matrix."""
    rng = np.random.default_rng(seed)
    h = np.diag(rng.standard_normal(dim))
    e = np.sqrt(rng.chisquare(2.0 * np.arange(dim - 1, 0, -1)) / 2.0)
    h.flat[1::dim + 1] = h.flat[dim::dim + 1] = e
    return h


_NUMPY_LIBS = Path(np.__file__).parent.parent / "numpy.libs"


@pytest.mark.parametrize("dim", [20, 40, 200, 1000])
def test_gue_dsterf_route_equals_dense_eigvalsh_bit_for_bit(dim, monkeypatch):
    if not any(_NUMPY_LIBS.glob("libscipy_openblas64_*")):
        pytest.skip("numpy ships no scipy-openblas; only the dense route runs")
    assert _blas.dsterf() is not None
    for seed in (3, 1000 + dim):
        dense = np.linalg.eigvalsh(_gue_tridiagonal(dim, seed))
        assert gue_eigenvalues(dim, seed).tobytes() == dense.tobytes()
        with monkeypatch.context() as mp:
            mp.setattr(_blas, "dsterf", lambda: None)
            assert gue_eigenvalues(dim, seed).tobytes() == dense.tobytes()


def _clear_blas_lookups():
    for lookup in (_blas._openblas, _blas.dsterf, _blas._thread_count):
        lookup.cache_clear()


def test_platform_without_rtld_noload_falls_back(monkeypatch):
    # RTLD_NOLOAD is Unix only: without it no OpenBLAS is looked up, and
    # every route that would call it runs as it is
    want, want_z = zeta(0.5 + 1000.0j), riemann_siegel_Z(1000.0)
    dense = np.linalg.eigvalsh(_gue_tridiagonal(40, 3))
    monkeypatch.delattr(os, "RTLD_NOLOAD", raising=False)
    _clear_blas_lookups()
    try:
        assert _blas._openblas() is None and _blas.dsterf() is None
        got = zeta(0.5 + 1000.0j)
        assert abs(got.value - want.value) <= got.abs_err_bound
        assert riemann_siegel_Z(1000.0) == want_z
        assert gue_eigenvalues(40, 3).tobytes() == dense.tobytes()
    finally:
        monkeypatch.undo()
        _clear_blas_lookups()


_OPENBLAS_MAPS = """
import json
from fraczeta.zetalab import gue_sample

def openblas():
    with open("/proc/self/maps") as maps:
        return sorted(line.split()[-1] for line in maps if "openblas" in line)

before = openblas()
gue_sample(40, 2, 1)
print(json.dumps({"before": before, "after": openblas()}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/maps")
def test_gue_route_maps_no_second_openblas():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _OPENBLAS_MAPS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["after"] == out["before"]
    assert len(set(out["after"])) <= 1
    assert not any("scipy.libs" in path for path in out["after"])


def _digests_at_blas_threads(script):
    """What script prints, run in fresh processes at 1 and 2 BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    return digests


_GUE_HASH = ("import hashlib; from fraczeta.zetalab import gue_sample; "
             "print(hashlib.sha256(gue_sample(200, 20, 12345).tobytes())"
             ".hexdigest())")


def test_gue_sample_bits_do_not_depend_on_blas_threads():
    digests = _digests_at_blas_threads(_GUE_HASH)
    assert digests[0] == digests[1]


_BLAS_ROUTES_HASH = """
import hashlib
import numpy as np
from fraczeta.loopgas import build_kernel, make_lattice
from fraczeta import zetalab
from fraczeta.zetalab import Disc, find_zeros, universality_scan

h = hashlib.sha256()
rep = universality_scan(Disc(0.75, 0.05), None, 0.3, 500.0, 0.05)
h.update(rep.sup_errors.tobytes())
h.update(rep.err_bounds.tobytes())
h.update(np.array(find_zeros(300.0).ordinates).tobytes())
ts = np.sort(np.random.default_rng(5).uniform(200.0, 1.0e4, 600))
grid = np.arange(4000, 8096) * 0.05
for z, bound in (zetalab._z_rs(ts), zetalab._z_rs(grid, 0.05),
                 zetalab._z_scalar(ts[::20])):
    h.update(z.tobytes())
    h.update(bound.tobytes())
lat = make_lattice(-8.0, 8.0, 201, 0.005, potential=lambda x: x * x / 2)
h.update(build_kernel(lat).spectrum.tobytes())
print(h.hexdigest())
"""


def test_blas_routes_bits_do_not_depend_on_blas_threads():
    # the scan's grid products and the 201-site periodic kernel's eigvalsh
    # gave different bits at 1 and 2 threads before they ran on one; the
    # Riemann-Siegel corrections and phase tables, and the batched scalar
    # route's reductions, are BLAS products too
    digests = _digests_at_blas_threads(_BLAS_ROUTES_HASH)
    assert digests[0] == digests[1]


# --- spectral functions --------------------------------------------------------------


def test_spectral_zeta_examples():
    assert spectral_zeta([1.0], 3.7) == 1.0 + 0.0j
    assert abs(spectral_zeta([2.0], 1.0) - 0.5) < 1e-15
    lam = np.arange(1, 10 ** 6 + 1, dtype=float)
    assert abs(spectral_zeta(lam, 2.0) - 1.6449340668482264) < 1.01e-6


def test_spectral_zeta_validation():
    with pytest.raises(ValueError):
        spectral_zeta([], 2.0)
    with pytest.raises(ValueError):
        spectral_zeta([1.0, -2.0], 2.0)


def test_heat_trace_examples():
    assert abs(heat_trace_mellin([1.0], 2.0) - 1.0) < 1e-10
    assert abs(heat_trace_mellin([3.0], 1.0) - 1.0 / 3.0) < 1e-10


def test_heat_trace_equals_spectral_zeta():
    lam = [1.0, 2.0, 4.0, 7.5]
    for s in (0.5, 1.0, 1.5, 3.0):
        direct = spectral_zeta(lam, s).real
        mellin = heat_trace_mellin(lam, s)
        assert abs(mellin - direct) < 1e-8 * max(1.0, abs(direct))


def test_heat_trace_validation():
    with pytest.raises(ValueError):
        heat_trace_mellin([1.0], -1.0)
    with pytest.raises(ValueError):
        heat_trace_mellin([0.0], 1.0)


# --- shift scan -----------------------------------------------------------------------


def test_region_grid_layout():
    disc = Disc(center=0.75 + 0.0j, radius=0.05)
    pts = region_grid(disc)
    assert pts.shape == (33,)
    assert len(set(pts.tolist())) == 33
    r = np.abs(pts - disc.center)
    assert np.all(r <= disc.radius + 1e-15)
    assert np.count_nonzero(np.abs(r - disc.radius) < 1e-15) == 16
    assert disc.center in pts


def test_scan_huge_epsilon_full_measure():
    disc = Disc(center=0.75 + 0.0j, radius=0.05)
    for epsilon in (10.0, math.inf):
        rep = universality_scan(disc, None, epsilon=epsilon, t_max=2.0,
                                t_step=0.25)
        assert rep.hit_measure == 1.0
        assert rep.witnesses.size == rep.t_grid.size == 8


def test_scan_self_approximation_at_zero_shift():
    disc = Disc(center=0.75 + 0.0j, radius=0.05)
    rep = universality_scan(disc, None, epsilon=0.3, t_max=10.0, t_step=0.5)
    assert rep.sup_errors[0] < 1e-9
    assert 0.0 in rep.witnesses


def test_scan_callable_target_matches_self_mode():
    disc = Disc(center=0.7 + 0.0j, radius=0.1)
    a = universality_scan(disc, None, 0.5, t_max=4.0, t_step=0.5)
    b = universality_scan(disc, lambda s: zeta(s).value, 0.5,
                          t_max=4.0, t_step=0.5)
    assert np.array_equal(a.sup_errors, b.sup_errors)
    assert np.array_equal(a.witnesses, b.witnesses)


def test_scan_measure_invariant():
    disc = Disc(center=0.75 + 0.0j, radius=0.05)
    rep = universality_scan(disc, None, epsilon=2.0, t_max=6.0, t_step=0.5)
    assert rep.hit_measure == rep.witnesses.size * rep.t_step / rep.t_max
    assert 0.0 <= rep.hit_measure <= 1.0


def test_scan_vector_path_matches_scalar():
    disc = Disc(center=0.75 + 0.0j, radius=0.05)
    rep = universality_scan(disc, None, epsilon=1.0, t_max=3.0, t_step=0.5)
    pts = region_grid(disc)
    tgt = np.array([zeta(s).value for s in pts])
    t = rep.t_grid[5]
    sup = max(abs(zeta(s + 1j * t).value - w) for s, w in zip(pts, tgt))
    assert abs(sup - rep.sup_errors[5]) < 5e-9


def test_scan_err_bounds_cover_scalar_route():
    disc = Disc(center=0.75 + 0.0j, radius=0.05)
    rep = universality_scan(disc, None, epsilon=0.3, t_max=1000.0, t_step=0.5)
    assert rep.err_bounds.shape == rep.t_grid.shape
    assert np.all(np.isfinite(rep.err_bounds))
    assert np.all(rep.err_bounds >= 0.0)
    assert np.all(rep.err_bounds <= 1e-8)
    pts = region_grid(disc)
    tgt = np.array([zeta(s).value for s in pts])
    k = 1999                                    # t = 999.5, N near 1000
    vals = [zeta(s + 1j * rep.t_grid[k]) for s in pts]
    sup = max(abs(v.value - w) for v, w in zip(vals, tgt))
    scalar_bound = max(v.abs_err_bound for v in vals)
    assert abs(sup - rep.sup_errors[k]) <= rep.err_bounds[k] + scalar_bound


def test_scan_region_validation():
    with pytest.raises(ValueError):
        universality_scan(Disc(0.75 + 0.0j, 0.3), None, 0.3, 10.0, 0.5)
    with pytest.raises(ValueError):
        universality_scan(Disc(0.4 + 0.0j, 0.05), None, 0.3, 10.0, 0.5)
    with pytest.raises(ValueError):
        universality_scan(Disc(0.75 + 0.0j, 0.05), None, -1.0, 10.0, 0.5)
    with pytest.raises(ValueError):
        universality_scan(Disc(0.75 + 0.0j, 0.05), None, 0.3, 1.0, 2.0)
    with pytest.raises(ValueError):
        Disc(0.75 + 0.0j, -0.1)


def test_scan_reach_is_capped():
    # each of these fails validation before the t grid is allocated
    with pytest.raises(ValueError, match="capped"):
        universality_scan(Disc(0.75 + 0.0j, 0.05), None, 0.3, 1e12, 0.05)
    with pytest.raises(ValueError, match="capped"):
        universality_scan(Disc(0.75 + 0.0j, 0.05), None, 0.3, math.inf, 0.05)
    with pytest.raises(ValueError, match="capped"):
        universality_scan(Disc(0.75 + 0.5j, 0.05), None, 0.3, 9999.5, 0.05)
