"""Tests for the zeta evaluation stack, zero statistics, and the shift scan.

Reference values were generated once with tests/oracles/zeta_reference.py
(mpmath at 40 digits) and are frozen here.
"""

import hashlib
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
    _RS_SCAN_BLOCK,
    _RS_T_MIN,
    _em_block,
    _grid_chunks,
    _z_block,
    _z_fast,
    _z_rs,
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


def test_b2f_table_is_scipys_bernoulli_floats():
    """_B2F is the table the Euler-Maclaurin tail was pinned with, bit for
    bit: scipy's Bernoulli floats over (2k)!."""
    from scipy.special import bernoulli

    from fraczeta.zetalab import _B2F, _M_CAP

    formula = bernoulli(2 * _M_CAP + 2)[0::2] / np.array(
        [math.factorial(2 * k) for k in range(_M_CAP + 2)])  # object dtype
    assert np.array(_B2F).tobytes() == formula.astype(float).tobytes()


def test_b2f_deviation_from_exact_stays_inside_zeta_bound(monkeypatch):
    """scipy's B_4 is off by 1.7e-12 relative and B_6 by 6e-14; the rest by
    under 1e-14.  Exact coefficients move zeta(1/2 + 20i) by far less than
    its reported bound."""
    from fractions import Fraction

    from fraczeta import zetalab

    exact = _exact_b2f(len(zetalab._B2F))
    rel = [abs(float((Fraction(b) - e) / e)) for b, e in zip(zetalab._B2F, exact)]
    assert 1.7e-12 < rel[2] < 1.8e-12
    assert 5e-14 < rel[3] < 7e-14
    assert max(rel[:2] + rel[4:]) < 1e-14
    point = zeta(0.5 + 20.0j)
    monkeypatch.setattr(zetalab, "_B2F", tuple(float(e) for e in exact))
    moved = abs(zeta(0.5 + 20.0j).value - point.value)
    assert moved < 1e-2 * point.abs_err_bound


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


@pytest.mark.parametrize("t_max", [200.0, 100.03])
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
    rng = np.random.default_rng(2029)
    ts = np.sort(np.concatenate([
        np.exp(rng.uniform(math.log(200.0), math.log(1.0e4), 400)),
        rng.uniform(200.0, 260.0, 100)]))
    z_rs, b_rs = _z_rs(ts)
    scalar = np.array([_z_block(ts[i:i + 1]) for i in range(ts.size)])[:, :, 0]
    return ts, z_rs, b_rs, scalar[:, 0]


def test_rs_sign_gate_is_sound(rs_and_scalar):
    ts, z_rs, b_rs, z_ref = rs_and_scalar
    assert np.all(np.abs(z_rs - z_ref) <= b_rs + _z_scalar_bound_cap(ts))


def test_rs_bound_covers_mpmath(rs_and_scalar):
    mpmath = pytest.importorskip("mpmath")
    ts, z_rs, b_rs, _ = rs_and_scalar
    with mpmath.workdps(25):
        ref = np.array([float(mpmath.siegelz(mpmath.mpf(float(t))))
                        for t in ts])
    assert np.all(np.abs(z_rs - ref) <= b_rs)


def test_rs_bound_is_infinite_below_200():
    z, bound = _z_rs(np.array([14.0, 150.0, 199.99, 200.0]))
    assert np.all(np.isinf(bound[:3])) and np.all(z[:3] == 0.0)
    assert np.isfinite(bound[3]) and z[3] != 0.0


def test_rs_floor_constants_hold_for_the_table():
    # _z_rs's rounding floor for the corrections takes sum_k sum_m
    # |c_km| 2^-m <= 1.2 and sum_k max |C_k'| <= 4.4 on |x| <= 1/2
    size = slope = 0.0
    for k, row in enumerate(_RS_COEFFS):
        m = np.arange(len(row)) * 2 + k % 2
        size += float(np.sum(np.abs(row) * 0.5 ** m))
        slope += float(np.sum(m * np.abs(row) * 0.5 ** (m - 1.0)))
    assert size <= 1.2 and slope <= 4.4
    assert max(2 * len(row) - 2 + k % 2
               for k, row in enumerate(_RS_COEFFS)) <= 42


def test_rs_coefficient_table_matches_oracle():
    pytest.importorskip("mpmath")
    oracle = _load_oracle("rs_coefficients")
    assert _RS_COEFFS == oracle.rs_coefficients()
    assert all(tail < 1e-17 for tail in oracle.dropped_tails())


def _blind_fast(t_block):
    z, bound = _z_block(t_block)
    return z, np.full_like(bound, np.inf)


def _lying_fast(t_block):
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
    direct_calls = []

    def spy(t_block, phases=None, cutoff=None):
        if phases is None:                  # not the factored scan
            direct_calls.append((t_block.size, cutoff))
        return _z_block(t_block, phases, cutoff)

    # both fast routes, Riemann-Siegel (from t = 200) and the chunked
    # Euler-Maclaurin sum, are replaced by the fake
    monkeypatch.setattr("fraczeta.zetalab._z_rs", fake_fast)
    monkeypatch.setattr("fraczeta.zetalab._z_fast", fake_fast)
    monkeypatch.setattr("fraczeta.zetalab._z_block", spy)
    zl = find_zeros(300.0)
    assert np.array_equal(zl.ordinates, zeros_300_reference)
    # every 0.05 bracket takes 26 halvings to reach 1e-9, each decided
    # by the scalar route at its default cutoff
    assert zl.reference_decisions == 26 * len(zl.ordinates)
    assert direct_calls == [(1, None)] * zl.reference_decisions
    assert math.isfinite(zl.min_sign_margin)


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
    assert [sl.stop - sl.start for sl, _ in chunks] == [512, 512, 76]
    assert chunks[0][1].shape[0] == phase_rows
    for sl, phases in chunks:
        grid_vals, grid_err = _em_block(base, shifts[sl], 1e-12, phases)
        vals, err = _em_block(base, shifts[sl], 1e-12)
        _assert_each_within_the_others_err(grid_vals, grid_err, vals, err)


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
    ts, z, bound = _z_scan(100.03, 0.05)
    assert ts.size == 2001 and ts[-1] == 100.03
    for sl, _ in _grid_chunks(np.array([0.5]), ts[:-1], 0.05):
        z_direct, bound_direct = _z_block(ts[sl])
        _assert_each_within_the_others_err(z[sl], bound[sl],
                                           z_direct, bound_direct)
    z_last, bound_last = _z_block(ts[-1:])      # the off-grid end goes direct
    assert z[-1] == z_last[0] and bound[-1] == bound_last[0]


@pytest.fixture(scope="module")
def scan_600():
    """_z_scan(600), the grid route's values on the same grid, and the
    direct route's in bisect_reference's blocks of 4096."""
    ts, z, bound = _z_scan(600.0, 0.05)      # 600 is on the grid
    grid = np.empty((2, ts.size))
    for sl, phases in _grid_chunks(np.array([0.5]), ts, 0.05):
        grid[:, sl] = _z_block(ts[sl], phases)
    _, z_dir, b_dir = bisect_reference.direct_scan(600.0)
    return ts, z, bound, grid, z_dir, b_dir


def test_scan_signs_match_direct_route(scan_600):
    ts, z, _, _, z_dir, _ = scan_600
    on = ts >= _RS_T_MIN
    assert np.array_equal(np.sign(z[on]), np.sign(z_dir[on]))


def test_scan_rs_points_clear_their_gate(scan_600):
    # from the first chunk that starts at t >= 200, every point is the
    # Riemann-Siegel value; its gate covers both Euler-Maclaurin bounds
    ts, z, bound, grid, _, b_dir = scan_600
    lo = _GRID_ROWS * math.ceil(np.searchsorted(ts, _RS_T_MIN) / _GRID_ROWS)
    assert ts[lo - _GRID_ROWS] < _RS_T_MIN <= ts[lo]
    for blk in range(lo, ts.size, _RS_SCAN_BLOCK):
        sl = slice(blk, blk + _RS_SCAN_BLOCK)
        z_rs, b_rs = _z_rs(ts[sl])
        assert np.array_equal(z[sl], z_rs)
        assert np.all(np.abs(z[sl]) > bound[sl])
        assert np.all(bound[sl] - b_rs >= np.maximum(grid[1, sl], b_dir[sl]))
    assert np.array_equal(z[:lo], grid[0, :lo])


def test_scan_chunk_failing_the_gate_takes_the_grid_route(
        monkeypatch, scan_600):
    ts, z, bound, grid, _, _ = scan_600
    ordinates = find_zeros(600.0).ordinates
    weak = ts[6000]
    lo = 6000 - 6000 % _GRID_ROWS
    chunk = slice(lo, lo + _GRID_ROWS)      # the chunk that holds it

    def rs_weak_at_one_point(t_block):
        z_rs, b_rs = _z_rs(t_block)
        return z_rs, np.where(t_block == weak, np.inf, b_rs)

    monkeypatch.setattr("fraczeta.zetalab._z_rs", rs_weak_at_one_point)
    _, z2, bound2 = _z_scan(600.0, 0.05)
    assert np.array_equal(z2[chunk], grid[0, chunk])
    assert np.array_equal(bound2[chunk], grid[1, chunk])
    rest = np.ones(ts.size, dtype=bool)
    rest[chunk] = False
    assert np.array_equal(z2[rest], z[rest])
    assert np.array_equal(bound2[rest], bound[rest])
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
    rep = universality_scan(disc, None, epsilon=10.0, t_max=2.0, t_step=0.25)
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
