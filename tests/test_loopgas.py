"""Tests for the lattice transfer-operator dynamics.

Closed-form references (free Gaussian kernel, harmonic-well kernel and
its spectral trace) were generated and cross-validated with
tests/oracles/heat_kernel.py and are frozen here.
"""

import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from fraczeta.loopgas import (
    LoopLattice,
    PathEnsemble,
    build_kernel,
    fluctuation_bound,
    forward_backward,
    loop_partition,
    make_lattice,
    mc_propagator,
    path_entropies,
    path_entropy,
    propagator,
    propagator_slices,
    sample_paths,
    thermal_time,
    _CHUNK,
    _free_gaussian,
    _sample_bridge,
)

# mpmath (30 digits), rounded to double; see tests/oracles/heat_kernel.py
HARMONIC_Q_0_0_T1 = 0.36800519870756081
HARMONIC_Q_04_M04_T1 = 0.26030773279311783
HARMONIC_TRACE_T1 = 0.95951737566747186
HARMONIC_TRACE_T05 = 1.9793175816510002
FREE_Q_0_04_T1 = 0.36827014030332331

# sha256 over test_loopgas_battery_hash_pinned's battery, retaken when
# kernels stored their subnormal entries as 0 (four slice values, 2.7e-321
# before, became 0), then when the spectrum moved to one BLAS thread (it
# was taken at 2; now any thread count gives this digest), then when the
# reflecting walls were weighted by delta/2 (the periodic half kept its bits)
LOOPGAS_BATTERY_SHA256 = (
    "22192045a9b84404532c92568a61af7c7697a575789d165580993bc11e7304f3")

# sha256 of sample_paths(harmonic 161-site lattice, 2000, 100, seed=5,
# mode="loop").paths as produced by the gather/cumsum reference route
HARMONIC_LOOP_PATHS_SHA256 = (
    "aabc4ad54a1321bce3650726e1799105edac79853cd301418fdc6837bed379b9")

# sha256 of open-mode paths then weights, taken before open mode was built
# in place: the harmonic 161-site lattice (x in [-8, 8], eps = 0.01) at
# 10,000 x 100, seed 7; starts at sites 2 and 158 on both boundaries
# (paths cross the periodic seam or fold at a wall), 2000 x 400, seed 11;
# and the 21-site reflecting box, 500 x 100, seed 4
OPEN_PATHS_SHA256 = {
    ("periodic", 161, None, 10000, 100, 7):
        "37ba0c3159f956d6cbbec192a67a014ef002233b7d677dadf455510caa253f10",
    ("periodic", 161, 2, 2000, 400, 11):
        "37b93f73da290cfc0cd429a402baed4d9ed3fd1c568dd035ad3a7d8c580b483a",
    ("periodic", 161, 158, 2000, 400, 11):
        "e3ff776d01110cb0a979850e3d7a32cfe949544ea77899bf2601c8ec9f701b1e",
    ("reflecting", 161, 2, 2000, 400, 11):
        "1e7d356943af2b01dac6286ce54166ea0ab25c4cfff48dba5a6a96e507c43497",
    ("reflecting", 161, 158, 2000, 400, 11):
        "07655e18e4d07568cf0d31967bd979143148f71b9527976bf5f5856e34bf0a03",
    ("reflecting", 21, None, 500, 100, 4):
        "136bcfa73064f0ccc0718eae67f0cd7748bcd5118fbb639fc1cd22ddac3b0533",
}

_spec = importlib.util.spec_from_file_location(
    "bridge_reference", Path(__file__).parent / "oracles" / "bridge_reference.py")
bridge_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bridge_reference)


@pytest.fixture(scope="module")
def fine_free():
    lat = make_lattice(-8.0, 8.0, 201, 0.01)
    return lat, build_kernel(lat)


@pytest.fixture(scope="module")
def fine_harmonic():
    lat = make_lattice(-8.0, 8.0, 201, 0.01, potential=lambda x: x * x / 2)
    return lat, build_kernel(lat)


# --- lattice -----------------------------------------------------------------


def test_lattice_validation():
    with pytest.raises(ValueError):
        make_lattice(1.0, -1.0, 51, 0.01)
    with pytest.raises(ValueError):
        make_lattice(-1.0, 1.0, 2, 0.01)
    with pytest.raises(ValueError):
        make_lattice(-1.0, 1.0, 51, -0.5)
    with pytest.raises(ValueError):
        make_lattice(-1.0, 1.0, 51, 0.01, mass=0.0)
    with pytest.raises(ValueError):
        make_lattice(-1.0, 1.0, 51, 0.01, potential=[1.0, 2.0])
    with pytest.raises(ValueError):
        make_lattice(-1.0, 1.0, 51, 0.01, potential=lambda x: math.inf)
    with pytest.raises(ValueError):
        make_lattice(-1.0, 1.0, 51, 0.01, boundary="absorbing")


def test_lattice_stability_number():
    lat = make_lattice(-1.0, 1.0, 21, 0.005)  # delta = 0.1, ratio = 0.5
    assert abs(lat.stability - 0.5) < 1e-12


@pytest.mark.parametrize("stability", (0.25, 0.49, 1.0))
def test_lattice_step_gains_the_poisson_mass(stability):
    # LoopLattice's stated accuracy: by Poisson summation an interior row
    # of the free periodic kernel sums to 1 + 2 sum_k exp(-2 pi^2 k^2 S)
    lat = make_lattice(-8.0, 8.0, 161, stability / 100.0)  # delta = 0.1
    excess = float(lat.free_kernel.matrix[80].sum()) - 1.0
    poisson = 2.0 * sum(math.exp(-2.0 * math.pi ** 2 * k * k * lat.stability)
                        for k in range(1, 5))
    assert abs(excess - poisson) < 1e-12


@pytest.mark.parametrize("stability", (0.25, 1.0, 2.0, 10.0))
def test_lattice_accepts_any_stability_silently(stability, recwarn):
    lat = make_lattice(-8.0, 8.0, 161, stability / 100.0)
    assert np.all(build_kernel(lat).matrix >= 0.0)
    assert not recwarn.list


def test_lattice_geometry():
    lat = make_lattice(0.0, 1.0, 11, 0.001)
    assert abs(lat.delta - 0.1) < 1e-15
    x = lat.sites()
    assert x[0] == 0.0 and x[-1] == 1.0 and x.size == 11


# --- kernel ------------------------------------------------------------------


def test_kernel_row_sums_near_one():
    # sigma = sqrt(hbar*eps/m) = 0.5 = 6.25 sites: well resolved
    lat = make_lattice(-8.0, 8.0, 201, 0.25)
    k = build_kernel(lat)
    sums = k.matrix.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 0.01)


def test_kernel_symmetric_exactly(fine_harmonic):
    _, k = fine_harmonic
    assert np.array_equal(k.matrix, k.matrix.T)


def test_kernel_constant_potential_factor():
    base = make_lattice(-2.0, 2.0, 41, 0.05)
    shifted = make_lattice(-2.0, 2.0, 41, 0.05, potential=lambda x: 3.0)
    k0, kc = build_kernel(base), build_kernel(shifted)
    factor = math.exp(-0.05 * 3.0)
    assert np.allclose(kc.matrix, factor * k0.matrix, rtol=1e-12)


def test_kernel_positive_entries_periodic_free():
    lat = make_lattice(-2.0, 2.0, 41, 0.25)
    assert np.all(build_kernel(lat).matrix > 0.0)


@pytest.mark.parametrize("n_sites, eps, boundary, potential", [
    (161, 0.01, "periodic", lambda x: 0.5 * x * x),  # criterion 09
    (201, 0.005, "periodic", lambda x: 0.5 * x * x),
    (201, 0.005, "reflecting", lambda x: 0.5 * x * x),
    (161, 0.01, "periodic", lambda x: 2000.0 * x * x),  # dressing underflows
])
def test_kernels_have_no_subnormal_entries(n_sites, eps, boundary, potential):
    lat = make_lattice(-8.0, 8.0, n_sites, eps, potential=potential,
                       boundary=boundary)
    tiny = np.finfo(float).tiny
    for k in (lat.free_kernel, build_kernel(lat)):
        m = k.matrix
        assert np.all((m == 0.0) | (m >= tiny))
        assert np.array_equal(m, m.T)


def _wall_weights(n_sites):
    """W^1/2 / sqrt(delta): 1 inside, sqrt(1/2) at the two wall sites."""
    w = np.ones(n_sites)
    w[[0, -1]] = math.sqrt(0.5)
    return w


@pytest.mark.parametrize("eps", [0.0049, 0.01, 0.04])   # S = 0.49, 1, 4
def test_free_reflecting_rows_sum_to_one(eps):
    # rows of the chain W^-1/2 K W^1/2 = G W, whose wall sites hold half a
    # cell; unfolded at the walls they are interior rows, so each sums to
    # 1 + 2 exp(-2 pi^2 S) (Poisson).  Counted twice, the wall site made
    # the wall row 1.65 at S = 1
    lat = make_lattice(-8.0, 8.0, 161, eps, boundary="reflecting")
    w = _wall_weights(lat.n_sites)
    rows = (lat.free_kernel.matrix @ w) / w
    poisson = 2.0 * math.exp(-2.0 * math.pi ** 2 * lat.stability)
    assert np.all(np.abs(rows - 1.0) <= poisson * (1.0 + 1e-5) + 1e-13)


def _neumann_oscillator_levels(half_width, count):
    """Lowest levels of -psi''/2 + x^2 psi/2 on [-L, L] with psi' = 0 at
    both walls, by central differences (ghost-point walls, symmetrized),
    Richardson-extrapolated from 4000 and 8000 cells: a route that shares
    nothing with the kernel, converged to 1e-9 at L = 5."""
    from scipy.linalg import eigh_tridiagonal

    def levels(cells):
        x = np.linspace(-half_width, half_width, cells + 1)
        h = 2.0 * half_width / cells
        off = np.full(cells, -0.5 / h ** 2)
        off[[0, -1]] *= math.sqrt(2.0)
        return eigh_tridiagonal(1.0 / h ** 2 + 0.5 * x * x, off, select="i",
                                select_range=(0, count - 1),
                                eigvals_only=True)

    return (4.0 * levels(8000) - levels(4000)) / 3.0


@pytest.mark.parametrize("half_width, n_sites, ladder", [
    (5.0, 401, 7),      # the walls lower the levels from k = 7 on
    (10.0, 801, 20),
])
def test_reflecting_harmonic_levels_have_no_wall_states(half_width, n_sites,
                                                        ladder):
    # a doubled wall site gave spurious wall levels, each twice: E = -17.94
    # on [-5, 5] and 19.24 on [-10, 10].  Every level below 20 must be the
    # walled oscillator's, in order, to within the lattice error (O(delta^2)
    # at the walls, 1.9e-4 here), so none lies below 1/2 or in between
    eps = 0.0025
    lat = make_lattice(-half_width, half_width, n_sites, eps,
                       potential=lambda x: 0.5 * x * x, boundary="reflecting")
    levels = -np.log(build_kernel(lat).spectrum[::-1][:21]) / eps
    walled = _neumann_oscillator_levels(half_width, 21)
    assert walled[-1] > 20.0
    assert levels[0] > 0.5 - 1e-3
    assert np.all(np.abs(levels - walled) < 1e-3)
    k = np.arange(ladder)
    assert np.all(np.abs(levels[:ladder] - (k + 0.5)) < 1e-3)


def test_reflecting_propagator_at_the_walls():
    # the symmetric form reads the density times sqrt(1/2) at each end
    # that is a wall site; against the exact reflected heat kernel
    lat = make_lattice(-8.0, 8.0, 161, 0.01, boundary="reflecting")
    x, t, span = lat.sites(), 1.0, 16.0

    def exact(i, j):
        images = [y + 2.0 * m * span for m in range(-3, 4)
                  for y in (x[j], 2.0 * x[0] - x[j])]
        return sum(math.exp(-(x[i] - y) ** 2 / (2.0 * t)) for y in images) \
            / math.sqrt(2.0 * math.pi * t)

    w = _wall_weights(lat.n_sites)
    for i, j in ((80, 80), (0, 0), (0, 3), (160, 150), (0, 160), (2, 5)):
        q = propagator(lat.free_kernel, i, j, 100)
        assert abs(q / (w[i] * w[j] * exact(i, j)) - 1.0) < 1e-6


def test_kernel_matrix_read_only():
    # the cached spectrum is only valid while the matrix cannot change
    k = build_kernel(make_lattice(-2.0, 2.0, 41, 0.05))
    with pytest.raises(ValueError):
        k.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        k.spectrum[0] = 1.0


# --- propagator ----------------------------------------------------------------


def test_free_heat_kernel(fine_free):
    lat, k = fine_free
    xs = lat.sites()
    q = np.array([propagator(k, 100, j, 100) for j in range(lat.n_sites)])
    ref = np.exp(-xs ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    assert float(np.max(np.abs(q - ref))) < 0.01
    bulk = np.abs(xs) <= 3.0
    assert float(np.max(np.abs(q - ref)[bulk] / ref[bulk])) < 0.01
    assert abs(propagator(k, 100, 105, 100) - FREE_Q_0_04_T1) < 1e-9


def test_propagator_one_step_is_kernel_entry(fine_free):
    _, k = fine_free
    assert propagator(k, 10, 12, 1) == k.matrix[10, 12] / k.delta


def test_propagator_symmetric(fine_harmonic):
    _, k = fine_harmonic
    a = propagator(k, 90, 120, 40)
    b = propagator(k, 120, 90, 40)
    assert abs(a - b) < 1e-12 * abs(a)


def test_harmonic_propagator_matches_closed_form(fine_harmonic):
    _, k = fine_harmonic
    got = propagator(k, 100, 100, 100)
    assert abs(got - HARMONIC_Q_0_0_T1) < 0.01 * HARMONIC_Q_0_0_T1
    got2 = propagator(k, 105, 95, 100)
    assert abs(got2 - HARMONIC_Q_04_M04_T1) < 0.01 * HARMONIC_Q_04_M04_T1


def test_propagator_validation(fine_free):
    _, k = fine_free
    with pytest.raises(ValueError):
        propagator(k, 0, 5, 0)
    with pytest.raises(ValueError):
        propagator(k, -1, 5, 10)
    with pytest.raises(TypeError):
        propagator(k, 0.5, 5, 10)


def test_propagator_slices_match_propagator(fine_harmonic):
    _, k = fine_harmonic
    slices = list(propagator_slices(k, 90, 12))
    assert len(slices) == 12
    for step in (1, 5, 12):
        q = slices[step - 1]
        assert q.shape == (k.matrix.shape[0],)
        for x1 in (80, 90, 104):
            assert q[x1] == propagator(k, 90, x1, step)


def test_propagator_slices_validation(fine_free):
    # the call itself raises; no slice has to be drawn first
    _, k = fine_free
    with pytest.raises(ValueError):
        propagator_slices(k, 5, 0)
    with pytest.raises(ValueError):
        propagator_slices(k, 999, 5)
    with pytest.raises(ValueError):
        propagator_slices(k, -1, 10)
    with pytest.raises(TypeError):
        propagator_slices(k, 0.5, 10)


def test_propagator_kept_row_matches_fresh_kernel(fine_harmonic):
    # each call equals the same call on a kernel that has evolved nothing
    lat, k = fine_harmonic
    kernel = build_kernel(lat)
    for x0, x1, n in ((90, 95, 40), (90, 120, 40), (110, 95, 40),
                      (90, 95, 41), (90, 95, 40), (90, 101, 40)):
        got = propagator(kernel, x0, x1, n)
        assert got == propagator(build_kernel(lat), x0, x1, n)
        assert got == list(propagator_slices(k, x0, n))[-1][x1]
        assert kernel.kept_row[0] == (x0, n)


def test_propagator_kept_row_is_per_kernel(fine_free, fine_harmonic):
    lat, _ = fine_harmonic
    free, harm = build_kernel(fine_free[0]), build_kernel(lat)
    a = propagator(free, 100, 104, 30)
    assert harm.kept_row is None
    b = propagator(harm, 100, 104, 30)
    assert b != a and b == propagator(build_kernel(lat), 100, 104, 30)
    assert propagator(free, 100, 104, 30) == a


def test_propagator_validates_before_the_kept_row(fine_free):
    # arguments equal to the kept key but of the wrong type still raise
    lat, k = fine_free
    kernel = build_kernel(lat)
    q = propagator(kernel, 1, 3, 5)
    for x0, n in ((True, 5), (1.0, 5), (np.float64(1.0), 5), (1, 5.0)):
        with pytest.raises(TypeError):
            propagator(kernel, x0, 3, n)
    with pytest.raises(TypeError):
        propagator(kernel, 1, True, 5)
    with pytest.raises(ValueError):
        propagator(kernel, 1, 201, 5)
    assert propagator(kernel, np.int64(1), 3, np.int64(5)) == q
    assert q == propagator(k, 1, 3, 5)


# --- loop integral and entropy ----------------------------------------------------


def test_loop_partition_free_ring(fine_free):
    lat, k = fine_free
    circumference = lat.n_sites * lat.delta
    ref = circumference / math.sqrt(2.0 * math.pi)
    assert abs(loop_partition(k, 100) - ref) < 0.01 * ref


def test_loop_partition_harmonic_spectral_sum(fine_harmonic):
    _, k = fine_harmonic
    assert abs(loop_partition(k, 100) - HARMONIC_TRACE_T1) < 0.01
    assert abs(loop_partition(k, 50) - HARMONIC_TRACE_T05) < 0.01


def test_loop_partition_constant_shift():
    base = make_lattice(-2.0, 2.0, 41, 0.05)
    shifted = make_lattice(-2.0, 2.0, 41, 0.05, potential=lambda x: 1.5)
    z0 = loop_partition(build_kernel(base), 20)
    zc = loop_partition(build_kernel(shifted), 20)
    assert abs(zc - z0 * math.exp(-20 * 0.05 * 1.5)) < 1e-10 * z0


def test_path_entropy_free_slope(fine_free):
    _, k = fine_free
    drop = path_entropy(k, 100) - path_entropy(k, 50)  # t: 0.5 -> 1.0
    ref = -0.5 * math.log(2.0)
    assert abs(drop - ref) < 0.02 * abs(ref)


def test_path_entropy_monotone_free(fine_free):
    _, k = fine_free
    s = [path_entropy(k, n) for n in (25, 50, 100, 200)]
    assert all(b < a for a, b in zip(s, s[1:]))


def test_path_entropy_constant_shift():
    base = make_lattice(-2.0, 2.0, 41, 0.05)
    shifted = make_lattice(-2.0, 2.0, 41, 0.05, potential=lambda x: 2.0)
    s0 = path_entropy(build_kernel(base), 30)
    sc = path_entropy(build_kernel(shifted), 30)
    assert abs(sc - (s0 - 30 * 0.05 * 2.0)) < 1e-10


def test_path_entropies_match_single_steps(fine_harmonic):
    _, k = fine_harmonic
    curve = path_entropies(k, 12)
    assert curve.tolist() == [path_entropy(k, n) for n in range(1, 13)]
    with pytest.raises(ValueError, match="n_steps must be >= 1"):
        path_entropies(k, 0)


_STEP_CALLS = {
    "loop_partition_float": lambda lat, k: loop_partition(k, 2.5),
    "loop_partition_inf": lambda lat, k: loop_partition(k, math.inf),
    "loop_partition_nan": lambda lat, k: loop_partition(k, math.nan),
    "loop_partition_bool": lambda lat, k: loop_partition(k, True),
    "path_entropy_float": lambda lat, k: path_entropy(k, 3.0),
    "path_entropies_bool": lambda lat, k: path_entropies(k, True),
    "propagator_bool": lambda lat, k: propagator(k, 3, 4, True),
    "propagator_slices_float": lambda lat, k: propagator_slices(k, 3, 2.0),
    "forward_backward_bool": lambda lat, k: forward_backward(
        k, np.ones(lat.n_sites), np.ones(lat.n_sites), True),
    "sample_paths_float": lambda lat, k: sample_paths(lat, 4, 5.0, 0),
    "sample_paths_numpy_float": lambda lat, k: sample_paths(
        lat, 4, np.float64(5.0), 0, "open"),
}


@pytest.mark.parametrize("name", list(_STEP_CALLS))
def test_n_steps_must_be_an_integer(fine_free, name):
    with pytest.raises(TypeError, match="^n_steps must be an integer, got "):
        _STEP_CALLS[name](*fine_free)


def test_loop_partition_refuses_an_infinite_trace():
    # an under-resolved lattice (S = 0.25) whose top eigenvalue is 1.0144
    k = build_kernel(make_lattice(-4.0, 4.0, 41, 0.01))
    assert k.spectrum.max() > 1.0
    assert math.isfinite(loop_partition(k, 1000))
    with pytest.raises(ArithmeticError,
                       match=r"^loop partition Tr T\^1000000 = inf is not"):
        loop_partition(k, 10 ** 6)
    assert loop_partition(k, np.int64(7)) == loop_partition(k, 7)


def test_loop_traces_share_one_eigensolve(monkeypatch):
    lat = make_lattice(-8.0, 8.0, 161, 0.01, potential=lambda x: x * x / 2)
    ns = (50, 100, 200)

    def battery(fresh):
        vals = [loop_partition(fresh(), n) for n in ns]
        vals += [path_entropy(fresh(), n) for n in ns]
        return vals, path_entropies(fresh(), 120)

    want, want_all = battery(lambda: build_kernel(lat))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    k = build_kernel(lat)
    got, got_all = battery(lambda: k)
    assert calls == [(161, 161)]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert got_all.tobytes() == want_all.tobytes()


def test_lattice_builds_its_free_gaussian_once(monkeypatch):
    # build_kernel, the loop-mode bridge and mc_propagator share the
    # lattice's free_kernel, so its Gaussian is built on first use only
    lat = make_lattice(-8.0, 8.0, 201, 0.005, potential=lambda x: x * x / 2)
    calls = []

    def counted(lattice):
        calls.append(lattice.n_sites)
        return _free_gaussian(lattice)

    monkeypatch.setattr("fraczeta.loopgas._free_gaussian", counted)
    build_kernel(lat)
    sample_paths(lat, 200, 30, seed=1, mode="loop")
    for a, b in ((100, 100), (90, 110), (0, 200)):
        mc_propagator(lat, a, b, 50, 200, seed=2)
    assert calls == [201]
    # shared by every later call, so it must not be writable
    assert not lat.free_kernel.matrix.flags.writeable


def test_partition_validation(fine_free):
    _, k = fine_free
    with pytest.raises(ValueError):
        loop_partition(k, 0)


# --- fluctuation window ---------------------------------------------------------


def test_fluctuation_bound_arithmetic():
    assert fluctuation_bound(1.0, 0.25, 1.0, 1.0) == 0.1875
    assert fluctuation_bound(1.0, 1.0, 1.0, 1.0) == 0.0


def test_fluctuation_bound_midpoint_identity():
    # at beta = 4 (hbar = m = 1) the midpoint spread equals
    # beta*hbar^2/m = 2*beta*hbar*D with D = hbar/2m
    beta = 4.0
    mid = fluctuation_bound(beta, beta / 2.0, 1.0, 1.0)
    assert mid == beta  # beta*hbar^2/m
    assert mid == 2.0 * beta * 0.5  # 2*beta*hbar*D


def test_fluctuation_bound_window():
    with pytest.raises(ValueError):
        fluctuation_bound(1.0, 1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        fluctuation_bound(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        fluctuation_bound(-1.0, 0.5, 1.0, 1.0)


def test_thermal_time():
    assert thermal_time(1.0, 1.0) == 1.0
    assert thermal_time(2.0, 0.5) == 1.0
    assert fluctuation_bound(3.0, thermal_time(3.0, 1.0), 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        thermal_time(0.0, 1.0)


# --- forward/backward pair -------------------------------------------------------


def test_conserved_density(fine_harmonic):
    lat, k = fine_harmonic
    xs = lat.sites()
    phi0 = np.exp(-(xs - 1.0) ** 2)
    phi1 = np.exp(-(xs + 2.0) ** 2 / 0.5)
    _, _, rhos = forward_backward(k, phi0, phi1, 100)
    tot = lat.delta * rhos.sum(axis=1)
    assert float((tot.max() - tot.min()) / tot[0]) < 1e-10


def test_forward_backward_uniform_free(fine_free):
    lat, k = fine_free
    ones = np.ones(lat.n_sites)
    _, _, rhos = forward_backward(k, ones, ones, 20)
    for row in rhos:
        assert float(np.max(row) - np.min(row)) < 1e-10 * float(np.max(row))


def test_forward_backward_endpoints(fine_harmonic):
    lat, k = fine_harmonic
    xs = lat.sites()
    phi0 = np.exp(-xs ** 2)
    phi1 = np.exp(-(xs - 1.0) ** 2)
    phis, hats, rhos = forward_backward(k, phi0, phi1, 10)
    assert np.array_equal(phis[0], phi0)
    assert np.array_equal(hats[10], phi1)
    v = phi1.copy()
    for _ in range(10):
        v = k.matrix @ v
    assert np.allclose(rhos[0], phi0 * v, rtol=1e-12)
    w = phi0.copy()
    for _ in range(10):
        w = k.matrix @ w
    assert np.allclose(rhos[10], w * phi1, rtol=1e-12)


def test_forward_backward_validation(fine_free):
    lat, k = fine_free
    ones = np.ones(lat.n_sites)
    with pytest.raises(ValueError):
        forward_backward(k, -ones, ones, 5)
    with pytest.raises(ValueError):
        forward_backward(k, np.zeros(lat.n_sites), ones, 5)
    with pytest.raises(ValueError):
        forward_backward(k, np.ones(7), ones, 5)


def test_forward_equation_residual():
    # discrete d_t phi ~ D Lap phi - (u/hbar) phi on a fine lattice
    lat = make_lattice(-6.0, 6.0, 241, 0.002, potential=lambda x: x * x / 2,
                       boundary="reflecting")
    k = build_kernel(lat)
    xs = lat.sites()
    u = np.asarray(lat.potential)
    phi0 = np.exp(-xs ** 2)
    phis, _, _ = forward_backward(k, phi0, phi0, 100)
    d_coef = lat.hbar / (2.0 * lat.mass)
    for kk in (25, 50, 75):
        f = phis[kk]
        dt = (phis[kk + 1] - phis[kk - 1]) / (2.0 * lat.eps)
        lap = (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / lat.delta ** 2
        mid = slice(2, -2)
        resid = dt[mid] - d_coef * lap[mid] + (u * f)[mid] / lat.hbar
        r = float(np.linalg.norm(resid))
        assert r < 0.05 * float(np.linalg.norm(dt[mid]))
        assert r < 0.05 * float(np.linalg.norm(d_coef * lap[mid]))
        assert r < 0.05 * float(np.linalg.norm((u * f)[mid]))


def test_shannon_entropy_nondecreasing_free(fine_free):
    lat, k = fine_free
    phi = np.exp(-(lat.sites() - 1.0) ** 2 / 0.1)
    h_prev = -math.inf
    for _ in range(50):
        p = phi / phi.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            h = float(-np.sum(np.where(p > 0, p * np.log(p), 0.0)))
        assert h >= h_prev - 1e-12
        h_prev = h
        phi = k.matrix @ phi


# --- sampling -----------------------------------------------------------------


def test_open_paths_free_weights_one():
    lat = make_lattice(-20.0, 20.0, 801, 0.01)
    ens = sample_paths(lat, 500, 50, seed=1, mode="open")
    assert np.all(ens.weights == 1.0)
    assert ens.paths.shape == (500, 51)


def test_open_paths_variance_growth():
    # far from the walls either boundary leaves the free spread
    for boundary in ("periodic", "reflecting"):
        lat = make_lattice(-20.0, 20.0, 801, 0.01, boundary=boundary)
        ens = sample_paths(lat, 10 ** 5, 100, seed=3, mode="open")
        xs = lat.sites()
        dx = xs[ens.paths[:, -1]] - xs[ens.paths[:, 0]]
        two_dt = lat.hbar * 100 * lat.eps / lat.mass  # 2Dt with D = hbar/2m
        assert abs(float(np.var(dx)) - two_dt) < 0.02 * two_dt


def test_open_paths_fold_at_reflecting_walls():
    # a narrow box: the fold keeps every site inside, walls included
    lat = make_lattice(-0.5, 0.5, 21, 0.01, boundary="reflecting")
    paths = sample_paths(lat, 500, 100, seed=4, mode="open").paths
    assert paths.min() == 0 and paths.max() == lat.n_sites - 1


@pytest.mark.parametrize("case", list(OPEN_PATHS_SHA256),
                         ids=lambda c: "-".join(str(v) for v in c))
def test_open_paths_hash_pinned(case):
    boundary, n_sites, start, n_paths, n_steps, seed = case
    x_max = 8.0 if n_sites == 161 else 0.5
    lat = make_lattice(-x_max, x_max, n_sites, 0.01, boundary=boundary,
                       potential=lambda x: 0.5 * x * x)
    ens = sample_paths(lat, n_paths, n_steps, seed, "open", start)
    digest = hashlib.sha256(ens.paths.tobytes() + ens.weights.tobytes())
    assert digest.hexdigest() == OPEN_PATHS_SHA256[case]


def test_loop_paths_pinned(fine_harmonic):
    lat, _ = fine_harmonic
    ens = sample_paths(lat, 300, 40, seed=5, mode="loop")
    assert np.all(ens.paths[:, 0] == ens.paths[:, -1])
    assert np.all(ens.weights > 0.0)


def test_loop_paths_free_weights_one(fine_free):
    lat, _ = fine_free
    ens = sample_paths(lat, 200, 30, seed=6, mode="loop")
    assert np.all(ens.weights == 1.0)


def test_sampling_reproducible(fine_harmonic):
    lat, _ = fine_harmonic
    a = sample_paths(lat, 400, 30, seed=11, mode="loop")
    b = sample_paths(lat, 400, 30, seed=11, mode="loop")
    assert np.array_equal(a.paths, b.paths)
    assert np.array_equal(a.weights, b.weights)
    c = sample_paths(lat, 400, 30, seed=12, mode="loop")
    assert not np.array_equal(a.paths, c.paths)
    d = sample_paths(lat, 400, 30, seed=11, mode="open")
    e = sample_paths(lat, 400, 30, seed=11, mode="open")
    assert np.array_equal(d.paths, e.paths)


@pytest.mark.parametrize("n_paths", (300, _CHUNK + 77))
def test_loop_paths_layout_and_weights(n_paths):
    lat = make_lattice(-2.0, 2.0, 41, 0.05, potential=lambda x: x * x)
    ens = sample_paths(lat, n_paths, 20, seed=8, mode="loop")
    assert ens.paths.shape == (n_paths, 21)
    assert ens.paths.dtype == np.int64 and ens.paths.flags.c_contiguous
    # the weight sum reads rows; a fresh C-order copy gives the same bits
    p = np.array(ens.paths, order="C")
    u = np.asarray(lat.potential)
    s = u[p].sum(axis=1) - 0.5 * (u[p[:, 0]] + u[p[:, -1]])
    assert np.array_equal(ens.weights, np.exp(-lat.eps * s / lat.hbar))


def test_sampling_validation(fine_free):
    lat, _ = fine_free
    with pytest.raises(ValueError):
        sample_paths(lat, 0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_paths(lat, 10, 0, seed=0)
    with pytest.raises(ValueError):
        sample_paths(lat, 10, 10, seed=0, mode="bridge")
    with pytest.raises(ValueError, match="end_site"):
        sample_paths(lat, 5, 10, seed=0, mode="open", end_site=10 ** 6)
    with pytest.raises(ValueError, match="end_site"):
        sample_paths(lat, 5, 10, seed=0, mode="open", end_site=100)
    with pytest.raises(ValueError):
        PathEnsemble(n_paths=1, n_steps=1, seed=0,
                     paths=np.zeros((1, 2), dtype=np.int64),
                     weights=np.array([0.0]))


@pytest.mark.parametrize("n_steps", (1, 3))
def test_bridge_to_unreachable_end_raises(n_steps):
    # 160 cells in 1 or 3 steps of one cell's spread: the free chain's
    # weight underflows to 0, so no path can get there
    lat = make_lattice(-8, 8, 161, 0.01, boundary="reflecting")
    with pytest.raises(ValueError, match="end_site"):
        sample_paths(lat, 5, n_steps, 1, "loop", 0, 160)
    assert propagator(lat.free_kernel, 0, 160, n_steps) == 0.0
    assert mc_propagator(lat, 0, 160, n_steps, 10, 0) == (0.0, 0.0)
    assert sample_paths(lat, 5, n_steps, 1, "loop", 0, 2).paths.shape == (
        5, n_steps + 1)


def test_mc_propagator_free_exact(fine_free):
    lat, k = fine_free
    est, se = mc_propagator(lat, 100, 100, 50, 2000, seed=2)
    ref = propagator(k, 100, 100, 50)
    assert abs(est - ref) < 1e-12 * ref
    assert se == 0.0


def test_mc_propagator_needs_two_paths(fine_free):
    # one path has no sample standard deviation; raise, never return NaN
    lat, _ = fine_free
    for n_paths in (0, 1):
        with pytest.raises(ValueError, match="n_paths"):
            mc_propagator(lat, 100, 100, 10, n_paths, seed=0)
    est, se = mc_propagator(lat, 100, 100, 10, 2, seed=0)
    assert math.isfinite(est) and se == 0.0


def test_mc_propagator_matches_transfer(fine_harmonic):
    lat, k = fine_harmonic
    triples = ((100, 100, 100), (100, 110, 100), (90, 120, 80),
               (100, 100, 50), (120, 120, 60), (80, 100, 100))
    for i, (a, b, n) in enumerate(triples):
        est, se = mc_propagator(lat, a, b, n, 10 ** 4, seed=40 + i)
        ref = propagator(k, a, b, n)
        assert abs(est - ref) < 3.0 * se, (a, b, n, est, ref, se)


def test_loop_lattice_direct_construction_validates():
    with pytest.raises(ValueError):
        LoopLattice(x_min=0.0, x_max=1.0, n_sites=11, eps=0.01, mass=1.0,
                    hbar=1.0, potential=tuple([math.nan] * 11),
                    boundary="periodic")


# boundary, n_sites, start, end, n_steps, n_paths, make_lattice overrides;
# the search pads each row to W = 2^bit_length(n_sites) sites
_BRIDGE_CASES = [
    ("periodic", 161, 80, 80, 60, 3000, {}),
    ("reflecting", 161, 30, 100, 40, 3000, {}),
    ("reflecting", 41, 3, 0, 5, _CHUNK + 1234, {}),  # crosses the chunk boundary
    ("periodic", 161, 80, 80, 1, 500, {}),
    ("periodic", 161, 70, 90, 2, 500, {}),
    # fewest sites, W = 4
    ("periodic", 3, 1, 1, 30, 2000, dict(x_min=-1.0, x_max=1.0, eps=0.5)),
    ("reflecting", 3, 0, 2, 7, 2000, dict(x_min=-1.0, x_max=1.0, eps=0.5)),
    # powers of two, W = 2n
    ("reflecting", 8, 0, 7, 25, 2000, dict(x_min=-2.0, x_max=2.0, eps=0.2)),
    ("periodic", 64, 10, 50, 30, 2000, dict(eps=0.05)),
    # the benchmark's Monte Carlo lattice, start != end
    ("periodic", 201, 90, 110, 100, 2000,
     dict(eps=0.005, potential=lambda x: 0.5 * x * x)),
    # sites >= 32 of 41 (W = 64): the search reads the +inf pad every step
    ("reflecting", 41, 36, 40, 20, 2000, dict(eps=0.05)),
    # narrow kernel: underflowed zeros make long runs of equal cumsum entries
    ("periodic", 161, 80, 85, 40, 2000, dict(eps=5e-4)),
    # paths cross the periodic seam, so the summed rows span both ends
    ("periodic", 201, 2, 198, 100, 2000,
     dict(eps=0.005, potential=lambda x: 0.5 * x * x)),
    ("periodic", 161, 0, 0, 60, 3000, {}),
    # the window search (W = 8 at these stability numbers) beside the walls
    # and the seam: starts and ends at sites 0-2 and n-3..n-1
    ("reflecting", 161, 0, 2, 30, 2000, {}),
    ("reflecting", 161, 160, 158, 30, 2000, {}),
    ("reflecting", 161, 1, 159, 100, 2000, {}),  # drifts 1.6 cells a step
    ("periodic", 161, 159, 1, 30, 2000, {}),
    ("periodic", 161, 2, 160, 30, 2000, {}),
    ("periodic", 201, 200, 0, 40, 2000, dict(eps=0.005)),
    # stability 3.1 (W = 16) and 10 (W = 32), where the window sizes itself
    ("periodic", 201, 90, 110, 60, 3000, dict(eps=0.02)),
    ("reflecting", 201, 2, 198, 40, 3000, dict(eps=0.064)),
    ("periodic", 201, 1, 199, 40, 3000, dict(eps=0.064)),
]


class _ZeroDraws:
    """A generator whose every fifth uniform draw is exactly 0.0, so a path
    at any site steps to the first site of positive weight in its row (the
    same paths draw 0.0 at every step, and walk down to site 0)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, size):
        r = self.rng.random(size)
        r[::5] = 0.0
        return r


@pytest.mark.parametrize(
    "boundary, n_sites, start, end, n_steps, n_paths, lattice_kw",
    [pytest.param(*case, id="-".join(str(v) for v in case[:6]))
     for case in _BRIDGE_CASES])
def test_bridge_matches_reference_route(boundary, n_sites, start, end,
                                        n_steps, n_paths, lattice_kw):
    kw = {"x_min": -8.0, "x_max": 8.0, "eps": 0.01, **lattice_kw}
    lat = make_lattice(n_sites=n_sites, boundary=boundary, **kw)
    g = _free_gaussian(lat)
    got = _sample_bridge(g, start, end, n_steps, n_paths,
                         np.random.default_rng(21))
    ref = bridge_reference.sample_bridge(g, start, end, n_steps, n_paths,
                                         np.random.default_rng(21))
    assert bridge_reference.CHUNK == _CHUNK
    assert np.array_equal(got, ref)


_ZERO_DRAW_CASES = [
    ("periodic", 161, 80, 80, 0.01),
    ("reflecting", 161, 30, 100, 0.01),
    ("periodic", 201, 100, 100, 0.064),
]


@pytest.mark.parametrize("boundary, n_sites, start, end, eps",
                         _ZERO_DRAW_CASES)
def test_bridge_zero_draws_match_reference_route(boundary, n_sites, start,
                                                 end, eps):
    lat = make_lattice(-8.0, 8.0, n_sites, eps, boundary=boundary)
    g = _free_gaussian(lat)
    got = _sample_bridge(g, start, end, 30, 1000, _ZeroDraws(3))
    ref = bridge_reference.sample_bridge(g, start, end, 30, 1000,
                                         _ZeroDraws(3))
    assert np.any(got[:, 1:-1] == 0)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("boundary, n_sites, start, end, eps",
                         _ZERO_DRAW_CASES)
def test_bridge_zero_draws_take_no_step_of_weight_zero(boundary, n_sites,
                                                       start, end, eps):
    # a draw of 0.0 counts the row's leading zeros, not none of its entries
    lat = make_lattice(-8.0, 8.0, n_sites, eps, boundary=boundary)
    g = _free_gaussian(lat)
    paths = _sample_bridge(g, start, end, 30, 1000, _ZeroDraws(3))
    assert np.all(g[paths[:, :-1], paths[:, 1:]] > 0.0)


def test_bridge_ensemble_hash_pinned():
    lat = make_lattice(-8.0, 8.0, 161, 0.01, potential=lambda x: x * x / 2)
    paths = sample_paths(lat, 2000, 100, seed=5, mode="loop").paths
    digest = hashlib.sha256(paths.tobytes()).hexdigest()
    assert digest == HARMONIC_LOOP_PATHS_SHA256


def test_loopgas_battery_hash_pinned():
    # transfer and MC propagators, loop partitions, entropies and slices on
    # 201-site harmonic lattices (eps = 0.005), both boundaries
    h = hashlib.sha256()
    for boundary in ("periodic", "reflecting"):
        lat = make_lattice(-8.0, 8.0, 201, 0.005,
                           potential=lambda x: x * x / 2, boundary=boundary)
        k = build_kernel(lat)
        vals = []
        for a, b in ((100, 100), (90, 110), (0, 200)):
            vals.append(propagator(k, a, b, 100))
            vals.extend(mc_propagator(lat, a, b, 100, 3000, 0))
        for n in (1, 50, 100, 200):
            vals.extend((loop_partition(k, n), path_entropy(k, n)))
        h.update(np.array(vals).tobytes())
        h.update(path_entropies(k, 120).tobytes())
        h.update(np.array(list(propagator_slices(k, 77, 30))).tobytes())
    assert h.hexdigest() == LOOPGAS_BATTERY_SHA256


def test_mc_routes_reject_non_finite_weights():
    # a deep well overflows exp(-eps S_u/hbar); the transfer route already
    # refuses this lattice, and both MC routes must too
    lat = make_lattice(-8.0, 8.0, 41, 0.01, potential=lambda x: -1e5)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="kernel entries must be finite"):
        build_kernel(lat)
    with pytest.raises(ValueError, match="weights must be finite"):
        mc_propagator(lat, 20, 20, 10, 100, 0)
    with pytest.raises(ValueError, match="weights must be finite"):
        sample_paths(lat, 100, 10, 0)
    with pytest.raises(ValueError, match="weights must be finite"):
        PathEnsemble(n_paths=1, n_steps=1, seed=0,
                     paths=np.zeros((1, 2), dtype=np.int64),
                     weights=np.array([np.inf]))


def test_ensemble_ess(fine_free, fine_harmonic):
    free = sample_paths(fine_free[0], 500, 30, seed=6, mode="loop")
    assert free.ess == free.n_paths
    harm = sample_paths(fine_harmonic[0], 500, 30, seed=6, mode="loop")
    assert 1.0 <= harm.ess <= harm.n_paths
