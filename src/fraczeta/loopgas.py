"""Discretized diffusion-with-killing dynamics on a 1D lattice.

A single symmetric transfer operator drives everything here: exact
propagators by repeated application, loop integrals by its spectrum,
Monte Carlo loop/path sampling against its free part, and the
forward/backward profile pair whose pointwise product is conserved.

Conventions.  The kernel matrix carries one factor of the site spacing
delta per step, so T^n composed over interior sites is the Riemann-sum
discretization of the continuum chain; densities are matrix entries
scaled back by 1/delta and the loop integral is the plain trace.  On a
reflecting lattice the two end sites lie on the walls and carry delta/2,
as in the trapezoid rule: the matrix is the symmetric form
W^1/2 G W^1/2, W = diag(1/2, 1, ..., 1, 1/2) delta, so an entry reads
the density times sqrt(1/2) for each of its ends that is a wall site.
Natural units hbar = m = k_B = 1 by default, all overridable.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _blas

_CHUNK = 20000  # paths sampled per block; fixed so ensembles are seed-stable
_TINY = np.finfo(float).tiny  # smallest normal double; kernels store 0 below it


def _finite(name: str, value: float) -> float:
    """value, or a ValueError naming it when it is not finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class LoopLattice:
    """Uniform 1D site grid with a per-site potential and a time step.

    delta is the site spacing (x_max - x_min)/(n_sites - 1), and the
    stability number S = hbar*eps/(mass*delta^2) is the one-step variance
    in cells squared.  S sets the step's accuracy: by Poisson summation an
    interior row of the free kernel sums to 1 + 2 sum_k exp(-2 pi^2 k^2 S)
    (k >= 1), so each step gains that mass to the lattice: 1.4e-2 at
    S = 0.25, 1.3e-4 at 0.49, 5.4e-9 at 1, and under one ulp from S ~ 2.
    Every S > 0 is accepted; below S ~ 0.5 the lattice is under-resolved.
    """

    x_min: float
    x_max: float
    n_sites: int
    eps: float
    mass: float
    hbar: float
    potential: tuple
    boundary: str

    def __post_init__(self):
        _finite("x_min", self.x_min)
        _finite("x_max", self.x_max)
        if not (self.x_max > self.x_min):
            raise ValueError("need x_max > x_min")
        if self.n_sites < 3:
            raise ValueError(f"need n_sites >= 3, got {self.n_sites}")
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        for name in ("mass", "hbar"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)}")
        if len(self.potential) != self.n_sites:
            raise ValueError("potential must have one value per site")
        if not all(math.isfinite(u) for u in self.potential):
            raise ValueError("potential values must be finite")
        if self.boundary not in ("periodic", "reflecting"):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")

    @property
    def delta(self) -> float:
        return (self.x_max - self.x_min) / (self.n_sites - 1)

    @property
    def stability(self) -> float:
        return self.hbar * self.eps / (self.mass * self.delta ** 2)

    def sites(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_sites)

    @cached_property
    def free_kernel(self) -> "TransferKernel":
        """The potential-free TransferKernel, built on first use and kept."""
        return TransferKernel(_free_gaussian(self), self.eps, self.delta)


def make_lattice(x_min, x_max, n_sites, eps, mass=1.0, hbar=1.0,
                 potential=None, boundary="periodic") -> LoopLattice:
    """Build a lattice; potential may be None (free), a callable of x,
    or a per-site array."""
    x = np.linspace(_finite("x_min", float(x_min)),
                    _finite("x_max", float(x_max)), n_sites)
    if potential is None:
        u = np.zeros(n_sites)
    elif callable(potential):
        u = np.asarray([float(potential(xi)) for xi in x])
    else:
        u = np.asarray(potential, dtype=float)
    return LoopLattice(x_min=float(x_min), x_max=float(x_max),
                       n_sites=int(n_sites), eps=float(eps),
                       mass=float(mass), hbar=float(hbar),
                       potential=tuple(float(v) for v in u),
                       boundary=str(boundary))


@dataclass(frozen=True)
class TransferKernel:
    """One-step operator: symmetric, nonnegative, delta included.

    The matrix is made read-only, so the spectrum computed from it on
    first use, and the last propagator row it evolved (kept_row), stay
    valid for the kernel's lifetime.
    """

    matrix: np.ndarray
    eps: float
    delta: float
    # ((x0, n_steps), last row of propagator_slices), set by propagator
    kept_row: tuple = field(default=None, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("kernel entries must be finite")
        self.matrix.flags.writeable = False

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the symmetric matrix, ascending, from one
        eigensolve shared by every loop integral on this kernel, run on one
        BLAS thread so its bits do not depend on the thread count."""
        lam = _blas.one_thread(np.linalg.eigvalsh)(self.matrix)
        lam.flags.writeable = False
        return lam


@dataclass(frozen=True)
class PathEnsemble:
    """Sampled site trajectories with their potential weights."""

    n_paths: int
    n_steps: int
    seed: int
    paths: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights) & (self.weights > 0.0)):
            raise ValueError("weights must be finite and positive")

    @property
    def ess(self) -> float:
        """Kish effective sample size (sum w)^2 / sum w^2, in [1, n_paths]."""
        w = self.weights / np.max(self.weights)  # scale-free; no overflow
        return float(np.sum(w) ** 2 / np.sum(w * w))


def _free_gaussian(lattice: LoopLattice) -> np.ndarray:
    """Free one-step matrix sqrt(m/2 pi hbar eps) e^{-m d^2/2 hbar eps} delta,
    with d the boundary-aware distance (periodic images or two mirrors);
    reflecting walls weight their sites by delta/2 (module docstring).

    The Gaussian tail underflows into subnormal doubles, and every product
    with one takes the CPU's slow path, so entries below the smallest
    normal double (_TINY) are stored as 0.  The test is per entry, so the
    matrix stays symmetric to the bit.
    """
    x = lattice.sites()
    m, hb, eps, d = lattice.mass, lattice.hbar, lattice.eps, lattice.delta
    pref = math.sqrt(m / (2.0 * math.pi * hb * eps)) * d
    scale = m / (2.0 * hb * eps)
    # every accumulation below pairs terms that transpose into each other,
    # so the matrix comes out symmetric to the bit, not just to rounding
    diff = x[:, None] - x[None, :]
    if lattice.boundary == "periodic":
        period = lattice.n_sites * d
        g = np.exp(-scale * diff ** 2)
        for j in range(1, 4):
            g += (np.exp(-scale * (diff + j * period) ** 2)
                  + np.exp(-scale * (diff - j * period) ** 2))
    else:
        ssum = x[:, None] + x[None, :]
        g = (np.exp(-scale * diff ** 2)
             + np.exp(-scale * (ssum - 2.0 * lattice.x_min) ** 2)
             + np.exp(-scale * (ssum - 2.0 * lattice.x_max) ** 2))
        # the end sites lie on the walls, each its own mirror image: weight
        # them by delta/2, as the trapezoid rule does, in the symmetric
        # form W^1/2 G W^1/2 with W = diag(1/2, 1, ..., 1, 1/2) delta
        g[[0, -1]] *= math.sqrt(0.5)
        g[:, [0, -1]] *= math.sqrt(0.5)
    g *= pref
    g[g < _TINY] = 0.0
    return g


def build_kernel(lattice: LoopLattice) -> TransferKernel:
    """Free Gaussian step dressed with e^{-eps u/2 hbar} on both sides,
    which keeps the matrix exactly symmetric.  The dressing can push normal
    entries below _TINY, so those are stored as 0 again, as in
    _free_gaussian."""
    u = np.asarray(lattice.potential)
    half = np.exp(-lattice.eps * u / (2.0 * lattice.hbar))
    mat = np.outer(half, half) * lattice.free_kernel.matrix
    mat[mat < _TINY] = 0.0
    return TransferKernel(matrix=mat, eps=lattice.eps, delta=lattice.delta)


def _check_sites(n: int, *sites):
    for s in sites:
        if not isinstance(s, (int, np.integer)) or isinstance(s, bool):
            raise TypeError(f"site index must be an integer, got {s!r}")
        if not (0 <= s < n):
            raise ValueError(f"site index {s} outside [0, {n})")


def _check_steps(n_steps):
    if not isinstance(n_steps, (int, np.integer)) or isinstance(n_steps, bool):
        raise TypeError(f"n_steps must be an integer, got {n_steps!r}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")


def _evolve(matrix: np.ndarray, v: np.ndarray, n_steps: int):
    """Yield matrix^k @ v for k = 1..n_steps, one matvec each."""
    for _ in range(n_steps):
        v = matrix @ v
        yield v


def propagator_slices(kernel: TransferKernel, x0: int, n_steps: int):
    """Density rows q(x0 -> ., k*eps) = T^k e_x0 / delta for k = 1..n_steps,
    one matvec each, as a generator; the arguments are checked at the call."""
    _check_sites(len(kernel.matrix), x0)
    _check_steps(n_steps)
    e_x0 = np.zeros(len(kernel.matrix))
    e_x0[x0] = 1.0
    return (v / kernel.delta for v in _evolve(kernel.matrix, e_x0, n_steps))


def propagator(kernel: TransferKernel, x0: int, x1: int, n_steps: int) -> float:
    """Density q(x0 -> x1, n_steps*eps) = (T^n)[x0, x1] / delta, the last
    of propagator_slices.  The kernel keeps that last row, so calls that
    change only x1 reuse it; the arguments are checked before the row is
    looked up, so one equal to the kept key but of another type (x0 = True
    or 1.0 after x0 = 1) still raises."""
    _check_sites(len(kernel.matrix), x1)
    rows = propagator_slices(kernel, x0, n_steps)
    key = (int(x0), int(n_steps))
    if kernel.kept_row is None or kernel.kept_row[0] != key:
        for q in rows:
            pass
        object.__setattr__(kernel, "kept_row", (key, q))
    return float(kernel.kept_row[1][x1])


def loop_partition(kernel: TransferKernel, n_steps: int) -> float:
    """Lattice loop integral over closed paths: Tr(T^n), from the kernel's
    cached spectrum of the symmetric operator."""
    _check_steps(n_steps)
    with np.errstate(over="ignore"):  # inf is refused below
        z = float(np.sum(kernel.spectrum ** n_steps))
    if not (0.0 < z < math.inf):
        raise ArithmeticError(f"loop partition Tr T^{n_steps} = {z} is not "
                              "positive and finite")
    return z


def path_entropy(kernel: TransferKernel, n_steps: int) -> float:
    """ln Tr T^n in units of k_B; math.log, as np.log may differ by an ulp."""
    return math.log(loop_partition(kernel, n_steps))


def path_entropies(kernel: TransferKernel, n_steps: int) -> np.ndarray:
    """path_entropy(kernel, n) for n = 1..n_steps, from one eigensolve."""
    _check_steps(n_steps)
    return np.array([path_entropy(kernel, n) for n in range(1, n_steps + 1)])


def fluctuation_bound(beta: float, dt: float, mass: float = 1.0,
                      hbar: float = 1.0) -> float:
    """Spatial fluctuation budget (beta*hbar/dt - 1) dt^2/m inside the
    quantum window 0 < dt <= beta*hbar; the window edge is thermal_time."""
    tau = thermal_time(beta, hbar)
    if not (mass > 0.0 and math.isfinite(mass)):
        raise ValueError(f"mass must be finite and positive, got {mass}")
    if not (0.0 < dt <= tau):
        raise ValueError(
            f"dt = {dt} outside the quantum window (0, beta*hbar = "
            f"{tau}]; beyond it the spread is thermodynamic")
    return (tau / dt - 1.0) * dt * dt / mass


def thermal_time(beta: float, hbar: float = 1.0) -> float:
    """The parting scale tau = beta*hbar between loop-dominated and
    thermodynamic fluctuations (k_B absorbed into beta)."""
    for name, x in (("beta", beta), ("hbar", hbar)):
        if not (x > 0.0 and math.isfinite(x)):
            raise ValueError(f"{name} must be finite and positive, got {x}")
    return beta * hbar


def forward_backward(kernel: TransferKernel, phi0, phi1, n_steps: int):
    """Advance phi0 forward and pull phi1 backward through the same
    symmetric kernel; rho_k = phi_k * phi_hat_k pointwise.

    Returns (phis, phi_hats, rhos), each of shape (n_steps+1, n_sites).
    delta * sum(rho_k) is the same inner product <T^k phi0, T^{n-k} phi1>
    at every k, so the density is conserved up to rounding.
    """
    _check_steps(n_steps)
    f0 = np.asarray(phi0, dtype=float)
    f1 = np.asarray(phi1, dtype=float)
    n = kernel.matrix.shape[0]
    for name, f in (("phi0", f0), ("phi1", f1)):
        if f.shape != (n,):
            raise ValueError(f"{name} must have one value per site")
        if not np.all(np.isfinite(f)) or np.any(f < 0.0):
            raise ValueError(f"{name} must be finite and nonnegative")
        if not np.any(f > 0.0):
            raise ValueError(f"{name} must not be identically zero")
    phis = np.array([f0, *_evolve(kernel.matrix, f0, n_steps)])
    hats = np.array([f1, *_evolve(kernel.matrix, f1, n_steps)])[::-1]
    return phis, hats, phis * hats


def _sample_bridge(g: np.ndarray, start: int, end: int, n_steps: int,
                   n_paths: int, rng) -> np.ndarray:
    """Exact lattice bridge: forward categorical sampling of the free
    chain pinned at both ends, using backward partials b_j = G^j[:, end].
    A ValueError names end_site when the chain's weight (G^n)[start, end]
    is 0, as no path could then reach it.

    One cumsum of G * b_j per step serves all paths: a path at site i
    counts the entries of row i at or below its draw u, the same count as
    one gathered row per path, so a draw u = 0 lands on the row's first
    positive entry, never on a site of weight 0.  Only rows
    cur.min()..cur.max() are summed; the rest keep stale sums that no path
    reads, and each row is its own sequential sum, so the range changes
    no bit.  A row is nondecreasing (G, b >= 0) and u = r * total with
    r < 1 stays below its last entry, so the count is at most n - 1.  Rows
    sit in an (n, B) buffer, B a power of two, between W/2 + 1 columns of
    -inf and a +inf tail: neither pad changes the count at or below
    u >= 0 beyond adding the -inf columns, and branchless searches find it
    for every path at once.  A search keeps p, the flat index of an entry
    known to be at or below u, and halving s moves p by s where the view
    flat[s:] at p is too.

    Paths move a few cells per step, so each first searches the W = 2^j
    columns around its site (see _bridge_window), log2(W) halvings from
    p = cur * (B + 1), the column before the window.  The count lies in
    the window exactly when that column is at or below u and the one W
    past it is above u (the row is nondecreasing); the paths where either
    check fails (u = 0, long jumps, the periodic seam) get the full search
    of log2(B) halvings from column 0 of their row, on them alone.  Either
    way the count is p mod B - W/2.  G is a kernel matrix, so no subnormal
    entry of it slows the products with b (see _free_gaussian).

    Sites are written into a step-major (n_steps + 1, n_paths) scratch
    array, one contiguous row per step, and returned as one C-order
    (n_paths, n_steps + 1) transpose.
    """
    n = g.shape[0]
    e_end = np.zeros(n)
    e_end[end] = 1.0  # b_0 = e_end, used only to seed the recursion
    b = np.array([e_end, *_evolve(g, e_end, n_steps - 1)])
    if not g[start] @ b[-1] > 0.0:
        raise ValueError(f"end_site {end} is unreachable from site {start} "
                         f"in {n_steps} steps: the free chain's weight is 0")
    win = _bridge_window(g)
    half = win // 2
    width = 1 << (n + win + 1).bit_length()
    buf = np.full((n, width), np.inf)
    buf[:, :half + 1] = -np.inf
    flat = buf.reshape(-1)
    rows = buf[:, half + 1:half + 1 + n]
    totals = rows[:, n - 1]
    # each move in the narrowest unsigned type that holds it, the cheapest
    # mask-times-move array to add to p
    halvings = [(np.min_scalar_type(s).type(s), flat[s:])
                for s in (width >> i for i in range(1, width.bit_length()))]
    w_halvings = [h for h in halvings if h[0] < win]
    above = flat[win:]
    steps = np.empty((n_steps + 1, n_paths), dtype=np.int64)
    steps[0] = start
    steps[n_steps] = end
    for lo in range(0, n_paths, _CHUNK):
        hi = min(lo + _CHUNK, n_paths)
        cur = steps[0, lo:hi]
        for k in range(1, n_steps):
            r0, r1 = cur.min(), cur.max() + 1
            np.cumsum(g[r0:r1] * b[n_steps - k], axis=1, out=rows[r0:r1])
            u = rng.random(cur.size) * totals.take(cur)
            p = cur * (width + 1)
            bad = flat.take(p) > u
            bad |= above.take(p) <= u
            _search(p, u, w_halvings)
            if bad.any():
                miss = np.flatnonzero(bad)
                p[miss] = _search(cur[miss] * width, u[miss], halvings)
            p &= width - 1
            cur = np.subtract(p, half, out=steps[k, lo:hi])
    return np.ascontiguousarray(steps.T)


def _search(p: np.ndarray, u: np.ndarray, halvings) -> np.ndarray:
    """Branchless search in place: halving (s, view) moves p by s where
    view[p] <= u, so p ends on the last entry at or below u."""
    for step, ahead in halvings:
        p += (ahead.take(p) <= u) * step
    return p


def _bridge_window(g: np.ndarray) -> int:
    """Width W of _sample_bridge's window search: the power of two at or
    above 7 one-step standard deviations of the kernel's middle row, in
    cells (about 7 sqrt(stability))."""
    n = g.shape[0]
    row = g[n // 2]
    d = np.arange(n) - n // 2
    sd = math.sqrt(float(row @ (d * d)) / float(row.sum()))
    return 1 << max(1, math.ceil(7.0 * sd) - 1).bit_length()


def sample_paths(lattice: LoopLattice, n_paths: int, n_steps: int, seed: int,
                 mode: str = "loop", start_site=None,
                 end_site=None) -> PathEnsemble:
    """Draw free-dynamics trajectories and attach their potential weights.

    open mode: continuum Gaussian increments of variance hbar*eps/m,
    folded at the boundary and snapped to the nearest site for recording.
    loop mode: lattice Brownian bridge pinned to the start site (end_site
    may override the return point, giving a pinned open bridge; open mode
    has no end point and rejects it).  Deterministic per seed.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    _check_steps(n_steps)
    if mode not in ("open", "loop"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "open" and end_site is not None:
        raise ValueError("end_site pins a loop-mode bridge; open paths "
                         "have a free end")
    start = lattice.n_sites // 2 if start_site is None else start_site
    _check_sites(lattice.n_sites, start)
    rng = np.random.default_rng(seed)
    if mode == "loop":
        end = start if end_site is None else end_site
        _check_sites(lattice.n_sites, end)
        paths = _sample_bridge(lattice.free_kernel.matrix, start, end,
                               n_steps, n_paths, rng)
    else:
        # one array, every operation in place, in the order (and so to the
        # bit) of rint((x0 + cumsum(steps) - x_min) / delta) and its fold;
        # rng.normal(0, sd) draws 0 + sd * z from the same z, and adding 0
        # changes only the sign of a zero, which no site index can show
        pos = rng.standard_normal((n_paths, n_steps))
        pos *= math.sqrt(lattice.hbar * lattice.eps / lattice.mass)
        np.cumsum(pos, axis=1, out=pos)
        pos += lattice.sites()[start]
        pos -= lattice.x_min
        if lattice.boundary == "reflecting":
            span = lattice.x_max - lattice.x_min
            np.mod(pos, 2.0 * span, out=pos)
            pos -= span
            np.abs(pos, out=pos)
            np.subtract(span, pos, out=pos)
        pos /= lattice.delta
        np.rint(pos, out=pos)
        paths = np.empty((n_paths, n_steps + 1), dtype=np.int64)
        paths[:, 0] = start
        paths[:, 1:] = pos
        if lattice.boundary == "periodic":
            idx = paths[:, 1:]
            if idx.min() < 0 or idx.max() >= lattice.n_sites:
                idx %= lattice.n_sites
    # exp(-eps S_u/hbar) with the trapezoid action S_u = u0/2 + sum interior
    # u + u_n/2 -- the kernel's split, so weights times the free chain
    # reproduce T^n exactly
    u = np.asarray(lattice.potential)
    s = u.take(paths).sum(axis=1) - 0.5 * (u[paths[:, 0]] + u[paths[:, -1]])
    with np.errstate(over="ignore"):  # inf is refused by PathEnsemble
        w = np.exp(-lattice.eps * s / lattice.hbar)
    return PathEnsemble(n_paths=int(n_paths), n_steps=int(n_steps),
                        seed=int(seed), paths=paths, weights=w)


def mc_propagator(lattice: LoopLattice, x0: int, x1: int, n_steps: int,
                  n_paths: int, seed: int):
    """Monte Carlo propagator estimate and its standard error.

    Averages the potential weights of sample_paths' free lattice bridge
    x0 -> x1, scaled by the free density (G^n)[x0, x1]/delta; unbiased
    for propagator(build_kernel(lattice), x0, x1, n_steps).  Where that
    free density is exactly 0, x1 is out of reach in n_steps and the
    estimate is (0.0, 0.0), returned without sampling.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a standard error, "
                         f"got {n_paths}")
    q_free = propagator(lattice.free_kernel, x0, x1, n_steps)
    if q_free == 0.0:
        return 0.0, 0.0
    w = sample_paths(lattice, n_paths, n_steps, seed, "loop", x0, x1).weights
    est = q_free * float(np.mean(w))
    se = q_free * float(np.std(w, ddof=1)) / math.sqrt(n_paths)
    return est, se
