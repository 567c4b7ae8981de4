"""The four fraczeta benchmark workloads.

A workload is a fixed task list (one "round").  `round` makes the timed
calls through Ops and returns their outputs; `check` compares the outputs
with values the repository already pins and runs after the round's timing
has stopped.  All inputs come from the numpy Generator passed in, so one
seed gives one sequence of rounds.  Input sizes do not depend on the seed,
so the cost of a round does not either.

The fraczeta modules are imported in `setup`, which is part of the timed
set-up, so each workload pays only for the modules it uses.
"""

from __future__ import annotations

import io
import math
import os
import random
import shutil
import tempfile
from contextlib import nullcontext, redirect_stdout
from functools import cached_property

import numpy as np


class Workload:
    """Holds the size preset; `workdir` is where a workload may write.
    `calibration` names the harness block, of the kind of work the workload
    does most, that scales its round times to the reference speed."""

    sizes: dict = {}
    calibration = "interpreter"

    def __init__(self, size="full", workdir="."):
        self.size = size
        self.p = self.sizes[size]
        self.workdir = workdir


def _blas_warm_up() -> None:
    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    np.linalg.eigvalsh(a @ a.T)


# --- critical line ---------------------------------------------------------------

_FIRST_ZEROS = (14.134725, 21.022040, 25.010858)


class CriticalLine(Workload):
    """find_zeros to the 1000-zero height, then the statistics built on it."""

    name = "critical-line"
    unit = "zeros/s"
    sizes = {"full": dict(t_max=1419.5, gue_trials=20, scan_t=500.0, n_zeta=50),
             "smoke": dict(t_max=300.0, gue_trials=3, scan_t=20.0, n_zeta=5)}

    def setup(self, ops):
        from fraczeta import zetalab
        self.z = zetalab
        ops.documented += (zetalab.ZetaAccuracyError, zetalab.MissedZerosError)
        _blas_warm_up()
        zetalab.find_zeros(30.0)
        zetalab.zeta(0.5 + 20.0j)

    def round(self, ops, rng):
        z, p = self.z, self.p
        out = {}
        zl = ops.call("zetalab.find_zeros", z.find_zeros, p["t_max"],
                      measure=lambda r: {"zeros": len(r.ordinates)})
        out["zeros"] = zl
        if zl is not None:
            u = ops.call("zetalab.unfold", z.unfold, zl)
            out["pc_zeros"] = ops.call("zetalab.pair_correlation",
                                       z.pair_correlation, u, 3.0, 30)
            picks = rng.choice(len(zl.ordinates), p["n_zeta"], replace=False)
            out["zeta_at_zeros"] = [
                ops.call("zetalab.zeta", z.zeta,
                         complex(0.5, zl.ordinates[i]))
                for i in sorted(picks)]
        trials = p["gue_trials"]
        gue = ops.call("zetalab.gue_sample", z.gue_sample, 200, trials,
                       int(rng.integers(2 ** 31)),
                       counts={"eigensolves": trials})
        out["gue"] = gue
        out["pc_gue"] = ops.call("zetalab.pair_correlation",
                                 z.pair_correlation, gue, 3.0, 30)
        disc = z.Disc(center=complex(rng.uniform(0.7, 0.8), 0.0), radius=0.05)
        shifts = int(round(p["scan_t"] / 0.05))
        out["scan"] = ops.call("zetalab.universality_scan",
                               z.universality_scan, disc, None, 0.3,
                               p["scan_t"], 0.05, counts={"shifts": shifts})
        return out

    def items(self, out):
        return len(out["zeros"].ordinates) if out["zeros"] is not None else 0

    def check(self, out):
        zl = out["zeros"]
        if zl is None:
            return [("find_zeros returned", False)]
        ords = np.asarray(zl.ordinates)
        # N(T) - Nbar(T) is extremal just before and just after each zero
        dev = max(max(abs(k - self.z.mean_zero_count(t)),
                      abs(k + 1 - self.z.mean_zero_count(t)))
                  for k, t in enumerate(ords))
        res = [
            ("first three zeros within 1e-4",
             max(abs(ords[i] - _FIRST_ZEROS[i]) for i in range(3)) < 1e-4),
            ("N(100) == 29", int(np.count_nonzero(ords <= 100.0)) == 29),
            ("|N(T) - Nbar(T)| <= 2 on the whole range", dev <= 2.0),
            ("|zeta(1/2+i gamma)| < 1e-7 at checked zeros",
             all(v is not None and abs(v.value) < 1e-7
                 for v in out["zeta_at_zeros"])),
        ]
        if self.size == "full":
            res.append(("N(1419.5) == 1000", len(ords) == 1000))
            res.append(("zeros pair-correlation KS < 0.10",
                        out["pc_zeros"].ks_distance < 0.10))
            res.append(("GUE pair-correlation KS < 0.08",
                        out["pc_gue"].ks_distance < 0.08))
        gue = out["gue"]
        gaps = np.diff(gue)
        res.append(("GUE bulk mean spacing within 0.1 of 1",
                     abs(float(np.mean(gaps[gaps < 50.0])) - 1.0) < 0.1))
        scan = out["scan"]
        res.append(("self-approximation at shift 0 below 1e-8",
                    scan.sup_errors[0] < 1e-8 and scan.witnesses[0] == 0.0))
        return res


# --- loop gas -----------------------------------------------------------------------


class LoopGas(Workload):
    """Criterion 09's lattices: the transfer route beside the MC route."""

    name = "loop-gas"
    unit = "probes/s"
    calibration = "array"       # bridge sampling is array gathers and sums
    sizes = {"full": dict(n_free=8, n_probes=2, mc_paths=10000, steps=100,
                          open_paths=10000, loop_paths=2000),
             "smoke": dict(n_free=2, n_probes=1, mc_paths=500, steps=100,
                           open_paths=200, loop_paths=100)}

    def setup(self, ops):
        from fraczeta import loopgas
        self.lg = loopgas
        harmonic = (lambda x: 0.5 * x * x)
        self.free = loopgas.make_lattice(-8.0, 8.0, 161, 0.01)
        self.harm = loopgas.make_lattice(-8.0, 8.0, 161, 0.01, potential=harmonic)
        self.mc_lat = loopgas.make_lattice(-8.0, 8.0, 201, 0.005,
                                           potential=harmonic)
        _blas_warm_up()
        tiny = loopgas.make_lattice(-1.0, 1.0, 11, 0.01, potential=harmonic)
        tk = loopgas.build_kernel(tiny)
        loopgas.path_entropy(tk, 4)
        loopgas.mc_propagator(tiny, 5, 5, 4, 10, 0)

    def round(self, ops, rng):
        lg, p = self.lg, self.p
        steps = p["steps"]
        out = {}
        xs = self.free.sites()
        c = self.free.n_sites // 2
        window = np.nonzero(np.abs(xs - xs[c]) <= 2.5)[0]
        fk = ops.call("loopgas.build_kernel", lg.build_kernel, self.free)
        sites = sorted(int(j) for j in rng.choice(window, p["n_free"], replace=False))
        out["free"] = [(j, ops.call("loopgas.propagator", lg.propagator, fk, c,
                                    j, steps, counts={"matvecs": steps}))
                       for j in sites]
        out["entropy"] = {k: ops.call("loopgas.path_entropy", lg.path_entropy,
                                      fk, k) for k in (50, 100, 200)}
        hk = ops.call("loopgas.build_kernel", lg.build_kernel, self.harm)
        hx = self.harm.sites()
        phi0 = np.exp(-(hx - rng.uniform(-1.0, 1.0)) ** 2 / rng.uniform(0.5, 2.0))
        phi1 = np.exp(-(hx - rng.uniform(-1.0, 1.0)) ** 2 / rng.uniform(0.5, 2.0))
        out["fb"] = ops.call("loopgas.forward_backward", lg.forward_backward,
                             hk, phi0, phi1, 50)
        pk = ops.call("loopgas.build_kernel", lg.build_kernel, self.mc_lat)
        out["mc"] = []
        for _ in range(p["n_probes"]):
            a = int(rng.integers(80, 121))
            b = a + int(rng.integers(-20, 21))
            exact = ops.call("loopgas.propagator", lg.propagator, pk, a, b,
                             steps, counts={"matvecs": steps})
            mc = ops.call("loopgas.mc_propagator", lg.mc_propagator,
                          self.mc_lat, a, b, steps, p["mc_paths"],
                          int(rng.integers(2 ** 31)),
                          counts={"path_steps": p["mc_paths"] * steps},
                          measure=lambda r: {"rel_se": r[1] / r[0]})
            out["mc"].append((exact, mc))
        out["open"] = ops.call("loopgas.sample_paths_open", lg.sample_paths,
                               self.harm, p["open_paths"], steps,
                               int(rng.integers(2 ** 31)), "open")
        out["loop"] = ops.call("loopgas.sample_paths_loop", lg.sample_paths,
                               self.harm, p["loop_paths"], steps,
                               int(rng.integers(2 ** 31)), "loop")
        return out

    def items(self, out):
        return len(out["mc"])

    def check(self, out):
        xs = self.free.sites()
        c = self.free.n_sites // 2
        t = self.p["steps"] * self.free.eps
        gauss = [math.exp(-(xs[j] - xs[c]) ** 2 / (2 * t)) / math.sqrt(2 * math.pi * t)
                 for j, _ in out["free"]]
        ent = out["entropy"]
        half = 0.5 * math.log(2.0)
        tot = out["fb"][2].sum(axis=1) * self.harm.delta
        res = [
            ("free propagator within 1% of the Gaussian",
             all(abs(q / g - 1.0) < 0.01 for (_, q), g in zip(out["free"], gauss))),
            ("entropy halving within 2%",
             all(abs(ent[2 * k] - ent[k] + half) / half < 0.02 for k in (50, 100))),
            ("forward-backward conservation to 1e-10",
             float(np.max(np.abs(tot - tot[0])) / tot[0]) < 1e-10),
            # |MC - exact| <= 5 SE fails with probability ~6e-7 per probe
            ("MC within 5 SE of the transfer route",
             all(abs(est - exact) <= 5.0 * se for exact, (est, se) in out["mc"])),
        ]
        for mode in ("open", "loop"):
            ens = out[mode]
            ok = (ens.paths.shape == (ens.n_paths, ens.n_steps + 1)
                  and bool(np.all(ens.paths[:, 0] == self.harm.n_sites // 2))
                  and bool(np.all((ens.weights > 0.0) & (ens.weights <= 1.0))))
            if mode == "loop":
                ok = ok and bool(np.all(ens.paths[:, -1] == ens.paths[:, 0]))
            res.append((f"{mode} ensemble shape, endpoints and weights", ok))
        return res


# --- prime lattice ----------------------------------------------------------------


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes; exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(rnd: random.Random, lo: int, hi: int) -> int:
    while True:
        c = rnd.randrange(lo, hi) | 1
        if _is_probable_prime(c):
            return c


def _small_primes(limit: int) -> set:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return set(np.nonzero(sieve)[0].tolist())


class PrimeLattice(Workload):
    """factorize small and large n, lattice operations, two Dirichlet routes."""

    name = "prime-lattice"
    unit = "integers/s"
    sizes = {"full": dict(n_small=10000, n_large=8, n_pairs=300, n_cantor=500,
                          n_trace=4, trace_nmax=1000, n_partial=200),
             "smoke": dict(n_small=200, n_large=1, n_pairs=20, n_cantor=20,
                           n_trace=1, trace_nmax=100, n_partial=10)}

    @cached_property
    def primes(self) -> set:
        return _small_primes(10 ** 5)

    def setup(self, ops):
        from fraczeta import eprspace, zetalab
        self.e, self.z = eprspace, zetalab
        eprspace.factorize(2 ** 40 - 87)
        eprspace.trace_exp(10, 2.0)
        zetalab.partial_zeta(2.0, 10)

    def round(self, ops, rng):
        e, z, p = self.e, self.z, self.p
        out = {}
        lo = int(rng.integers(80000, 90001))
        small = range(lo, lo + p["n_small"])
        out["small"] = [(n, ops.call("eprspace.factorize_small", e.factorize, n))
                        for n in small]
        # composites near 1e17 from two 29-bit primes made here, not by fraczeta
        rnd = random.Random(int(rng.integers(2 ** 63)))
        large = []
        for _ in range(p["n_large"]):
            a = _random_prime(rnd, 300_000_000, 330_000_000)
            b = _random_prime(rnd, 300_000_000, 330_000_000)
            large.append((a, b, ops.call("eprspace.factorize_large",
                                         e.factorize, a * b)))
        out["large"] = large
        vecs = out["small"]
        lattice = []
        for i, j in rng.integers(0, len(vecs), size=(p["n_pairs"], 2)):
            (a, va), (b, vb) = vecs[i], vecs[j]
            join, meet = ops.call("eprspace.lcm_gcd", e.lcm_gcd, va, vb)
            logs = [ops.call("eprspace.log_norm", e.log_norm, v)
                    for v in (va, vb, join, meet)]
            lattice.append((a, b, join, meet, logs))
        out["lattice"] = lattice
        cantor = []
        for m, n in rng.integers(0, 2 ** 31, size=(p["n_cantor"], 2)):
            k = ops.call("eprspace.pair", e.pair, int(m), int(n))
            cantor.append(((int(m), int(n)), ops.call("eprspace.unpair", e.unpair, k)))
        out["cantor"] = cantor
        nmax = p["trace_nmax"]
        traces = []
        for _ in range(p["n_trace"]):
            s = complex(rng.uniform(1.5, 4.0), rng.uniform(-10.0, 10.0))
            tr = ops.call("eprspace.trace_exp", e.trace_exp, nmax, s,
                          counts={"terms": nmax})
            pz = ops.call("zetalab.partial_zeta", z.partial_zeta, s, nmax,
                          counts={"terms": nmax})
            traces.append((tr, pz))
        out["traces"] = traces
        # many tiny Dirichlet sums at Re s > 1; the n_max sequence is fixed
        partial = []
        for i in range(p["n_partial"]):
            n_max = 100 + (i * 37) % 900
            s = complex(rng.uniform(1.1, 4.0), rng.uniform(-50.0, 50.0))
            partial.append((s, n_max, ops.call("zetalab.partial_zeta",
                                               z.partial_zeta, s, n_max,
                                               counts={"terms": n_max})))
        out["partial"] = partial
        return out

    def items(self, out):
        return len(out["small"]) + len(out["large"])

    def check(self, out):
        e = self.e
        to_int = e.to_int
        small_ok = all(v is not None and to_int(v) == n
                       and all(q in self.primes for q in v.coords)
                       for n, v in out["small"])
        large_ok = all(v is not None
                       and v.coords == ({a: 2} if a == b else {a: 1, b: 1})
                       and all(e.is_prime(q) for q in v.coords)
                       for a, b, v in out["large"])
        lat_ok = all(to_int(j) * to_int(m) == a * b for a, b, j, m, _ in out["lattice"])
        log_ok = all(abs(la + lb - lj - lm) <= 1e-12 * max(1.0, la + lb)
                     and abs(la - math.log(a)) <= 1e-12 * max(1.0, la)
                     for a, b, _, _, (la, lb, lj, lm) in out["lattice"])
        cantor_ok = all(mn == back for mn, back in out["cantor"])
        trace_ok = all(abs(tr - pz) < 1e-10 for tr, pz in out["traces"])
        partial_ok = all(
            abs(v - complex(np.sum(np.arange(1, n_max + 1, dtype=float) ** (-s)))) < 1e-10
            for s, n_max, v in out["partial"])
        return [("to_int(factorize(n)) == n with prime factors, small n", small_ok),
                ("factorize(p*q) == {p, q} near 1e17", large_ok),
                ("lcm * gcd == a * b", lat_ok),
                ("log_norm additive through lcm/gcd and equal to log n", log_ok),
                ("unpair(pair(m, n)) == (m, n)", cantor_ok),
                ("trace_exp matches partial_zeta to 1e-10", trace_ok),
                ("partial_zeta matches a direct power sum to 1e-10", partial_ok)]


# --- impedance ------------------------------------------------------------------


# off-axis Mittag-Leffler points; (0.5, -5+5j), (0.5, 10j) and (0.9, 30j)
# have no implemented regime at the parent commit and raise
_ML_POINTS = ((0.5, 1 + 1j), (0.5, -2 + 2j), (0.5, 3j), (0.5, -1 + 4j),
              (0.5, -5 + 5j), (0.5, 10j), (0.7, -1 + 4j), (0.9, 3j), (0.9, 30j))
_RELAX_ALPHAS = (0.5, 0.75, 0.9, 1.0)
# t/tau from 1e-3 to 1e6, four points a decade, one call per decade
_RELAX_CHUNKS = np.array_split(np.logspace(-3.0, 6.0, 37), 9)
_FMIN, _FMAX, _POINTS = 0.1, 1e5, 60


def _fit_counts(fit):
    return {"nm_iters": fit.n_iter, "converged": int(fit.converged)}


class Impedance(Workload):
    """Cole-Cole spectra through synth, fit and arc, by library and by CLI."""

    name = "impedance"
    unit = "spectra/s"
    sizes = {"full": dict(n_spectra=24, cli_every=4, gl_n=4000),
             "smoke": dict(n_spectra=4, cli_every=4, gl_n=200)}

    def setup(self, ops):
        from fraczeta import cli, fitkit, fracdyn
        self.fk, self.fd, self.cli = fitkit, fracdyn, cli
        ops.documented += (fracdyn.MittagLefflerError,)
        _blas_warm_up()
        w = 2.0 * math.pi * np.logspace(0.0, 4.0, 12)
        spec = fitkit.synth_spectrum(fracdyn.ColeColeModel(0.8, 1e-3, 50.0, 5.0),
                                     w, 0.0, 0)
        fitkit.fit_cole_cole(spec)
        cli.build_parser()
        fracdyn.mittag_leffler(0.5, -1.0)
        os.makedirs(self.workdir, exist_ok=True)

    def _cli_route(self, ops, tmp, i, model, noise, seed):
        """Send one spectrum through cli.dispatch, and the library over the
        same file.  Returns the paths and the library's results."""
        fk, fd, cli = self.fk, self.fd, self.cli
        paths = {k: os.path.join(tmp, f"{k}-{i}.{ext}") for k, ext in
                 (("cli_csv", "csv"), ("fit_json", "json"), ("arc_json", "json"))}
        ok = (lambda rc: rc == 0)
        synth_argv = ["synth", "--alpha", repr(model.alpha), "--tau", repr(model.tau),
                      "--rct", repr(model.r_ct), "--rs", repr(model.r_s),
                      "--fmin", repr(_FMIN), "--fmax", repr(_FMAX),
                      "--points", str(_POINTS), "--noise", repr(noise),
                      "--seed", str(seed), "--out", paths["cli_csv"],
                      "--no-timestamp"]
        rcs = [ops.call("cli.dispatch", cli.dispatch, synth_argv, ok=ok)]
        with ops.span("cli.library_route"):
            loaded = ops.call("fitkit.load_spectrum", fk.load_spectrum,
                              paths["cli_csv"])
            lib_fit = ops.call("fitkit.fit_cole_cole", fk.fit_cole_cole, loaded,
                               measure=_fit_counts)
            loaded = ops.call("fitkit.load_spectrum", fk.load_spectrum,
                              paths["cli_csv"])
            lib_arc = ops.call("fracdyn.arc_fit", fd.arc_fit, loaded.z())
        rcs.append(ops.call("cli.dispatch", cli.dispatch,
                            ["fit", "--input", paths["cli_csv"], "--out",
                             paths["fit_json"], "--no-timestamp"], ok=ok))
        rcs.append(ops.call("cli.dispatch", cli.dispatch,
                            ["arc", "--input", paths["cli_csv"], "--out",
                             paths["arc_json"], "--no-timestamp"], ok=ok))
        return dict(paths, lib_fit=lib_fit, lib_arc=lib_arc, rcs=rcs)

    def round(self, ops, rng):
        fk, fd, p = self.fk, self.fd, self.p
        out = {"spectra": [], "cli": []}
        w = 2.0 * math.pi * np.logspace(math.log10(_FMIN), math.log10(_FMAX), _POINTS)
        tmp = tempfile.mkdtemp(dir=self.workdir)
        out["tmp"] = tmp
        for i in range(p["n_spectra"]):
            model = fd.ColeColeModel(alpha=float(rng.uniform(0.5, 1.0)),
                                     tau=float(10.0 ** rng.uniform(-4.0, -2.0)),
                                     r_ct=float(rng.uniform(10.0, 100.0)),
                                     r_s=float(rng.uniform(1.0, 10.0)))
            noise = 0.0 if i % 3 == 0 else float(rng.uniform(0.0, 0.02))
            seed = int(rng.integers(2 ** 31))
            share = i % p["cli_every"] == 0
            # for the CLI share, synth plus save is the library's side of
            # `fraczeta synth --out`
            with ops.span("cli.library_route") if share else nullcontext():
                spec = ops.call("fitkit.synth_spectrum", fk.synth_spectrum,
                                model, w, noise, seed)
                if share:
                    lib_csv = os.path.join(tmp, f"lib-{i}.csv")
                    ops.call("fitkit.save_spectrum", fk.save_spectrum, spec,
                             lib_csv)
            fit = ops.call("fitkit.fit_cole_cole", fk.fit_cole_cole, spec,
                           measure=_fit_counts)
            arc = ops.call("fracdyn.arc_fit", fd.arc_fit, spec.z())
            out["spectra"].append((model, noise, fit, arc))
            if share:
                # `synth --out` prints a record; keep it off our stdout
                with redirect_stdout(io.StringIO()):
                    route = self._cli_route(ops, tmp, i, model, noise, seed)
                out["cli"].append(dict(route, lib_csv=lib_csv))
        tau = float(10.0 ** rng.uniform(-4.0, -2.0))
        relax = []
        for alpha in _RELAX_ALPHAS:
            model = fd.ColeColeModel(alpha=alpha, tau=tau, r_ct=1.0)
            for chunk in _RELAX_CHUNKS:
                v = ops.call("fracdyn.relaxation_response", fd.relaxation_response,
                             model, chunk * tau, counts={"points": chunk.size})
                relax.append((alpha, chunk, v))
        out["relax"] = relax
        out["ml"] = [(a, zz, ops.call("fracdyn.mittag_leffler", fd.mittag_leffler,
                                      a, zz)) for a, zz in _ML_POINTS]
        alpha = float(rng.uniform(0.3, 0.9))
        n = p["gl_n"]
        h = 4.0 / n
        out["gl"] = (alpha, h, n,
                     ops.call("fracdyn.gl_fracderiv", fd.gl_fracderiv,
                              np.ones(n), alpha, h),
                     ops.call("fracdyn.gl_fracderiv", fd.gl_fracderiv,
                              np.arange(n) * h, alpha, h))
        return out

    def items(self, out):
        return (sum(fit is not None for _, _, fit, _ in out["spectra"])
                + sum(c["rcs"][1] is not None for c in out["cli"]))

    def check(self, out):
        import json
        from scipy.special import erfcx, gamma, wofz
        clean_ok, noisy_ok, arc_ok = True, True, True
        for model, noise, fit, arc in out["spectra"]:
            if noise == 0.0:
                m = fit.model
                rel = max(abs(m.alpha / model.alpha - 1.0), abs(m.tau / model.tau - 1.0),
                          abs(m.r_ct / model.r_ct - 1.0), abs(m.r_s / model.r_s - 1.0))
                clean_ok &= rel < 1e-3
                arc_ok &= abs(arc.depression_angle
                              - (1.0 - model.alpha) * math.pi / 2.0) < 1e-6
            else:
                # 2% noise moves alpha by ~0.01 at worst; 0.05 is far out
                noisy_ok &= abs(fit.model.alpha - model.alpha) < 0.05
        cli_ok = True
        for c in out["cli"]:
            cli_ok &= all(rc == 0 for rc in c["rcs"])
            with open(c["cli_csv"], "rb") as a, open(c["lib_csv"], "rb") as b:
                cli_ok &= a.read() == b.read()
            with open(c["fit_json"], encoding="utf-8") as fh:
                rec = json.load(fh)
            m = c["lib_fit"].model
            cli_ok &= (rec["alpha"], rec["tau_s"], rec["r_ct_ohm"], rec["r_s_ohm"]) \
                == (m.alpha, m.tau, m.r_ct, m.r_s)
            with open(c["arc_json"], encoding="utf-8") as fh:
                cli_ok &= json.load(fh)["depression_angle_rad"] \
                    == c["lib_arc"].depression_angle
        shutil.rmtree(out["tmp"], ignore_errors=True)
        relax_ok = True
        for alpha, chunk, v in out["relax"]:
            if v is None:
                continue
            if alpha == 0.5:
                ref = erfcx(np.sqrt(chunk))          # E_1/2(-x) = erfcx(sqrt x)
                relax_ok &= bool(np.all(np.abs(v / ref - 1.0) < 1e-6))
            elif alpha == 1.0:
                ref = np.exp(-chunk)
                relax_ok &= bool(np.all(np.abs(v - ref) <= 1e-12 * ref))
            relax_ok &= bool(np.all((v >= 0.0) & (v <= 1.0)) and np.all(np.diff(v) <= 0.0))
        # E_1/2(z) = w(-iz); other alphas have no closed form to compare with
        ml_ok = all(v is None or (abs(v / complex(wofz(-1j * zz)) - 1.0) < 1e-6
                                  if a == 0.5 else math.isfinite(abs(v)))
                    for a, zz, v in out["ml"])
        alpha, h, n, d_one, d_lin = out["gl"]
        t = (n - 1) * h
        gl_ok = (abs(d_one[-1] / (t ** -alpha / gamma(1.0 - alpha)) - 1.0) < 1e-3
                 and abs(d_lin[-1] / (t ** (1.0 - alpha) / gamma(2.0 - alpha)) - 1.0) < 1e-3)
        return [("noiseless fit within 1e-3 relative", clean_ok),
                ("arc depression equals (1-alpha)pi/2", arc_ok),
                ("noisy fit alpha within 0.05", noisy_ok),
                ("CLI synth file, fit JSON and arc JSON equal the library's", cli_ok),
                ("relaxation matches erfcx (alpha 1/2) and exp (alpha 1)", relax_ok),
                ("Mittag-Leffler at alpha 1/2 matches Faddeeva w(-iz)", ml_ok),
                ("Grunwald-Letnikov derivative of 1 and t within 1e-3", gl_ok)]


WORKLOADS = {w.name: w for w in (CriticalLine, LoopGas, PrimeLattice, Impedance)}
