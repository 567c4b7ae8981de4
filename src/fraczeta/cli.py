"""Batch command-line front door for the laboratory.

One subcommand per capability, uniform conventions everywhere: results
go to --out (or stdout) as CSV tables or compact JSON records, floats
are printed as shortest round-trip decimals, stochastic runs record
their seed, and a --config file of key = value lines supplies defaults
that explicit flags override.  Exit codes: 0 success, 1 domain or
runtime error, 2 usage error.
"""

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .eprspace import (Rectangle, factorize, fiber_copies, lcm_gcd, pair,
                       to_int, trace_exp, unpair)
from .fitkit import fit_cole_cole, load_spectrum, save_spectrum, synth_spectrum
from .fracdyn import (ColeColeModel, TwistedShift, arc_fit,
                      cole_cole_impedance, gl_fracderiv, mittag_leffler,
                      phase_angles, twisted_compose)
from .loopgas import (_evolve, build_kernel, fluctuation_bound,
                      forward_backward, loop_partition, make_lattice,
                      mc_propagator, propagator, sample_paths, thermal_time)
from .zetalab import (Disc, completed_xi, find_zeros, gue_sample,
                      heat_trace_mellin, pair_correlation, spectral_zeta,
                      unfold, universality_scan, zeta)


# --- output plumbing -------------------------------------------------------------


def _py(v):
    """Coerce numpy scalars so CSV and JSON encode identical values."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def _cell(v) -> str:
    v = _py(v)
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (dict, list)):
        return json.dumps(v, separators=(",", ":"))
    return str(v)


def _emit(args, command, *, record=None, columns=None, rows=None,
          default_format="json", seed_used=None) -> int:
    fmt = args.format or default_format
    lines = []
    if fmt == "csv":
        lines.append(f"# command: fraczeta {command}")
        if seed_used is not None:
            lines.append(f"# seed: {seed_used}")
        if not args.no_timestamp:
            lines.append(f"# timestamp: {_now_iso()}")
        if record is not None:
            lines.append("key,value")
            for k, v in record.items():
                lines.append(f"{k},{_cell(v)}")
        else:
            lines.append(",".join(columns))
            for row in rows:
                lines.append(",".join(_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        obj = dict(record) if record is not None else \
            {"columns": list(columns), "rows": [[_py(v) for v in r] for r in rows]}
        obj = {k: _py(v) for k, v in obj.items()} if record is not None else obj
        if seed_used is not None:
            obj["seed"] = int(seed_used)
        if not args.no_timestamp:
            obj["timestamp"] = _now_iso()
        text = json.dumps(obj, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


# --- config file -----------------------------------------------------------------


def _coerce(s: str):
    s = s.strip()
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(s)
        except ValueError:
            continue
    return s


def _load_config(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for i, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ValueError(f"{path}: line {i}: expected 'key = value'")
            key, val = ln.split("=", 1)
            out[key.strip().replace("-", "_")] = _coerce(val)
    return out


def _apply_config(args, config) -> None:
    """Flags left at their None default pick up config values."""
    for key, val in config.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, val)


def _arg(args, name, fallback):
    v = getattr(args, name, None)
    return fallback if v is None else v


def _seed(args) -> int:
    return int(_arg(args, "seed", 0))


# --- lattice helpers ---------------------------------------------------------------


_POTENTIALS = {"free": None, "harmonic": lambda x: 0.5 * x * x}


def _lattice_from_args(args):
    pot = _arg(args, "potential", "free")
    if pot not in _POTENTIALS:
        raise ValueError(f"unknown potential {pot!r}; choose free or harmonic")
    return make_lattice(_arg(args, "xmin", -8.0), _arg(args, "xmax", 8.0),
                        int(_arg(args, "sites", 201)), _arg(args, "eps", 0.01),
                        mass=_arg(args, "mass", 1.0),
                        hbar=_arg(args, "hbar", 1.0),
                        potential=_POTENTIALS[pot],
                        boundary=_arg(args, "boundary", "periodic"))


def _site_of(lattice, x: float) -> int:
    j = int(round((x - lattice.x_min) / lattice.delta))
    if not (0 <= j < lattice.n_sites):
        raise ValueError(f"position {x} outside the lattice window")
    return j


# --- handlers: fractional dynamics ---------------------------------------------------


def _model_from_args(args) -> ColeColeModel:
    return ColeColeModel(alpha=_arg(args, "alpha", 0.8),
                         tau=_arg(args, "tau", 1e-3),
                         r_ct=_arg(args, "rct", 50.0),
                         r_s=_arg(args, "rs", 5.0))


def _cmd_impedance(args) -> int:
    model = _model_from_args(args)
    w = np.logspace(math.log10(_arg(args, "wmin", 1.0)),
                    math.log10(_arg(args, "wmax", 1e5)),
                    int(_arg(args, "points", 50)))
    z = cole_cole_impedance(model, w)
    rows = [(float(wi), float(zi.real), float(zi.imag))
            for wi, zi in zip(w, z)]
    return _emit(args, "impedance", columns=("omega_rad_s", "re_z_ohm", "im_z_ohm"),
                 rows=rows, default_format="csv")


def _cmd_arc(args) -> int:
    spec = load_spectrum(args.input)
    fit = arc_fit(spec.z())
    rec = {"center_re_ohm": fit.center.real, "center_im_ohm": fit.center.imag,
           "radius_ohm": fit.radius,
           "depression_angle_rad": fit.depression_angle,
           "alpha_implied": 1.0 - 2.0 * fit.depression_angle / math.pi,
           "rms_residual_ohm": fit.rms_residual}
    return _emit(args, "arc", record=rec)


def _cmd_ml(args) -> int:
    val = mittag_leffler(_arg(args, "alpha", 0.8), args.z)
    val = complex(val)
    rec = {"alpha": _arg(args, "alpha", 0.8), "z": args.z, "value": val.real}
    if val.imag != 0.0:
        rec["value_im"] = val.imag
    return _emit(args, "ml", record=rec)


def _cmd_fracderiv(args) -> int:
    alpha = _arg(args, "alpha", 0.5)
    if args.input:
        t, f = _read_two_columns(args.input, ("t", "f"))
        h = float(t[1] - t[0])
        if t.size < 2 or np.max(np.abs(np.diff(t) - h)) > 1e-9 * max(h, 1.0):
            raise ValueError(f"{args.input}: t column must be uniformly spaced")
    else:
        n = int(_arg(args, "n", 256))
        t = np.linspace(0.0, _arg(args, "t_max", 1.0), n)
        h = float(t[1] - t[0])
        fn = _arg(args, "fn", "sqrt")
        if fn == "sqrt":
            f = np.sqrt(t)
        elif fn == "one":
            f = np.ones_like(t)
        else:
            raise ValueError(f"unknown --fn {fn!r}; choose sqrt or one")
    d = gl_fracderiv(f, alpha, h)
    rows = [(float(ti), float(di)) for ti, di in zip(t, d)]
    return _emit(args, "fracderiv", columns=("t", "value"), rows=rows,
                 default_format="csv")


def _read_two_columns(path, names):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != ",".join(names):
        raise ValueError(f"{path}: first line must be {','.join(names)!r}")
    a, b = [], []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: line {i}: expected 2 values")
        try:
            a.append(float(parts[0]))
            b.append(float(parts[1]))
        except ValueError:
            raise ValueError(f"{path}: line {i}: non-numeric value") from None
    return np.asarray(a), np.asarray(b)


def _cmd_phase(args) -> int:
    pp = phase_angles(_arg(args, "alpha", 0.8))
    return _emit(args, "phase", record={"alpha": _arg(args, "alpha", 0.8),
                                        "phi": pp.phi, "delta": pp.delta})


def _cmd_twist(args) -> int:
    g = twisted_compose(TwistedShift(args.a1, args.b1, args.theta1),
                        TwistedShift(args.a2, args.b2, args.theta2),
                        args.delta)
    return _emit(args, "twist", record={"a": g.a, "b": g.b, "theta": g.theta})


# --- handlers: zeta ------------------------------------------------------------------


def _cmd_zeta_eval(args) -> int:
    pt = zeta(complex(_arg(args, "re", 0.5), _arg(args, "im", 0.0)))
    rec = {"s_re": pt.s.real, "s_im": pt.s.imag, "value_re": pt.value.real,
           "value_im": pt.value.imag, "abs_err_bound": pt.abs_err_bound}
    return _emit(args, "zeta eval", record=rec)


def _cmd_zeta_zeros(args) -> int:
    zl = find_zeros(_arg(args, "tmax", 30.0), grid=_arg(args, "grid", 0.05))
    rows = [(i + 1, float(t)) for i, t in enumerate(zl.ordinates)]
    return _emit(args, "zeta zeros", columns=("index", "t_ordinate"),
                 rows=rows, default_format="csv")


def _cmd_zeta_paircorr(args) -> int:
    source = _arg(args, "source", "zeros")
    seed_used = None
    if source == "zeros":
        zl = find_zeros(_arg(args, "tmax", 500.0))
        positions = unfold(zl)
    elif source == "gue":
        seed_used = _seed(args)
        positions = gue_sample(int(_arg(args, "dim", 200)),
                               int(_arg(args, "trials", 50)), seed_used)
    else:
        raise ValueError(f"unknown source {source!r}; choose zeros or gue")
    pc = pair_correlation(positions, _arg(args, "max_sep", 3.0),
                          int(_arg(args, "bins", 30)))
    centers = 0.5 * (pc.bin_edges[:-1] + pc.bin_edges[1:])
    rows = [(float(c), float(e), float(r))
            for c, e, r in zip(centers, pc.empirical, pc.reference)]
    return _emit(args, "zeta paircorr",
                 columns=("bin_center", "empirical", "gue_reference"),
                 rows=rows, default_format="csv", seed_used=seed_used)


def _cmd_zeta_gue(args) -> int:
    seed_used = _seed(args)
    pos = gue_sample(int(_arg(args, "dim", 200)),
                     int(_arg(args, "trials", 10)), seed_used)
    rows = [(i + 1, float(p)) for i, p in enumerate(pos)]
    return _emit(args, "zeta gue", columns=("index", "position"), rows=rows,
                 default_format="csv", seed_used=seed_used)


def _cmd_zeta_universality(args) -> int:
    disc = Disc(center=complex(_arg(args, "center", 0.75), 0.0),
                radius=_arg(args, "radius", 0.05))
    rep = universality_scan(disc, None, _arg(args, "epsilon", 0.3),
                            _arg(args, "tmax", 100.0),
                            _arg(args, "tstep", 0.05))
    rows = [(float(t), float(e), int(e < rep.epsilon))
            for t, e in zip(rep.t_grid, rep.sup_errors)]
    return _emit(args, "zeta universality",
                 columns=("t", "sup_error", "hit"), rows=rows,
                 default_format="csv")


def _cmd_zeta_xi(args) -> int:
    s = complex(_arg(args, "re", 0.5), _arg(args, "im", 0.0))
    v = completed_xi(s)
    return _emit(args, "zeta xi", record={"s_re": s.real, "s_im": s.imag,
                                          "value_re": v.real,
                                          "value_im": v.imag})


def _cmd_zeta_spectral(args) -> int:
    lam = [float(x) for x in args.eigenvalues]
    s_re, s_im = _arg(args, "s_re", 2.0), _arg(args, "s_im", 0.0)
    if args.mellin:
        if s_im != 0.0:
            raise ValueError("the Mellin route needs a real s")
        v = heat_trace_mellin(lam, s_re)
        rec = {"s": s_re, "value": v, "route": "mellin"}
    else:
        v = spectral_zeta(lam, complex(s_re, s_im))
        rec = {"s_re": s_re, "s_im": s_im, "value_re": v.real,
               "value_im": v.imag, "route": "direct"}
    return _emit(args, "zeta spectral", record=rec)


# --- handlers: prime-exponent space ----------------------------------------------------


def _cmd_epr_factor(args) -> int:
    vec = factorize(args.n)
    rec = {"n": args.n, "factors": {str(p): r for p, r in vec.coords.items()}}
    return _emit(args, "epr factor", record=rec)


def _cmd_epr_lattice(args) -> int:
    join, meet = lcm_gcd(factorize(args.a), factorize(args.b))
    rec = {"a": args.a, "b": args.b, "join": to_int(join), "meet": to_int(meet)}
    return _emit(args, "epr lattice", record=rec)


def _cmd_epr_trace(args) -> int:
    s = complex(_arg(args, "s_re", 2.0), _arg(args, "s_im", 0.0))
    v = trace_exp(int(_arg(args, "nmax", 1000)), s)
    rec = {"n_max": int(_arg(args, "nmax", 1000)), "s_re": s.real,
           "s_im": s.imag, "value_re": v.real, "value_im": v.imag}
    return _emit(args, "epr trace", record=rec)


def _cmd_epr_pair(args) -> int:
    if args.invert is not None:
        if args.values:
            raise ValueError("--invert takes no positional values")
        i, j = unpair(args.invert)
        rec = {"k": args.invert, "i": i, "j": j}
    else:
        if len(args.values) != 2:
            raise ValueError("epr pair needs two integers (or --invert k)")
        i, j = args.values
        rec = {"i": i, "j": j, "k": pair(i, j)}
    return _emit(args, "epr pair", record=rec)


def _cmd_epr_fiber(args) -> int:
    base = Rectangle(_arg(args, "re_min", 0.5), _arg(args, "re_max", 1.0),
                     _arg(args, "im_min", 0.0), _arg(args, "im_max", 5.0))
    dom = fiber_copies(base, _arg(args, "tau", 7.0),
                       int(_arg(args, "copies", 3)))
    sheets = [[s.re_min, s.re_max, s.im_min, s.im_max] for s in dom.sheets()]
    rec = {"period": dom.period, "copies": dom.copies,
           "min_period": dom.min_period, "disjoint": dom.disjoint,
           "sheets": sheets}
    return _emit(args, "epr fiber", record=rec)


# --- handlers: loop gas -------------------------------------------------------------


def _cmd_loops_kernel(args) -> int:
    lat = _lattice_from_args(args)
    k = build_kernel(lat)
    sums = k.matrix.sum(axis=1)
    rec = {"n_sites": lat.n_sites, "delta": lat.delta, "eps": lat.eps,
           "stability": lat.stability, "row_sum_min": float(sums.min()),
           "row_sum_max": float(sums.max()),
           "symmetric": bool(np.array_equal(k.matrix, k.matrix.T))}
    return _emit(args, "loops kernel", record=rec)


def _cmd_loops_propagator(args) -> int:
    lat = _lattice_from_args(args)
    k = build_kernel(lat)
    x0 = _site_of(lat, _arg(args, "x0", 0.0))
    n = int(_arg(args, "steps", 100))
    xs = lat.sites()
    v = np.zeros(lat.n_sites)
    v[x0] = 1.0
    rows = []
    for step, v in enumerate(_evolve(k.matrix, v, n), start=1):
        if args.all_steps or step == n:
            t = step * lat.eps
            rows.extend((float(t), float(x), float(q / lat.delta))
                        for x, q in zip(xs, v))
    return _emit(args, "loops propagator", columns=("t", "x", "value"),
                 rows=rows, default_format="csv")


def _cmd_loops_sample(args) -> int:
    lat = _lattice_from_args(args)
    seed_used = _seed(args)
    mode = _arg(args, "mode", "loop")
    n_paths = int(_arg(args, "paths", 10000))
    n_steps = int(_arg(args, "steps", 100))
    start = _site_of(lat, _arg(args, "x0", 0.0))
    if mode == "loop":
        est, se = mc_propagator(lat, start, start, n_steps, n_paths, seed_used)
        ref = propagator(build_kernel(lat), start, start, n_steps)
        rec = {"mode": mode, "n_paths": n_paths, "n_steps": n_steps,
               "x0_site": start, "estimate": est, "std_error": se,
               "transfer_value": ref}
    else:
        ens = sample_paths(lat, n_paths, n_steps, seed_used, mode="open",
                           start_site=start)
        xs = lat.sites()
        dx = xs[ens.paths[:, -1]] - xs[ens.paths[:, 0]]
        rec = {"mode": mode, "n_paths": n_paths, "n_steps": n_steps,
               "x0_site": start, "sample_variance": float(np.var(dx)),
               "expected_2dt": lat.hbar * n_steps * lat.eps / lat.mass,
               "mean_weight": float(np.mean(ens.weights))}
    return _emit(args, "loops sample", record=rec, seed_used=seed_used)


def _cmd_loops_entropy(args) -> int:
    lat = _lattice_from_args(args)
    k = build_kernel(lat)
    n = int(_arg(args, "steps", 100))
    lam = np.linalg.eigvalsh(k.matrix)
    rows = []
    for step in range(1, n + 1):
        z = float(np.sum(lam ** step))
        if not z > 0.0:
            raise ArithmeticError(f"loop partition {z} is not positive")
        rows.append((float(step * lat.eps), float(math.log(z))))
    return _emit(args, "loops entropy", columns=("t", "s_path"), rows=rows,
                 default_format="csv")


def _cmd_loops_fluct(args) -> int:
    beta = _arg(args, "beta", 1.0)
    mass = _arg(args, "mass", 1.0)
    hbar = _arg(args, "hbar", 1.0)
    dt = _arg(args, "dt", beta * hbar / 2.0)
    rec = {"beta": beta, "dt": dt,
           "dx2": fluctuation_bound(beta, dt, mass, hbar),
           "thermal_time": thermal_time(beta, hbar)}
    return _emit(args, "loops fluct", record=rec)


def _cmd_loops_forwardbackward(args) -> int:
    lat = _lattice_from_args(args)
    k = build_kernel(lat)
    xs = lat.sites()
    n = int(_arg(args, "steps", 50))
    phi0 = np.exp(-(xs - _arg(args, "phi0_center", 0.0)) ** 2
                  / _arg(args, "phi0_width", 1.0) ** 2)
    phi1 = np.exp(-(xs - _arg(args, "phi1_center", 0.0)) ** 2
                  / _arg(args, "phi1_width", 1.0) ** 2)
    _, _, rhos = forward_backward(k, phi0, phi1, n)
    rows = []
    for step in range(n + 1):
        t = step * lat.eps
        rows.extend((float(t), float(x), float(r))
                    for x, r in zip(xs, rhos[step]))
    return _emit(args, "loops forwardbackward", columns=("t", "x", "value"),
                 rows=rows, default_format="csv")


# --- handlers: applied surface --------------------------------------------------------


def _cmd_fit(args) -> int:
    spec = load_spectrum(args.input)
    init = None
    if args.init_alpha is not None:
        init = ColeColeModel(alpha=args.init_alpha,
                             tau=_arg(args, "init_tau", 1e-3),
                             r_ct=_arg(args, "init_rct", 50.0),
                             r_s=_arg(args, "init_rs", 1.0))
    res = fit_cole_cole(spec, init=init)
    rec = {"alpha": res.model.alpha, "tau_s": res.model.tau,
           "r_ct_ohm": res.model.r_ct, "r_s_ohm": res.model.r_s,
           "loss": res.loss, "converged": res.converged,
           "n_iter": res.n_iter}
    return _emit(args, "fit", record=rec)


def _cmd_synth(args) -> int:
    model = _model_from_args(args)
    freq = np.logspace(math.log10(_arg(args, "fmin", 1.0)),
                       math.log10(_arg(args, "fmax", 1e5)),
                       int(_arg(args, "points", 60)))
    seed_used = _seed(args)
    spec = synth_spectrum(model, 2.0 * math.pi * freq,
                          _arg(args, "noise", 0.0), seed_used)
    if args.out:
        save_spectrum(spec, args.out)
        rec = {"written": args.out, "n_points": len(spec.points)}
        out_args = argparse.Namespace(out=None, format="json",
                                      no_timestamp=args.no_timestamp)
        return _emit(out_args, "synth", record=rec, seed_used=seed_used)
    rows = [(w / (2.0 * math.pi), z.real, z.imag) for w, z in spec.points]
    return _emit(args, "synth", columns=("freq_hz", "re_z_ohm", "im_z_ohm"),
                 rows=rows, default_format="csv", seed_used=seed_used)


# --- parser ---------------------------------------------------------------------------


def _common() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed for stochastic subcommands (default 0)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--config", default=None,
                   help="key = value file supplying flag defaults")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field from outputs")
    p.add_argument("--threads", type=int, default=None,
                   help="library parallelism (default 1; results identical)")
    return p


def _lattice_flags(p) -> None:
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--potential", choices=("free", "harmonic"), default=None)
    p.add_argument("--boundary", choices=("periodic", "reflecting"),
                   default=None)


def build_parser() -> argparse.ArgumentParser:
    common = _common()
    parser = argparse.ArgumentParser(
        prog="fraczeta",
        description="Desk-scale laboratory for fractional relaxation, "
                    "zeta statistics, prime-exponent geometry, and lattice "
                    "loop dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("impedance", parents=[common],
                       help="tabulate a Cole-Cole impedance curve")
    for flag in ("--alpha", "--tau", "--rct", "--rs", "--wmin", "--wmax"):
        p.add_argument(flag, type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.set_defaults(func=_cmd_impedance)

    p = sub.add_parser("arc", parents=[common],
                       help="circle-fit an impedance locus")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_arc)

    p = sub.add_parser("ml", parents=[common],
                       help="evaluate the one-parameter relaxation function")
    p.add_argument("z", type=float)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=_cmd_ml)

    p = sub.add_parser("fracderiv", parents=[common],
                       help="Grunwald-Letnikov fractional derivative")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--input", default=None, help="CSV with header t,f")
    p.add_argument("--fn", default=None, choices=("sqrt", "one"))
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_fracderiv)

    p = sub.add_parser("phase", parents=[common],
                       help="phi/delta split of the quarter-circle phase")
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("twist", parents=[common],
                       help="compose two twisted shifts")
    for name, typ in (("a1", int), ("b1", int), ("theta1", float),
                      ("a2", int), ("b2", int), ("theta2", float)):
        p.add_argument(name, type=typ)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=_cmd_twist)

    pz = sub.add_parser("zeta", help="zeta evaluation and zero statistics")
    zsub = pz.add_subparsers(dest="zeta_command", required=True)
    p = zsub.add_parser("eval", parents=[common])
    p.add_argument("--re", type=float, default=None)
    p.add_argument("--im", type=float, default=None)
    p.set_defaults(func=_cmd_zeta_eval)
    p = zsub.add_parser("zeros", parents=[common])
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--grid", type=float, default=None)
    p.set_defaults(func=_cmd_zeta_zeros)
    p = zsub.add_parser("paircorr", parents=[common])
    p.add_argument("--source", choices=("zeros", "gue"), default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--max-sep", dest="max_sep", type=float, default=None)
    p.add_argument("--bins", type=int, default=None)
    p.set_defaults(func=_cmd_zeta_paircorr)
    p = zsub.add_parser("gue", parents=[common])
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_zeta_gue)
    p = zsub.add_parser("universality", parents=[common])
    p.add_argument("--center", type=float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--tstep", type=float, default=None)
    p.set_defaults(func=_cmd_zeta_universality)
    p = zsub.add_parser("xi", parents=[common])
    p.add_argument("--re", type=float, default=None)
    p.add_argument("--im", type=float, default=None)
    p.set_defaults(func=_cmd_zeta_xi)
    p = zsub.add_parser("spectral", parents=[common])
    p.add_argument("--eigenvalues", type=float, nargs="+", required=True)
    p.add_argument("--s-re", dest="s_re", type=float, default=None)
    p.add_argument("--s-im", dest="s_im", type=float, default=None)
    p.add_argument("--mellin", action="store_true")
    p.set_defaults(func=_cmd_zeta_spectral)

    pe = sub.add_parser("epr", help="prime-exponent space operations")
    esub = pe.add_subparsers(dest="epr_command", required=True)
    p = esub.add_parser("factor", parents=[common])
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_epr_factor)
    p = esub.add_parser("lattice", parents=[common])
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=_cmd_epr_lattice)
    p = esub.add_parser("trace", parents=[common])
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--s-re", dest="s_re", type=float, default=None)
    p.add_argument("--s-im", dest="s_im", type=float, default=None)
    p.set_defaults(func=_cmd_epr_trace)
    p = esub.add_parser("pair", parents=[common])
    p.add_argument("values", type=int, nargs="*")
    p.add_argument("--invert", type=int, default=None)
    p.set_defaults(func=_cmd_epr_pair)
    p = esub.add_parser("fiber", parents=[common])
    for flag in ("--re-min", "--re-max", "--im-min", "--im-max", "--tau"):
        p.add_argument(flag, dest=flag[2:].replace("-", "_"), type=float,
                       default=None)
    p.add_argument("--copies", type=int, default=None)
    p.set_defaults(func=_cmd_epr_fiber)

    pl = sub.add_parser("loops", help="lattice loop-gas operations")
    lsub = pl.add_subparsers(dest="loops_command", required=True)
    p = lsub.add_parser("kernel", parents=[common])
    _lattice_flags(p)
    p.set_defaults(func=_cmd_loops_kernel)
    p = lsub.add_parser("propagator", parents=[common])
    _lattice_flags(p)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--all-steps", dest="all_steps", action="store_true")
    p.set_defaults(func=_cmd_loops_propagator)
    p = lsub.add_parser("sample", parents=[common])
    _lattice_flags(p)
    p.add_argument("--mode", choices=("open", "loop"), default=None)
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--x0", type=float, default=None)
    p.set_defaults(func=_cmd_loops_sample)
    p = lsub.add_parser("entropy", parents=[common])
    _lattice_flags(p)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=_cmd_loops_entropy)
    p = lsub.add_parser("fluct", parents=[common])
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.set_defaults(func=_cmd_loops_fluct)
    p = lsub.add_parser("forwardbackward", parents=[common])
    _lattice_flags(p)
    p.add_argument("--steps", type=int, default=None)
    for flag in ("--phi0-center", "--phi0-width", "--phi1-center",
                 "--phi1-width"):
        p.add_argument(flag, dest=flag[2:].replace("-", "_"), type=float,
                       default=None)
    p.set_defaults(func=_cmd_loops_forwardbackward)

    p = sub.add_parser("fit", parents=[common],
                       help="fit the Cole-Cole model to a spectrum file")
    p.add_argument("--input", required=True)
    p.add_argument("--init-alpha", dest="init_alpha", type=float, default=None)
    p.add_argument("--init-tau", dest="init_tau", type=float, default=None)
    p.add_argument("--init-rct", dest="init_rct", type=float, default=None)
    p.add_argument("--init-rs", dest="init_rs", type=float, default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic spectrum file")
    for flag in ("--alpha", "--tau", "--rct", "--rs", "--fmin", "--fmax",
                 "--noise"):
        p.add_argument(flag, type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.set_defaults(func=_cmd_synth)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.config:
            _apply_config(args, _load_config(args.config))
        if args.threads is not None and args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except (ValueError, TypeError, ArithmeticError, RuntimeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
