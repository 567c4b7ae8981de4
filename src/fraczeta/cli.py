"""Batch command-line front door for the laboratory.

One subcommand per capability, uniform conventions everywhere: results
go to --out (or stdout) as CSV tables or compact JSON records, floats
are printed as shortest round-trip decimals, stochastic runs record
their seed, and a --config file of key = value lines supplies defaults
that explicit flags override.  Each flag's type, choices and default are
declared once, in the parser; a config value goes through the same type
and choices as the flag, and keys a subcommand has no flag for are
ignored, so one file can serve every subcommand.  Exit codes: 0 success,
1 domain or runtime error, 2 usage error.
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
from .loopgas import (build_kernel, fluctuation_bound, forward_backward,
                      make_lattice, mc_propagator, path_entropies, propagator,
                      propagator_slices, sample_paths, thermal_time)
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
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _config_defaults(leaf, path) -> dict:
    """Defaults from a config file for the leaf parser's optional one-value
    flags, each converted and checked as the same value given as that flag
    would be (a bad one is a usage error); other keys are ignored."""
    config = _load_config(path)
    out = {}
    for action in leaf._actions:
        key = action.dest
        if (key not in config or not action.option_strings
                or action.nargs is not None or action.required):
            continue
        raw = config[key]
        try:
            value = action.type(raw) if action.type else raw
        except ValueError:
            leaf.error(f"config key {key}: invalid "
                       f"{action.type.__name__} value: {raw!r}")
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            leaf.error(f"config key {key}: invalid choice: {raw!r} "
                       f"(choose from {choices})")
        out[key] = value
    return out


# --- lattice helpers ---------------------------------------------------------------


_POTENTIALS = {"free": None, "harmonic": lambda x: 0.5 * x * x}


def _lattice_from_args(args):
    return make_lattice(args.xmin, args.xmax, args.sites, args.eps,
                        mass=args.mass, hbar=args.hbar,
                        potential=_POTENTIALS[args.potential],
                        boundary=args.boundary)


def _site_of(lattice, x: float) -> int:
    j = int(round((x - lattice.x_min) / lattice.delta))
    if not (0 <= j < lattice.n_sites):
        raise ValueError(f"position {x} outside the lattice window")
    return j


# --- handlers: fractional dynamics ---------------------------------------------------


def _model_from_args(args) -> ColeColeModel:
    return ColeColeModel(alpha=args.alpha, tau=args.tau, r_ct=args.rct,
                         r_s=args.rs)


def _cmd_impedance(args) -> int:
    model = _model_from_args(args)
    w = np.logspace(math.log10(args.wmin), math.log10(args.wmax),
                    args.points)
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
    val = complex(mittag_leffler(args.alpha, args.z))
    rec = {"alpha": args.alpha, "z": args.z, "value": val.real}
    if val.imag != 0.0:
        rec["value_im"] = val.imag
    return _emit(args, "ml", record=rec)


def _cmd_fracderiv(args) -> int:
    if args.input:
        t, f = _read_two_columns(args.input, ("t", "f"))
        h = float(t[1] - t[0])
        if t.size < 2 or np.max(np.abs(np.diff(t) - h)) > 1e-9 * max(h, 1.0):
            raise ValueError(f"{args.input}: t column must be uniformly spaced")
    else:
        t = np.linspace(0.0, args.t_max, args.n)
        h = float(t[1] - t[0])
        f = np.sqrt(t) if args.fn == "sqrt" else np.ones_like(t)
    d = gl_fracderiv(f, args.alpha, h)
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
    pp = phase_angles(args.alpha)
    return _emit(args, "phase", record={"alpha": args.alpha, "phi": pp.phi,
                                        "delta": pp.delta})


def _cmd_twist(args) -> int:
    g = twisted_compose(TwistedShift(args.a1, args.b1, args.theta1),
                        TwistedShift(args.a2, args.b2, args.theta2),
                        args.delta)
    return _emit(args, "twist", record={"a": g.a, "b": g.b, "theta": g.theta})


# --- handlers: zeta ------------------------------------------------------------------


def _cmd_zeta_eval(args) -> int:
    pt = zeta(complex(args.re, args.im))
    rec = {"s_re": pt.s.real, "s_im": pt.s.imag, "value_re": pt.value.real,
           "value_im": pt.value.imag, "abs_err_bound": pt.abs_err_bound}
    return _emit(args, "zeta eval", record=rec)


def _cmd_zeta_zeros(args) -> int:
    zl = find_zeros(args.tmax, grid=args.grid)
    rows = [(i + 1, float(t)) for i, t in enumerate(zl.ordinates)]
    return _emit(args, "zeta zeros", columns=("index", "t_ordinate"),
                 rows=rows, default_format="csv")


def _cmd_zeta_paircorr(args) -> int:
    gue = args.source == "gue"
    positions = (gue_sample(args.dim, args.trials, args.seed) if gue
                 else unfold(find_zeros(args.tmax)))
    pc = pair_correlation(positions, args.max_sep, args.bins)
    centers = 0.5 * (pc.bin_edges[:-1] + pc.bin_edges[1:])
    rows = [(float(c), float(e), float(r))
            for c, e, r in zip(centers, pc.empirical, pc.reference)]
    return _emit(args, "zeta paircorr",
                 columns=("bin_center", "empirical", "gue_reference"),
                 rows=rows, default_format="csv",
                 seed_used=args.seed if gue else None)


def _cmd_zeta_gue(args) -> int:
    pos = gue_sample(args.dim, args.trials, args.seed)
    rows = [(i + 1, float(p)) for i, p in enumerate(pos)]
    return _emit(args, "zeta gue", columns=("index", "position"), rows=rows,
                 default_format="csv", seed_used=args.seed)


def _cmd_zeta_universality(args) -> int:
    disc = Disc(center=complex(args.center, 0.0), radius=args.radius)
    rep = universality_scan(disc, None, args.epsilon, args.tmax, args.tstep)
    rows = [(float(t), float(e), int(e < rep.epsilon))
            for t, e in zip(rep.t_grid, rep.sup_errors)]
    return _emit(args, "zeta universality",
                 columns=("t", "sup_error", "hit"), rows=rows,
                 default_format="csv")


def _cmd_zeta_xi(args) -> int:
    s = complex(args.re, args.im)
    v = completed_xi(s)
    return _emit(args, "zeta xi", record={"s_re": s.real, "s_im": s.imag,
                                          "value_re": v.real,
                                          "value_im": v.imag})


def _cmd_zeta_spectral(args) -> int:
    lam = [float(x) for x in args.eigenvalues]
    s_re, s_im = args.s_re, args.s_im
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
    s = complex(args.s_re, args.s_im)
    v = trace_exp(args.nmax, s)
    rec = {"n_max": args.nmax, "s_re": s.real, "s_im": s.imag,
           "value_re": v.real, "value_im": v.imag}
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
    base = Rectangle(args.re_min, args.re_max, args.im_min, args.im_max)
    dom = fiber_copies(base, args.tau, args.copies)
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
    xs = lat.sites()
    rows = []
    slices = propagator_slices(build_kernel(lat), _site_of(lat, args.x0),
                               args.steps)
    for step, q in enumerate(slices, start=1):
        if args.all_steps or step == args.steps:
            t = step * lat.eps
            rows.extend((float(t), float(x), float(qx))
                        for x, qx in zip(xs, q))
    return _emit(args, "loops propagator", columns=("t", "x", "value"),
                 rows=rows, default_format="csv")


def _cmd_loops_sample(args) -> int:
    lat = _lattice_from_args(args)
    start = _site_of(lat, args.x0)
    rec = {"mode": args.mode, "n_paths": args.paths, "n_steps": args.steps,
           "x0_site": start}
    if args.mode == "loop":
        est, se = mc_propagator(lat, start, start, args.steps, args.paths,
                                args.seed)
        rec.update(estimate=est, std_error=se, transfer_value=propagator(
            build_kernel(lat), start, start, args.steps))
    else:
        ens = sample_paths(lat, args.paths, args.steps, args.seed,
                           mode="open", start_site=start)
        xs = lat.sites()
        dx = xs[ens.paths[:, -1]] - xs[ens.paths[:, 0]]
        rec.update(sample_variance=float(np.var(dx)),
                   expected_2dt=lat.hbar * args.steps * lat.eps / lat.mass,
                   mean_weight=float(np.mean(ens.weights)))
    return _emit(args, "loops sample", record=rec, seed_used=args.seed)


def _cmd_loops_entropy(args) -> int:
    lat = _lattice_from_args(args)
    s_path = path_entropies(build_kernel(lat), args.steps)
    rows = [(float(step * lat.eps), float(s))
            for step, s in enumerate(s_path, start=1)]
    return _emit(args, "loops entropy", columns=("t", "s_path"), rows=rows,
                 default_format="csv")


def _cmd_loops_fluct(args) -> int:
    beta, hbar = args.beta, args.hbar
    dt = beta * hbar / 2.0 if args.dt is None else args.dt
    rec = {"beta": beta, "dt": dt,
           "dx2": fluctuation_bound(beta, dt, args.mass, hbar),
           "thermal_time": thermal_time(beta, hbar)}
    return _emit(args, "loops fluct", record=rec)


def _cmd_loops_forwardbackward(args) -> int:
    lat = _lattice_from_args(args)
    xs = lat.sites()
    phi0 = np.exp(-(xs - args.phi0_center) ** 2 / args.phi0_width ** 2)
    phi1 = np.exp(-(xs - args.phi1_center) ** 2 / args.phi1_width ** 2)
    _, _, rhos = forward_backward(build_kernel(lat), phi0, phi1, args.steps)
    rows = []
    for step in range(args.steps + 1):
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
        init = ColeColeModel(alpha=args.init_alpha, tau=args.init_tau,
                             r_ct=args.init_rct, r_s=args.init_rs)
    res = fit_cole_cole(spec, init=init)
    rec = {"alpha": res.model.alpha, "tau_s": res.model.tau,
           "r_ct_ohm": res.model.r_ct, "r_s_ohm": res.model.r_s,
           "loss": res.loss, "converged": res.converged,
           "n_iter": res.n_iter}
    return _emit(args, "fit", record=rec)


def _cmd_synth(args) -> int:
    model = _model_from_args(args)
    freq = np.logspace(math.log10(args.fmin), math.log10(args.fmax),
                       args.points)
    spec = synth_spectrum(model, 2.0 * math.pi * freq, args.noise, args.seed)
    if args.out:
        save_spectrum(spec, args.out)
        rec = {"written": args.out, "n_points": len(spec.points)}
        out_args = argparse.Namespace(out=None, format="json",
                                      no_timestamp=args.no_timestamp)
        return _emit(out_args, "synth", record=rec, seed_used=args.seed)
    rows = [(w / (2.0 * math.pi), z.real, z.imag) for w, z in spec.points]
    return _emit(args, "synth", columns=("freq_hz", "re_z_ohm", "im_z_ohm"),
                 rows=rows, default_format="csv", seed_used=args.seed)


# --- parser ---------------------------------------------------------------------------


def _common() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for stochastic subcommands "
                        "(default %(default)s)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--config", default=None,
                   help="key = value file supplying flag defaults")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field from outputs")
    return p


def _lattice_flags(p) -> None:
    for flag, default in (("--xmin", -8.0), ("--xmax", 8.0), ("--eps", 0.01),
                          ("--mass", 1.0), ("--hbar", 1.0)):
        p.add_argument(flag, type=float, default=default)
    p.add_argument("--sites", type=int, default=161)
    p.add_argument("--potential", choices=tuple(_POTENTIALS), default="free")
    p.add_argument("--boundary", choices=("periodic", "reflecting"),
                   default="periodic")


def _model_flags(p) -> None:
    for flag, default in (("--alpha", 0.8), ("--tau", 1e-3), ("--rct", 50.0),
                          ("--rs", 5.0)):
        p.add_argument(flag, type=float, default=default)


def build_parser() -> argparse.ArgumentParser:
    common = _common()
    parser = argparse.ArgumentParser(
        prog="fraczeta",
        description="Desk-scale laboratory for fractional relaxation, "
                    "zeta statistics, prime-exponent geometry, and lattice "
                    "loop dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, func, **kw):
        p = group.add_parser(name, parents=[common], **kw)
        p.set_defaults(func=func, leaf=p)
        return p

    p = leaf(sub, "impedance", _cmd_impedance,
             help="tabulate a Cole-Cole impedance curve")
    _model_flags(p)
    p.add_argument("--wmin", type=float, default=1.0)
    p.add_argument("--wmax", type=float, default=1e5)
    p.add_argument("--points", type=int, default=50)

    p = leaf(sub, "arc", _cmd_arc, help="circle-fit an impedance locus")
    p.add_argument("--input", required=True)

    p = leaf(sub, "ml", _cmd_ml,
             help="evaluate the one-parameter relaxation function")
    p.add_argument("z", type=float)
    p.add_argument("--alpha", type=float, default=0.8)

    p = leaf(sub, "fracderiv", _cmd_fracderiv,
             help="Grunwald-Letnikov fractional derivative")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--input", default=None, help="CSV with header t,f")
    p.add_argument("--fn", choices=("sqrt", "one"), default="sqrt")
    p.add_argument("--t-max", dest="t_max", type=float, default=1.0)
    p.add_argument("--n", type=int, default=256)

    p = leaf(sub, "phase", _cmd_phase,
             help="phi/delta split of the quarter-circle phase")
    p.add_argument("--alpha", type=float, default=0.8)

    p = leaf(sub, "twist", _cmd_twist, help="compose two twisted shifts")
    for name, typ in (("a1", int), ("b1", int), ("theta1", float),
                      ("a2", int), ("b2", int), ("theta2", float)):
        p.add_argument(name, type=typ)
    p.add_argument("--delta", type=float, required=True)

    pz = sub.add_parser("zeta", help="zeta evaluation and zero statistics")
    zsub = pz.add_subparsers(dest="zeta_command", required=True)
    p = leaf(zsub, "eval", _cmd_zeta_eval)
    p.add_argument("--re", type=float, default=0.5)
    p.add_argument("--im", type=float, default=0.0)
    p = leaf(zsub, "zeros", _cmd_zeta_zeros)
    p.add_argument("--tmax", type=float, default=30.0)
    p.add_argument("--grid", type=float, default=0.05)
    p = leaf(zsub, "paircorr", _cmd_zeta_paircorr)
    p.add_argument("--source", choices=("zeros", "gue"), default="zeros")
    p.add_argument("--tmax", type=float, default=500.0)
    p.add_argument("--dim", type=int, default=200)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-sep", dest="max_sep", type=float, default=3.0)
    p.add_argument("--bins", type=int, default=30)
    p = leaf(zsub, "gue", _cmd_zeta_gue)
    p.add_argument("--dim", type=int, default=200)
    p.add_argument("--trials", type=int, default=10)
    p = leaf(zsub, "universality", _cmd_zeta_universality)
    for flag, default in (("--center", 0.75), ("--radius", 0.05),
                          ("--epsilon", 0.3), ("--tmax", 100.0),
                          ("--tstep", 0.05)):
        p.add_argument(flag, type=float, default=default)
    p = leaf(zsub, "xi", _cmd_zeta_xi)
    p.add_argument("--re", type=float, default=0.5)
    p.add_argument("--im", type=float, default=0.0)
    p = leaf(zsub, "spectral", _cmd_zeta_spectral)
    p.add_argument("--eigenvalues", type=float, nargs="+", required=True)
    p.add_argument("--s-re", dest="s_re", type=float, default=2.0)
    p.add_argument("--s-im", dest="s_im", type=float, default=0.0)
    p.add_argument("--mellin", action="store_true")

    pe = sub.add_parser("epr", help="prime-exponent space operations")
    esub = pe.add_subparsers(dest="epr_command", required=True)
    p = leaf(esub, "factor", _cmd_epr_factor)
    p.add_argument("n", type=int)
    p = leaf(esub, "lattice", _cmd_epr_lattice)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p = leaf(esub, "trace", _cmd_epr_trace)
    p.add_argument("--nmax", type=int, default=1000)
    p.add_argument("--s-re", dest="s_re", type=float, default=2.0)
    p.add_argument("--s-im", dest="s_im", type=float, default=0.0)
    p = leaf(esub, "pair", _cmd_epr_pair)
    p.add_argument("values", type=int, nargs="*")
    p.add_argument("--invert", type=int, default=None)
    p = leaf(esub, "fiber", _cmd_epr_fiber)
    for flag, default in (("--re-min", 0.5), ("--re-max", 1.0),
                          ("--im-min", 0.0), ("--im-max", 5.0),
                          ("--tau", 7.0)):
        p.add_argument(flag, dest=flag[2:].replace("-", "_"), type=float,
                       default=default)
    p.add_argument("--copies", type=int, default=3)

    pl = sub.add_parser("loops", help="lattice loop-gas operations")
    lsub = pl.add_subparsers(dest="loops_command", required=True)
    p = leaf(lsub, "kernel", _cmd_loops_kernel)
    _lattice_flags(p)
    p = leaf(lsub, "propagator", _cmd_loops_propagator)
    _lattice_flags(p)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--all-steps", dest="all_steps", action="store_true")
    p = leaf(lsub, "sample", _cmd_loops_sample)
    _lattice_flags(p)
    p.add_argument("--mode", choices=("open", "loop"), default="loop")
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--x0", type=float, default=0.0)
    p = leaf(lsub, "entropy", _cmd_loops_entropy)
    _lattice_flags(p)
    p.add_argument("--steps", type=int, default=100)
    p = leaf(lsub, "fluct", _cmd_loops_fluct)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=None)  # beta * hbar / 2
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p = leaf(lsub, "forwardbackward", _cmd_loops_forwardbackward)
    _lattice_flags(p)
    p.add_argument("--steps", type=int, default=50)
    for flag, default in (("--phi0-center", 0.0), ("--phi0-width", 1.0),
                          ("--phi1-center", 0.0), ("--phi1-width", 1.0)):
        p.add_argument(flag, dest=flag[2:].replace("-", "_"), type=float,
                       default=default)

    p = leaf(sub, "fit", _cmd_fit,
             help="fit the Cole-Cole model to a spectrum file")
    p.add_argument("--input", required=True)
    p.add_argument("--init-alpha", dest="init_alpha", type=float, default=None)
    p.add_argument("--init-tau", dest="init_tau", type=float, default=1e-3)
    p.add_argument("--init-rct", dest="init_rct", type=float, default=50.0)
    p.add_argument("--init-rs", dest="init_rs", type=float, default=1.0)

    p = leaf(sub, "synth", _cmd_synth,
             help="generate a synthetic spectrum file")
    _model_flags(p)
    p.add_argument("--fmin", type=float, default=1.0)
    p.add_argument("--fmax", type=float, default=1e5)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--points", type=int, default=60)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the subcommand's defaults; parsing the
            # command line again lets explicit flags win
            args.leaf.set_defaults(**_config_defaults(args.leaf, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except (ValueError, TypeError, ArithmeticError, RuntimeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
