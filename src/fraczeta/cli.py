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
import csv
import io
import itertools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .eprspace import (Rectangle, factorize, fiber_copies, lcm_gcd, pair,
                       to_int, trace_exp, unpair)
from .fitkit import (fit_cole_cole, load_spectrum, read_table, save_spectrum,
                     synth_spectrum)
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
    if isinstance(v, (dict, list)):
        return json.dumps(v, separators=(",", ":"))
    return str(v)


def _emit(args, *, record=None, table=None, seed_used=None) -> int:
    """Write one record (a dict) or one table (a dict of equal-length
    columns) as CSV, RFC 4180 quoted under '#' metadata lines, or as one
    JSON object.  Without --format a table is CSV and a record JSON; a
    record in CSV is the two-column table key,value."""
    meta = {} if seed_used is None else {"seed": int(seed_used)}
    if not args.no_timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    if table is not None:
        columns = list(table)
        rows = [[_py(v) for v in row]
                for row in zip(*table.values(), strict=True)]
    if (args.format or ("json" if record is not None else "csv")) == "csv":
        if record is not None:
            columns, rows = ("key", "value"), record.items()
        buf = io.StringIO()
        buf.write(f"# command: {args.leaf.prog}\n")
        buf.writelines(f"# {k}: {v}\n" for k, v in meta.items())
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)
        text = buf.getvalue()
    else:
        obj = record if record is not None else {"columns": columns,
                                                 "rows": rows}
        text = json.dumps({**obj, **meta}, separators=(",", ":"),
                          default=_py) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


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
    if not math.isfinite(x):
        raise ValueError(f"position must be finite, got {x}")
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
    return _emit(args, table={"omega_rad_s": w, "re_z_ohm": z.real,
                              "im_z_ohm": z.imag})


def _cmd_arc(args) -> int:
    spec = load_spectrum(args.input)
    fit = arc_fit(spec.z())
    rec = {"center_re_ohm": fit.center.real, "center_im_ohm": fit.center.imag,
           "radius_ohm": fit.radius,
           "depression_angle_rad": fit.depression_angle,
           "alpha_implied": fit.alpha_implied,
           "rms_residual_ohm": fit.rms_residual}
    return _emit(args, record=rec)


def _cmd_ml(args) -> int:
    return _emit(args, record={"alpha": args.alpha, "z": args.z,
                               "value": mittag_leffler(args.alpha, args.z).real})


def _cmd_fracderiv(args) -> int:
    if args.input:
        t, f = read_table(args.input, "t,f").T
    else:
        t = np.linspace(0.0, args.t_max, args.n)
        f = np.sqrt(t) if args.fn == "sqrt" else np.ones_like(t)
    if t.size < 2:
        raise ValueError(f"need >= 2 grid points, got {t.size}")
    h = float(t[1] - t[0])
    if args.input and np.max(np.abs(np.diff(t) - h)) > 1e-9 * max(h, 1.0):
        raise ValueError(f"{args.input}: t column must be uniformly spaced")
    return _emit(args, table={"t": t, "value": gl_fracderiv(f, args.alpha, h)})


def _cmd_phase(args) -> int:
    pp = phase_angles(args.alpha)
    return _emit(args, record={"alpha": args.alpha, "phi": pp.phi,
                               "delta": pp.delta})


def _cmd_twist(args) -> int:
    g = twisted_compose(TwistedShift(args.a1, args.b1, args.theta1),
                        TwistedShift(args.a2, args.b2, args.theta2),
                        args.delta)
    return _emit(args, record={"a": g.a, "b": g.b, "theta": g.theta})


# --- handlers: zeta ------------------------------------------------------------------


def _cmd_zeta_eval(args) -> int:
    pt = zeta(complex(args.re, args.im))
    rec = {"s_re": pt.s.real, "s_im": pt.s.imag, "value_re": pt.value.real,
           "value_im": pt.value.imag, "abs_err_bound": pt.abs_err_bound}
    return _emit(args, record=rec)


def _cmd_zeta_zeros(args) -> int:
    t = find_zeros(args.tmax, grid=args.grid).ordinates
    return _emit(args, table={"index": range(1, len(t) + 1), "t_ordinate": t})


def _cmd_zeta_paircorr(args) -> int:
    gue = args.source == "gue"
    positions = (gue_sample(args.dim, args.trials, args.seed) if gue
                 else unfold(find_zeros(args.tmax)))
    pc = pair_correlation(positions, args.max_sep, args.bins)
    centers = 0.5 * (pc.bin_edges[:-1] + pc.bin_edges[1:])
    return _emit(args, table={"bin_center": centers, "empirical": pc.empirical,
                              "gue_reference": pc.reference},
                 seed_used=args.seed if gue else None)


def _cmd_zeta_gue(args) -> int:
    pos = gue_sample(args.dim, args.trials, args.seed)
    return _emit(args, table={"index": range(1, pos.size + 1), "position": pos},
                 seed_used=args.seed)


def _cmd_zeta_universality(args) -> int:
    disc = Disc(center=complex(args.center, 0.0), radius=args.radius)
    rep = universality_scan(disc, None, args.epsilon, args.tmax, args.tstep)
    return _emit(args, table={"t": rep.t_grid, "sup_error": rep.sup_errors,
                              "hit": (rep.sup_errors < rep.epsilon).astype(int)})


def _cmd_zeta_xi(args) -> int:
    s = complex(args.re, args.im)
    v = completed_xi(s)
    return _emit(args, record={"s_re": s.real, "s_im": s.imag,
                               "value_re": v.real, "value_im": v.imag})


def _cmd_zeta_spectral(args) -> int:
    lam, s_re, s_im = args.eigenvalues, args.s_re, args.s_im
    if args.mellin:
        if s_im != 0.0:
            raise ValueError("the Mellin route needs a real s")
        v = heat_trace_mellin(lam, s_re)
        rec = {"s": s_re, "value": v, "route": "mellin"}
    else:
        v = spectral_zeta(lam, complex(s_re, s_im))
        rec = {"s_re": s_re, "s_im": s_im, "value_re": v.real,
               "value_im": v.imag, "route": "direct"}
    return _emit(args, record=rec)


# --- handlers: prime-exponent space ----------------------------------------------------


def _cmd_epr_factor(args) -> int:
    vec = factorize(args.n)
    rec = {"n": args.n, "factors": {str(p): r for p, r in vec.coords.items()}}
    return _emit(args, record=rec)


def _cmd_epr_lattice(args) -> int:
    join, meet = lcm_gcd(factorize(args.a), factorize(args.b))
    rec = {"a": args.a, "b": args.b, "join": to_int(join), "meet": to_int(meet)}
    return _emit(args, record=rec)


def _cmd_epr_trace(args) -> int:
    s = complex(args.s_re, args.s_im)
    v = trace_exp(args.nmax, s)
    rec = {"n_max": args.nmax, "s_re": s.real, "s_im": s.imag,
           "value_re": v.real, "value_im": v.imag}
    return _emit(args, record=rec)


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
    return _emit(args, record=rec)


def _cmd_epr_fiber(args) -> int:
    base = Rectangle(args.re_min, args.re_max, args.im_min, args.im_max)
    dom = fiber_copies(base, args.tau, args.copies)
    sheets = [[s.re_min, s.re_max, s.im_min, s.im_max] for s in dom.sheets()]
    rec = {"period": dom.period, "copies": dom.copies,
           "min_period": dom.min_period, "disjoint": dom.disjoint,
           "sheets": sheets}
    return _emit(args, record=rec)


# --- handlers: loop gas -------------------------------------------------------------


def _cmd_loops_kernel(args) -> int:
    lat = _lattice_from_args(args)
    m = build_kernel(lat).matrix
    sums = m.sum(axis=1)
    rec = {"n_sites": lat.n_sites, "delta": lat.delta, "eps": lat.eps,
           "stability": lat.stability, "row_sum_min": sums.min(),
           "row_sum_max": sums.max(), "symmetric": np.array_equal(m, m.T)}
    return _emit(args, record=rec)


def _profile_table(lat, first_step: int, profiles) -> dict:
    """(t, x, value) columns of one site profile per step from first_step."""
    values = np.array(list(profiles))
    t = np.arange(first_step, first_step + len(values)) * lat.eps
    return {"t": np.repeat(t, lat.n_sites),
            "x": np.tile(lat.sites(), len(values)), "value": values.ravel()}


def _cmd_loops_propagator(args) -> int:
    lat = _lattice_from_args(args)
    slices = propagator_slices(build_kernel(lat), _site_of(lat, args.x0),
                               args.steps)
    first = 1 if args.all_steps else args.steps
    return _emit(args, table=_profile_table(
        lat, first, itertools.islice(slices, first - 1, None)))


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
        rec.update(sample_variance=np.var(dx),
                   expected_2dt=lat.hbar * args.steps * lat.eps / lat.mass,
                   mean_weight=np.mean(ens.weights))
    return _emit(args, record=rec, seed_used=args.seed)


def _cmd_loops_entropy(args) -> int:
    lat = _lattice_from_args(args)
    s_path = path_entropies(build_kernel(lat), args.steps)
    return _emit(args, table={"t": np.arange(1, s_path.size + 1) * lat.eps,
                              "s_path": s_path})


def _cmd_loops_fluct(args) -> int:
    beta, hbar = args.beta, args.hbar
    dt = beta * hbar / 2.0 if args.dt is None else args.dt
    rec = {"beta": beta, "dt": dt,
           "dx2": fluctuation_bound(beta, dt, args.mass, hbar),
           "thermal_time": thermal_time(beta, hbar)}
    return _emit(args, record=rec)


def _cmd_loops_forwardbackward(args) -> int:
    lat = _lattice_from_args(args)
    xs = lat.sites()
    phi0 = np.exp(-(xs - args.phi0_center) ** 2 / args.phi0_width ** 2)
    phi1 = np.exp(-(xs - args.phi1_center) ** 2 / args.phi1_width ** 2)
    _, _, rhos = forward_backward(build_kernel(lat), phi0, phi1, args.steps)
    return _emit(args, table=_profile_table(lat, 0, rhos))


# --- handlers: applied surface --------------------------------------------------------


def _cmd_fit(args) -> int:
    spec = load_spectrum(args.input)
    starts = {"tau": args.init_tau, "rct": args.init_rct, "rs": args.init_rs}
    init = None
    if args.init_alpha is not None:
        init = ColeColeModel(
            alpha=args.init_alpha,
            tau=1e-3 if args.init_tau is None else args.init_tau,
            r_ct=50.0 if args.init_rct is None else args.init_rct,
            r_s=1.0 if args.init_rs is None else args.init_rs)
    elif given := [k for k, v in starts.items() if v is not None]:
        raise ValueError(f"--init-{given[0]} is read only with --init-alpha")
    res = fit_cole_cole(spec, init=init)
    rec = {"alpha": res.model.alpha, "tau_s": res.model.tau,
           "r_ct_ohm": res.model.r_ct, "r_s_ohm": res.model.r_s,
           "loss": res.loss, "converged": res.converged,
           "n_iter": res.n_iter}
    return _emit(args, record=rec)


def _cmd_synth(args) -> int:
    model = _model_from_args(args)
    freq = np.logspace(math.log10(args.fmin), math.log10(args.fmax),
                       args.points)
    spec = synth_spectrum(model, 2.0 * math.pi * freq, args.noise, args.seed)
    if args.out:
        save_spectrum(spec, args.out)
        rec = {"written": args.out, "n_points": len(spec.points)}
        args.out = None  # the spectrum took --out; the record goes to stdout
        return _emit(args, record=rec, seed_used=args.seed)
    z = spec.z()
    return _emit(args, table={"freq_hz": spec.omegas() / (2.0 * math.pi),
                              "re_z_ohm": z.real, "im_z_ohm": z.imag},
                 seed_used=args.seed)


# --- parser ---------------------------------------------------------------------------


def _common() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
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

    def leaf(group, name, func, seeded=False, **kw):
        p = group.add_parser(name, parents=[common], **kw)
        p.set_defaults(func=func, leaf=p)
        if seeded:
            p.add_argument("--seed", type=int, default=0,
                           help="RNG seed (default %(default)s)")
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
    p = leaf(zsub, "paircorr", _cmd_zeta_paircorr, seeded=True)
    p.add_argument("--source", choices=("zeros", "gue"), default="zeros")
    p.add_argument("--tmax", type=float, default=500.0)
    p.add_argument("--dim", type=int, default=200)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-sep", dest="max_sep", type=float, default=3.0)
    p.add_argument("--bins", type=int, default=30)
    p = leaf(zsub, "gue", _cmd_zeta_gue, seeded=True)
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
    p = leaf(lsub, "sample", _cmd_loops_sample, seeded=True)
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
    # with --init-alpha these default to 1e-3, 50 and 1; alone, an error
    p.add_argument("--init-tau", dest="init_tau", type=float, default=None)
    p.add_argument("--init-rct", dest="init_rct", type=float, default=None)
    p.add_argument("--init-rs", dest="init_rs", type=float, default=None)

    p = leaf(sub, "synth", _cmd_synth, seeded=True,
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
