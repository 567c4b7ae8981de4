"""Per-layer metrics derived from the spans of a traced run.

Each metric belongs to the workload whose round makes the calls it
aggregates, and is reported per round of that workload (times and counts)
or per call (percentiles, ratios).  Times are span self times, which for a
library call equal its duration.  Counts marked "computed" in the README are
sizes derived from the inputs, not counted inside the library.
"""

from __future__ import annotations

from collections import defaultdict

from harness import median, percentile

CL, LG, PL, IM = "critical-line", "loop-gas", "prime-lattice", "impedance"

# name, unit, workload, kind, span names, count key
# kinds: busy (self time per round), calls, failed, count (sum of a span
# count per round), ratio (busy / count), median and mean (of a span count
# over calls), p50_ms/p90_ms (of call durations)
_TABLE = (
    ("zetalab.find_zeros.busy_s", "s", CL, "busy", ("zetalab.find_zeros",), None),
    ("zetalab.find_zeros.zeros", "count", CL, "count", ("zetalab.find_zeros",), "zeros"),
    ("zetalab.find_zeros.s_per_zero", "s", CL, "ratio", ("zetalab.find_zeros",), "zeros"),
    ("zetalab.zeta.busy_s", "s", CL, "busy", ("zetalab.zeta",), None),
    ("zetalab.zeta.calls", "count", CL, "calls", ("zetalab.zeta",), None),
    ("zetalab.zeta.failed", "count", CL, "failed", ("zetalab.zeta",), None),
    ("zetalab.partial_zeta.busy_s", "s", PL, "busy", ("zetalab.partial_zeta",), None),
    ("zetalab.partial_zeta.terms", "count", PL, "count", ("zetalab.partial_zeta",), "terms"),
    ("zetalab.gue_sample.busy_s", "s", CL, "busy", ("zetalab.gue_sample",), None),
    ("zetalab.gue_sample.eigensolves", "count", CL, "count", ("zetalab.gue_sample",),
     "eigensolves"),
    ("zetalab.pair_correlation.busy_s", "s", CL, "busy", ("zetalab.pair_correlation",), None),
    ("zetalab.universality_scan.busy_s", "s", CL, "busy", ("zetalab.universality_scan",),
     None),
    ("zetalab.universality_scan.shifts", "count", CL, "count",
     ("zetalab.universality_scan",), "shifts"),
    ("loopgas.mc_propagator.busy_s", "s", LG, "busy", ("loopgas.mc_propagator",), None),
    ("loopgas.mc_propagator.path_steps", "count", LG, "count", ("loopgas.mc_propagator",),
     "path_steps"),
    ("loopgas.mc_propagator.rel_se", "frac", LG, "median", ("loopgas.mc_propagator",),
     "rel_se"),
    ("loopgas.sample_paths_loop.busy_s", "s", LG, "busy", ("loopgas.sample_paths_loop",),
     None),
    ("loopgas.sample_paths_open.busy_s", "s", LG, "busy", ("loopgas.sample_paths_open",),
     None),
    ("loopgas.propagator.busy_s", "s", LG, "busy", ("loopgas.propagator",), None),
    ("loopgas.propagator.matvecs", "count", LG, "count", ("loopgas.propagator",), "matvecs"),
    ("loopgas.forward_backward.busy_s", "s", LG, "busy", ("loopgas.forward_backward",), None),
    ("loopgas.path_entropy.busy_s", "s", LG, "busy", ("loopgas.path_entropy",), None),
    ("loopgas.build_kernel.busy_s", "s", LG, "busy", ("loopgas.build_kernel",), None),
    ("eprspace.factorize_small.busy_s", "s", PL, "busy", ("eprspace.factorize_small",), None),
    ("eprspace.factorize_small.calls", "count", PL, "calls", ("eprspace.factorize_small",),
     None),
    ("eprspace.factorize_large.busy_s", "s", PL, "busy", ("eprspace.factorize_large",), None),
    ("eprspace.factorize_large.calls", "count", PL, "calls", ("eprspace.factorize_large",),
     None),
    ("eprspace.trace_exp.busy_s", "s", PL, "busy", ("eprspace.trace_exp",), None),
    ("eprspace.trace_exp.terms", "count", PL, "count", ("eprspace.trace_exp",), "terms"),
    ("eprspace.lcm_gcd.busy_s", "s", PL, "busy", ("eprspace.lcm_gcd",), None),
    ("fitkit.fit_cole_cole.busy_s", "s", IM, "busy", ("fitkit.fit_cole_cole",), None),
    ("fitkit.fit_cole_cole.calls", "count", IM, "calls", ("fitkit.fit_cole_cole",), None),
    ("fitkit.fit_cole_cole.nm_iters", "count", IM, "count", ("fitkit.fit_cole_cole",),
     "nm_iters"),
    ("fitkit.fit_cole_cole.converged_frac", "frac", IM, "mean", ("fitkit.fit_cole_cole",),
     "converged"),
    ("fitkit.fit_cole_cole.p50_ms", "ms", IM, "p50_ms", ("fitkit.fit_cole_cole",), None),
    ("fitkit.fit_cole_cole.p90_ms", "ms", IM, "p90_ms", ("fitkit.fit_cole_cole",), None),
    ("fitkit.synth_spectrum.busy_s", "s", IM, "busy", ("fitkit.synth_spectrum",), None),
    ("fitkit.io.busy_s", "s", IM, "busy", ("fitkit.load_spectrum", "fitkit.save_spectrum"),
     None),
    ("fracdyn.relaxation_response.busy_s", "s", IM, "busy",
     ("fracdyn.relaxation_response",), None),
    ("fracdyn.relaxation_response.points", "count", IM, "count",
     ("fracdyn.relaxation_response",), "points"),
    ("fracdyn.relaxation_response.failed", "count", IM, "failed",
     ("fracdyn.relaxation_response",), None),
    ("fracdyn.mittag_leffler.calls", "count", IM, "calls", ("fracdyn.mittag_leffler",), None),
    ("fracdyn.mittag_leffler.failed", "count", IM, "failed", ("fracdyn.mittag_leffler",),
     None),
    ("fracdyn.arc_fit.busy_s", "s", IM, "busy", ("fracdyn.arc_fit",), None),
    ("fracdyn.gl_fracderiv.busy_s", "s", IM, "busy", ("fracdyn.gl_fracderiv",), None),
    ("cli.dispatch.busy_s", "s", IM, "busy", ("cli.dispatch",), None),
    ("cli.dispatch.calls", "count", IM, "calls", ("cli.dispatch",), None),
    ("cli.dispatch.failed", "count", IM, "failed", ("cli.dispatch",), None),
)

DIAGNOSTICS = (("cli.overhead_s", "s"), ("proc.cpu_s", "s"),
               ("proc.blas_threads", "threads"), ("trace.overhead_s", "s"))

NAMES = tuple((name, unit) for name, unit, *_ in _TABLE) + DIAGNOSTICS


def layer_metrics(spans, self_times, rounds) -> dict:
    """{metric: (value, unit)} for every row of the table.

    spans are Ops span records, self_times their self times, and rounds maps
    a workload to the number of traced rounds it ran.
    """
    by_name = defaultdict(list)
    for rec, self_s in zip(spans, self_times):
        by_name[rec[2]].append((self_s, rec[3], rec[4], rec[5] or {}, rec[6]))

    out = {}
    for name, unit, workload, kind, span_names, key in _TABLE:
        recs = [r for n in span_names for r in by_name[n]]
        per_round = 1.0 / rounds[workload]
        busy = sum(r[0] for r in recs)
        keyed = [r[3][key] for r in recs if key in r[3]]
        if kind == "busy":
            v = busy * per_round
        elif kind == "calls":
            v = len(recs) * per_round
        elif kind == "failed":
            v = sum(r[4] for r in recs) * per_round
        elif kind == "count":
            v = sum(keyed) * per_round
        elif kind == "ratio":
            v = busy / sum(keyed)
        elif kind == "median":
            v = median(keyed)
        elif kind == "mean":
            v = sum(keyed) / len(keyed)
        else:
            v = 1e3 * percentile([r[2] - r[1] for r in recs],
                                 50 if kind == "p50_ms" else 90)
        out[name] = (v, unit)

    library_route = sum(r[2] - r[1] for r in by_name["cli.library_route"])
    out["cli.overhead_s"] = (
        out["cli.dispatch.busy_s"][0] - library_route / rounds[IM], "s")
    return out
