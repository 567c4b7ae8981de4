"""fraczeta benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one caller, a closed loop: the
workload's task list (a "round") runs again as soon as the previous round
has been checked, until S seconds have passed.  BLAS threads are capped at
the number of usable cores.  The last line of standard output is one JSON
object; the lines before it give the machine block and every metric by name
with its unit.  See perfbench/README.md for the workloads and metrics.

A calibration block (harness.CALIBRATIONS, no fraczeta code, of the kind
of work the workload does most) runs in a helper interpreter before the
first round and after each one.  Round times are reported at the reference speed: the summed round
times, times the block's reference time over the summed means of the two
blocks around each round.  The plain median round is printed as wall_run_s.
Set-up times are scaled the same way, each by an interpreter block run
right after it; the plain median is printed as wall_setup_s.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the run
times S/2 seconds of untraced rounds, then S/2 seconds of traced rounds (the
difference of the two scaled mean rounds is trace.overhead_s), then one traced
round of every other workload, and reports the per-layer metrics from the
spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import uuid
from time import perf_counter

from harness import CALIBRATIONS, Calibrator, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 4        # extra set-ups in child interpreters, for setup_s
SETUP_BLOCK = "interpreter"     # imports and first calls are interpreter work
WORKLOAD_NAMES = ("critical-line", "loop-gas", "prime-lattice", "impedance")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke shrinks every input, for the smoke test")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    return p.parse_args(argv)


def _cap_blas_threads() -> None:
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(current, cap)))


class Tally:
    def __init__(self):
        self.items = 0
        self.checks = 0
        self.failed_checks = []


def _measure(wl, ops, rng, seconds, tally, cal):
    """Run rounds while the next one, with its calibration block, would end
    within `seconds` (at least one round); check each round after its timing
    stops.  A calibration block runs before the first round and after each
    round.  Returns the round times and the calibration times."""
    calibrate = lambda: cal.time(wl.calibration)  # noqa: E731
    times, cals = [], []
    start = perf_counter()
    cals.append(calibrate())
    while not times or perf_counter() - start + times[-1] + cals[-1] <= seconds:
        gc.collect()
        t = perf_counter()
        with ops.span("round", workload=wl.name):
            out = wl.round(ops, rng)
        times.append(perf_counter() - t)
        tally.items += wl.items(out)
        for label, ok in wl.check(out):
            tally.checks += 1
            if not ok:
                tally.failed_checks.append(f"{wl.name}: {label}")
        cals.append(calibrate())
    return times, cals


def _ref_round_s(wl, times, cals) -> float:
    """Mean round time at the reference speed: the summed round times, times
    the block's reference time over the summed means of the blocks just
    before and just after each round.  A run holds 4 to 12 rounds, too few
    for their median to be steadier than their mean."""
    ref_s = CALIBRATIONS[wl.calibration][1]
    brackets = sum(0.5 * (cals[i] + cals[i + 1]) for i in range(len(times)))
    return sum(times) * ref_s / brackets


def _ref_setup_s(samples) -> float:
    """Median set-up time at the reference speed; each (set-up, block) pair
    is scaled by the block's reference time over the block's time."""
    ref_s = CALIBRATIONS[SETUP_BLOCK][1]
    return median([s * ref_s / c for s, c in samples])


def _setup_probe_times(args) -> list:
    """(set-up time, calibration block time) of fresh interpreters, one
    after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        setup_s, cal_s = map(float, proc.stdout.strip().splitlines()[-1].split())
        out.append((setup_s, cal_s))
    return out


def main(argv=None) -> int:
    t0 = perf_counter()
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "fraczeta", "__init__.py")):
        print(f"error: no fraczeta sources under {SRC}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, SRC)

    import numpy as np
    from harness import Ops, machine_block, numpy_blas_threads, percentile
    from layers import NAMES as LAYER_NAMES, layer_metrics
    from workloads import WORKLOADS

    run_id = f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:8]}"
    workdir = os.path.join(OUT_DIR, "tmp")
    make = lambda name: WORKLOADS[name](args.size, workdir)  # noqa: E731
    ops = Ops(run_id)
    wl = make(args.workload)
    wl.setup(ops)
    setup_s = perf_counter() - t0
    if args.setup_probe:
        print(repr(setup_s), repr(CALIBRATIONS[SETUP_BLOCK][0]()))
        return 0

    with Calibrator() as cal:
        tally = Tally()
        rng = np.random.default_rng(args.seed)
        if args.trace == 0:
            setups = [(setup_s, cal.time(SETUP_BLOCK))] + _setup_probe_times(args)
            cal.time(wl.calibration)                    # warm-up, untimed
            times, cals = _measure(wl, ops, rng, args.seconds, tally, cal)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            run_s = _ref_round_s(wl, times, cals)
            metrics = {
                "setup_s": (_ref_setup_s(setups), "s"),
                "run_s": (run_s, "s"),
                "items_per_s": (tally.items / len(times) / run_s, "items/s"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
            shown = dict(metrics, items_per_s=(metrics["items_per_s"][0], wl.unit),
                         op_fail_frac=(ops.failed / ops.attempted, "frac"),
                         check_fail_frac=(len(tally.failed_checks) / tally.checks, "frac"),
                         wall_setup_s=(median([s for s, _ in setups]), "s"),
                         wall_run_s=(median(times), "s"))
            summary = {"rounds": len(times), "round_s": times,
                       "round_p10_s": percentile(times, 10), "round_p90_s": percentile(times, 90),
                       "calibration_s": cals, "items": tally.items,
                       "item_unit": wl.unit, "setup_samples_s": setups}
        else:
            cal.time(wl.calibration)                    # warm-up, untimed
            untraced, cals_u = _measure(wl, ops, rng, args.seconds / 2.0, tally, cal)
            ops.tracing = True
            before = os.times()
            traced, cals_t = _measure(wl, ops, rng, args.seconds / 2.0, tally, cal)
            after = os.times()
            cpu = (after.user + after.system) - (before.user + before.system)
            rounds = {wl.name: len(traced)}
            for i, name in enumerate(WORKLOAD_NAMES):
                if name != wl.name:
                    other = make(name)
                    other.setup(ops)
                    rounds[name] = len(_measure(other, ops, np.random.default_rng(
                        [args.seed, i]), 0.0, tally, cal)[0])
            ops.tracing = False
            metrics = layer_metrics(ops.spans, ops.self_times(), rounds)
            metrics["proc.cpu_s"] = (cpu / len(traced), "s")
            metrics["proc.blas_threads"] = (numpy_blas_threads(), "threads")
            metrics["trace.overhead_s"] = (
                _ref_round_s(wl, traced, cals_t) - _ref_round_s(wl, untraced, cals_u), "s")
            assert set(metrics) == {n for n, _ in LAYER_NAMES}
            shown = metrics
            summary = {"rounds": rounds, "untraced_round_s": untraced,
                       "traced_round_s": traced, "untraced_calibration_s": cals_u,
                       "traced_calibration_s": cals_t, "spans": len(ops.spans)}
            ops.write_spans(os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"))

    machine = machine_block()
    result = {"correct": not tally.failed_checks, "attempted": ops.attempted,
              "failed": ops.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"run": run_id, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "size": args.size, "machine": machine,
                   "summary": summary, "failed_checks": tally.failed_checks,
                   "shown": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
                   "result": result}, fh, indent=1)
    print("machine " + json.dumps(machine))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + json.dumps(summary))
    for label in tally.failed_checks:
        print(f"check FAILED {label}")
    print(f"checks {tally.checks - len(tally.failed_checks)}/{tally.checks} passed; "
          f"ops {ops.attempted - ops.failed}/{ops.attempted} succeeded")
    for k, (v, u) in shown.items():
        print(f"metric {k} {v!r} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
