"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs all four workloads at the reduced "smoke" size, untraced and traced, and
asserts that each run checks out, that the last line carries exactly the
metrics BENCHMARK.json names with their units, and that the six end-to-end
metrics are printed by name with a unit.  It also runs the benchmark in a
directory holding only BENCHMARK.json and perfbench/, where it must fail
without printing a result.  The file name keeps it out of pytest's default
collection, so the repository's test suite does not run it.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# BENCHMARK.json names the workloads the regression gate runs; the other
# two stay runnable and run in every traced run, so they are smoke-tested too
WORKLOADS = ("critical-line", "loop-gas", "prime-lattice", "impedance")
SIX = ("setup_s", "run_s", "items_per_s", "peak_rss_mb", "op_fail_frac",
       "check_fail_frac")


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, name, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, proc.stdout
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[trace], (name, trace, set(got) ^ set(wanted[trace]))
            assert all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values())
            printed = {ln.split()[1]: ln.split()[3] for ln in lines
                       if ln.startswith("metric ")}
            names = SIX if trace == 0 else tuple(wanted[1])
            missing = [n for n in names if not printed.get(n)]
            assert not missing, (name, trace, missing)
            print(f"ok {name} trace {trace}: {len(printed)} metrics printed")

    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok without sources: exit code", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
