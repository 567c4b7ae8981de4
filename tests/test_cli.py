"""End-to-end checks of the batch command-line interface.

Every invocation goes through dispatch(), the same entry point the
installed script uses, so exit codes, stdout bytes, and file outputs
are exercised exactly as a shell user would see them.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fraczeta.cli import build_parser, dispatch
from fraczeta.fitkit import load_spectrum, save_spectrum, synth_spectrum
from fraczeta.fracdyn import (ColeColeModel, TwistedShift,
                              cole_cole_impedance, gl_fracderiv,
                              twisted_compose)
from fraczeta.loopgas import build_kernel, loop_partition, make_lattice

FIRST_ZEROS = (14.134725141734695, 21.022039638771556, 25.01085758014569)


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def rows_of(text):
    """Parse a CSV payload, skipping '#' metadata lines."""
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    body = [ln.split(",") for ln in lines[1:]]
    return header, body


# --- exit codes and plumbing -----------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert dispatch(["bogus"]) == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert dispatch(["arc"]) == 2


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0


def test_domain_error_exits_one(capsys):
    code = dispatch(["zeta", "eval", "--re", "1.0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")


def test_missing_input_file_exits_one(capsys):
    assert dispatch(["fit", "--input", "/nonexistent/spec.csv"]) == 1


def test_threads_flag_is_gone(capsys):
    # --threads was parsed and never read; it is now an unknown flag
    assert dispatch(["phase", "--threads", "2", "--no-timestamp"]) == 2


def _leaves(parser, words=()):
    """(command words, parser) for every leaf subcommand."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
    for action in subs:
        for name, p in action.choices.items():
            yield from _leaves(p, (*words, name))


def test_seed_only_on_the_stochastic_leaves(tmp_path, capsys):
    leaves = dict(_leaves(build_parser()))
    assert len(leaves) == 26
    seeded = {w for w, p in leaves.items()
              if "--seed" in p._option_string_actions}
    assert seeded == {"zeta paircorr", "zeta gue", "loops sample", "synth"}
    assert dispatch(["zeta", "eval", "--seed", "1"]) == 2
    # a config file's seed key is ignored where no flag reads it
    conf = tmp_path / "lab.conf"
    conf.write_text("seed = 3\n")
    code, out = run(capsys, "zeta", "eval", "--config", str(conf),
                    "--no-timestamp")
    assert code == 0 and "seed" not in json.loads(out)
    code, out = run(capsys, "zeta", "gue", "--dim", "20", "--trials", "1",
                    "--config", str(conf), "--no-timestamp")
    assert code == 0 and "# seed: 3" in out.splitlines()


def test_output_file_matches_stdout(tmp_path, capsys):
    code, out = run(capsys, "phase", "--alpha", "0.7", "--no-timestamp")
    assert code == 0
    target = tmp_path / "phase.json"
    assert dispatch(["phase", "--alpha", "0.7", "--no-timestamp",
                     "--out", str(target)]) == 0
    assert target.read_text() == out


# --- determinism and formats -----------------------------------------------------


def test_byte_determinism_without_timestamp(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        assert dispatch(["zeta", "zeros", "--tmax", "25", "--no-timestamp",
                         "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_is_the_only_varying_line(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        assert dispatch(["zeta", "zeros", "--tmax", "25",
                         "--out", str(target)]) == 0
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    assert len(la) == len(lb)
    diff = [(x, y) for x, y in zip(la, lb) if x != y]
    assert all(x.startswith("# timestamp:") for x, _ in diff)


def test_csv_and_json_carry_identical_numbers(capsys):
    _, csv_out = run(capsys, "zeta", "zeros", "--tmax", "30",
                     "--no-timestamp")
    _, json_out = run(capsys, "zeta", "zeros", "--tmax", "30",
                      "--format", "json", "--no-timestamp")
    _, body = rows_of(csv_out)
    obj = json.loads(json_out)
    assert obj["columns"] == ["index", "t_ordinate"]
    assert len(body) == len(obj["rows"])
    for csv_row, json_row in zip(body, obj["rows"]):
        assert int(csv_row[0]) == json_row[0]
        assert float(csv_row[1]) == json_row[1]


def test_record_csv_format(capsys):
    code, out = run(capsys, "phase", "--alpha", "0.8", "--format", "csv",
                    "--no-timestamp")
    assert code == 0
    header, body = rows_of(out)
    assert header == ["key", "value"]
    rec = {k: v for k, v in body}
    assert float(rec["phi"]) + float(rec["delta"]) == pytest.approx(
        math.pi / 4.0, abs=1e-12)


def test_config_supplies_defaults_and_flags_win(tmp_path, capsys):
    conf = tmp_path / "lab.conf"
    conf.write_text("# comment\nalpha = 0.6\n")
    _, out = run(capsys, "phase", "--config", str(conf), "--no-timestamp")
    assert json.loads(out)["alpha"] == 0.6
    _, out = run(capsys, "phase", "--config", str(conf), "--alpha", "0.9",
                 "--no-timestamp")
    assert json.loads(out)["alpha"] == 0.9


@pytest.mark.parametrize("command, key, value", [
    (("loops", "kernel"), "sites", "81.5"),
    (("loops", "sample", "--paths", "10", "--steps", "2"), "mode", "foo"),
    (("phase",), "format", "xml"),
])
def test_config_values_pass_flag_type_and_choices(tmp_path, capsys, command,
                                                  key, value):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"{key} = {value}\n")
    assert dispatch([*command, "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert f"config key {key}:" in err and repr(value) in err
    assert dispatch([*command, f"--{key}", value]) == 2


def test_config_keys_without_a_flag_are_ignored(tmp_path, capsys):
    # one file can serve every subcommand: phase has no lattice flags
    conf = tmp_path / "lab.conf"
    conf.write_text("sites = 81\nxmin = -4\nalpha = 0.7\n")
    code, out = run(capsys, "phase", "--config", str(conf), "--no-timestamp")
    assert code == 0
    assert json.loads(out)["alpha"] == 0.7
    code, out = run(capsys, "loops", "kernel", "--config", str(conf),
                    "--no-timestamp")
    assert code == 0
    rec = json.loads(out)
    assert rec["n_sites"] == 81 and rec["delta"] == pytest.approx(0.15)


def test_config_bad_line_exits_one(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("alpha 0.6\n")
    assert dispatch(["phase", "--config", str(conf)]) == 1


# --- fractional dynamics commands ----------------------------------------------


def test_impedance_table_matches_library(capsys):
    _, out = run(capsys, "impedance", "--alpha", "0.7", "--tau", "1e-2",
                 "--rct", "80", "--rs", "3", "--points", "7",
                 "--no-timestamp")
    header, body = rows_of(out)
    assert header == ["omega_rad_s", "re_z_ohm", "im_z_ohm"]
    model = ColeColeModel(alpha=0.7, tau=1e-2, r_ct=80.0, r_s=3.0)
    for row in body:
        z = cole_cole_impedance(model, float(row[0]))
        assert float(row[1]) == z.real
        assert float(row[2]) == z.imag


@pytest.mark.parametrize("command", ("impedance", "synth"))
@pytest.mark.parametrize("flag, value", [
    ("min", "0"), ("min", "-1"), ("min", "nan"), ("max", "inf"),
    ("points", "-1"), ("points", "0")])
def test_log_grid_flags_refused_by_name(capsys, command, flag, value):
    if flag != "points":
        flag = ("w" if command == "impedance" else "f") + flag
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch([command, f"--{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{flag} must be ")
    assert "Warning" not in err


def test_ml_at_zero_is_one(capsys):
    _, out = run(capsys, "ml", "0.0", "--alpha", "0.5", "--no-timestamp")
    assert json.loads(out)["value"] == 1.0


def test_fracderiv_matches_library(capsys):
    _, out = run(capsys, "fracderiv", "--alpha", "0.5", "--fn", "sqrt",
                 "--n", "32", "--t-max", "1.0", "--no-timestamp")
    _, body = rows_of(out)
    t = np.linspace(0.0, 1.0, 32)
    expected = gl_fracderiv(np.sqrt(t), 0.5, float(t[1] - t[0]))
    assert len(body) == 32
    for row, e in zip(body, expected):
        assert float(row[1]) == e


def test_fracderiv_from_file(tmp_path, capsys):
    t = np.linspace(0.0, 2.0, 21)
    path = tmp_path / "f.csv"
    path.write_text("t,f\n" + "\n".join(f"{float(ti)!r},{float(fi)!r}"
                                        for ti, fi in zip(t, t ** 2)) + "\n")
    _, out = run(capsys, "fracderiv", "--alpha", "0.3", "--input", str(path),
                 "--no-timestamp")
    _, body = rows_of(out)
    expected = gl_fracderiv(t ** 2, 0.3, 0.1)
    assert [float(r[1]) for r in body] == pytest.approx(list(expected))


def test_fracderiv_rejects_uneven_grid(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("t,f\n0.0,0.0\n0.1,1.0\n0.3,2.0\n")
    assert dispatch(["fracderiv", "--input", str(path)]) == 1


def test_fracderiv_rejects_single_point_grid(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("t,f\n0.0,0.0\n")
    for grid in (["--input", str(path)], ["--n", "1"], ["--n", "0"]):
        assert dispatch(["fracderiv", *grid]) == 1
        assert capsys.readouterr().err.startswith("error: need >= 2 grid points")


def test_fracderiv_reports_real_line_number(tmp_path, capsys):
    # a blank line still counts: the bad row is line 4 of the file, and
    # the spectrum reader numbers the same layout the same way
    path = tmp_path / "f.csv"
    path.write_text("t,f\n\n0.0,0.0\n0.1,x\n")
    assert dispatch(["fracderiv", "--input", str(path)]) == 1
    assert "line 4:" in capsys.readouterr().err
    path.write_text("freq_hz,re_z_ohm,im_z_ohm\n\n1.0,0.0,0.0\n2.0,x,0.0\n")
    with pytest.raises(ValueError, match="line 4:"):
        load_spectrum(path)


def test_twist_matches_library(capsys):
    _, out = run(capsys, "twist", "3", "-1", "0.125", "2", "5", "0.375",
                 "--delta", "0.25", "--no-timestamp")
    rec = json.loads(out)
    g = twisted_compose(TwistedShift(3, -1, 0.125), TwistedShift(2, 5, 0.375),
                        0.25)
    assert (rec["a"], rec["b"], rec["theta"]) == (g.a, g.b, g.theta)


# --- zeta commands -----------------------------------------------------------------


def test_zeros_tmax_30_lists_first_three(capsys):
    _, out = run(capsys, "zeta", "zeros", "--tmax", "30", "--no-timestamp")
    _, body = rows_of(out)
    assert [int(r[0]) for r in body] == [1, 2, 3]
    for row, ref in zip(body, FIRST_ZEROS):
        assert abs(float(row[1]) - ref) < 1e-6


def test_zeta_eval_known_value(capsys):
    _, out = run(capsys, "zeta", "eval", "--re", "2.0", "--no-timestamp")
    rec = json.loads(out)
    assert rec["value_re"] == pytest.approx(math.pi ** 2 / 6.0, abs=1e-10)
    assert rec["abs_err_bound"] < 1e-10


def test_xi_reflection_through_cli(capsys):
    _, a = run(capsys, "zeta", "xi", "--re", "0.3", "--im", "5.0",
               "--no-timestamp")
    _, b = run(capsys, "zeta", "xi", "--re", "0.7", "--im", "-5.0",
               "--no-timestamp")
    ra, rb = json.loads(a), json.loads(b)
    assert ra["value_re"] == pytest.approx(rb["value_re"], abs=1e-8)
    assert ra["value_im"] == pytest.approx(rb["value_im"], abs=1e-8)


def test_gue_records_seed_and_is_reproducible(capsys):
    _, a = run(capsys, "zeta", "gue", "--dim", "40", "--trials", "3",
               "--seed", "5", "--no-timestamp")
    _, b = run(capsys, "zeta", "gue", "--dim", "40", "--trials", "3",
               "--seed", "5", "--no-timestamp")
    _, c = run(capsys, "zeta", "gue", "--dim", "40", "--trials", "3",
               "--seed", "6", "--no-timestamp")
    assert a == b
    assert a != c
    assert "# seed: 5" in a.splitlines()


def test_paircorr_gue_source_schema(capsys):
    _, out = run(capsys, "zeta", "paircorr", "--source", "gue", "--dim",
                 "100", "--trials", "20", "--bins", "12", "--seed", "2",
                 "--no-timestamp")
    header, body = rows_of(out)
    assert header == ["bin_center", "empirical", "gue_reference"]
    assert len(body) == 12
    ref = [float(r[2]) for r in body]
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in ref)
    assert ref[0] < 0.2 and ref[-1] > 0.8


def test_paircorr_rejects_unknown_source(capsys):
    assert dispatch(["zeta", "paircorr", "--source", "primes"]) == 2


def test_universality_scan_csv(capsys):
    _, out = run(capsys, "zeta", "universality", "--tmax", "1.0", "--tstep",
                 "0.25", "--no-timestamp")
    header, body = rows_of(out)
    assert header == ["t", "sup_error", "hit"]
    assert len(body) == 4
    assert float(body[0][1]) < 1e-9 and body[0][2] == "1"


def test_spectral_routes_agree(capsys):
    _, a = run(capsys, "zeta", "spectral", "--eigenvalues", "1", "2", "3",
               "--s-re", "1.5", "--no-timestamp")
    _, b = run(capsys, "zeta", "spectral", "--eigenvalues", "1", "2", "3",
               "--s-re", "1.5", "--mellin", "--no-timestamp")
    assert json.loads(a)["value_re"] == pytest.approx(
        json.loads(b)["value"], abs=1e-8)


# --- prime-exponent commands ---------------------------------------------------


def test_epr_factor_golden_bytes(capsys):
    code, out = run(capsys, "epr", "factor", "360", "--no-timestamp")
    assert code == 0
    assert out == '{"n":360,"factors":{"2":3,"3":2,"5":1}}\n'


def test_epr_factor_rejects_zero(capsys):
    assert dispatch(["epr", "factor", "0"]) == 1


def test_epr_lattice_join_meet(capsys):
    _, out = run(capsys, "epr", "lattice", "12", "18", "--no-timestamp")
    rec = json.loads(out)
    assert (rec["join"], rec["meet"]) == (36, 6)


def test_epr_pair_roundtrip(capsys):
    _, out = run(capsys, "epr", "pair", "7", "11", "--no-timestamp")
    k = json.loads(out)["k"]
    _, out = run(capsys, "epr", "pair", "--invert", str(k), "--no-timestamp")
    rec = json.loads(out)
    assert (rec["i"], rec["j"]) == (7, 11)


def test_epr_trace_matches_euler_sum(capsys):
    _, out = run(capsys, "epr", "trace", "--nmax", "2000", "--s-re", "2",
                 "--no-timestamp")
    rec = json.loads(out)
    assert rec["value_re"] == pytest.approx(math.pi ** 2 / 6.0, abs=1e-3)


def test_epr_fiber_sheets(capsys):
    _, out = run(capsys, "epr", "fiber", "--re-min", "0.6", "--re-max", "0.9",
                 "--im-min", "0", "--im-max", "4", "--tau", "9",
                 "--copies", "2", "--no-timestamp")
    rec = json.loads(out)
    assert rec["disjoint"] is True
    assert rec["sheets"] == [[0.6, 0.9, 0.0, 4.0], [0.6, 0.9, 9.0, 13.0]]


@pytest.mark.parametrize("argv, key, value", [
    (("epr", "factor", "360"), "factors", {"2": 3, "3": 2, "5": 1}),
    (("epr", "fiber", "--copies", "2"), "sheets",
     [[0.5, 1.0, 0.0, 5.0], [0.5, 1.0, 7.0, 12.0]]),
], ids=("factor", "fiber"))
def test_csv_cells_with_commas_are_quoted(capsys, argv, key, value):
    _, out = run(capsys, *argv, "--format", "csv", "--no-timestamp")
    rows = list(csv.reader(ln for ln in out.splitlines()
                           if not ln.startswith("#")))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    assert json.loads(dict(rows)[key]) == value


# --- loop-gas commands ---------------------------------------------------------


LAT = ("--xmin", "-4", "--xmax", "4", "--sites", "81", "--eps", "0.01")


def test_loops_kernel_summary(capsys):
    _, out = run(capsys, "loops", "kernel", *LAT, "--no-timestamp")
    rec = json.loads(out)
    assert rec["n_sites"] == 81
    assert rec["symmetric"] is True
    assert rec["stability"] == pytest.approx(1.0, abs=1e-12)


def test_loops_default_lattice_is_stable(capsys, recwarn):
    code, out = run(capsys, "loops", "kernel", "--no-timestamp")
    assert code == 0
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]
    assert json.loads(out)["stability"] <= 1.0


def test_loops_propagator_final_slice(capsys):
    _, out = run(capsys, "loops", "propagator", *LAT, "--steps", "40",
                 "--x0", "0", "--no-timestamp")
    _, body = rows_of(out)
    assert len(body) == 81
    total = sum(float(r[2]) for r in body) * 0.1
    assert total == pytest.approx(1.0, rel=1e-6)


def test_loops_entropy_matches_partition(capsys):
    _, out = run(capsys, "loops", "entropy", *LAT, "--steps", "3",
                 "--no-timestamp")
    _, body = rows_of(out)
    lat = make_lattice(-4.0, 4.0, 81, 0.01)
    kern = build_kernel(lat)
    assert len(body) == 3
    for step, row in enumerate(body, start=1):
        assert float(row[0]) == pytest.approx(step * 0.01, abs=1e-15)
        assert float(row[1]) == pytest.approx(
            math.log(loop_partition(kern, step)), abs=1e-10)


def test_loops_sample_free_loop_is_exact(capsys):
    _, out = run(capsys, "loops", "sample", *LAT, "--mode", "loop",
                 "--paths", "200", "--steps", "10", "--seed", "1",
                 "--no-timestamp")
    rec = json.loads(out)
    assert rec["estimate"] == rec["transfer_value"]
    assert rec["std_error"] == 0.0
    assert rec["seed"] == 1


def test_loops_sample_open_variance(capsys):
    _, out = run(capsys, "loops", "sample", *LAT, "--mode", "open",
                 "--paths", "4000", "--steps", "50", "--seed", "8",
                 "--no-timestamp")
    rec = json.loads(out)
    assert rec["sample_variance"] == pytest.approx(rec["expected_2dt"],
                                                   rel=0.15)
    assert rec["mean_weight"] == 1.0


def test_loops_fluct_beta_four_identity(capsys):
    _, out = run(capsys, "loops", "fluct", "--beta", "4", "--dt", "2",
                 "--no-timestamp")
    rec = json.loads(out)
    assert rec["dx2"] == 4.0
    assert rec["thermal_time"] == 4.0


def test_loops_forwardbackward_conserves_mass(capsys):
    _, out = run(capsys, "loops", "forwardbackward", *LAT, "--steps", "5",
                 "--phi0-width", "0.7", "--phi1-width", "0.7",
                 "--no-timestamp")
    _, body = rows_of(out)
    assert len(body) == 6 * 81
    totals = {}
    for row in body:
        totals.setdefault(row[0], 0.0)
        totals[row[0]] += float(row[2]) * 0.1
    values = list(totals.values())
    assert len(values) == 6
    for v in values[1:]:
        assert v == pytest.approx(values[0], rel=1e-10)


def test_loops_propagator_rejects_offgrid_start(capsys):
    assert dispatch(["loops", "propagator", *LAT, "--x0", "9.5"]) == 1


@pytest.mark.parametrize("command", ("propagator", "sample"))
@pytest.mark.parametrize("x0", ("nan", "inf", "-inf"))
def test_loops_reject_non_finite_start_by_name(capsys, command, x0):
    assert dispatch(["loops", command, *LAT, f"--x0={x0}"]) == 1
    assert capsys.readouterr().err == (
        f"error: position must be finite, got {float(x0)}\n")


def test_loops_propagator_rejects_zero_steps(capsys):
    assert dispatch(["loops", "propagator", *LAT, "--steps", "0"]) == 1


def test_loops_entropy_rejects_zero_steps(capsys):
    assert dispatch(["loops", "entropy", *LAT, "--steps", "0"]) == 1
    assert capsys.readouterr().err == "error: n_steps must be >= 1, got 0\n"


# --- applied-surface commands -----------------------------------------------------


def test_synth_writes_pure_schema_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out = run(capsys, "synth", "--alpha", "0.75", "--points", "30",
                    "--noise", "0.01", "--seed", "4", "--out", str(target),
                    "--no-timestamp")
    assert code == 0
    meta = json.loads(out)
    assert meta["seed"] == 4 and meta["n_points"] == 30
    lines = target.read_text().splitlines()
    assert lines[0] == "freq_hz,re_z_ohm,im_z_ohm"
    assert not any(ln.startswith("#") for ln in lines)


def test_synth_out_record_follows_format(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out = run(capsys, "synth", "--points", "10", "--seed", "4",
                    "--out", str(target), "--format", "csv",
                    "--no-timestamp")
    assert code == 0
    assert out.splitlines()[:2] == ["# command: fraczeta synth", "# seed: 4"]
    header, body = rows_of(out)
    assert header == ["key", "value"]
    assert dict(body) == {"written": str(target), "n_points": "10"}
    assert target.read_text().startswith("freq_hz,re_z_ohm,im_z_ohm\n")


def test_synth_then_fit_recovers_model(tmp_path, capsys):
    target = tmp_path / "clean.csv"
    assert dispatch(["synth", "--alpha", "0.8", "--tau", "1e-3", "--rct",
                     "50", "--rs", "5", "--points", "50", "--out",
                     str(target), "--no-timestamp"]) == 0
    capsys.readouterr()
    code, out = run(capsys, "fit", "--input", str(target), "--no-timestamp")
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"alpha", "tau_s", "r_ct_ohm", "r_s_ohm", "loss",
                        "converged", "n_iter"}
    assert rec["converged"] is True
    assert rec["alpha"] == pytest.approx(0.8, abs=1e-3)
    assert rec["tau_s"] == pytest.approx(1e-3, rel=1e-3)
    assert rec["r_ct_ohm"] == pytest.approx(50.0, rel=1e-3)
    assert rec["r_s_ohm"] == pytest.approx(5.0, rel=1e-3)


def test_arc_and_fit_read_synth_stdout_table(tmp_path, capsys):
    # the stdout table carries '#' metadata lines above its header
    synth = ["synth", "--points", "30", "--noise", "0.01", "--seed", "4"]
    _, table = run(capsys, *synth)
    (tmp_path / "stdout.csv").write_text(table)
    assert table.startswith("# command: fraczeta synth\n# seed: 4\n# timestamp")
    assert dispatch([*synth, "--out", str(tmp_path / "out.csv")]) == 0
    capsys.readouterr()
    for cmd in ("arc", "fit"):
        recs = [json.loads(run(capsys, cmd, "--input", str(tmp_path / name),
                               "--no-timestamp")[1])
                for name in ("stdout.csv", "out.csv")]
        assert recs[0] == recs[1]


def test_fit_reports_a_diverged_parameter(tmp_path, capsys):
    target = tmp_path / "buried.csv"
    assert dispatch(["synth", "--alpha", "0.5", "--tau", "0.15", "--rct",
                     "1", "--rs", "20", "--fmin", "1", "--fmax", "1e5",
                     "--points", "50", "--noise", "0.05", "--seed", "1",
                     "--out", str(target), "--no-timestamp"]) == 0
    capsys.readouterr()
    assert dispatch(["fit", "--input", str(target), "--no-timestamp"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: fit diverged: tau left the float range")


def test_arc_reports_depression_alpha(tmp_path, capsys):
    target = tmp_path / "clean.csv"
    assert dispatch(["synth", "--alpha", "0.7", "--points", "60", "--out",
                     str(target), "--no-timestamp"]) == 0
    capsys.readouterr()
    _, out = run(capsys, "arc", "--input", str(target), "--no-timestamp")
    rec = json.loads(out)
    assert rec["alpha_implied"] == pytest.approx(0.7, abs=1e-3)
    assert rec["rms_residual_ohm"] < 1e-8


def test_fit_accepts_explicit_init(tmp_path, capsys):
    target = tmp_path / "clean.csv"
    assert dispatch(["synth", "--alpha", "0.85", "--points", "40", "--out",
                     str(target), "--no-timestamp"]) == 0
    capsys.readouterr()
    code, out = run(capsys, "fit", "--input", str(target), "--init-alpha",
                    "0.5", "--init-tau", "1e-2", "--init-rct", "30",
                    "--init-rs", "2", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["alpha"] == pytest.approx(0.85, abs=1e-3)


def test_fit_init_flags_without_init_alpha_exit_one(tmp_path, capsys):
    # they were read only beside --init-alpha, and ignored without it
    spec = tmp_path / "spec.csv"
    assert dispatch(["synth", "--points", "20", "--out", str(spec),
                     "--no-timestamp"]) == 0
    capsys.readouterr()
    assert dispatch(["fit", "--input", str(spec), "--init-tau", "7",
                     "--init-rct", "1e6"]) == 1
    assert capsys.readouterr().err == (
        "error: --init-tau is read only with --init-alpha\n")
    conf = tmp_path / "lab.conf"
    conf.write_text("init-rs = 2\n")
    assert dispatch(["fit", "--input", str(spec), "--config",
                     str(conf)]) == 1
    assert "--init-rs" in capsys.readouterr().err
    assert dispatch(["fit", "--input", str(spec), "--config", str(conf),
                     "--init-alpha", "0.5", "--no-timestamp"]) == 0


# --- cold start ------------------------------------------------------------------

_COLD_START = """
import json, sys
import numpy as np
import fraczeta.cli
rational = sorted(m for m in ("fractions", "decimal") if m in sys.modules)
from fraczeta import eprspace, fitkit, fracdyn, loopgas, zetalab

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

zetalab.find_zeros(30.0)
zetalab.zeta(0.5 + 20.0j)
zetalab.gue_sample(200, 2, 1)
zetalab.universality_scan(zetalab.Disc(0.75, 0.05), None, 0.3, 5.0, 0.05)
lat = loopgas.make_lattice(-4.0, 4.0, 41, 0.01, potential=lambda x: 0.5 * x * x)
loopgas.propagator(loopgas.build_kernel(lat), 20, 22, 10)
loopgas.mc_propagator(lat, 20, 22, 10, 100, 0)
eprspace.factorize(360)
before = scipy_modules()
threads = sorted(m for m in ("concurrent.futures", "logging") if m in sys.modules)
spec = fitkit.synth_spectrum(fracdyn.ColeColeModel(0.8, 1e-3, 50.0, 5.0),
                             np.logspace(0.0, 6.0, 30), 0.0, 0)
print(json.dumps({"rational": rational, "before": before, "threads": threads,
                  "alpha": fitkit.fit_cole_cole(spec).model.alpha,
                  "mellin": zetalab.heat_trace_mellin([1.0, 2.0], 2.0),
                  "after": scipy_modules()}))
"""


def test_scipy_stays_off_the_import_path():
    """Importing the CLI and running the zeta, GUE, loop-gas and lattice
    calls loads no scipy module; the fit and the heat-trace transform
    load it when first called.  The import loads neither fractions nor
    decimal: the Bernoulli table is built in integers.  Nor do the calls
    load concurrent.futures or the logging it imports: the GUE trials and
    the scan's grid chunks are spread over plain threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["rational"] == []
    assert out["before"] == []
    assert out["threads"] == []
    assert abs(out["alpha"] - 0.8) < 1e-6
    assert abs(out["mellin"] - 1.25) < 1e-10
    assert "scipy.optimize" in out["after"] and "scipy.integrate" in out["after"]


# --- pinned output bytes --------------------------------------------------------
#
# Every subcommand, in CSV and in JSON, with --no-timestamp: the sha256 of
# stdout, followed by the --out file when there is one.  A changed digest
# is a change in what a user of the command sees.


def _write_pinned_inputs(workdir):
    model = ColeColeModel(alpha=0.7, tau=1e-3, r_ct=50.0, r_s=5.0)
    w = 2.0 * math.pi * np.logspace(0.0, 5.0, 40)
    save_spectrum(synth_spectrum(model, w, 0.01, seed=3), workdir / "spec.csv")
    (workdir / "f.csv").write_text("t,f\n0.0,0.0\n0.1,0.5\n0.2,0.75\n0.3,0.5\n")


def _pinned_digest(argv) -> str:
    """Digest of one invocation, run in the current directory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert dispatch([*argv.split(), "--no-timestamp"]) == 0
    digest = hashlib.sha256(buf.getvalue().encode())
    if "--out" in argv.split():
        digest.update(Path("out").read_bytes())
    return digest.hexdigest()


_LAT = " ".join(LAT)
# invocation: (CSV digest, JSON digest)
PINNED = {
    "impedance --points 5": (
        "6514dacc7e14ff9919518e3614bcd9c0a39466a0fab07589a4b140628dbb62d1",
        "28430a59d5b87e7458b0d13cb24b2990879831c2ee6495f245cd246baac36916"),
    "arc --input spec.csv": (
        "b85c7bb0617b173ac540e01512e6c75a8cc073254b45405fd696ed4206b10e1d",
        "78345a41f4eac0de49fc4a4fe8333d595b8f7e0e2abc4f2b5787b35885ae3490"),
    "ml -3.5 --alpha 0.6": (
        "59b523c87103f00a8d927425e8e3dfbb534f3add8988a6faef7f8303c6b03272",
        "a4422874357ac9ca4510ac48da0c5e015c731d3b50399b2b3d3444de76b638a6"),
    # past the crossover: the asymptotic route
    "ml -30 --alpha 0.6": (
        "89f5ca5387a50128df4091e82dfc9cba06c269421726f3db2225db480cd078b5",
        "657339c04a657e96789883632a4c4b48589197d17a4eecc9f88ba24221dbbfe6"),
    "ml 25 --alpha 0.5": (
        "058432f8e1ffe7fd3f834d263c02e7cc2da3673e81feb72411795115b3c8a1bd",
        "48ccf0b2f183dd80816388926af5b40e53adb8531de4ed53b452724c230332f6"),
    "fracderiv --n 8": (
        "cd8b9c2c11dfcb3239794dda758b95e746cf48361cde55914fc8e8536ecd149d",
        "2f77d2e1a842a22dde3b876cb24bc70a9171904c4802ba922efa85987d0e66b6"),
    "fracderiv --input f.csv --alpha 0.3": (
        "7716a9553136b6a9f41ce8b169545244f7889305905ca1fc78ee7aa1b824ec3b",
        "675764b55a071a0d95b8cc1ed31271c0148b9636d72650132027f9f46d346710"),
    "phase --alpha 0.7": (
        "e9d0e2e547423e54225221929e7a4e4f4e18f32c6fb66feb129222b064327b17",
        "ca4009a16f96c99963625d0e34d3adcd56bc2f6966d6f77ca77445183f3777ac"),
    "twist 3 -1 0.125 2 5 0.375 --delta 0.25": (
        "af15aeafdad778d1e979e87aed830cf69c08b66b4a1c741924f8204b516d413d",
        "8f22339568c0dad23f8735bf9dd9d40e2bca1ae39b570fdff0c0c8ec30695f68"),
    "zeta eval --re 0.5 --im 25": (
        "20f19f0b01306149d062dd65ac3f4e80966bf632bd56de4859abbb5934c8e7cf",
        "c956a25d5def11288de2b7e0320542268fd728e0c5159cefb42f56d311dcea36"),
    "zeta zeros --tmax 40": (
        "46f54dc745107ea56c8e1598ec8e16a5cdd0bcb57e5a2e4b085ecf58c80cdb74",
        "167cfa7f0aef3a56cdcec94ffcd762ebd33c413183ab99dbfd9f2cac0c413459"),
    "zeta paircorr --tmax 260 --bins 10": (
        "6dda376f8340839fe221ab2a9201c1e696b50efcefb46a05e5bb57c56c73707c",
        "c3f6186fd987e6f01e94f1cd7873986f63c57af243986b2b0c313fd94bec89c3"),
    "zeta paircorr --source gue --dim 40 --trials 5 --seed 7 --bins 10": (
        "e9343042007e65a42fa020a9756533e6da29a55c97d6cfcd59bde7adddcd62a2",
        "6f70bb81b9eed40d2a3a8e659ca2eb77a13a144d5d1bce40c90e027a793a8a53"),
    "zeta gue --dim 20 --trials 2 --seed 2": (
        "3900cb9ccbd3ff269db3059eac2cf8f2a559ee9b377462edbc473a10dd2a8406",
        "ed92c7ad35a62ef8a63765fcbdef73103272d4dba54bc054fe1f2358637faa1b"),
    "zeta universality --tmax 5 --tstep 0.5": (
        "9e0f4cd6290f1d463608fce5bb43dd0b01106234fa17d00762bde0dbcd6658c0",
        "1a17816baf1eee80ab851e2b76e7e1de1de26b3f70e6ae2f3657dac359abdcbb"),
    "zeta xi --re 0.3 --im 4": (
        "2fd67c6964a84107366ec928a88dbee24bd3cb61b78adc437df2dde1ce42dddf",
        "0b37820de3efc9f1d80482620286e2a663d2147078aded2e6d85fb25d8759c9b"),
    "zeta spectral --eigenvalues 1 2 3 --s-re 1.5": (
        "726c56b28b8ba299cf06319cc40dc068b36d9f01cbe0fb8629eeff7de945f04e",
        "e28eb51424a7d8c78b5d750d670c65567cf1f9dafb6b3bd04322905053496f90"),
    "zeta spectral --eigenvalues 1 2 3 --s-re 1.5 --mellin": (
        "f0dcd6876b9d3984a972268d0fdb7c1a207364ab4eaad00673d888269ff9647d",
        "b50f93a6d51f6ae5eb0c83539b9f3f8772ff21db898c4d45563594645001239e"),
    # CSV quotes the factors cell, which holds commas (RFC 4180)
    "epr factor 360": (
        "f08570f5281d9b0ebb5835e0df68a5cfacb4170564ec5bb5f69fb2237cb3a131",
        "0f8d992bed3b37af2680318a64816f5366b129481ac372d1ef377785d59ea526"),
    "epr lattice 12 18": (
        "1ab9e16298ae9e9808133724ff2245db75bc93d4713167e9f9a85ceee6257b9d",
        "9a863dbedf1b40167cd8578e25819867d7b15fd85a1fc9b0431c6eb1229726ea"),
    "epr trace --nmax 200": (
        "679f7c9c54e1b95e6ccd2402fed59554801bafdb485a4e4c7defbb3799bdeb89",
        "92dd4ce7ac4f63f6687618bb4ca00506e7485d8b77e7ae742079a03101a46349"),
    "epr pair 7 11": (
        "98bea1b9fafc427d9e5aee32b3a8f8fe34855df0532f916e09b2b47549f4c43a",
        "dcd4c0a51ed32af121b820c57d55583e81394c3292c652416b514346870fb522"),
    "epr pair --invert 200": (
        "0f0781cc5252b22a8475ba0ebe2a4df79dbcdcc0e7471b57a8cc62134f125eb4",
        "5b2ddac457e31778b66115ee095f384b4d7c3cebacdfa96c3fbfb5c1dd4eb558"),
    # CSV quotes the sheets cell, which holds commas
    "epr fiber --copies 2": (
        "55709000ab86fcff84ebc4d8ea5a9968fd06afa58b4889ce934f814caa60fc6d",
        "768d089eafc61ebeac5ff3b9a9f8ad3a12f0e16d5e8eba4c92742ce9b81bb1f0"),
    f"loops kernel {_LAT}": (
        "45d962ef83a3047f393577055439aa8e61432b9b453090b77c4d298d4d2b0a9c",
        "e1789b0144ba98749818783dfd283f6801676d15693674650737bbacbb9c7808"),
    f"loops propagator {_LAT} --steps 5": (
        "a2359b8942d30f08677a7764c901959e121d8df96b17fc103ee24c6c3809900a",
        "0108fbe4c394c53f7459e8ce8ed3ac476f264b94160fe8e41eb2e2fe45fb251a"),
    f"loops propagator {_LAT} --steps 3 --all-steps": (
        "404a657e03494ce34e2ebf4c6fe42569184711a9991fbb5f2991df34093b740e",
        "3c206bc4599033ae0fc20099295b993ce71d12c4f88baf3c103f7382075ee6ee"),
    f"loops sample {_LAT} --paths 200 --steps 10 --seed 3": (
        "d54985a001fa87db172a5b412fbd1308ef248eae68afda2d59aee0ce8b97f2b5",
        "9a799556d39b226f07adb3d2134623ae894927da43894bacb40b6a499232bc60"),
    f"loops sample {_LAT} --mode open --paths 200 --steps 10 --seed 3": (
        "e0d70046db3b7e1052c52e0abd965bb5e82c3b5ebb4400c13d8c907d6d510149",
        "af7e1b31a1ff63043d49626ac7fe3e963584b73e6f66df0ac0aeabcbfe4c5045"),
    f"loops sample {_LAT} --boundary reflecting --mode open --paths 200 "
    "--steps 10 --seed 3": (
        "e0d70046db3b7e1052c52e0abd965bb5e82c3b5ebb4400c13d8c907d6d510149",
        "af7e1b31a1ff63043d49626ac7fe3e963584b73e6f66df0ac0aeabcbfe4c5045"),
    f"loops entropy {_LAT} --steps 5": (
        "d6fda52237c6892b700d47af281d7a498f8cbd4556ec3af97738e647d80b1c6d",
        "4973432ac78edb67e52f5e0301d426b269d209632641d750402b0fd890fb7c61"),
    "loops fluct --beta 4": (
        "6d8e23873b05de149d266168a46bb0466ade20c32f004bcda4f6e6d9726091bb",
        "a1f79f067dad6e92551d5d441559c184246f620657fa8c5305fe1189dad9adf5"),
    f"loops forwardbackward {_LAT} --steps 4": (
        "5ed3bbaf4bfdb79a5e4e633abc7b00d52aa7e29925333acaff41d64032d75b8d",
        "6cf6960c905162f48d9dd2b8a372ca02a5175d05762940446bb53e9c624ba947"),
    "fit --input spec.csv": (
        "f07fbe051035e180309f6e5ba3613b96555e0a018632b591fbff43986da30c05",
        "6dfac4d47009397f97fe00a3d6049f8eaa82f19ee434fe91e915c7ac84254e16"),
    "synth --points 6": (
        "5f81e6756f25d03e8260ca204ce28459b90317232a2f26252b530ce236df6991",
        "e05de5c91d6e2f1fca86261b8eeb033eba0f9b4c84f9ddffb546c81faf37c8a6"),
    # the record printed beside the --out spectrum follows --format
    "synth --points 6 --noise 0.01 --seed 4 --out out": (
        "281a1a8082c7b1daff3652f99df7417b100831efca274dde40c34de1848da53a",
        "8b97cb90857f56b481963a213aef0d50731ad586e99769d896d06ab8dd3f126b"),
    "zeta zeros --tmax 30 --out out": (
        "8f9b02dcfbbdda2267bbed045766a80aa8354bbcedfa17d0095305905b501cbd",
        "aa0edb54121fc61d89056ebb78e02b817f5063cbf37527b184c70e73f94593d4"),
}


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("argv", list(PINNED))
def test_pinned_output_bytes(argv, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_pinned_inputs(tmp_path)
    digest = PINNED[argv][fmt == "json"]
    assert _pinned_digest(f"{argv} --format {fmt}") == digest
