"""End-to-end checks of the batch command-line interface.

Every invocation goes through dispatch(), the same entry point the
installed script uses, so exit codes, stdout bytes, and file outputs
are exercised exactly as a shell user would see them.
"""

import json
import math

import numpy as np
import pytest

from fraczeta.cli import dispatch
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
