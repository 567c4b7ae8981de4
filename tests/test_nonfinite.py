"""Non-finite and out-of-domain input is refused with a ValueError that
names the argument, never returned as NaN or printed as invalid JSON."""

import math

import numpy as np
import pytest

from fraczeta.cli import build_parser
from fraczeta.eprspace import trace_exp
from fraczeta.fracdyn import (SHIFT_U, SHIFT_V, TwistedShift, arc_fit,
                              gl_fracderiv, gl_weights, twisted_compose)
from fraczeta.loopgas import fluctuation_bound, make_lattice, thermal_time
from fraczeta.zetalab import (Disc, ZeroList, euler_product, gue_eigenvalues,
                              mean_zero_count, pair_correlation, partial_zeta,
                              spectral_zeta, universality_scan)


def _handler(*argv):
    """Run one CLI handler on parsed argv, letting its error propagate."""
    args = build_parser().parse_args([*argv, "--no-timestamp"])
    return args.func(args)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: partial_zeta(math.nan, 5), "s", id="partial_zeta"),
    pytest.param(lambda: mean_zero_count(math.nan), "t",
                 id="mean_zero_count_nan"),
    pytest.param(lambda: mean_zero_count(math.inf), "t",
                 id="mean_zero_count_inf"),
    pytest.param(lambda: mean_zero_count(-1.0), "t",
                 id="mean_zero_count_negative"),
    pytest.param(lambda: Disc(complex(math.nan), 0.05), "center", id="Disc"),
    pytest.param(lambda: ZeroList(ordinates=(math.nan,), tol=1e-9, t_max=1.0),
                 "ordinates", id="ZeroList"),
    pytest.param(lambda: euler_product(complex(2.0, math.nan), 10), "s",
                 id="euler_product"),
    pytest.param(lambda: spectral_zeta([1.0, 2.0], math.nan), "s",
                 id="spectral_zeta"),
    pytest.param(lambda: trace_exp(10, math.nan), "s", id="trace_exp"),
    pytest.param(lambda: gl_fracderiv([1.0, math.nan, 2.0], 0.5, 0.1),
                 "samples", id="gl_fracderiv"),
    pytest.param(lambda: gl_weights(math.nan, 4), "alpha", id="gl_weights"),
    pytest.param(lambda: gl_weights(0.5, 0), "n", id="gl_weights_empty"),
    pytest.param(lambda: arc_fit([1.0, 2.0 + 1j, complex(math.nan), 4.0]),
                 "points", id="arc_fit"),
    pytest.param(lambda: pair_correlation(
        np.r_[np.arange(200.0), math.nan], 3.0, 10), "positions",
        id="pair_correlation"),
    pytest.param(lambda: gue_eigenvalues(0, 1), "dim", id="gue_eigenvalues"),
    pytest.param(lambda: TwistedShift(0, 1, math.inf), "theta",
                 id="TwistedShift"),
    pytest.param(lambda: twisted_compose(SHIFT_U, SHIFT_V, math.inf),
                 "delta", id="twisted_compose"),
    pytest.param(lambda: fluctuation_bound(1.0, 0.5, mass=math.inf), "mass",
                 id="fluctuation_bound_mass"),
    pytest.param(lambda: thermal_time(math.inf), "beta", id="thermal_time"),
    pytest.param(lambda: make_lattice(-math.inf, 4.0, 41, 0.01), "x_min",
                 id="LoopLattice_x_min"),
    pytest.param(lambda: make_lattice(-4.0, math.inf, 41, 0.01), "x_max",
                 id="LoopLattice_x_max"),
    pytest.param(lambda: make_lattice(-4.0, 4.0, 41, 0.01, mass=math.inf),
                 "mass", id="LoopLattice_mass"),
    pytest.param(lambda: make_lattice(-4.0, 4.0, 41, 0.01, hbar=math.inf),
                 "hbar", id="LoopLattice_hbar"),
    pytest.param(lambda: universality_scan(Disc(0.75, 0.05),
                                           lambda s: math.nan, 0.3, 1.0, 0.5),
                 "target", id="universality_scan_target"),
    pytest.param(lambda: thermal_time(1.0, math.nan), "hbar",
                 id="thermal_time_hbar"),
    pytest.param(lambda: _handler("loops", "fluct", "--beta", "inf"), "beta",
                 id="cli_loops_fluct_beta"),
    pytest.param(lambda: _handler("loops", "fluct", "--hbar", "inf"), "hbar",
                 id="cli_loops_fluct_hbar"),
    pytest.param(lambda: _handler("twist", "1", "2", "nan", "3", "4", "0",
                                  "--delta", "0.1"), "theta", id="cli_twist"),
])
def test_non_finite_input_is_a_named_error(call, name):
    # out-of-domain counts are not a finiteness question
    what = ">= 1" if name in ("n", "dim") else "finite"
    with pytest.raises(ValueError, match=rf"^{name} must be {what}"):
        call()
