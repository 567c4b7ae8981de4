"""Non-finite input is refused with a ValueError that names the argument,
never returned as NaN or printed as invalid JSON."""

import math

import numpy as np
import pytest

from fraczeta.cli import build_parser
from fraczeta.eprspace import trace_exp
from fraczeta.fracdyn import (SHIFT_U, SHIFT_V, TwistedShift, gl_fracderiv,
                              twisted_compose)
from fraczeta.zetalab import (euler_product, pair_correlation, partial_zeta,
                              spectral_zeta)


def _handler(*argv):
    """Run one CLI handler on parsed argv, letting its error propagate."""
    args = build_parser().parse_args([*argv, "--no-timestamp"])
    return args.func(args)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: partial_zeta(math.nan, 5), "s", id="partial_zeta"),
    pytest.param(lambda: euler_product(complex(2.0, math.nan), 10), "s",
                 id="euler_product"),
    pytest.param(lambda: spectral_zeta([1.0, 2.0], math.nan), "s",
                 id="spectral_zeta"),
    pytest.param(lambda: trace_exp(10, math.nan), "s", id="trace_exp"),
    pytest.param(lambda: gl_fracderiv([1.0, math.nan, 2.0], 0.5, 0.1),
                 "samples", id="gl_fracderiv"),
    pytest.param(lambda: pair_correlation(
        np.r_[np.arange(200.0), math.nan], 3.0, 10), "positions",
        id="pair_correlation"),
    pytest.param(lambda: TwistedShift(0, 1, math.inf), "theta",
                 id="TwistedShift"),
    pytest.param(lambda: twisted_compose(SHIFT_U, SHIFT_V, math.inf),
                 "delta", id="twisted_compose"),
    pytest.param(lambda: _handler("twist", "1", "2", "nan", "3", "4", "0",
                                  "--delta", "0.1"), "theta", id="cli_twist"),
])
def test_non_finite_input_is_a_named_error(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        call()
