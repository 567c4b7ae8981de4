"""Taylor coefficients of the Riemann-Siegel corrections C_0..C_4, by mpmath.

fraczeta.zetalab keeps C_k(p) as a committed table of Taylor coefficients
in x = p - 1/2 (_RS_COEFFS); this script regenerates it, and
tests/test_zetalab.py requires the committed table to equal its output
rounded to double.  Run as a script, it prints the table as zetalab.py
holds it.

The series come from

    Psi(1/2 + x) = -cos(2 pi x^2 - 5 pi/8) / cos(2 pi x),

an entire function, and the standard formulas (Gabcke 1979; Edwards,
Riemann's Zeta Function, section 7.4)

    C_0 = Psi
    C_1 = -Psi^(3) / (96 pi^2)
    C_2 = Psi^(2) / (64 pi^2) + Psi^(6) / (18432 pi^4)
    C_3 = -Psi^(1) / (64 pi^2) - Psi^(5) / (3840 pi^4)
          - Psi^(9) / (5308416 pi^6)
    C_4 = Psi / (128 pi^2) + 19 Psi^(4) / (24576 pi^4)
          + 11 Psi^(8) / (5898240 pi^6) + Psi^(12) / (2038431744 pi^8).

Psi's series is the quotient of the numerator's and denominator's series.
That division cannot be done in float64: the denominator vanishes at
x = +-1/4, so the series of 1/cos(2 pi x) grows like 4^n, and Psi's
small coefficients are differences of terms that large.  The round-off
grows like 4^n with them (C_4 came out wrong by up to 1e13 that way),
so the division runs here at _DPS decimal digits, which leaves more than
60 correct digits at the highest order used.

Each C_k is even in x for even k and odd for odd k.  A row keeps its
terms up to the last whose size at the ends |x| = 1/2 is at least
_TRUNC_TOL, which gives degrees 38 to 42; the terms it drops sum to
under 1e-17 there (dropped_tails), below a double's rounding of C_k.
"""

import mpmath

_DPS = 100
_PSI_ORDER = 80        # Psi's series degree; C_4 needs 12 more than its own
_TRUNC_TOL = 1e-17

# (k, ((j, (sign, denominator, power of pi)), ...)): C_k's coefficient on
# Psi^(j) is sign / (denominator pi^power), as in the docstring
_FORMULAS = (
    (0, ((0, (1, 1, 0)),)),
    (1, ((3, (-1, 96, 2)),)),
    (2, ((2, (1, 64, 2)), (6, (1, 18432, 4)))),
    (3, ((1, (-1, 64, 2)), (5, (-1, 3840, 4)), (9, (-1, 5308416, 6)))),
    (4, ((0, (1, 128, 2)), (4, (19, 24576, 4)), (8, (11, 5898240, 6)),
         (12, (1, 2038431744, 8)))),
)


def _psi_series(order):
    """Taylor coefficients of Psi(1/2 + x) up to x^order, as mpf."""
    two_pi = 2 * mpmath.pi
    num = [mpmath.mpf(0)] * (order + 1)
    # cos(y - 5pi/8) = cos(5pi/8) cos(y) + sin(5pi/8) sin(y), y = 2 pi x^2
    c, s = mpmath.cos(5 * mpmath.pi / 8), mpmath.sin(5 * mpmath.pi / 8)
    for m in range(order // 2 + 1):
        term = two_pi ** m / mpmath.factorial(m)
        if m % 2 == 0:
            num[2 * m] = c * term * (-1) ** (m // 2)
        else:
            num[2 * m] = s * term * (-1) ** (m // 2)
    den = [mpmath.mpf(0)] * (order + 1)
    for m in range(0, order + 1, 2):
        den[m] = (-1) ** (m // 2) * two_pi ** m / mpmath.factorial(m)
    quo = []
    for m in range(order + 1):
        quo.append((num[m] - sum(den[j] * quo[m - j] for j in range(1, m + 1)))
                   / den[0])
    return [-q for q in quo]


def _series():
    """C_k's Taylor coefficients in x = p - 1/2, as mpf, for k = 0..4:
    row k the coefficients of x^(2i + k % 2) up to degree _PSI_ORDER - 12."""
    psi = _psi_series(_PSI_ORDER)
    degree = _PSI_ORDER - 12
    rows = []
    for k, terms in _FORMULAS:
        coef = [mpmath.mpf(0)] * (degree + 1)
        for j, (sign, den, pi_pow) in terms:
            scale = mpmath.mpf(sign) / (den * mpmath.pi ** pi_pow)
            for m in range(degree + 1):
                # d^j/dx^j of psi_{m+j} x^{m+j} gives (m+j)!/m! psi_{m+j} x^m
                coef[m] += (scale * mpmath.factorial(m + j)
                            / mpmath.factorial(m) * psi[m + j])
        rows.append(coef[k % 2::2])
    return rows


def _kept(row, k):
    """How many of row's terms rs_coefficients keeps."""
    return 1 + max(i for i, c in enumerate(row)
                   if abs(c) * mpmath.mpf(2) ** -(2 * i + k % 2) >= _TRUNC_TOL)


def rs_coefficients():
    """The table as doubles: a tuple of 5 tuples, entry i of row k the
    coefficient of x^(2i + k % 2) in C_k(1/2 + x)."""
    with mpmath.workdps(_DPS):
        return tuple(tuple(float(c) for c in row[:_kept(row, k)])
                     for k, row in enumerate(_series()))


def dropped_tails():
    """Per row, sum over the dropped terms of |c_m| 2^-m, the most their
    sum can reach on |x| <= 1/2."""
    with mpmath.workdps(_DPS):
        return [float(sum(abs(c) * mpmath.mpf(2) ** -(2 * i + k % 2)
                          for i, c in enumerate(row) if i >= _kept(row, k)))
                for k, row in enumerate(_series())]


if __name__ == "__main__":
    print("_RS_COEFFS = (")
    for row in rs_coefficients():
        cells = [repr(c) for c in row]
        lines = [", ".join(cells[i:i + 3]) for i in range(0, len(cells), 3)]
        print("    (" + ",\n     ".join(lines) + "),")
    print(")")
