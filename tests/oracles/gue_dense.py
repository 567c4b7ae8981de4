"""The dense GUE draw, kept as the independent route for the GUE tests.

fraczeta.zetalab.gue_eigenvalues draws from the beta = 2 Hermite
tridiagonal model (Dumitriu & Edelman, J. Math. Phys. 43 (2002)
5830-5847).  This is the matrix that model reduces: a complex Hermitian
dim x dim matrix with a real N(0, 1) diagonal and (x + iy)/sqrt(2) above
it, x, y independent N(0, 1), whose semicircle support has radius
2 sqrt(dim).  Householder reduction keeps the first diagonal entry and
puts the norm of the column below it, the root of a sum of dim - 1 terms
(x^2 + y^2)/2, that is of chi2_{2(dim-1)}/2, next to it; the unitary
invariance of what remains repeats the step down to k = 1.  So the two
routes share one eigenvalue law in one normalisation.
tests/test_zetalab.py swaps this draw into zetalab.gue_sample and
requires the two routes to agree in law.
It costs a dense complex eigensolve per draw, about 4 times the
tridiagonal route's time at dim 200, and its bits depend on the BLAS
thread count.
"""

import math

import numpy as np


def gue_eigenvalues(dim, seed):
    """Eigenvalues of one dense GUE draw: real N(0,1) diagonal, (x+iy)/sqrt(2)
    above it; semicircle support radius 2 sqrt(dim)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim))
    y = rng.standard_normal((dim, dim))
    off = (np.triu(x, 1) + 1j * np.triu(y, 1)) / math.sqrt(2.0)
    h = off + off.conj().T + np.diag(np.diag(x))
    return np.linalg.eigvalsh(h)

