"""Reference route for the lattice bridge sampler, fraczeta.loopgas._sample_bridge.

This is the original gather/cumsum sampler.  At every step it gathers the
kernel rows g[cur] of all paths (paths x sites), weights them by the
backward partials, takes their cumulative sums and counts the entries
below a uniform draw.  The library now computes one n x n cumulative sum
per step, pads each row with +inf to a power-of-two width, and runs one
branchless lower-bound search for all paths at once.  A padded entry is
never below a finite draw, so the search counts the same entries as the
comparison here.  Both routes make the same floating-point operations and
the same random draws in the same order, so tests/test_loopgas.py requires
equal paths, not close ones.  Imported by the tests; it has no script entry.
"""

import numpy as np

CHUNK = 20000  # must equal fraczeta.loopgas._CHUNK: the draw order depends on it


def sample_bridge(g: np.ndarray, start: int, end: int, n_steps: int,
                  n_paths: int, rng) -> np.ndarray:
    """Exact lattice bridge: forward categorical sampling of the free
    chain pinned at both ends, using backward partials b_j = G^j[:, end].
    """
    n = g.shape[0]
    b = np.empty((n_steps, n))
    b[0] = 0.0
    b[0, end] = 1.0  # b_0 = e_end, used only to seed the recursion
    for j in range(1, n_steps):
        b[j] = g @ b[j - 1]
    paths = np.empty((n_paths, n_steps + 1), dtype=np.int64)
    paths[:, 0] = start
    paths[:, n_steps] = end
    for lo in range(0, n_paths, CHUNK):
        cur = np.full(min(CHUNK, n_paths - lo), start, dtype=np.int64)
        for k in range(1, n_steps):
            w = g[cur] * b[n_steps - k][None, :]
            cs = np.cumsum(w, axis=1)
            u = rng.random(cur.size) * cs[:, -1]
            cur = np.minimum((cs < u[:, None]).sum(axis=1), n - 1)
            paths[lo: lo + cur.size, k] = cur
    return paths
