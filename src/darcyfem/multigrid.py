"""Smoothed-aggregation algebraic multigrid for the pressure Schur system.

The hierarchy (Vanek, Mandel & Brezina 1996) is built once per mesh from a
reference matrix S0 that does not depend on the relaxation weight or the
velocity iterate:

* the strong-connection graph of S0 is split greedily into aggregates;
* the tentative prolongator T injects the constant vector aggregate by
  aggregate, and one damped-Jacobi step P = (I - omega D^-1 S0) T smooths
  it, with omega = 4 / (3 rho) and rho the Gershgorin bound of D^-1 S0;
* the same is repeated on P^T S0 P until at most ``MAX_COARSE`` unknowns
  are left.

Only the prolongators are kept.  Each system S that is solved gets its own
Galerkin operators P^T S P and a dense pseudo-inverse of the coarsest one
(:class:`VCycle`), so a hierarchy can serve concurrent solves.  P carries
constants to constants and every Galerkin operator keeps them as its
kernel, which the coarsest solve removes with a rank-one shift.

Only numpy and ``scipy.sparse`` are used: ``scipy.sparse.linalg`` and
``scipy.linalg`` would add about 10 MiB and 0.13 s to every process.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

MAX_COARSE = 64
STRENGTH_THETA = 0.08
SMOOTHING_SWEEPS = 2


def _jacobi_weights(a: sp.csr_matrix) -> np.ndarray:
    """omega D^-1, with omega = 4 / (3 rho) and rho the Gershgorin bound of
    D^-1 A, so that damped Jacobi reduces every error mode."""
    diag = a.diagonal()
    rows = np.asarray(abs(a).sum(axis=1)).ravel()
    return 4.0 / (3.0 * float(np.max(rows / diag))) / diag


def _aggregate(a: sp.csr_matrix) -> np.ndarray:
    """Greedy aggregation of the strong-connection graph of ``a``.

    j is a strong neighbour of i when |a_ij| >= theta sqrt(a_ii a_jj).
    Pass 1 makes every vertex whose strong neighbours are all free the root
    of an aggregate with those neighbours; pass 2 attaches each remaining
    vertex to the aggregate of a pass-1 neighbour; pass 3 groups what is left
    around itself.  Returns the aggregate index of every vertex.
    """
    n = a.shape[0]
    coo = a.tocoo()
    diag = np.abs(a.diagonal())
    strong = (coo.row != coo.col) & (np.abs(coo.data) >= STRENGTH_THETA
                                     * np.sqrt(diag[coo.row] * diag[coo.col]))
    graph = sp.csr_matrix((np.ones(int(strong.sum())),
                           (coo.row[strong], coo.col[strong])), shape=(n, n))
    ptr = graph.indptr.tolist()
    nbrs = [graph.indices[ptr[i]:ptr[i + 1]].tolist() for i in range(n)]
    agg = [-1] * n
    count = 0
    for i in range(n):
        if agg[i] < 0 and all(agg[j] < 0 for j in nbrs[i]):
            agg[i] = count
            for j in nbrs[i]:
                agg[j] = count
            count += 1
    first = list(agg)
    for i in range(n):
        if agg[i] < 0:
            for j in nbrs[i]:
                if first[j] >= 0:
                    agg[i] = first[j]
                    break
    for i in range(n):
        if agg[i] < 0:
            agg[i] = count
            for j in nbrs[i]:
                if agg[j] < 0:
                    agg[j] = count
            count += 1
    return np.asarray(agg)


class SmoothedAggregation:
    """Prolongators of a smoothed-aggregation hierarchy, built from ``s0``.

    ``sizes`` lists the number of unknowns per level, finest first; a matrix
    with at most ``MAX_COARSE`` rows gives a single level.
    """

    def __init__(self, s0: sp.csr_matrix):
        prolongators = []
        a = s0.tocsr()
        while a.shape[0] > MAX_COARSE:
            n = a.shape[0]
            agg = _aggregate(a)
            n_coarse = int(agg.max()) + 1
            if n_coarse >= n:
                break
            t = sp.csr_matrix((np.ones(n), (np.arange(n), agg)),
                              shape=(n, n_coarse))
            p = (t - sp.diags(_jacobi_weights(a)) @ (a @ t)).tocsr()
            r = p.T.tocsr()
            prolongators.append((p, r))
            a = (r @ a @ p).tocsr()
        self.prolongators = tuple(prolongators)
        self.sizes = tuple([s0.shape[0]] + [p.shape[1]
                                            for p, _ in prolongators])


class VCycle:
    """Symmetric V-cycle for one matrix ``s`` on a fixed hierarchy.

    ``SMOOTHING_SWEEPS`` damped-Jacobi sweeps before and after each coarse
    correction; the output is projected to mean zero, the range of S.
    """

    def __init__(self, hierarchy: SmoothedAggregation, s: sp.csr_matrix):
        self.levels = []
        a = s
        for p, r in hierarchy.prolongators:
            self.levels.append((a, _jacobi_weights(a), p, r))
            a = (r @ a @ p).tocsr()
        # Shifting along the constants makes the coarsest operator regular
        # without changing its action on mean-zero vectors.
        dense = a.toarray()
        shift = float(np.mean(np.diagonal(dense)))
        self.coarse = np.linalg.pinv(dense + shift / dense.shape[0],
                                     hermitian=True)

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return self.coarse @ r
        a, w, p, rt = self.levels[level]
        x = w * r
        for _ in range(SMOOTHING_SWEEPS - 1):
            x += w * (r - a @ x)
        x += p @ self._cycle(level + 1, rt @ (r - a @ x))
        for _ in range(SMOOTHING_SWEEPS):
            x += w * (r - a @ x)
        return x

    def __call__(self, r: np.ndarray) -> np.ndarray:
        z = self._cycle(0, r)
        return z - z.mean()
