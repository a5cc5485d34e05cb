"""Smoothed-aggregation algebraic multigrid for the pressure Schur system.

The hierarchy (Vanek, Mandel & Brezina 1996) is built once per mesh from a
reference matrix S0 that does not depend on the relaxation weight or the
velocity iterate:

* the strong-connection graph of S0 is split greedily into aggregates;
* the tentative prolongator T injects the constant vector aggregate by
  aggregate, and one damped-Jacobi step P = (I - omega D^-1 S0) T smooths
  it, with omega = 4 / (3 rho) and rho the Gershgorin bound of D^-1 S0.
  P is formed from the level's pattern and the aggregates by index
  arithmetic, not by sparse products: row i holds the distinct aggregates
  of the columns of row i, stored in ascending order, and R = P^T is its
  stable counting transpose;
* the same is repeated on P^T S0 P until at most ``MAX_COARSE`` unknowns
  are left.

Besides the prolongators the hierarchy keeps, for every level, the sparsity
pattern of the Galerkin operator P^T S P of any S with the pattern of S0,
and two sparse maps built by index arithmetic, each from one packed sort of
its terms' row-major keys (:func:`darcyfem.mesh.stable_sort`, the order of
a stable sort): Q1 with data(S P) = Q1 @ data(S) and Q2 with
data(P^T (S P)) = Q2 @ data(S P).  Only the two factors are built: their
product lists every P_iI S_ij P_jJ, 547 019 terms
on the finest level at N = 112 against 387 066 in Q1 and Q2 together, and
the factors take less than half the time and peak memory to build.
Every coarse operator, of S0 while the hierarchy is built and of each
solved S (which must have the pattern of S0, as every fixed-point step's
Schur matrix does), is Q2 @ (Q1 @ data) per level; each S gets its own and a
dense inverse of the coarsest one (:class:`VCycle`), or shares those of a
V-cycle built for a nearby S (:meth:`VCycle.with_finest`; on a single level
the coarsest operator is S itself, which is inverted anew).  P carries
constants to constants and every Galerkin operator keeps them as its kernel,
which the coarsest solve removes with a rank-one shift.

Only numpy and ``scipy.sparse`` are used: ``scipy.sparse.linalg`` and
``scipy.linalg`` would add about 10 MiB and 0.13 s to every process.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp

from .mesh import stable_sort

MAX_COARSE = 64
STRENGTH_THETA = 0.08
SMOOTHING_SWEEPS = 2


class Pattern:
    """Sparsity pattern of one level's square operator: CSR index arrays plus
    the row of every stored entry and the slots of the diagonal."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.n = indptr.size - 1
        self.indptr = indptr
        self.indices = indices
        self.rows = np.repeat(np.arange(self.n, dtype=indices.dtype),
                              np.diff(indptr))
        self.diag = np.flatnonzero(indices == self.rows)

    def matches(self, a: sp.csr_matrix) -> bool:
        """Whether ``a`` is a square CSR matrix with this pattern.  A matrix
        made by :meth:`matrix` holds this pattern's own index arrays (scipy
        keeps ``indices`` as a view of all of the given array), which is
        accepted without comparing the entries."""
        if a.shape != (self.n, self.n):
            return False
        if (a.indptr is self.indptr and a.indices.__array_interface__
                == self.indices.__array_interface__):
            return True
        return (np.array_equal(a.indptr, self.indptr)
                and np.array_equal(a.indices, self.indices))

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.n, self.n))

    def jacobi_weights(self, data: np.ndarray) -> np.ndarray:
        """omega D^-1, with omega = 4 / (3 rho) and rho the Gershgorin bound
        of D^-1 A, so that damped Jacobi reduces every error mode."""
        diag = data[self.diag]
        rho = np.max(np.bincount(self.rows, weights=np.abs(data),
                                 minlength=self.n) / diag)
        return 4.0 / (3.0 * float(rho)) / diag

    def dense(self, data: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.rows, self.indices] = data
        return out


def _terms(rows: np.ndarray, cols: np.ndarray, indptr: np.ndarray,
           indices: np.ndarray, n_cols: int):
    """The terms L_ab R_bc of a sparse product L R, for every stored L_ab
    (row ``rows``, column ``cols``, in storage order) and every stored R_bc
    (CSR ``indptr`` and ``indices``): the slot of each factor and the
    product's row-major key a * n_cols + c."""
    count = np.diff(indptr)[cols]
    left = np.repeat(np.arange(cols.size, dtype=np.int32), count)
    right = np.arange(left.size) - np.repeat(np.cumsum(count) - count
                                             - indptr[cols], count)
    keys = rows[left].astype(np.int64) * n_cols + indices[right]
    return left, right, keys


def product_map(keys: np.ndarray, values: np.ndarray, entry: np.ndarray,
                n_entries: int, n_rows: int, n_cols: int):
    """Pattern and map of a sparse product from its terms.

    Term t adds ``values[t]`` times stored entry ``entry[t]`` of the variable
    factor to the product's entry with the row-major key ``keys[t]``.
    Returns the product's CSR ``indptr`` and ``indices`` and the map Q with
    data(product) = Q @ data(variable factor).  One packed sort of the keys
    (:func:`~darcyfem.mesh.stable_sort`) lays the terms out as Q's rows,
    keeping the given order within each row; ``indptr`` counts the distinct
    keys of each row.
    """
    order, keys = stable_sort(keys, n_rows * n_cols)
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    keys = keys[first]
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n_cols, minlength=n_rows), out=indptr[1:])
    indices = (keys % n_cols).astype(np.int32)
    q_indptr = np.append(first, order.size).astype(np.int32)
    q = sp.csr_matrix((values[order], entry[order], q_indptr),
                      shape=(keys.size, n_entries))
    return indptr, indices, q


def _galerkin_maps(fine: Pattern, p: sp.csr_matrix, r: sp.csr_matrix):
    """Pattern of P^T A P for any A with pattern ``fine``, and the sparse
    maps Q1 and Q2 with data(P^T A P) = Q2 @ (Q1 @ data(A)), given P and
    R = P^T in CSR form.

    Q1 forms A P: the entry A_ij contributes A_ij P_jJ to (i, J) for every
    stored P_jJ.  Q2 forms R (A P): the entry (A P)_iJ contributes
    R_Ii (A P)_iJ to (I, J) for every stored R_Ii.  Each (slot, entry) pair
    of a map arises once.
    """
    n_coarse = p.shape[1]
    # There is one term per entry of a map; free each term-sized temporary
    # as soon as it is used, to keep the peak memory of the build down.
    entry, k, keys = _terms(fine.rows, fine.indices, p.indptr, p.indices,
                            n_coarse)
    values = p.data[k]
    del k
    ap_indptr, ap_indices, q1 = product_map(
        keys, values, entry, fine.indices.size, fine.n, n_coarse)
    del entry, keys, values
    r_rows = np.repeat(np.arange(n_coarse, dtype=np.int32), np.diff(r.indptr))
    k, entry, keys = _terms(r_rows, r.indices, ap_indptr, ap_indices,
                            n_coarse)
    values = r.data[k]
    del k
    indptr, indices, q2 = product_map(
        keys, values, entry, ap_indices.size, n_coarse, n_coarse)
    return Pattern(indptr, indices), q1, q2


def _aggregate(pattern: Pattern, data: np.ndarray) -> np.ndarray:
    """Greedy aggregation of the strong-connection graph of (pattern, data).

    j is a strong neighbour of i when |a_ij| >= theta sqrt(a_ii a_jj).
    Pass 1 takes the vertices in order and makes every vertex whose strong
    neighbours are all free the root of an aggregate with those neighbours;
    pass 2 attaches each remaining vertex to the aggregate of its first
    pass-1 neighbour.  Neighbours are taken in ascending column order,
    whatever the storage order of the pattern.  A vertex pass 1 leaves has a
    neighbour pass 1 placed, or it would have become a root, so pass 2
    places every vertex and the usual third pass, which groups what is left,
    has nothing to do.  Returns the aggregate index of every vertex.
    """
    n, rows, cols = pattern.n, pattern.rows, pattern.indices
    diag = np.abs(data[pattern.diag])
    strong = (rows != cols) & (np.abs(data) >= STRENGTH_THETA
                               * np.sqrt(diag[rows] * diag[cols]))
    before = np.concatenate(([0], np.cumsum(strong)))
    graph = sp.csr_matrix((np.ones(int(before[-1])), cols[strong],
                           before[pattern.indptr]), shape=(n, n))
    graph.sort_indices()
    ptr = graph.indptr.tolist()
    col = graph.indices.tolist()
    is_root = np.zeros(n, dtype=bool)
    taken = set()
    for i in range(n):
        if i not in taken:
            nbrs = col[ptr[i]:ptr[i + 1]]
            if taken.isdisjoint(nbrs):
                is_root[i] = True
                taken.add(i)
                taken.update(nbrs)
    # Pass-1 aggregates do not overlap, so they are one scatter; pass 2 reads
    # only them, so it attaches every remaining vertex at once.
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    number = np.cumsum(is_root) - 1
    first = np.where(is_root, number, -1)
    member = is_root[src]
    first[graph.indices[member]] = number[src[member]]
    attach = np.flatnonzero((first[src] < 0) & (first[graph.indices] >= 0))
    lead = attach[np.diff(src[attach], prepend=-1) != 0]
    agg = first.copy()
    agg[src[lead]] = first[graph.indices[lead]]
    return agg


def _prolongators(fine: Pattern, data: np.ndarray, agg: np.ndarray,
                  n_coarse: int):
    """P = T - omega D^-1 A T and R = P^T, for A = (fine, data) and the
    tentative prolongator T with T_iJ = 1 when agg[i] = J, formed from A's
    pattern by index arithmetic.

    The columns of row i of P are the distinct aggregates of the columns of
    row i of A, stored in ascending order.  (A T)_iJ sums the A_ij with
    agg[j] = J in storage order, from zero, and entries that come out
    exactly zero are dropped: the values and the pattern of the sparse
    products (t - diags(omega D^-1) @ (A @ t)), whose rows scipy leaves
    unsorted.  R holds each column of P in ascending row order.
    """
    keys = fine.rows * np.int64(n_coarse) + agg[fine.indices]
    order, keys = stable_sort(keys, fine.n * n_coarse)
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    # The sort is stable, so every sum runs in storage order.
    at = np.bincount(np.cumsum(new) - 1, weights=data[order])
    keys = keys[new]
    rows = keys // n_coarse
    cols = keys - rows * n_coarse
    t = cols == agg[rows]
    values = t - fine.jacobi_weights(data)[rows] * at
    keep = values != 0
    indptr = np.zeros(fine.n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows[keep], minlength=fine.n), out=indptr[1:])
    p = sp.csr_matrix((values[keep], cols[keep].astype(np.int32), indptr),
                      shape=(fine.n, n_coarse))
    return p, p.T.tocsr()


class SmoothedAggregation:
    """Prolongators of a smoothed-aggregation hierarchy, built from ``s0``.

    ``sizes`` lists the number of unknowns per level, finest first; a matrix
    with at most ``MAX_COARSE`` rows gives a single level.  ``patterns``
    holds the sparsity pattern of every level's Galerkin operator P^T S P for
    any S with the pattern of ``s0``.  ``maps[l]`` is the pair (Q1, Q2) that
    carries the stored entries of level l to those of level l + 1 as
    Q2 @ (Q1 @ data): Q1 to the entries of A P, Q2 from those to the entries
    of P^T (A P); the same maps form the coarser levels of ``s0`` itself.
    """

    def __init__(self, s0: sp.csr_matrix):
        prolongators = []
        patterns = [Pattern(s0.indptr, s0.indices)]
        maps = []
        data = s0.data
        while patterns[-1].n > MAX_COARSE:
            fine = patterns[-1]
            agg = _aggregate(fine, data)
            n_coarse = int(agg.max()) + 1
            if n_coarse >= fine.n:
                break
            p, r = _prolongators(fine, data, agg, n_coarse)
            prolongators.append((p, r))
            coarse, q1, q2 = _galerkin_maps(fine, p, r)
            patterns.append(coarse)
            maps.append((q1, q2))
            data = q2 @ (q1 @ data)
        self.prolongators = tuple(prolongators)
        self.patterns = tuple(patterns)
        self.maps = tuple(maps)
        self.sizes = tuple(pattern.n for pattern in patterns)


def _coarse_inverse(pattern: Pattern, data: np.ndarray) -> np.ndarray:
    """Dense inverse of the coarsest operator (pattern, data), shifted along
    the constants, which makes it regular without changing its action on
    mean-zero vectors."""
    shift = float(np.mean(data[pattern.diag]))
    return np.linalg.inv(pattern.dense(data) + shift / pattern.n)


class VCycle:
    """Symmetric V-cycle for one matrix ``s`` on a fixed hierarchy.

    ``s`` must have the sparsity pattern of the matrix the hierarchy was
    built from.  ``SMOOTHING_SWEEPS`` damped-Jacobi sweeps before and after
    each coarse correction; the output is projected to mean zero, the range
    of S.
    """

    def __init__(self, hierarchy: SmoothedAggregation, s: sp.csr_matrix):
        patterns = hierarchy.patterns
        self.pattern = patterns[0]
        self._check(s)
        self.levels = []
        data = s.data
        for level, (pattern, (p, r), (q1, q2)) in enumerate(
                zip(patterns, hierarchy.prolongators, hierarchy.maps)):
            a = s if level == 0 else pattern.matrix(data)
            self.levels.append((a, pattern.jacobi_weights(data), p, r))
            data = q2 @ (q1 @ data)
        self.coarse = _coarse_inverse(patterns[-1], data)

    def _check(self, s: sp.csr_matrix) -> None:
        if not self.pattern.matches(s):
            raise ValueError("the matrix does not have the sparsity pattern "
                             "the multigrid hierarchy was built on")

    def with_finest(self, s: sp.csr_matrix | None) -> VCycle:
        """This V-cycle with ``s``, on the same pattern, as its finest
        operator.

        Everything else is shared, not rebuilt: the transfer operators, the
        coarse operators and the coarsest inverse, and the Jacobi weights of
        every level, the finest included, which stay those of the matrix
        the V-cycle was built on.  On a single level, where the coarsest
        operator is ``s`` itself, the coarsest inverse is that of ``s``, as
        in a fresh V-cycle: it costs one dense inverse of at most
        ``MAX_COARSE`` unknowns.  ``s = None`` gives a V-cycle that holds no
        finest operator and cannot be applied: a way to keep one without
        keeping its matrix alive.
        """
        if s is not None:
            self._check(s)
        out = copy.copy(self)
        if self.levels:
            _, w, p, r = self.levels[0]
            out.levels = [(s, w, p, r), *self.levels[1:]]
        else:
            out.coarse = None if s is None \
                else _coarse_inverse(self.pattern, s.data)
        return out

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
