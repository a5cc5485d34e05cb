"""Mixed assembly with elementwise velocity elimination.

Testing the momentum equation against piecewise-constant velocities decouples
it element by element: each triangle k carries a 2x2 SPD block

    A_k = (alpha + (beta/rho) |u_prev_k|) |k| I + (mu/rho) INT_k K^-1 dx,

so the velocity can be eliminated exactly, leaving the SPD pressure Schur
system S p = G with S = B A^-1 B^T, where B_{jk} = |k| grad(phi_j)|_k couples
pressure test functions to element velocities.  S is singular exactly on
constants; the conjugate gradient solver below deflates that mode and the
pressure is afterwards shifted to zero mean.  CG is preconditioned by a
smoothed-aggregation V-cycle (:mod:`.multigrid`) whose hierarchy is built
once per mesh from S0 = B diag(1/|k|) B^T.  Velocity recovery
u_k = A_k^-1 (F_k - |k| grad p|_k) then satisfies the momentum rows exactly.
Each step's system keeps its V-cycle, so a step whose solve is continued
(the finishing solve of an inexact step) builds it once; a system may also
be given a V-cycle built for an earlier step's S, with its own S swapped in
as the finest operator (``VCycle.with_finest``), which
:func:`~darcyfem.nonlinear_solver.solve` does while the drag weights stay
close to those the V-cycle was built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh
from .multigrid import Pattern, SmoothedAggregation, VCycle, product_map
from .problems import ProblemConfigError, ProblemSpec, eval_k_inverse
from .spaces import (
    ElementCarry,
    P0VectorField,
    P1ScalarField,
    boundary_samples,
    physical_points,
    project_mean_zero,
    quadrature_sums,
    row_norms,
    sample,
    triangle_rule,
)

# Mixed absolute/relative tolerance of the compatibility check: near-zero
# data (e.g. analytically divergence-free flux with exponentially small
# boundary tails) must not trip it on quadrature crumbs.
COMPAT_TOL = 1e-8
# Relative residual a finished pressure solve reaches (see deflated_cg).
CG_TOL = 1e-12
# Degree of the volume rules of the step's data and of the momentum
# residual (IndicatorContext), and Gauss points per boundary edge of the
# load; the indicators' edge means take indicators.EDGE_QUAD_POINTS.
VOLUME_DEGREE = 4
LOAD_EDGE_POINTS = 4


class CompatibilityError(ValueError):
    """Raised when the mass source and boundary flux are incompatible."""


class LinearSolverError(RuntimeError):
    """Raised when the pressure solve fails; carries the residual history.

    ``step`` is the fixed-point step whose pressure solve raised, which
    :func:`~darcyfem.nonlinear_solver.solve` records; 0 outside the
    iteration (the Darcy start, the lifting, a direct call).
    """

    def __init__(self, message: str, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)
        self.step = 0


@dataclass
class PressureSystem:
    """Assembled Schur system S p = G plus the step right side F, the
    inverse blocks W_k = A_k^-1 (:meth:`Assembler.element_blocks`) and the
    drag weights d_k they were formed from.  ``vcycle`` is the multigrid
    preconditioner of S, built by the first solve of this system unless the
    caller has set one, and reused by later solves.
    """

    s: sp.csr_matrix
    g: np.ndarray
    f: np.ndarray               # (m, 2) element right sides
    weights: np.ndarray         # (4, m) rows W_00, W_01, W_10, W_11
    drag: np.ndarray            # (m,) alpha + (beta/rho) |u_prev_k|
    vcycle: VCycle | None = None


def _combine(coef, v: np.ndarray) -> np.ndarray:
    """out[:, i] = coef[0][i] v[:, 0] + coef[1][i] v[:, 1] for (m, 2)
    vectors v and coefficients given as contiguous (m,) rows."""
    out = np.empty((v.shape[0], len(coef[0])))
    for i in range(len(coef[0])):
        np.multiply(coef[0][i], v[:, 0], out=out[:, i])
        out[:, i] += coef[1][i] * v[:, 1]
    return out


def _apply_blocks(weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-element products W_k v_k of (4, m) block rows and (m, 2) vectors."""
    return _combine((weights[0::2], weights[1::2]), v)


def _require_finite(value: float, what: str, history) -> None:
    if not math.isfinite(value):
        raise LinearSolverError(f"pressure solve has a non-finite {what}",
                                history)


def _projected_start(s, basis, x, r, r_norm):
    """The S-energy-minimal point of x + span(basis) and its residual, or
    None when it does not lower the residual norm ``r_norm`` = |r|.

    ``basis`` is an (n, k) array D whose columns are the directions, so
    that S D is one sparse product with no copy of D.  The correction D c
    solves the k x k Gram system (D^T S D) c = D^T r; no centring of D is
    needed, because S 1 = 0.  A singular Gram matrix, or a residual that is
    not below |r|, gives None; so does a non-finite c, whose residual norm
    is not finite either.
    """
    sd = s @ basis
    try:
        c = np.linalg.solve(basis.T @ sd, basis.T @ r)
    except np.linalg.LinAlgError:
        return None
    r_new = sd @ c
    np.subtract(r, r_new, out=r_new)
    r_new -= r_new.mean()
    del sd                  # not alive beside the moved start
    rn = float(np.linalg.norm(r_new))
    if not rn < r_norm:                          # also false for nan
        return None
    x_new = basis @ c
    x_new += x
    return x_new, r_new, rn


def deflated_cg(s, rhs, x0=None, maxiter=None, precond=None, forcing=0.0,
                basis=None):
    """Conjugate gradients on the constants-deflected subspace.

    The right side, the initial guess and every residual are projected
    against the constant vector (the kernel of S), which keeps the iteration
    in the subspace where S is positive definite.  ``precond`` maps a
    residual to a mean-zero search direction and must be symmetric positive
    definite on that subspace.  Returns ``(x, iterations)`` with the residual
    ||r|| <= max(CG_TOL ||rhs - mean||, forcing ||r_0||), where r_0 is the
    residual of the initial guess; ``forcing = 0`` solves to ``CG_TOL``, a
    positive ``forcing`` stops an inexact solve once the residual has fallen
    by that factor.

    ``basis``, an (n, k) array whose columns are directions (Fischer's
    projection, CMAME 163, 1998), moves the start to the S-energy-minimal
    point of x0 + span(basis) before the first iteration.  The move is taken only
    when it lowers the residual norm, so the start is never worse than x0;
    otherwise CG runs from x0 exactly as without a basis.  The stop stays
    measured against r_0, the residual of x0, so a better start makes the
    solve shorter, not more accurate.  A start that moved adds its residual
    to the history after r_0.  An empty basis is no basis.

    Raises LinearSolverError with the residual history if the tolerance is
    not reached, or at once if the right side, a residual or a curvature is
    not finite.
    """
    n = rhs.shape[0]
    if maxiter is None:
        maxiter = 10 * n
    b = rhs - rhs.mean()
    b_norm = float(np.linalg.norm(b))
    _require_finite(b_norm, "right side", [])
    if b_norm == 0.0:
        return np.zeros(n), 0
    x = np.zeros(n) if x0 is None else x0 - x0.mean()
    r = b - s @ x
    r -= r.mean()
    history = [float(np.linalg.norm(r))]
    _require_finite(history[0], "initial residual", history)
    stop = max(CG_TOL * b_norm, forcing * history[0])
    if history[0] <= stop:
        return x, 0
    if basis is not None and basis.shape[1]:
        projected = _projected_start(s, basis, x, r, history[0])
        if projected is not None:
            x, r, rn = projected
            history.append(rn)
            if rn <= stop:
                return x, 0
    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, maxiter + 1):
        sp_vec = s @ p
        curv = float(p @ sp_vec)
        _require_finite(curv, f"curvature at iteration {it}", history)
        if curv <= 0.0:
            raise LinearSolverError(
                f"pressure system lost positive definiteness at iteration {it}",
                history)
        a = rz / curv
        x += a * p
        r -= a * sp_vec
        r -= r.mean()
        rn = float(np.linalg.norm(r))
        history.append(rn)
        _require_finite(rn, f"residual at iteration {it}", history)
        if rn <= stop:
            return x, it
        z = precond(r) if precond is not None else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise LinearSolverError(
        f"pressure solve did not reach tolerance {CG_TOL:g} in {maxiter} iterations "
        f"(relative residual {history[-1] / b_norm:.3e})", history)


def _check_k_rows(k_rows: np.ndarray) -> None:
    """Refuse K-terms (mu/rho) INT_k K^-1 dx, given as (4, m) rows of 2x2
    entries, that are not finite, not symmetric up to rounding or not
    positive definite, naming the first such element.  Each test runs only
    once the one before it has passed, so no inf - inf is formed."""
    a00, a01, a10, a11 = k_rows
    bad, what = ~np.isfinite(k_rows).all(axis=0), "finite"
    if not bad.any():
        bad = np.abs(a01 - a10) > 1e-12 * (np.abs(a00) + np.abs(a11))
        what = "symmetric"
    if not bad.any():
        bad = (a00 <= 0.0) | (a00 * a11 - a01 * a10 <= 0.0)
        what = "positive definite"
    if bad.any():
        raise ProblemConfigError(
            f"the K-term (mu/rho) INT_k K^-1 dx is not {what} on element "
            f"{np.flatnonzero(bad)[0]}")


@dataclass(frozen=True)
class AssemblerRows:
    """What the set-up on a refined mesh copies from an :class:`Assembler`
    on the mesh it was refined from (:meth:`Assembler.carried`): the
    sampled per-element rows, and the mesh, problem and volume degree they
    were sampled on, which the child checks.  It holds no coupling,
    pattern, Q0 or hierarchy, so keeping it keeps only these rows alive."""

    mesh: Mesh
    problem: ProblemSpec
    degree: int
    k_rows: np.ndarray          # (4, m) K-term rows
    f_int: np.ndarray           # (m, 2)
    b_phi: np.ndarray           # (m, 3) INT_k b phi_j
    b_abs: np.ndarray           # (m,) INT_k |b| / |k|


class Assembler:
    """Caches everything mesh- and data-dependent across fixed-point steps.

    One instance serves a whole nonlinear solve: the coupling arrays, the
    permeability and source integrals, the load vector and the sparsity
    pattern of S are computed once, and ``step`` only rebuilds what depends
    on the previous velocity iterate and the relaxation weight.

    The package always takes the two degrees' defaults, the constants above.
    ``parent``, the :class:`AssemblerRows` of an Assembler for the same
    problem and volume degree on the mesh that ``mesh`` was refined from,
    lets the set-up pay only for what changed: each unsplit child copies its
    parent's sampled rows (the K-term, ``f_int`` and the per-element
    integrals of b phi_j and |b|), and only the new children are sampled
    (see :class:`~darcyfem.spaces.ElementCarry`); every value keeps the
    bytes of a fresh build.  Everything global (the load vector, the
    compatibility check, the coupling, the pattern of S and the multigrid
    hierarchy) is still formed over the whole mesh.
    """

    def __init__(self, mesh: Mesh, problem: ProblemSpec,
                 volume_degree: int = VOLUME_DEGREE,
                 edge_quad_points: int = LOAD_EDGE_POINTS,
                 parent: AssemblerRows | None = None):
        self.mesh = mesh
        self.problem = problem
        self.rule = triangle_rule(volume_degree)
        if parent is not None and (parent.problem is not problem
                                   or parent.degree != self.rule.degree):
            raise ValueError("the parent Assembler was built for another "
                             "problem or quadrature degree")
        carry = ElementCarry(mesh, None if parent is None else parent.mesh)

        m = mesh.n_triangles
        n = mesh.n_vertices
        areas = mesh.areas
        rows = carry.sampled
        pts = physical_points(mesh, self.rule, rows)
        w = self.rule.weights

        # The K-term (mu/rho) INT_k K^-1 dx as (4, m) rows of 2x2 entries
        if problem.k_constant:
            kc = eval_k_inverse(problem, np.zeros(1), np.zeros(1))[..., 0]
            self._k_rows = ((problem.mu / problem.rho) * areas) \
                * kc.reshape(4, 1)
        else:
            kk = eval_k_inverse(problem, pts[..., 0], pts[..., 1])
            self._k_rows = carry.start(parent and parent.k_rows, (4, m),
                                       axis=1)
            self._k_rows.reshape(2, 2, m).transpose(2, 0, 1)[rows] = \
                (problem.mu / problem.rho) \
                * np.einsum("abmq,q,m->mab", kk, w, areas[rows])
            del kk
        _check_k_rows(self._k_rows)

        fx, fy = sample(pts, problem.f)
        self.f_int = carry.start(parent and parent.f_int, (m, 2))
        self.f_int[rows] = np.stack([quadrature_sums(fx, w),
                                     quadrature_sums(fy, w)], axis=1) \
            * areas[rows, None]

        # The coupling as contiguous rows: _bt[a, j] = b[:, j, a].
        self._bt = np.ascontiguousarray(
            (mesh.grads * areas[:, None, None]).transpose(2, 1, 0))

        # Load vector H_j = -INT b phi_j + INT_bdy g phi_j and the
        # compatibility check INT b = INT_bdy g, then G = B A^-1 F - H.
        b_vals = sample(pts, problem.b)
        self._b_phi = carry.start(parent and parent.b_phi, (m, 3))
        self._b_phi[rows] = np.einsum("mq,q,ql->ml", b_vals, w,
                                      self.rule.points) * areas[rows, None]
        self._b_abs = carry.start(parent and parent.b_abs, (m,))
        self._b_abs[rows] = quadrature_sums(np.abs(b_vals), w)
        # 0 - sum, not -sum: a vertex whose terms sum to +0 keeps +0, as a
        # running subtraction from zero gives.
        h = 0.0 - np.bincount(mesh.tris.ravel(), weights=self._b_phi.ravel(),
                              minlength=n)
        int_b = float(self._b_phi.sum())
        abs_b = float(areas @ self._b_abs)

        edges, ts, ews, gv = boundary_samples(mesh, problem.g,
                                              edge_quad_points)
        le = mesh.edge_lengths[edges]
        # Endpoint terms interleaved per edge, so every vertex adds its
        # terms in edge order.
        ends = np.stack([le * ((gv * (1.0 - ts)) @ ews),
                         le * ((gv * ts) @ ews)], axis=1)
        np.add.at(h, mesh.edge_vertices[edges].ravel(), ends.ravel())
        int_g = float(le @ (gv @ ews))
        abs_g = float(le @ (np.abs(gv) @ ews))

        scale = 1.0 + abs_b + abs_g
        if not math.isfinite(scale) or not math.isfinite(int_b - int_g):
            raise CompatibilityError(
                f"mass source or boundary flux data are non-finite: "
                f"INT b = {int_b:.6e}, INT g = {int_g:.6e}")
        if abs(int_b - int_g) > COMPAT_TOL * scale:
            raise CompatibilityError(
                f"mass source and boundary flux are incompatible: "
                f"INT b - INT g = {int_b - int_g:.6e} "
                f"(relative defect {abs(int_b - int_g) / scale:.3e})")
        self.h = h
        # The samples are not alive beside the pattern's sort.
        del pts, fx, fy, b_vals, gv

        # Pattern of S = B A^-1 B^T and the 0/1 map Q0 from the (3, 3, m)
        # local blocks to its data.  Terms run element by element, entry
        # (a, b) of element k at a*3m + b*m + k, so Q0 adds in element order
        # while its rows stay as built: never sort them or convert Q0.
        tris = mesh.tris.astype(np.int64)
        keys = (np.repeat(tris, 3, axis=1) * n + np.tile(tris, 3)).ravel()
        entry = np.arange(9 * m, dtype=np.int32).reshape(9, m).T.ravel()
        indptr, indices, self._q0 = product_map(
            keys, np.ones(keys.size), entry, 9 * m, n, n)
        self._pattern = Pattern(indptr, indices)
        self._hierarchy: SmoothedAggregation | None = None

    def carried(self) -> AssemblerRows:
        """The rows the set-up on a refined mesh copies (``parent``)."""
        return AssemblerRows(self.mesh, self.problem, self.rule.degree,
                             self._k_rows, self.f_int, self._b_phi,
                             self._b_abs)

    @property
    def b(self) -> np.ndarray:
        """The coupling |k| grad phi_j as a C-contiguous (m, 3, 2) array,
        formed on each read with the bytes of ``_bt``, the one layout the
        Assembler keeps.  C order, not that of the ``grads`` view: an einsum
        over it (as in :meth:`lifting`) adds in an order set by the layout."""
        return np.multiply(self.mesh.grads, self.mesh.areas[:, None, None],
                           order="C")

    # -- per-step assembly --------------------------------------------------

    def convection(self, u_norm: np.ndarray) -> np.ndarray:
        """(beta/rho) |u_k| per element from the row norms ``u_norm`` =
        |u_k|: the convective part of the drag."""
        pr = self.problem
        return (pr.beta / pr.rho) * u_norm

    def element_blocks(self, drag: np.ndarray) -> np.ndarray:
        """W_k = A_k^-1, A_k = K-term + d_k |k| I, for the drag weights
        ``drag`` = d_k, as (4, m) rows W_00, W_01, W_10, W_11."""
        k = self._k_rows
        diag = drag * self.mesh.areas
        a00 = k[0] + diag
        a11 = k[3] + diag
        det = a00 * a11 - k[1] * k[2]
        inv = np.stack([a11, -k[1], -k[2], a00])
        inv /= det
        return inv

    def _schur(self, weights: np.ndarray) -> sp.csr_matrix:
        """B W B^T for per-element 2x2 weights W_k given as (4, m) rows.

        The local blocks sum_ab (b_ja W_ab) b_kb are formed one row j at a
        time, each a contiguous (3, m) slice of one (3, 3, m) array, adding
        the four (a, b) terms in the order a three-operand einsum does, and
        carried to the data of S by the map Q0, which adds them in element
        order; S shares its index arrays with the pattern.

        A term whose weights W_ab are zero on every element (``.any()``
        false: +0 or -0, never nan) is skipped, as the off-diagonal terms
        are when K is diagonal.  That keeps S's bytes: the skipped term is
        +0 or -0 in every local entry, so it changes an entry at most in the
        sign of a zero, and Q0 adds each slot's terms to +0.0, where
        +0 + (-0) = +0.  Weights that are all zero give +0 data.
        """
        bt = self._bt
        terms = [(a, b, weights[2 * a + b])
                 for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))
                 if weights[2 * a + b].any()]
        m = weights.shape[1]
        if not terms:
            return self._pattern.matrix(self._q0 @ np.zeros(9 * m))
        (a0, b0, w0), *rest = terms
        local = np.empty((3, 3, m))
        term = np.empty((3, m))
        for j in range(3):
            np.multiply(bt[a0, j] * w0, bt[b0], out=local[j])
            for a, b, wab in rest:
                np.multiply(bt[a, j] * wab, bt[b], out=term)
                local[j] += term
        del term                # not alive beside the data of S
        return self._pattern.matrix(self._q0 @ local.ravel())

    def _reference_schur(self) -> sp.csr_matrix:
        """S0 = B diag(1/|k|) B^T, the L2 lifting's; off-diagonals +0."""
        weights = np.zeros((4, self.mesh.n_triangles))
        weights[0] = weights[3] = 1.0 / self.mesh.areas
        return self._schur(weights)

    @property
    def hierarchy(self) -> SmoothedAggregation:
        """Multigrid hierarchy of S0, built on first use and never changed.

        S0 depends only on the mesh, so every solve sees the same hierarchy
        whatever the order of calls.  :func:`~darcyfem.nonlinear_solver.solve`
        and the adaptive loop's set-up build it as soon as they have the
        Assembler, before the indicator set-up, so that its build does not
        peak on top of other set-up arrays.  Its finest pattern
        (``patterns[0]``) is the Assembler's own ``_pattern``, not a copy,
        and it keeps no part of S0.
        """
        if self._hierarchy is None:
            self._hierarchy = SmoothedAggregation(
                self._pattern, self._reference_schur().data)
        return self._hierarchy

    def step(self, u_prev: np.ndarray, alpha: float,
             conv: np.ndarray | None = None) -> PressureSystem:
        """Assemble the Schur system for one relaxed fixed-point step.

        ``conv`` is (beta/rho) |u_prev_k| (:meth:`convection`), which
        :func:`~darcyfem.nonlinear_solver.solve` keeps per iterate.  It is
        formed here when not given only because the benchmark's mass-row
        check calls ``step(u_prev, alpha)``.  The system keeps the drag
        weights alpha + conv.
        """
        if conv is None:
            conv = self.convection(row_norms(u_prev))
        drag = alpha + conv
        weights = self.element_blocks(drag)
        s = self._schur(weights)

        f = self.f_int + alpha * self.mesh.areas[:, None] * u_prev
        baf = _combine(self._bt, _apply_blocks(weights, f))
        g = np.bincount(self.mesh.tris.ravel(), weights=baf.ravel(),
                        minlength=self.mesh.n_vertices) - self.h
        return PressureSystem(s=s, g=g, f=f, weights=weights, drag=drag)

    def solve_pressure(self, system: PressureSystem, x0=None,
                       forcing: float = 0.0,
                       basis=None) -> tuple[P1ScalarField, int]:
        """Multigrid-preconditioned deflated-CG solve to ``CG_TOL``; returns
        the zero-mean pressure and the number of CG iterations.

        The CG residual G - S p is the mass-row defect B u(p) - H of the
        velocity recovered from p.  With ``forcing > 0`` the solve stops once
        that defect is ``forcing`` times the defect of ``x0`` (see
        :func:`deflated_cg`), which is how an inexact fixed-point step ends.
        ``basis`` (n, k) projects the start onto x0 + span(basis) when that
        lowers the defect.  The V-cycle is built on the first solve of
        ``system``, unless the caller has set one, and kept there.
        """
        if system.vcycle is None:
            system.vcycle = VCycle(self.hierarchy, system.s)
        raw, iters = deflated_cg(system.s, system.g, x0=x0,
                                 precond=system.vcycle, forcing=forcing,
                                 basis=basis)
        return project_mean_zero(P1ScalarField(self.mesh, raw)), iters

    def recover_velocity(self, system: PressureSystem,
                         grads: np.ndarray) -> P0VectorField:
        """Eliminate back: u_k = A_k^-1 (F_k - B_k^T p).

        B_k^T p = |k| grad p|_k, from ``grads``, the elementwise gradients
        of p, shape (m, 2).
        """
        rhs = system.f - self.mesh.areas[:, None] * grads
        return P0VectorField(self.mesh,
                             _apply_blocks(system.weights, rhs))

    def lifting(self) -> tuple[P0VectorField, int]:
        """Minimal-L2-norm piecewise-constant field with B u = H, solved to
        ``CG_TOL``.

        This is the discrete lifting of the divergence/flux data: u = A0^-1
        B^T lam with A0 the area-weighted identity and B A0^-1 B^T lam = H.
        """
        s0 = self._reference_schur()
        lam, iters = deflated_cg(s0, self.h,
                                 precond=VCycle(self.hierarchy, s0))
        u = np.einsum("mja,mj->ma", self.b, lam[self.mesh.tris]) \
            / self.mesh.areas[:, None]
        return P0VectorField(self.mesh, u), iters

