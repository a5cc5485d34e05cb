"""Residual a-posteriori indicators for the fixed-point iteration.

Two families are computed on every element k:

* linearization indicator  eta_L_k = |k|^(1/2) |u_new_k - u_prev_k|,
  measuring how far the fixed point still moves;
* discretization indicators
  eta_D1_k = || f_h + div-free residual of the momentum step ||_L2(k),
  eta_D2_k = h_k ||b_h||_L3(k) + sum over edges h_e^(1/3) ||flux jump||_L3(e),
  measuring the mesh error of the current step.

Data enters through piecewise-polynomial surrogates (element means f_h, b_h
and edge means g_h); the distance to the true data is returned separately as
oscillation terms.  All totals aggregate in root-sum-of-squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .assembly import VOLUME_DEGREE
from .mesh import Mesh
from .problems import ProblemSpec, eval_k_inverse
from .spaces import (
    ERROR_QUAD_DEGREE,
    ElementCarry,
    P0VectorField,
    P1ScalarField,
    boundary_samples,
    element_lp,
    gradient_lp_norm,
    lp_norm,
    physical_points,
    quadrature_sums,
    row_norms,
    sample,
    sample_blocks,
    triangle_rule,
)

# Quadrature of the data means and oscillation terms: a degree-10 volume
# rule and 8 Gauss points per boundary edge.
OSCILLATION_DEGREE = 10
EDGE_QUAD_POINTS = 8
# Relative and absolute rounding slack of lower_bound_check's comparison.
LOWER_BOUND_SLACK = 1e-10


@dataclass
class ElementIndicators:
    """Per-element indicator and oscillation values, one float per triangle.

    ``du`` is |u_new - u_prev| per element, the step's velocity change that
    eta_L scales, kept for the step increment of the fixed-point loop.  The
    totals are summed on first access and kept.
    """

    eta_l: np.ndarray
    eta_d1: np.ndarray
    eta_d2: np.ndarray
    osc_f: np.ndarray
    osc_b: np.ndarray
    osc_g: np.ndarray
    du: np.ndarray | None = None

    @property
    def eta_d(self) -> np.ndarray:
        """Combined per-element discretization indicator."""
        return np.sqrt(self.eta_d1 ** 2 + self.eta_d2 ** 2)

    @cached_property
    def eta_l_total(self) -> float:
        return float(np.sqrt((self.eta_l ** 2).sum()))

    @cached_property
    def eta_d_total(self) -> float:
        return float(np.sqrt((self.eta_d1 ** 2 + self.eta_d2 ** 2).sum()))

    @cached_property
    def osc_total(self) -> float:
        return float(np.sqrt((self.osc_f ** 2 + self.osc_b ** 2
                              + self.osc_g ** 2).sum()))


@dataclass(frozen=True)
class IndicatorRows:
    """What the set-up on a refined mesh copies from an
    :class:`IndicatorContext` on the mesh it was refined from
    (:meth:`IndicatorContext.carried`): the sampled per-element rows, and
    the mesh and problem they were sampled on, which the child checks.  It
    holds no boundary data or flux matrix."""

    mesh: Mesh
    problem: ProblemSpec
    f_means: np.ndarray         # (m, 2)
    osc_f: np.ndarray           # (m,)
    b_means: np.ndarray         # (m,)
    osc_b: np.ndarray           # (m,)
    k_samples: np.ndarray | None    # (2, 2, m, q); None for constant K


class IndicatorContext:
    """Mesh- and data-bound precomputations reused across iterations.

    Holds the element means of f and b, the boundary edge means of g, the
    oscillation terms (fixed once per mesh) and the permeability samples
    needed by the momentum residual, at the ``VOLUME_DEGREE`` points.

    ``parent``, the :class:`IndicatorRows` of a context for the same
    problem on the mesh that ``mesh`` was refined from, lets the set-up pay
    only for what changed: each unsplit child copies its parent's sampled
    rows (``f_means``, ``osc_f``, ``b_means``, ``osc_b`` and
    ``k_samples``), and only the new children are sampled (see
    :class:`~darcyfem.spaces.ElementCarry`); every value keeps the bytes of
    a fresh build.  The boundary data and the flux matrices are still
    formed over the whole mesh.
    """

    def __init__(self, mesh: Mesh, problem: ProblemSpec,
                 parent: IndicatorRows | None = None):
        self.mesh = mesh
        self.problem = problem
        self._res_rule = triangle_rule(VOLUME_DEGREE)
        if parent is not None and parent.problem is not problem:
            raise ValueError("the parent IndicatorContext was built for "
                             "another problem")
        carry = ElementCarry(mesh, None if parent is None else parent.mesh)
        m = mesh.n_triangles
        areas = mesh.areas

        rule = triangle_rule(OSCILLATION_DEGREE)
        w = rule.weights
        self.f_means = carry.start(parent and parent.f_means, (m, 2))
        self.osc_f = carry.start(parent and parent.osc_f, (m,))
        self.b_means = carry.start(parent and parent.b_means, (m,))
        self.osc_b = carry.start(parent and parent.osc_b, (m,))
        for blk in carry.blocks():
            pts = physical_points(mesh, rule, blk)
            fx, fy = sample(pts, problem.f)
            fm = np.stack([quadrature_sums(fx, w), quadrature_sums(fy, w)],
                          axis=1)
            df = (fx - fm[:, :1]) ** 2 + (fy - fm[:, 1:]) ** 2
            self.f_means[blk] = fm
            self.osc_f[blk] = np.sqrt(areas[blk] * quadrature_sums(df, w))
            del fx, fy, df
            bv = sample(pts, problem.b)
            bm = quadrature_sums(bv, w)
            self.b_means[blk] = bm
            self.osc_b[blk] = mesh.h_tri[blk] * np.cbrt(areas[blk] * (
                quadrature_sums(np.abs(bv - bm[:, None]) ** 3, w)))

        # boundary data: edge means and edge oscillation, scattered to the
        # (unique) triangle owning each boundary edge
        edges, _, ews, gv = boundary_samples(mesh, problem.g,
                                             EDGE_QUAD_POINTS)
        means = gv @ ews
        self.g_h = np.zeros(mesh.n_edges)
        self.g_h[edges] = means
        le = mesh.edge_lengths[edges]
        osc = le ** (1.0 / 3.0) * np.cbrt(
            le * (np.abs(gv - means[:, None]) ** 3 @ ews))
        self.osc_g = np.zeros(m)
        np.add.at(self.osc_g, mesh.edge_tris[edges, 0], osc)

        # permeability samples for the momentum residual, or the one value
        # of a constant K^-1
        rows = carry.sampled
        rpts = physical_points(mesh, self._res_rule, rows)
        kk = eval_k_inverse(problem, rpts[..., 0], rpts[..., 1])
        self.k_const = self.k_samples = None
        if kk.ndim == 2:
            self.k_const = kk
        else:
            self.k_samples = carry.start(
                parent and parent.k_samples,
                (2, 2, m, self._res_rule.weights.size), axis=2)
            self.k_samples[:, :, rows] = kk
        del kk, rpts

        self._sqrt_areas = np.sqrt(areas)
        self._b_l3 = mesh.h_tri * np.abs(self.b_means) * np.cbrt(areas)

        # Normal-flux defect per edge, flux = F u - g_h on the interleaved
        # velocities (u_0x, u_0y, u_1x, ...): on interior edges half the jump
        # of u.n across the edge, on boundary edges u.n - g_h.  Signs follow
        # the edge's stored normal (+ for the first triangle); only
        # magnitudes enter the indicators.  F is written in CSR directly,
        # each row's columns ascending: the lower-numbered triangle's pair
        # first, and on boundary edges only the first triangle's.
        first, second = mesh.edge_tris.T
        interior = second >= 0
        ahead = second > first
        lo = np.where(ahead, first, second)
        hi = np.where(ahead, second, first)
        weight = np.where(interior, 0.5, 1.0) * np.where(ahead, 1.0, -1.0)
        nx, ny = mesh.edge_normals.T
        cols = np.stack([2 * lo, 2 * lo + 1, 2 * hi, 2 * hi + 1], axis=1)
        vals = np.stack([weight * nx, weight * ny,
                         -weight * nx, -weight * ny], axis=1)
        every = np.ones_like(interior)
        stored = np.stack([interior, interior, every, every], axis=1)
        indptr = np.zeros(mesh.n_edges + 1, dtype=np.int32)
        np.cumsum(np.where(interior, 4, 2), out=indptr[1:])
        self._flux = sp.csr_matrix(
            (vals[stored], cols[stored].astype(np.int32), indptr),
            shape=(mesh.n_edges, 2 * m))
        # h_e^(1/3) ||flux||_L3(e) = |e|^(2/3) |flux_e|: the weight per edge.
        self._edge_weights = mesh.edge_lengths ** (2.0 / 3.0)

    def carried(self) -> IndicatorRows:
        """The rows the set-up on a refined mesh copies (``parent``)."""
        return IndicatorRows(self.mesh, self.problem, self.f_means,
                             self.osc_f, self.b_means, self.osc_b,
                             self.k_samples)

    def compute(self, u_new: P0VectorField, u_prev: P0VectorField,
                alpha: float, grads: np.ndarray,
                conv: np.ndarray) -> ElementIndicators:
        """Evaluate all indicators for one completed fixed-point step.

        ``grads`` are the elementwise gradients of the step's pressure, shape
        (m, 2), and ``conv`` the convective weights (beta/rho) |u_prev_k|,
        shape (m,), both formed once per iterate by the caller.
        """
        pr = self.problem
        un = u_new.values
        du = un - u_prev.values
        du_norm = row_norms(du)
        eta_l = self._sqrt_areas * du_norm

        c = self.f_means - grads
        c -= alpha * du
        del du                  # not alive beside the residual's temporaries
        c -= conv[:, None] * un
        if self.k_const is not None:
            c -= (pr.mu / pr.rho) * un @ self.k_const.T
            eta_d1 = self._sqrt_areas * row_norms(c)
        else:
            # K^-1 u and |r|^2 on (m, q) rows, in the order of the einsums
            # "abmq,mb->mqa" and "mqa,mqa->mq", so with their bytes.
            k = self.k_samples
            u0, u1 = un[:, 0, None], un[:, 1, None]
            r0 = c[:, 0, None] - (pr.mu / pr.rho) * (k[0, 0] * u0
                                                     + k[0, 1] * u1)
            r1 = c[:, 1, None] - (pr.mu / pr.rho) * (k[1, 0] * u0
                                                     + k[1, 1] * u1)
            sq = r0 * r0
            sq += r1 * r1
            eta_d1 = np.sqrt(self.mesh.areas * (sq @ self._res_rule.weights))

        flux = self._flux @ un.ravel()
        flux -= self.g_h
        np.abs(flux, out=flux)
        flux *= self._edge_weights
        # The element's three edge terms in local edge order, from 0.0: the
        # order, and so the bytes, of a CSR product.
        edges = self.mesh.tri_edges
        eta_d2 = 0.0 + flux[edges[:, 0]]
        eta_d2 += flux[edges[:, 1]]
        eta_d2 += flux[edges[:, 2]]
        eta_d2 += self._b_l3

        return ElementIndicators(eta_l=eta_l, eta_d1=eta_d1, eta_d2=eta_d2,
                                 osc_f=self.osc_f, osc_b=self.osc_b,
                                 osc_g=self.osc_g, du=du_norm)


def effectivity_index(ind: ElementIndicators, u_exact_err_l3: float,
                      p_exact_grad_err_l32: float) -> float:
    """Estimated-over-true error ratio.

    The numerator is the full computable upper bound: indicator aggregates
    plus the data-oscillation total.  On coarse meshes with sharp data the
    oscillation part dominates, which is what makes the ratio an honest
    reliability gauge rather than an indicator-only one.
    """
    err = u_exact_err_l3 + p_exact_grad_err_l32
    estimated = ind.eta_l_total + ind.eta_d_total + ind.osc_total
    if err == 0.0:
        return float("inf") if estimated > 0.0 else 0.0
    return estimated / err


@dataclass
class LowerBoundReport:
    """Elementwise check of eta_L against the two-sided velocity error."""

    eta_l: np.ndarray
    bound: np.ndarray            # ||u - u_prev||_L2(k) + ||u - u_new||_L2(k)
    ok: np.ndarray

    @property
    def all_ok(self) -> bool:
        return bool(self.ok.all())


def lower_bound_check(mesh: Mesh, problem: ProblemSpec,
                      u_new: P0VectorField,
                      u_prev: P0VectorField) -> LowerBoundReport:
    """Verify eta_L_k <= ||u - u_prev||_L2(k) + ||u - u_new||_L2(k), up to
    ``LOWER_BOUND_SLACK``, with the errors on the ``ERROR_QUAD_DEGREE`` rule.

    A triangle inequality, so it holds for any pair of iterates; running it
    guards the indicator's scaling against regressions.  Needs the problem's
    reference velocity.
    """
    if problem.exact_u is None:
        raise ValueError(f"problem {problem.name!r} has no reference velocity")
    rule = triangle_rule(ERROR_QUAD_DEGREE)
    # Per-element squared errors of u_new and u_prev, sampled block by
    # block to bound the peak memory.
    sq = np.empty((2, mesh.n_triangles))
    for blk in sample_blocks(mesh):
        ux, uy = sample(physical_points(mesh, rule, blk), problem.exact_u)
        for i, u in enumerate((u_new, u_prev)):
            sq[i, blk] = element_lp(mesh, rule, ux - u.values[blk, None, 0],
                                    uy - u.values[blk, None, 1], 2.0, blk)
    err_new, err_prev = sq ** (1.0 / 2.0)
    eta_l = np.sqrt(mesh.areas) * np.linalg.norm(
        u_new.values - u_prev.values, axis=1)
    bound = err_prev + err_new
    return LowerBoundReport(eta_l=eta_l, bound=bound,
                            ok=eta_l <= bound * (1.0 + LOWER_BOUND_SLACK)
                            + LOWER_BOUND_SLACK)


def total_relative_indicator(ind: ElementIndicators, u: P0VectorField,
                             p: P1ScalarField) -> float:
    """eta_D scaled by the size of the discrete solution itself.

    The scale-invariant quantity tracked on problems without a reference
    solution: eta_D / (||u||_L3 + ||grad p||_L3/2).
    """
    denom = lp_norm(u, 3.0) + gradient_lp_norm(p, 1.5)
    if denom == 0.0:
        return float("inf") if ind.eta_d_total > 0.0 else 0.0
    return ind.eta_d_total / denom
