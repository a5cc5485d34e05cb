"""Relaxed fixed-point iteration for the nonlinear flow problem.

Each step freezes the convective weight |u| at the previous iterate and adds
the relaxation term alpha (u_new - u_prev) to the momentum balance, so one
step is one linear mixed solve (see :mod:`.assembly`).  The step contracts
for alpha large enough; too large a value slows it down again, which is why
the iteration count as a function of alpha is U-shaped and worth sweeping.

The module also computes the two computable relaxation thresholds
(``alpha_diagnostics``): a contraction threshold built from the data norms
and an interpolation constant, and the positive root of the cubic that
guarantees the fixed point stays inside the ball where the contraction
argument lives.  Both are evaluated for the planar case.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import Assembler, LinearSolverError
from .indicators import ElementIndicators, IndicatorContext
from .mesh import Mesh
from .problems import ProblemSpec, validate
from .spaces import (
    P0VectorField,
    P1ScalarField,
    QuadratureRule,
    element_lp,
    lp_norm,
    p1_gradients,
    physical_points,
    row_norms,
    sample,
    sample_blocks,
    triangle_rule,
)

ERROR_QUAD_DEGREE = 10

# Forcing term of the inexact pressure solves: each fixed-point step stops
# its CG once the mass-row defect B u - H has fallen by this factor from the
# defect of the previous pressure; only the step the iteration stops on is
# finished to ``cg_tol``.  0 solves every step to ``cg_tol``.  CG starts
# from the S-energy-minimal point of p_n + span of the last
# PROJECTION_DEPTH pressure changes of the solve, if that lowers the
# defect; the stop stays measured against the defect of p_n.  0 starts
# every step from p_n.
CG_FORCING = 1e-3
PROJECTION_DEPTH = 3


@dataclass
class SolverConfig:
    """Knobs for one nonlinear solve.

    ``stopping`` selects the convergence test: ``"fixed_tol"`` stops when the
    relative step increment falls below ``tol``; ``"indicator_balance"``
    stops when the linearization indicator is dominated by the
    discretization indicator, eta_L <= gamma_tilde * eta_D.  Construction
    raises ValueError for a negative or non-finite ``alpha``, a ``tol``,
    ``gamma_tilde`` or ``cg_tol`` that is not finite and positive, and a
    ``max_iter`` below 1.
    """

    alpha: float = 1.0
    tol: float = 1e-5
    gamma_tilde: float = 1e-3
    max_iter: int = 2000
    initial_guess: str = "zero"          # "zero" | "darcy"
    stopping: str = "fixed_tol"          # "fixed_tol" | "indicator_balance"
    volume_degree: int = 4
    edge_quad_points: int = 4
    cg_tol: float = 1e-12
    keep_iterates: bool = False

    def __post_init__(self):
        if self.initial_guess not in ("zero", "darcy"):
            raise ValueError(f"unknown initial guess {self.initial_guess!r}")
        if self.stopping not in ("fixed_tol", "indicator_balance"):
            raise ValueError(f"unknown stopping rule {self.stopping!r}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, "
                             f"not {self.alpha!r}")
        for name in ("tol", "gamma_tilde", "cg_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, "
                                 f"not {value!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, "
                             f"not {self.max_iter!r}")


@dataclass
class TraceRow:
    """One fixed-point step: its step error, indicator totals and CG
    iterations, and the wall time (``time.perf_counter`` seconds) of its
    phases: ``t_assemble`` the Schur system, ``t_solve`` the pressure
    solves, ``t_recover`` the pressure gradients and velocity recovery,
    ``t_indicators`` the step increment and the indicators.  A finished
    step counts both of its solves and evaluations.  Rows compare equal on
    their deterministic fields; the timings are left out."""

    iteration: int
    err_l: float
    eta_l: float
    eta_d: float
    cg_iters: int
    t_assemble: float = field(default=0.0, compare=False)
    t_solve: float = field(default=0.0, compare=False)
    t_recover: float = field(default=0.0, compare=False)
    t_indicators: float = field(default=0.0, compare=False)


def phase_totals(trace: list[TraceRow]) -> dict:
    """Per-phase wall-time totals of the fixed-point steps, keyed by the
    ``TraceRow`` field names."""
    return {name: sum(getattr(r, name) for r in trace)
            for name in ("t_assemble", "t_solve", "t_recover",
                         "t_indicators")}


@dataclass
class SolveResult:
    u: P0VectorField
    p: P1ScalarField
    u_before: P0VectorField      # iterate entering the last step
    converged: bool
    iterations: int
    err_l: float
    indicators: ElementIndicators
    trace: list[TraceRow]
    alpha: float
    cg_total: int
    status: str                  # "converged" | "max_iter" | "nonfinite"
    iterates: list[np.ndarray] | None = None


def _l3(areas, a):
    return float(areas @ (a * a * a)) ** (1.0 / 3.0)


def _l32(areas, a):
    return float(areas @ (a * np.sqrt(a))) ** (2.0 / 3.0)


def relative_increment(areas, u_new, g_new, g_prev, du) -> float:
    """The step error err_L of one fixed-point step.

    ||u_new - u_prev||_L3 + ||grad(p_new - p_prev)||_L3/2 over
    ||u_new||_L3 + ||grad p_new||_L3/2, from the element velocities
    ``u_new``, the elementwise pressure gradients ``g_new`` and ``g_prev``
    (all (m, 2)) and ``du = |u_new - u_prev|`` per element.  0 when the
    denominator vanishes.
    """
    denom = _l3(areas, row_norms(u_new)) + _l32(areas, row_norms(g_new))
    if denom < 1e-300:
        return 0.0
    return (_l3(areas, du) + _l32(areas, row_norms(g_new - g_prev))) / denom


def solve(mesh: Mesh, problem: ProblemSpec, config: SolverConfig | None = None,
          assembler: Assembler | None = None,
          context: IndicatorContext | None = None,
          start: tuple[np.ndarray, np.ndarray] | None = None) -> SolveResult:
    """Run the relaxed fixed-point iteration to convergence.

    ``assembler`` and ``context`` may be passed in to reuse the cached
    mesh/data integrals across several solves on the same mesh (the sweep
    below does this); they must have been built for the same mesh, problem
    and quadrature degrees.  ``start = (u0, p0)``, element velocities of
    shape (m, 2) and vertex pressures of shape (n,), is the iterate to start
    from; it replaces ``config.initial_guess`` (the adaptive loop passes the
    previous level's solution carried onto the refined mesh).

    Each step solves its pressure inexactly, to the forcing term
    ``CG_FORCING``, from a start projected onto the solve's last
    ``PROJECTION_DEPTH`` pressure changes (see
    :func:`~darcyfem.assembly.deflated_cg`).  A step that passes the
    stopping test, or is the ``max_iter``-th, is finished: its CG continues
    to ``cfg.cg_tol``, and the step's increment and indicators are
    recomputed and tested again.  So the returned fields always come from
    a pressure solved to ``cfg.cg_tol``, unless the step increment was not
    finite.  A LinearSolverError from a pressure solve records the step
    whose solve raised as ``step`` (0 for the Darcy start).
    """
    cfg = config or SolverConfig()
    asm = assembler or Assembler(mesh, problem, cfg.volume_degree,
                                 cfg.edge_quad_points)
    ctx = context or IndicatorContext(mesh, problem, cfg.volume_degree)

    zero_u = np.zeros((mesh.n_triangles, 2))
    if start is not None:
        u0, p0 = (np.array(v, dtype=np.float64) for v in start)
        if u0.shape != zero_u.shape or p0.shape != (mesh.n_vertices,):
            raise ValueError(
                f"start needs shapes {zero_u.shape} and ({mesh.n_vertices},), "
                f"got {u0.shape} and {p0.shape}")
        u_prev = P0VectorField(mesh, u0)
        p_prev = P1ScalarField(mesh, p0)
    elif cfg.initial_guess == "darcy":
        system = asm.step(zero_u, 0.0)
        p_prev, _ = asm.solve_pressure(system, tol=cfg.cg_tol)
        u_prev = asm.recover_velocity(system, p_prev)
    else:
        u_prev = P0VectorField(mesh, zero_u.copy())
        p_prev = P1ScalarField(mesh, np.zeros(mesh.n_vertices))

    iterates = [u_prev.values.copy()] if cfg.keep_iterates else None
    trace: list[TraceRow] = []
    cg_total = 0
    converged = False
    err_l = math.inf
    g_prev = p1_gradients(p_prev)
    u_new, p_new, g_new, ind = u_prev, p_prev, g_prev, None
    # The last pressure changes p_k - p_(k-1) of this solve's steps, one per
    # column, filled in place round the ring; the first ``filled`` columns
    # are in use.  Columns, not rows, so that S times the ring is one sparse
    # product that reads it in place.
    ring = np.empty((mesh.n_vertices, PROJECTION_DEPTH))
    filled = 0

    def solve_pressure(system, x0, forcing=0.0, basis=None):
        """The step's pressure solve; an error records the step ``it``."""
        try:
            return asm.solve_pressure(system, x0=x0, tol=cfg.cg_tol,
                                      forcing=forcing, basis=basis)
        except LinearSolverError as exc:
            exc.step = it
            raise

    def evaluate(system, p_new, u_prev, g_prev, row):
        """Gradients, velocity, step error and indicators of a step's
        pressure, and whether they pass the stopping test; the phase times
        are added to ``row``."""
        t0 = time.perf_counter()
        g_new = p1_gradients(p_new)
        u_new = asm.recover_velocity(system, p_new, g_new)
        t1 = time.perf_counter()
        ind = ctx.compute(u_new, u_prev, p_new, cfg.alpha, g_new)
        err_l = relative_increment(mesh.areas, u_new.values, g_new, g_prev,
                                   ind.du)
        if cfg.stopping == "fixed_tol":
            passed = err_l < cfg.tol
        else:
            passed = ind.eta_l_total <= cfg.gamma_tilde * ind.eta_d_total
        row.t_recover += t1 - t0
        row.t_indicators += time.perf_counter() - t1
        return u_new, g_new, err_l, ind, passed

    for it in range(1, cfg.max_iter + 1):
        row = TraceRow(it, math.nan, math.nan, math.nan, 0)
        # Free the previous step's system and indicators before this step
        # forms its own: only one step's arrays are alive at a time.
        system = ind = None
        t0 = time.perf_counter()
        system = asm.step(u_prev.values, cfg.alpha)
        t1 = time.perf_counter()
        p_new, cg_it = solve_pressure(system, p_prev.values, CG_FORCING,
                                      ring[:, :filled])
        row.t_assemble = t1 - t0
        row.t_solve = time.perf_counter() - t1
        u_new, g_new, err_l, ind, converged = evaluate(system, p_new, u_prev,
                                                       g_prev, row)
        if CG_FORCING > 0.0 and math.isfinite(err_l) \
                and (converged or it == cfg.max_iter):
            # Finish the step the iteration would stop on, and test it again.
            t0 = time.perf_counter()
            p_new, extra = solve_pressure(system, p_new.values)
            row.t_solve += time.perf_counter() - t0
            cg_it += extra
            u_new, g_new, err_l, ind, converged = evaluate(
                system, p_new, u_prev, g_prev, row)

        cg_total += cg_it
        row.err_l, row.eta_l, row.eta_d = \
            err_l, ind.eta_l_total, ind.eta_d_total
        row.cg_iters = cg_it
        trace.append(row)
        if iterates is not None:
            iterates.append(u_new.values.copy())
        if converged or not math.isfinite(err_l) or it == cfg.max_iter:
            break
        if PROJECTION_DEPTH > 0:
            np.subtract(p_new.values, p_prev.values,
                        out=ring[:, (it - 1) % PROJECTION_DEPTH])
            filled = min(filled + 1, PROJECTION_DEPTH)
        u_prev, p_prev, g_prev = u_new, p_new, g_new

    if converged:
        status = "converged"
    elif trace and not math.isfinite(err_l):
        status = "nonfinite"
    else:
        status = "max_iter"
    return SolveResult(u=u_new, p=p_new, u_before=u_prev, converged=converged,
                       iterations=len(trace), err_l=err_l, indicators=ind,
                       trace=trace, alpha=cfg.alpha, cg_total=cg_total,
                       status=status, iterates=iterates)


# ---------------------------------------------------------------------------
# Errors against a reference solution
# ---------------------------------------------------------------------------

def _guarded_ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


@dataclass
class ErrorReport:
    u_l2: float
    u_l3: float
    grad_p_l32: float
    exact_u_l3: float
    exact_grad_p_l32: float

    @property
    def combined(self) -> float:
        """Absolute combined error in the natural norms."""
        return self.u_l3 + self.grad_p_l32

    @property
    def relative(self) -> float:
        """Sum of the two relative component errors.

        Velocity error over the velocity norm plus pressure-gradient error
        over the pressure-gradient norm, each in its natural Lebesgue norm.
        A zero reference norm contributes 0 when the error is also zero
        (identically zero solution) and inf otherwise.
        """
        return _guarded_ratio(self.u_l3, self.exact_u_l3) \
            + _guarded_ratio(self.grad_p_l32, self.exact_grad_p_l32)


def _lp(mesh: Mesh, rule: QuadratureRule, vx, vy, p: float) -> float:
    return float(element_lp(mesh, rule, vx, vy, p).sum() ** (1.0 / p))


def true_error(mesh: Mesh, problem: ProblemSpec, u: P0VectorField,
               p: P1ScalarField, degree: int = ERROR_QUAD_DEGREE) -> ErrorReport:
    """Quadrature errors of (u, p) against the problem's reference solution."""
    if not problem.has_exact():
        raise ValueError(f"problem {problem.name!r} has no reference solution")
    rule = triangle_rule(degree)
    gh = p1_gradients(p)
    # Per-element integrals of |u|^3, |u - u_h|^2, |u - u_h|^3,
    # |grad p|^3/2 and |grad p - grad p_h|^3/2, sampled block by block to
    # bound the peak memory and summed once over all elements.
    parts = np.empty((5, mesh.n_triangles))
    for blk in sample_blocks(mesh):
        pts = physical_points(mesh, rule, blk)
        ux, uy = sample(pts, problem.exact_u)
        parts[0, blk] = element_lp(mesh, rule, ux, uy, 3.0, blk)
        dx = ux - u.values[blk, None, 0]
        dy = uy - u.values[blk, None, 1]
        del ux, uy
        parts[1, blk] = element_lp(mesh, rule, dx, dy, 2.0, blk)
        parts[2, blk] = element_lp(mesh, rule, dx, dy, 3.0, blk)
        del dx, dy
        gx, gy = sample(pts, problem.exact_grad_p)
        parts[3, blk] = element_lp(mesh, rule, gx, gy, 1.5, blk)
        parts[4, blk] = element_lp(mesh, rule, gx - gh[blk, None, 0],
                                   gy - gh[blk, None, 1], 1.5, blk)
    exact_u_l3, u_l2, u_l3, exact_grad_p_l32, grad_p_l32 = (
        float(parts[i].sum() ** (1.0 / q))
        for i, q in enumerate((3.0, 2.0, 3.0, 1.5, 1.5)))
    return ErrorReport(u_l2=u_l2, u_l3=u_l3, grad_p_l32=grad_p_l32,
                       exact_u_l3=exact_u_l3,
                       exact_grad_p_l32=exact_grad_p_l32)


# ---------------------------------------------------------------------------
# Relaxation sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    """One alpha of a sweep.  ``iterations`` is the step count of the solve,
    or the step whose pressure solve raised.  ``phases_s`` holds the
    solve's :func:`phase_totals` plus ``true_error``, the time of the error
    evaluation (empty when the pressure solve raised); rows compare equal
    without it."""

    alpha: float
    iterations: int
    converged: bool
    err: float                   # relative error, nan without a reference
    log10_err: float
    status: str                  # SolveResult.status or "linear_solver_error"
    phases_s: dict = field(default_factory=dict, compare=False)

    @classmethod
    def from_solve(cls, alpha, result, error, phases_s):
        rel = error.relative if error is not None else math.nan
        return cls(alpha=alpha, iterations=result.iterations,
                   converged=result.converged, err=rel,
                   log10_err=math.log10(rel) if rel and math.isfinite(rel)
                   else math.nan, status=result.status,
                   phases_s=phases_s)


def alpha_sweep(mesh: Mesh, problem: ProblemSpec, alphas,
                config: SolverConfig | None = None) -> list[SweepRow]:
    """Solve once per relaxation weight, reusing the cached assembly.

    Iteration counts trace the characteristic U shape: small weights barely
    damp the convection update, large ones barely move the iterate.  A
    solve whose pressure solve fails gives a row with status
    ``linear_solver_error`` and the step at which it failed.
    """
    cfg = config or SolverConfig()
    asm = Assembler(mesh, problem, cfg.volume_degree, cfg.edge_quad_points)
    ctx = IndicatorContext(mesh, problem, cfg.volume_degree)
    rows = []
    for a in map(float, alphas):
        try:
            res = solve(mesh, problem, replace(cfg, alpha=a),
                        assembler=asm, context=ctx)
        except LinearSolverError as exc:
            rows.append(SweepRow(alpha=a, iterations=exc.step,
                                 converged=False, err=math.nan,
                                 log10_err=math.nan,
                                 status="linear_solver_error"))
        else:
            t0 = time.perf_counter()
            error = true_error(mesh, problem, res.u, res.p) \
                if problem.has_exact() else None
            phases = {**phase_totals(res.trace),
                      "true_error": time.perf_counter() - t0}
            rows.append(SweepRow.from_solve(a, res, error, phases))
    return rows


# ---------------------------------------------------------------------------
# Computable relaxation thresholds
# ---------------------------------------------------------------------------

@dataclass
class AlphaDiagnostics:
    """A-priori relaxation thresholds computed from the data of the problem.

    ``alpha_star`` is the contraction threshold 4 (g1 + sqrt(g1^2 + g2))^2;
    ``alpha_cubic`` is the unique positive root of the invariance cubic
    -c0 - c1 a - c2 a^2 + a^3 / 8.  Both use the interpolation constant
    ``c_interp`` supplied by the caller and the mesh width of the given mesh.
    """

    alpha_star: float
    alpha_cubic: float
    gamma1: float
    gamma2: float
    ell0: float
    ell1: float
    k_min: float
    k_max: float
    f_l2: float
    lifting_l2: float
    lifting_l3: float
    h: float
    c_interp: float

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def compute_lifting(mesh: Mesh, problem: ProblemSpec) -> P0VectorField:
    """Minimal-L2 piecewise-constant velocity matching the flux data."""
    u, _ = Assembler(mesh, problem).lifting()
    return u


def _positive_cubic_root(c0: float, c1: float, c2: float) -> float:
    # root of  a^3/8 = c0 + c1 a + c2 a^2  with c_i >= 0
    if c0 == 0.0 and c1 == 0.0 and c2 == 0.0:
        return 0.0

    def phi(a):
        return a ** 3 / 8.0 - c0 - c1 * a - c2 * a ** 2

    hi = max(1.0, 8.0 * (c0 + c1 + c2 + 1.0))
    while phi(hi) <= 0.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def alpha_diagnostics(mesh: Mesh, problem: ProblemSpec,
                      c_interp: float = 1.0) -> AlphaDiagnostics:
    """Evaluate the computable relaxation thresholds on a given mesh (d = 2)."""
    report = validate(problem, mesh)
    km, kmax = report["K_m"], report["K_M"]
    mu, rho, beta = problem.mu, problem.rho, problem.beta
    h = mesh.h_max
    c = c_interp

    u_l = compute_lifting(mesh, problem)
    l2 = lp_norm(u_l, 2.0)
    l3 = lp_norm(u_l, 3.0)
    rule = triangle_rule(ERROR_QUAD_DEGREE)
    fx, fy = sample(physical_points(mesh, rule), problem.f)
    f_l2 = _lp(mesh, rule, fx, fy, 2.0)

    ratio_sq = (2.0 * rho / (mu * km)) ** 2
    ell0 = ratio_sq * ((1.5 * rho / (mu * km) + 0.5) * f_l2 ** 2
                       + (0.5 + 1.5 * mu * kmax ** 2 / (rho * km)) * l2 ** 2
                       + (4.0 * beta / (3.0 * rho)) * l3 ** 3)
    ell1 = ratio_sq * l2 ** 2

    # d = 2: the inverse-estimate factors h^(-d/2), h^(-2d/3), h^(-d)
    # specialize to 1/h, h^(-4/3), h^(-2)
    gamma1 = (8.0 * beta * kmax / (3.0 * rho * km)) * c ** 3 / h * math.sqrt(ell1)
    gamma2 = ((1.5 * beta ** 2 / (rho * mu * km)) * c ** 4 * h ** (-4.0 / 3.0)
              * l3 ** 2
              + (8.0 * beta / (3.0 * mu * km)) * c ** 3 / h * f_l2
              + (8.0 * beta * kmax / (3.0 * rho * km)) * c ** 3 / h
              * math.sqrt(ell0)
              + (8.0 * beta ** 2 / (3.0 * rho ** 2)) * c ** 6 / h ** 2
              * max(2.0 * rho * ell0 / (mu * km), ell1))
    alpha_star = 4.0 * (gamma1 + math.sqrt(gamma1 ** 2 + gamma2)) ** 2

    c_cubic = 9.0 * beta ** 4 * c ** 12 / (32.0 * mu * km * rho ** 3)
    alpha_cubic = _positive_cubic_root(ell0 ** 2 * c_cubic / h ** 4,
                                       2.0 * ell0 * ell1 * c_cubic / h ** 4,
                                       ell1 ** 2 * c_cubic / h ** 4)

    return AlphaDiagnostics(alpha_star=alpha_star, alpha_cubic=alpha_cubic,
                            gamma1=gamma1, gamma2=gamma2, ell0=ell0, ell1=ell1,
                            k_min=km, k_max=kmax, f_l2=f_l2, lifting_l2=l2,
                            lifting_l3=l3, h=h, c_interp=c)
