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
from dataclasses import dataclass, replace

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
    gradient_lp_norm,
    lp_norm,
    p1_gradients,
    physical_points,
    sample,
    triangle_rule,
)

ERROR_QUAD_DEGREE = 10


@dataclass
class SolverConfig:
    """Knobs for one nonlinear solve.

    ``stopping`` selects the convergence test: ``"fixed_tol"`` stops when the
    relative step increment falls below ``tol``; ``"indicator_balance"``
    stops when the linearization indicator is dominated by the
    discretization indicator, eta_L <= gamma_tilde * eta_D.
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


@dataclass
class TraceRow:
    iteration: int
    err_l: float
    eta_l: float
    eta_d: float
    cg_iters: int


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
    iterates: list[np.ndarray] | None = None


def _step_increment(u_new, u_prev, p_new, p_prev, mesh):
    du = P0VectorField(mesh, u_new.values - u_prev.values)
    dp = P1ScalarField(mesh, p_new.values - p_prev.values)
    return lp_norm(du, 3.0) + gradient_lp_norm(dp, 1.5)


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
    u_new, p_new, ind = u_prev, p_prev, None

    for it in range(1, cfg.max_iter + 1):
        system = asm.step(u_prev.values, cfg.alpha)
        p_new, cg_it = asm.solve_pressure(system, x0=p_prev.values,
                                          tol=cfg.cg_tol)
        u_new = asm.recover_velocity(system, p_new)
        cg_total += cg_it

        denom = lp_norm(u_new, 3.0) + gradient_lp_norm(p_new, 1.5)
        if denom < 1e-300:
            err_l = 0.0
        else:
            err_l = _step_increment(u_new, u_prev, p_new, p_prev, mesh) / denom

        ind = ctx.compute(u_new, u_prev, p_new, cfg.alpha)
        trace.append(TraceRow(it, err_l, ind.eta_l_total, ind.eta_d_total, cg_it))
        if iterates is not None:
            iterates.append(u_new.values.copy())

        if cfg.stopping == "fixed_tol":
            converged = err_l < cfg.tol
        else:
            converged = ind.eta_l_total <= cfg.gamma_tilde * ind.eta_d_total
        if converged or not math.isfinite(err_l):
            break
        u_prev, p_prev = u_new, p_new

    return SolveResult(u=u_new, p=p_new, u_before=u_prev, converged=converged,
                       iterations=len(trace), err_l=err_l, indicators=ind,
                       trace=trace, alpha=cfg.alpha, cg_total=cg_total,
                       iterates=iterates)


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
    pts = physical_points(mesh, rule)
    # The velocity samples are dropped before the gradient is sampled, which
    # keeps the peak memory at one field's samples.
    ux, uy = sample(pts, problem.exact_u)
    exact_u_l3 = _lp(mesh, rule, ux, uy, 3.0)
    dx = ux - u.values[:, None, 0]
    dy = uy - u.values[:, None, 1]
    del ux, uy
    u_l2 = _lp(mesh, rule, dx, dy, 2.0)
    u_l3 = _lp(mesh, rule, dx, dy, 3.0)
    del dx, dy
    gx, gy = sample(pts, problem.exact_grad_p)
    exact_grad_p_l32 = _lp(mesh, rule, gx, gy, 1.5)
    gh = p1_gradients(p)
    grad_p_l32 = _lp(mesh, rule, gx - gh[:, None, 0], gy - gh[:, None, 1], 1.5)
    return ErrorReport(u_l2=u_l2, u_l3=u_l3, grad_p_l32=grad_p_l32,
                       exact_u_l3=exact_u_l3,
                       exact_grad_p_l32=exact_grad_p_l32)


# ---------------------------------------------------------------------------
# Relaxation sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    alpha: float
    iterations: int
    converged: bool
    err: float                   # relative error, nan without a reference
    log10_err: float

    @classmethod
    def from_solve(cls, alpha, result, error):
        rel = error.relative if error is not None else math.nan
        return cls(alpha=alpha, iterations=result.iterations,
                   converged=result.converged, err=rel,
                   log10_err=math.log10(rel) if rel and math.isfinite(rel)
                   else math.nan)


def alpha_sweep(mesh: Mesh, problem: ProblemSpec, alphas,
                config: SolverConfig | None = None,
                threads: int = 1) -> list[SweepRow]:
    """Solve once per relaxation weight, reusing the cached assembly.

    Iteration counts trace the characteristic U shape: small weights barely
    damp the convection update, large ones barely move the iterate.
    """
    cfg = config or SolverConfig()
    asm = Assembler(mesh, problem, cfg.volume_degree, cfg.edge_quad_points)
    ctx = IndicatorContext(mesh, problem, cfg.volume_degree)

    def run(a):
        try:
            res = solve(mesh, problem, replace(cfg, alpha=float(a)),
                        assembler=asm, context=ctx)
        except LinearSolverError:
            return SweepRow(alpha=float(a), iterations=cfg.max_iter,
                            converged=False, err=math.nan, log10_err=math.nan)
        error = true_error(mesh, problem, res.u, res.p) \
            if problem.has_exact() else None
        return SweepRow.from_solve(float(a), res, error)

    alphas = list(alphas)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, alphas))
    return [run(a) for a in alphas]


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
