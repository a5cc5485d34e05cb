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
from typing import ClassVar

import numpy as np

from .assembly import (CG_TOL, LOAD_EDGE_POINTS, VOLUME_DEGREE, Assembler,
                       LinearSolverError)
from .indicators import ElementIndicators, IndicatorContext
from .mesh import Mesh
from .problems import ProblemSpec, validate
from .spaces import (
    ERROR_QUAD_DEGREE,
    P0VectorField,
    P1ScalarField,
    element_lp,
    lp_norm,
    p1_gradients,
    physical_points,
    row_norms,
    sample,
    sample_blocks,
    triangle_rule,
)

# Forcing term of the inexact pressure solves: each fixed-point step stops
# its CG once the mass-row defect B u - H has fallen by this factor from the
# defect of the previous pressure; only the step the iteration stops on is
# finished to ``CG_TOL``.  0 solves every step to ``CG_TOL``.  CG starts
# from the S-energy-minimal point of p_n + span of the last
# PROJECTION_DEPTH pressure changes of the solve, if that lowers the
# defect; the stop stays measured against the defect of p_n.  0 starts
# every step from p_n.
CG_FORCING = 1e-3
PROJECTION_DEPTH = 3
# A step keeps the last V-cycle its solve built while every drag weight
# d_k = alpha + (beta/rho) |u_prev_k| is within this fraction of the one it
# was built on (see ``_within_drift``); 0 builds one every step.  Sound for
# values below 1/3.
VCYCLE_DRIFT = 0.05
# The interpolation constant C of alpha_diagnostics' inverse estimates.
C_INTERP = 1.0


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one nonlinear solve.

    ``stopping`` selects the convergence test: ``"fixed_tol"`` stops when the
    relative step increment falls below ``tol``; ``"indicator_balance"``
    stops when the linearization indicator is dominated by the
    discretization indicator, eta_L <= gamma_tilde * eta_D.  Construction
    raises ValueError for a negative or non-finite ``alpha``, a ``tol`` or
    ``gamma_tilde`` that is not finite and positive, and a ``max_iter``
    that is not an integer of at least 1.  A config is frozen;
    ``dataclasses.replace`` gives a changed copy.  The quadrature and the
    CG tolerance are constants of :mod:`.assembly`; the class attributes
    ``volume_degree``, ``edge_quad_points`` and ``cg_tol`` equal them, and
    nothing in the package reads them.
    """

    alpha: float = 1.0
    tol: float = 1e-5
    gamma_tilde: float = 1e-3
    max_iter: int = 2000
    initial_guess: str = "zero"          # "zero" | "darcy"
    stopping: str = "fixed_tol"          # "fixed_tol" | "indicator_balance"

    volume_degree: ClassVar[int] = VOLUME_DEGREE
    edge_quad_points: ClassVar[int] = LOAD_EDGE_POINTS
    cg_tol: ClassVar[float] = CG_TOL

    def __post_init__(self):
        if self.initial_guess not in ("zero", "darcy"):
            raise ValueError(f"unknown initial guess {self.initial_guess!r}")
        if self.stopping not in ("fixed_tol", "indicator_balance"):
            raise ValueError(f"unknown stopping rule {self.stopping!r}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, "
                             f"not {self.alpha!r}")
        for name in ("tol", "gamma_tilde"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, "
                                 f"not {value!r}")
        check_count(self.max_iter, "max_iter")


def check_count(value, what: str) -> None:
    """Raise ValueError unless ``value`` is an integer (an int, not a bool)
    of at least 1: a float is refused, so that 2.5 does not run as 2."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    if value < 1:
        raise ValueError(f"{what} must be at least 1, not {value!r}")


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
    vcycle_builds: int           # V-cycles built, the Darcy start's included


def _l3(areas, a):
    return float(areas @ (a * a * a)) ** (1.0 / 3.0)


def _l32(areas, a):
    return float(areas @ (a * np.sqrt(a))) ** (2.0 / 3.0)


def relative_increment(areas, u_norm, g_new, g_prev, du) -> float:
    """The step error err_L of one fixed-point step.

    ||u_new - u_prev||_L3 + ||grad(p_new - p_prev)||_L3/2 over
    ||u_new||_L3 + ||grad p_new||_L3/2, from ``u_norm = |u_new|`` and
    ``du = |u_new - u_prev|`` per element and the elementwise pressure
    gradients ``g_new`` and ``g_prev`` ((m, 2) each).  0 when the
    denominator vanishes.
    """
    denom = _l3(areas, u_norm) + _l32(areas, row_norms(g_new))
    if denom < 1e-300:
        return 0.0
    return (_l3(areas, du) + _l32(areas, row_norms(g_new - g_prev))) / denom


def _within_drift(built: np.ndarray, drag: np.ndarray) -> bool:
    """Whether |drag - built| <= VCYCLE_DRIFT * built on every element, so
    that a V-cycle built on the weights ``built`` may serve the step with
    the weights ``drag``.  A ratio that is nan or inf (a zero weight in
    ``built``, a non-finite iterate) fails the test.

    A_k = K-term + d_k |k| I with an SPD K-term, so with delta =
    VCYCLE_DRIFT the bound gives (1 + delta)^-1 S_built <= S <= (1 -
    delta)^-1 S_built.  Hence the condition number of CG with the kept
    V-cycle grows by at most (1 + delta) / (1 - delta), about 1.105 at
    delta = 0.05.  The kept damped-Jacobi weights, omega D^-1 with
    omega = 4 / (3 rho) of S_built, still reduce every error mode of S
    while 4 / (3 (1 - delta)) < 2, that is for delta < 1/3; the V-cycle
    stays symmetric, and positive on mean-zero vectors.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(drag - built) / built
    return bool(np.all(ratio <= VCYCLE_DRIFT))


def solve(mesh: Mesh, problem: ProblemSpec, config: SolverConfig | None = None,
          assembler: Assembler | None = None,
          context: IndicatorContext | None = None,
          start: tuple[np.ndarray, np.ndarray] | None = None) -> SolveResult:
    """Run the relaxed fixed-point iteration to convergence.

    ``assembler`` and ``context`` may be passed in to reuse the cached
    mesh/data integrals across several solves on the same mesh (the sweep
    below does this); they must have been built for the same mesh and
    problem objects, or a ValueError names which one differs.
    ``start = (u0, p0)``, element velocities of shape (m, 2) and vertex
    pressures of shape (n,), is the iterate to start from; it replaces
    ``config.initial_guess`` (the adaptive loop passes the previous level's
    solution carried onto the refined mesh).

    Each step solves its pressure inexactly, to the forcing term
    ``CG_FORCING``, from a start projected onto the solve's last
    ``PROJECTION_DEPTH`` pressure changes (see
    :func:`~darcyfem.assembly.deflated_cg`).  A step that passes the
    stopping test, or is the ``max_iter``-th, is finished: its CG continues
    to ``CG_TOL``, and the step's increment and indicators are
    recomputed and tested again.  So the returned fields always come from
    a pressure solved to ``CG_TOL``, unless the step increment was not
    finite.  A LinearSolverError from a pressure solve records the step
    whose solve raised as ``step`` (0 for the Darcy start).

    A step whose drag weights d_k = alpha + (beta/rho) |u_prev_k| all lie
    within ``VCYCLE_DRIFT`` of those the last V-cycle of this solve was
    built on (|d_k - d_built,k| <= VCYCLE_DRIFT d_built,k) keeps that
    V-cycle, with its own S swapped in as the finest operator; any other
    step builds its own (see :func:`_within_drift` for the bound).  The
    kept V-cycle holds no S of its own, and nothing is kept from one solve
    to the next.  ``vcycle_builds`` counts the V-cycles built.

    The convective weights (beta/rho) |u_k|
    (:meth:`~darcyfem.assembly.Assembler.convection`) are formed once per
    iterate: from the row norms of the start, and for every later iterate
    from the row norms |u_new_k| that its step error takes.  The step's
    assembly (which forms the drag weights the drift test reads) and the
    indicators use them, so no step takes the row norms of u_prev again.
    """
    cfg = config or SolverConfig()
    for name, built in (("assembler", assembler), ("context", context)):
        for what, own in (("mesh", mesh), ("problem", problem)):
            if built is not None and getattr(built, what) is not own:
                raise ValueError(f"the {name} was built for another {what}")
    asm = assembler or Assembler(mesh, problem)
    asm.hierarchy               # built before the indicator set-up exists
    ctx = context or IndicatorContext(mesh, problem)

    u_shape = (mesh.n_triangles, 2)
    builds = 0
    system = None
    if start is not None:
        u0, p0 = (np.array(v, dtype=np.float64) for v in start)
        if u0.shape != u_shape or p0.shape != (mesh.n_vertices,):
            raise ValueError(
                f"start needs shapes {u_shape} and ({mesh.n_vertices},), "
                f"got {u0.shape} and {p0.shape}")
        u_prev = P0VectorField(mesh, u0)
        p_prev = P1ScalarField(mesh, p0)
    elif cfg.initial_guess == "darcy":
        system = asm.step(np.zeros(u_shape), 0.0, np.zeros(mesh.n_triangles))
        p_prev, _ = asm.solve_pressure(system)
        builds = 1
    else:
        u_prev = P0VectorField(mesh, np.zeros(u_shape))
        p_prev = P1ScalarField(mesh, np.zeros(mesh.n_vertices))
    g_prev = p1_gradients(p_prev)
    if system is not None:      # the Darcy start's velocity
        u_prev = asm.recover_velocity(system, g_prev)

    trace: list[TraceRow] = []
    cg_total = 0
    converged = False
    err_l = math.inf
    # (beta/rho) |u_prev_k|, the one m-array kept from step to step.
    conv = asm.convection(row_norms(u_prev.values))
    u_new, p_new, g_new, ind = u_prev, p_prev, g_prev, None
    # The last pressure changes p_k - p_(k-1) of this solve's steps, one per
    # column, filled in place round the ring; the first ``filled`` columns
    # are in use.  Columns, not rows, so that S times the ring is one sparse
    # product that reads it in place.
    ring = np.empty((mesh.n_vertices, PROJECTION_DEPTH))
    filled = 0
    # The last V-cycle a step of this solve built, without its finest
    # operator, and the drag weights it was built on.
    kept = kept_drag = None

    def solve_pressure(system, x0, forcing=0.0, basis=None):
        """The step's pressure solve; an error records the step ``it``."""
        try:
            return asm.solve_pressure(system, x0=x0, forcing=forcing,
                                      basis=basis)
        except LinearSolverError as exc:
            exc.step = it
            raise

    def evaluate(system, p_new, u_prev, g_prev, conv, row):
        """Gradients, velocity, step error and indicators of a step's
        pressure, the row norms |u_new_k|, and whether they pass the
        stopping test; the phase times are added to ``row``."""
        t0 = time.perf_counter()
        g_new = p1_gradients(p_new)
        u_new = asm.recover_velocity(system, g_new)
        t1 = time.perf_counter()
        ind = ctx.compute(u_new, u_prev, cfg.alpha, g_new, conv)
        u_norm = row_norms(u_new.values)
        err_l = relative_increment(mesh.areas, u_norm, g_new, g_prev, ind.du)
        if cfg.stopping == "fixed_tol":
            passed = err_l < cfg.tol
        else:
            passed = ind.eta_l_total <= cfg.gamma_tilde * ind.eta_d_total
        row.t_recover += t1 - t0
        row.t_indicators += time.perf_counter() - t1
        return u_new, g_new, u_norm, err_l, ind, passed

    for it in range(1, cfg.max_iter + 1):
        row = TraceRow(it, math.nan, math.nan, math.nan, 0)
        # Free the previous step's system and indicators before this step
        # forms its own: only one step's arrays are alive at a time.
        system = ind = None
        t0 = time.perf_counter()
        system = asm.step(u_prev.values, cfg.alpha, conv)
        t1 = time.perf_counter()
        # Keep the last V-cycle while the drag weights stay close to those
        # it was built on; otherwise drop it before the solve builds one.
        if kept is not None and _within_drift(kept_drag, system.drag):
            system.vcycle = kept.with_finest(system.s)
        else:
            kept, kept_drag = None, system.drag
            builds += 1
        p_new, cg_it = solve_pressure(system, p_prev.values, CG_FORCING,
                                      ring[:, :filled])
        if kept is None and VCYCLE_DRIFT > 0.0:
            kept = system.vcycle.with_finest(None)
        row.t_assemble = t1 - t0
        row.t_solve = time.perf_counter() - t1
        u_new, g_new, u_norm, err_l, ind, converged = evaluate(
            system, p_new, u_prev, g_prev, conv, row)
        if CG_FORCING > 0.0 and math.isfinite(err_l) \
                and (converged or it == cfg.max_iter):
            # Finish the step the iteration would stop on, and test it again;
            # its first evaluation is not alive beside the second.
            u_new = g_new = u_norm = ind = None
            t0 = time.perf_counter()
            p_new, extra = solve_pressure(system, p_new.values)
            row.t_solve += time.perf_counter() - t0
            cg_it += extra
            u_new, g_new, u_norm, err_l, ind, converged = evaluate(
                system, p_new, u_prev, g_prev, conv, row)

        cg_total += cg_it
        row.err_l, row.eta_l, row.eta_d = \
            err_l, ind.eta_l_total, ind.eta_d_total
        row.cg_iters = cg_it
        trace.append(row)
        if converged or not math.isfinite(err_l) or it == cfg.max_iter:
            break
        if PROJECTION_DEPTH > 0:
            np.subtract(p_new.values, p_prev.values,
                        out=ring[:, (it - 1) % PROJECTION_DEPTH])
            filled = min(filled + 1, PROJECTION_DEPTH)
        u_prev, p_prev, g_prev = u_new, p_new, g_new
        conv = asm.convection(u_norm)
        del u_norm              # not alive beside the next step's assembly

    if converged:
        status = "converged"
    elif trace and not math.isfinite(err_l):
        status = "nonfinite"
    else:
        status = "max_iter"
    return SolveResult(u=u_new, p=p_new, u_before=u_prev, converged=converged,
                       iterations=len(trace), err_l=err_l, indicators=ind,
                       trace=trace, alpha=cfg.alpha, cg_total=cg_total,
                       status=status, vcycle_builds=builds)


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
    def relative(self) -> float:
        """Sum of the two relative component errors.

        Velocity error over the velocity norm plus pressure-gradient error
        over the pressure-gradient norm, each in its natural Lebesgue norm.
        A zero reference norm contributes 0 when the error is also zero
        (identically zero solution) and inf otherwise.
        """
        return _guarded_ratio(self.u_l3, self.exact_u_l3) \
            + _guarded_ratio(self.grad_p_l32, self.exact_grad_p_l32)


def true_error(mesh: Mesh, problem: ProblemSpec,
               u: P0VectorField | list[P0VectorField],
               p: P1ScalarField | list[P1ScalarField]
               ) -> ErrorReport | list[ErrorReport]:
    """Quadrature errors of (u, p) against the problem's reference solution,
    on the ``ERROR_QUAD_DEGREE`` rule.

    ``u`` and ``p`` are a P0VectorField and a P1ScalarField on ``mesh``, or
    two lists of them of equal length; a list gives a list of
    ErrorReports.  A list pass samples the reference velocity and pressure
    gradient, and integrates their norms, once per element block for all
    its fields, and gives each field the bytes of its own call.
    """
    if not problem.has_exact():
        raise ValueError(f"problem {problem.name!r} has no reference solution")
    many = isinstance(u, (list, tuple))
    us, ps = (list(u), list(p)) if many else ([u], [p])
    if len(us) != len(ps):
        raise ValueError(f"{len(us)} velocities but {len(ps)} pressures")
    rule = triangle_rule(ERROR_QUAD_DEGREE)
    grads = [p1_gradients(q) for q in ps]
    # Per-element integrals of |u|^3 and |grad p|^3/2, and per field of
    # |u - u_h|^2, |u - u_h|^3 and |grad p - grad p_h|^3/2, sampled block by
    # block to bound the peak memory and summed once over all elements.
    exact = np.empty((2, mesh.n_triangles))
    parts = np.empty((len(us), 3, mesh.n_triangles))
    for blk in sample_blocks(mesh):
        pts = physical_points(mesh, rule, blk)
        ux, uy = sample(pts, problem.exact_u)
        exact[0, blk] = element_lp(mesh, rule, ux, uy, 3.0, blk)
        for i, uh in enumerate(us):
            dx = ux - uh.values[blk, None, 0]
            dy = uy - uh.values[blk, None, 1]
            parts[i, 0, blk] = element_lp(mesh, rule, dx, dy, 2.0, blk)
            parts[i, 1, blk] = element_lp(mesh, rule, dx, dy, 3.0, blk)
            del dx, dy
        del ux, uy
        gx, gy = sample(pts, problem.exact_grad_p)
        exact[1, blk] = element_lp(mesh, rule, gx, gy, 1.5, blk)
        for i, gh in enumerate(grads):
            parts[i, 2, blk] = element_lp(mesh, rule, gx - gh[blk, None, 0],
                                          gy - gh[blk, None, 1], 1.5, blk)
    exact_u_l3, exact_grad_p_l32 = (float(exact[i].sum() ** (1.0 / q))
                                    for i, q in enumerate((3.0, 1.5)))
    reports = []
    for part in parts:
        u_l2, u_l3, grad_p_l32 = (float(part[i].sum() ** (1.0 / q))
                                  for i, q in enumerate((2.0, 3.0, 1.5)))
        reports.append(ErrorReport(u_l2=u_l2, u_l3=u_l3,
                                   grad_p_l32=grad_p_l32,
                                   exact_u_l3=exact_u_l3,
                                   exact_grad_p_l32=exact_grad_p_l32))
    return reports if many else reports[0]


# ---------------------------------------------------------------------------
# Relaxation sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    """One alpha of a sweep.  ``iterations`` is the step count of the solve,
    or the step whose pressure solve raised.  ``vcycle_builds`` and
    ``cg_total`` are the solve's (None when the pressure solve raised).
    ``phases_s`` holds the solve's :func:`phase_totals` plus ``true_error``,
    the row's share of the sweep's one error pass: its time over the number
    of rows it evaluated (empty when the pressure solve raised).  Rows
    compare equal without it."""

    alpha: float
    iterations: int
    converged: bool
    err: float                   # relative error, nan without a reference
    log10_err: float
    status: str                  # SolveResult.status or "linear_solver_error"
    vcycle_builds: int | None = None
    cg_total: int | None = None
    phases_s: dict = field(default_factory=dict, compare=False)

    @classmethod
    def from_solve(cls, alpha, result):
        """The row of a finished solve, without its error yet."""
        return cls(alpha=alpha, iterations=result.iterations,
                   converged=result.converged, err=math.nan,
                   log10_err=math.nan, status=result.status,
                   vcycle_builds=result.vcycle_builds,
                   cg_total=result.cg_total,
                   phases_s=phase_totals(result.trace))

    def record_error(self, error: ErrorReport | None, seconds: float) -> None:
        """Set the relative error of ``error`` (None without a reference)
        and the row's ``true_error`` time."""
        if error is not None:
            self.err = error.relative
            if self.err and math.isfinite(self.err):
                self.log10_err = math.log10(self.err)
        self.phases_s["true_error"] = seconds


def alpha_sweep(mesh: Mesh, problem: ProblemSpec, alphas,
                config: SolverConfig | None = None) -> list[SweepRow]:
    """Solve once per relaxation weight, reusing the cached assembly.

    Iteration counts trace the characteristic U shape: small weights barely
    damp the convection update, large ones barely move the iterate.  A
    solve whose pressure solve fails gives a row with status
    ``linear_solver_error`` and the step at which it failed.  Only each
    solved alpha's u and p are kept past its solve; after the last solve,
    the set-up is dropped and one :func:`true_error` pass over all of them
    gives the errors.
    """
    cfg = config or SolverConfig()
    asm = Assembler(mesh, problem)
    ctx = IndicatorContext(mesh, problem)
    rows, solved, us, ps = [], [], [], []
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
            rows.append(SweepRow.from_solve(a, res))
            solved.append(rows[-1])
            us.append(res.u)
            ps.append(res.p)
    del asm, ctx                # not alive beside the error pass
    t0 = time.perf_counter()
    errors = true_error(mesh, problem, us, ps) \
        if solved and problem.has_exact() else [None] * len(solved)
    share = (time.perf_counter() - t0) / max(len(solved), 1)
    for row, error in zip(solved, errors):
        row.record_error(error, share)
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
    ``c_interp`` = C_INTERP and the mesh width of the given mesh.
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


def alpha_diagnostics(mesh: Mesh, problem: ProblemSpec) -> AlphaDiagnostics:
    """Evaluate the computable relaxation thresholds on a given mesh (d = 2)."""
    report = validate(problem, mesh)
    km, kmax = report["K_m"], report["K_M"]
    mu, rho, beta = problem.mu, problem.rho, problem.beta
    h = mesh.h_max
    c = C_INTERP

    u_l, _ = Assembler(mesh, problem).lifting()
    l2 = lp_norm(u_l, 2.0)
    l3 = lp_norm(u_l, 3.0)
    rule = triangle_rule(ERROR_QUAD_DEGREE)
    f_sq = np.empty(mesh.n_triangles)
    for blk in sample_blocks(mesh):        # bounds the peak memory
        fx, fy = sample(physical_points(mesh, rule, blk), problem.f)
        f_sq[blk] = element_lp(mesh, rule, fx, fy, 2.0, blk)
    f_l2 = float(f_sq.sum() ** (1.0 / 2.0))

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
