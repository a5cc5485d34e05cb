"""Adaptive refinement loop: solve, estimate, mark, bisect.

Each level runs the nonlinear solver with the indicator-balanced stopping
rule, so the iteration stops as soon as the linearization error is dominated
by the discretization error on the current mesh.  Elements are then marked
on the discretization indicator (bulk criterion by default) and refined by
newest-vertex bisection, and the loop moves to the next mesh, starting there
from the iterate it stopped at (nested iteration).

Each refined level also builds its ``Assembler`` and ``IndicatorContext``
from the previous level's sampled per-element rows (``AssemblerRows`` and
``IndicatorRows``), through ``Mesh.parent``: an unsplit child copies its
parent's rows and only the new children are sampled
(``spaces.ElementCarry``).  Each per-element value is summed row by row
(``spaces.quadrature_sums``), so every carried or sampled value has the
bytes of a fresh build and the levels' outputs do not change.  Everything
global (load vector, compatibility check, flux matrices, multigrid
hierarchy) is still formed over the whole mesh.  A level's set-up is
dropped once its solve returns, and only those rows are kept until the
next level's set-up is built.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .assembly import Assembler, AssemblerRows
from .indicators import (IndicatorContext, IndicatorRows, effectivity_index,
                         total_relative_indicator)
from .mesh import Mesh, refine
from .nonlinear_solver import (SolveResult, SolverConfig, check_count, solve,
                               true_error)
from .problems import ProblemSpec, initial_mesh


@dataclass(frozen=True)
class AdaptConfig:
    """Marking parameters: ``doerfler`` marks the smallest bulk of elements
    holding theta^2 of the squared indicator, ``max`` marks every element
    above theta times the largest indicator."""

    theta: float = 0.5
    marker: str = "doerfler"

    def __post_init__(self):
        if self.marker not in ("doerfler", "max"):
            raise ValueError(f"unknown marker {self.marker!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")


def mark(eta: np.ndarray, theta: float = AdaptConfig.theta,
         marker: str = AdaptConfig.marker) -> np.ndarray:
    """Select elements to refine from per-element indicator values.

    Ties are broken toward lower element ids so marking is deterministic.
    Returns a sorted array of element indices; empty when all indicators
    vanish.
    """
    eta = np.asarray(eta, dtype=float)
    sq = eta ** 2
    total = float(sq.sum())
    if total == 0.0:
        return np.array([], dtype=int)
    if marker == "max":
        return np.flatnonzero(eta >= theta * eta.max())
    order = np.lexsort((np.arange(eta.size), -sq))
    csum = np.cumsum(sq[order])
    idx = int(np.searchsorted(csum, theta ** 2 * total))
    idx = min(idx, eta.size - 1)
    return np.sort(order[:idx + 1])


@dataclass
class LevelRecord:
    """Summary numbers for one mesh in a refinement study."""

    level: int
    vertices: int
    triangles: int
    h_max: float
    iterations: int
    converged: bool
    eta_l: float
    eta_d: float
    e_tot: float
    err: float = math.nan            # relative error, needs a reference
    err_u_l2: float = math.nan
    err_grad_p_l32: float = math.nan
    ei: float = math.nan             # effectivity index
    marked: int = 0


@dataclass
class LevelState:
    """Full state of one adaptive level (kept for rendering and tests).

    ``setup_s`` is the wall time of building the level's ``Assembler``,
    with its multigrid hierarchy, and ``IndicatorContext``."""

    mesh: Mesh
    result: SolveResult
    record: LevelRecord
    setup_s: float = 0.0


def _setup(mesh: Mesh, problem: ProblemSpec,
           parent: tuple[AssemblerRows, IndicatorRows] | None = None):
    """The ``Assembler``, with its multigrid hierarchy, and the
    ``IndicatorContext`` of ``mesh``, carried from the rows of those of the
    mesh it was refined from when ``parent`` gives them, and the seconds
    their set-up took."""
    asm_rows, ctx_rows = parent or (None, None)
    t0 = time.perf_counter()
    asm = Assembler(mesh, problem, parent=asm_rows)
    asm.hierarchy               # built before the indicator set-up exists
    ctx = IndicatorContext(mesh, problem, parent=ctx_rows)
    return asm, ctx, time.perf_counter() - t0


def _record_level(level: int, mesh: Mesh, problem: ProblemSpec,
                  result: SolveResult) -> LevelRecord:
    ind = result.indicators
    rec = LevelRecord(
        level=level, vertices=mesh.n_vertices, triangles=mesh.n_triangles,
        h_max=mesh.h_max, iterations=result.iterations,
        converged=result.converged, eta_l=ind.eta_l_total,
        eta_d=ind.eta_d_total,
        e_tot=total_relative_indicator(ind, result.u, result.p))
    if problem.has_exact():
        err = true_error(mesh, problem, result.u, result.p)
        rec.err = err.relative
        rec.err_u_l2 = err.u_l2
        rec.err_grad_p_l32 = err.grad_p_l32
        rec.ei = effectivity_index(ind, err.u_l3, err.grad_p_l32)
    return rec


def transfer(mesh: Mesh, u: np.ndarray, p: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Carry P0 velocities ``u`` and P1 pressures ``p`` of the coarse mesh
    onto ``mesh``, which :func:`refine` made from it.

    Each child takes its parent's velocity.  Old vertices keep their
    pressure and each new midpoint vertex takes the mean of its edge's two
    end values, which is exact P1 interpolation on a bisected mesh.
    """
    ends = mesh.split_edges
    return u[mesh.parent], np.concatenate([p, 0.5 * (p[ends[:, 0]]
                                                     + p[ends[:, 1]])])


def adaptive_loop(problem: ProblemSpec, mesh: Mesh, levels: int = 7,
                  solver: SolverConfig | None = None,
                  adapt: AdaptConfig | None = None) -> list[LevelState]:
    """Run ``levels`` (at least 1) solve-estimate-mark-refine rounds,
    starting on ``mesh``.

    The solver defaults to the indicator-balanced stopping rule.  The first
    level starts from ``solver.initial_guess`` (the linear solution by
    default); every later level starts from the previous level's iterate,
    carried onto the refined mesh by :func:`transfer`, and builds its
    set-up from the previous level's carried rows (see the module
    docstring).  The returned list has one entry per level, coarsest first;
    the last level is solved but not refined.  A level whose iteration did
    not converge is the last one: it is not marked, refined or used as a
    start.
    """
    check_count(levels, "levels")
    cfg = solver or SolverConfig(stopping="indicator_balance",
                                 initial_guess="darcy")
    acfg = adapt or AdaptConfig()

    states: list[LevelState] = []
    start = parent = None
    for level in range(levels):
        asm, ctx, setup_s = _setup(mesh, problem, parent)
        parent = None           # not alive beside this level's solve
        result = solve(mesh, problem, cfg, assembler=asm, context=ctx,
                       start=start)
        # The set-up ends with its solve; only the rows the next level's
        # set-up copies are kept.
        parent = asm.carried(), ctx.carried()
        del asm, ctx
        record = _record_level(level, mesh, problem, result)
        state = LevelState(mesh=mesh, result=result, record=record,
                           setup_s=setup_s)
        states.append(state)
        if level == levels - 1 or not result.converged:
            break
        marked = mark(result.indicators.eta_d, acfg.theta, acfg.marker)
        record.marked = int(marked.size)
        if marked.size == 0:
            break
        mesh = refine(mesh, marked)
        start = transfer(mesh, result.u.values, result.p.values)
    return states


def uniform_study(problem: ProblemSpec, ns, solver: SolverConfig | None = None
                  ) -> list[LevelState]:
    """Solve on a family of structured meshes (one per subdivision count)."""
    cfg = solver or SolverConfig(initial_guess="darcy")
    states = []
    for i, n in enumerate(ns):
        m = initial_mesh(problem, int(n))
        asm, ctx, setup_s = _setup(m, problem)
        result = solve(m, problem, cfg, assembler=asm, context=ctx)
        del asm, ctx
        states.append(LevelState(mesh=m, result=result,
                                 record=_record_level(i, m, problem, result),
                                 setup_s=setup_s))
    return states


def pick_by_budget(records: list[LevelRecord], budget: int) -> LevelRecord | None:
    """Last record whose vertex count fits the budget (None if none do)."""
    fitting = [r for r in records if r.vertices <= budget]
    return fitting[-1] if fitting else None


@dataclass
class BudgetComparison:
    """Best adaptive and uniform records under one vertex budget."""

    budget: int
    adaptive: LevelRecord | None
    uniform: LevelRecord | None

    def measure(self, record: LevelRecord) -> float:
        """Comparison quantity: the true relative error when a reference
        solution exists, the relative total indicator otherwise."""
        return record.err if math.isfinite(record.err) else record.e_tot

    @property
    def adaptive_wins(self) -> bool:
        if self.adaptive is None or self.uniform is None:
            return False
        return self.measure(self.adaptive) < self.measure(self.uniform)


def compare_adaptive_uniform(adaptive_records: list[LevelRecord],
                             uniform_records: list[LevelRecord],
                             budgets) -> list[BudgetComparison]:
    """Line up the two refinement strategies at matched vertex budgets."""
    return [BudgetComparison(budget=int(b),
                             adaptive=pick_by_budget(adaptive_records, int(b)),
                             uniform=pick_by_budget(uniform_records, int(b)))
            for b in budgets]
