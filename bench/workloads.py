"""The benchmark's workloads: what each job runs and how its output is checked.

The seed draws problem data only, inside a narrow band around the paper's
values.  It never changes mesh size, level count or the alpha list, so every
seed exercises the same mix of layers.  darcyfem and numpy are imported
inside the functions, so that the set-up probe can time those imports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from spans import capture_solves

# Allowance for the drift between the residual CG tracks and the true residual
# of the returned pressure; observed ratios stay below 2 at cg_tol = 1e-12.
CG_DRIFT_FACTOR = 100.0
ETA_D_RTOL = 1e-10


def _draw(seed: int, lo: float, hi: float) -> float:
    return random.Random(seed).uniform(lo, hi)


@dataclass
class SolveRecord:
    """One nonlinear solve of a job; ``result`` is None if it raised."""

    mesh: object
    result: object
    err_rel: float | None = None


@dataclass
class JobOutput:
    records: list[SolveRecord]
    err_rel: float
    eta_d: float
    refine_calls: int = 0

    @property
    def final_mesh(self):
        return self.records[-1].mesh

    def fingerprint(self) -> tuple:
        """Deterministic outputs: outer and CG iterations, final mesh size,
        refine calls and eta_D (compared to ETA_D_RTOL)."""
        done = [r.result for r in self.records if r.result is not None]
        return (sum(r.iterations for r in done), sum(r.cg_total for r in done),
                self.final_mesh.n_triangles, self.refine_calls, self.eta_d)


def same_fingerprint(a: tuple, b: tuple) -> bool:
    return a[:-1] == b[:-1] and math.isclose(a[-1], b[-1], rel_tol=ETA_D_RTOL,
                                             abs_tol=0.0)


def _config(**kw):
    from darcyfem.nonlinear_solver import SolverConfig
    return SolverConfig(**kw)


def _problems():
    """Import the whole solver stack, as a command-line run does, and return
    the problems module."""
    import darcyfem.adaptivity  # noqa: F401  (pulls in every solver layer)
    from darcyfem import problems
    return problems


class _Vortex:
    """Gaussian vortex, beta = 10, on the structured mesh of size ``n``."""

    def draw(self, seed: int) -> dict:
        return {"beta": 10.0, "gamma": _draw(seed, 49.5, 50.5)}

    def setup(self, seed: int):
        problems = _problems()
        problem = problems.gaussian_vortex(**self.draw(seed))
        return problem, problems.initial_mesh(problem, self.n)


@dataclass(frozen=True)
class VortexSolve(_Vortex):
    """One fixed-tolerance solve on a structured mesh, then its true error."""

    name: str = "vortex_n112"
    n: int = 112
    alpha: float = 10.0
    tol: float = 1e-5
    max_iter: int = 2000
    err_bound: float = 0.13

    def run(self, problem, mesh) -> JobOutput:
        from darcyfem import nonlinear_solver as nls
        res = nls.solve(mesh, problem, _config(
            alpha=self.alpha, tol=self.tol, max_iter=self.max_iter))
        err = nls.true_error(mesh, problem, res.u, res.p).relative
        return JobOutput([SolveRecord(mesh, res, err)], err_rel=err,
                         eta_d=res.indicators.eta_d_total)

    def expected_solves(self) -> int:
        return 1


@dataclass(frozen=True)
class VortexSweep(_Vortex):
    """The relaxation sweep: one assembly, one solve and error per alpha."""

    name: str = "vortex_sweep"
    n: int = 40
    alphas: tuple = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
    tol: float = 1e-5
    max_iter: int = 2000
    err_bound: float = 0.70

    def run(self, problem, mesh) -> JobOutput:
        from darcyfem import nonlinear_solver as nls
        with capture_solves() as results:
            rows = nls.alpha_sweep(mesh, problem, self.alphas, _config(
                tol=self.tol, max_iter=self.max_iter))
        if len(results) != len(rows):
            raise RuntimeError(f"{len(rows)} sweep rows but {len(results)} "
                               "solves observed")
        records = [SolveRecord(mesh, res, row.err)
                   for res, row in zip(results, rows)]
        eta = [r.indicators.eta_d_total for r in results if r is not None]
        return JobOutput(records, err_rel=max(row.err for row in rows),
                         eta_d=max(eta) if eta else math.nan)

    def expected_solves(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class CornerAdapt:
    """Solve-estimate-mark-refine on the L-shape with variable permeability."""

    name: str = "corner_adapt"
    initial_n: int = 10
    levels: int = 20
    theta: float = 0.5
    alpha: float = 10.0
    max_iter: int = 2000

    def draw(self, seed: int) -> dict:
        return {"beta": _draw(seed, 9.9, 10.1)}

    def setup(self, seed: int):
        problems = _problems()
        problem = problems.reentrant_corner(**self.draw(seed))
        return problem, problems.initial_mesh(problem, self.initial_n)

    def run(self, problem, mesh) -> JobOutput:
        from darcyfem import adaptivity
        states = adaptivity.adaptive_loop(
            problem, levels=self.levels, mesh=mesh,
            solver=_config(alpha=self.alpha, max_iter=self.max_iter,
                           stopping="indicator_balance",
                           initial_guess="darcy"),
            adapt=adaptivity.AdaptConfig(theta=self.theta))
        last = states[-1].record
        # No exact solution: the relative total indicator stands in for the
        # error, as in adaptivity.BudgetComparison.measure.
        return JobOutput([SolveRecord(s.mesh, s.result) for s in states],
                         err_rel=last.e_tot, eta_d=last.eta_d,
                         refine_calls=len(states) - 1)

    def expected_solves(self) -> int:
        return self.levels


WORKLOADS = {w.name: w for w in (VortexSolve(), CornerAdapt(), VortexSweep())}

# Tiny variants with the same code paths, for warming caches and for tests.
SMALL = {
    "vortex_n112": VortexSolve(n=8, err_bound=2.0),
    "corner_adapt": CornerAdapt(initial_n=4, levels=3),
    "vortex_sweep": VortexSweep(n=8, alphas=(8.0, 12.0), err_bound=2.0),
}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    attempted: int
    failed: int
    reasons: list[str] = field(default_factory=list)


def mass_row_defect(problem, mesh, result) -> tuple[float, float]:
    """``(|B u - H|, allowed)`` for the final fields of one solve.

    B and H come from a fresh ``Assembler``.  B u - H equals the residual
    G - S p of the last pressure solve (up to rounding), so its mean-free part
    is bounded by cg_tol |G - mean G|; its mean is set by the compatibility
    defect sum(H), which the assembler lets through up to its own tolerance.
    """
    import numpy as np
    from darcyfem.assembly import Assembler
    from darcyfem.nonlinear_solver import SolverConfig

    cfg = SolverConfig()
    asm = Assembler(mesh, problem, cfg.volume_degree, cfg.edge_quad_points)
    terms = np.einsum("mja,ma->mj", asm.b, result.u.values)
    bu = np.bincount(mesh.tris.ravel(), weights=terms.ravel(),
                     minlength=mesh.n_vertices)
    g = asm.step(result.u_before.values, result.alpha).g
    allowed = CG_DRIFT_FACTOR * cfg.cg_tol * float(np.linalg.norm(g - g.mean())) \
        + abs(float(asm.h.sum())) / math.sqrt(mesh.n_vertices)
    return float(np.linalg.norm(bu - asm.h)), allowed


def check(workload, problem, out: JobOutput) -> Verdict:
    """Every solve converged, has finite fields, meets the workload's error
    bound and satisfies the discrete mass rows."""
    import numpy as np

    verdict = Verdict(attempted=len(out.records), failed=0)
    bound = getattr(workload, "err_bound", None)
    for i, rec in enumerate(out.records):
        res = rec.result
        why = []
        if res is None:
            why.append("raised")
        elif not res.converged:
            why.append(f"not converged after {res.iterations} steps")
        elif not (np.isfinite(res.u.values).all()
                  and np.isfinite(res.p.values).all()):
            why.append("non-finite fields")
        else:
            if bound is not None and not rec.err_rel <= bound:
                why.append(f"err_rel {rec.err_rel:.6g} above {bound}")
            defect, allowed = mass_row_defect(problem, rec.mesh, res)
            if not defect <= allowed:
                why.append(f"|Bu - H| = {defect:.3e} above {allowed:.3e}")
        if why:
            verdict.failed += 1
            verdict.reasons.append(f"solve {i}: " + "; ".join(why))
    if not (math.isfinite(out.err_rel) and math.isfinite(out.eta_d)):
        verdict.failed = max(verdict.failed, 1)
        verdict.reasons.append("non-finite err_rel or eta_d")
    return verdict
