import ast
import gc
import inspect
import math
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from darcyfem import (assembly, cli, expressions, indicators, nonlinear_solver,
                      problems, render, spaces)
from darcyfem.adaptivity import AdaptConfig, LevelRecord, adaptive_loop
from darcyfem.assembly import Assembler
from darcyfem.indicators import IndicatorContext
from darcyfem.mesh import (Mesh, from_arrays, generate_lshape,
                           generate_structured)
from darcyfem.nonlinear_solver import (AlphaDiagnostics, ErrorReport,
                                       SolverConfig, _positive_cubic_root,
                                       alpha_diagnostics, alpha_sweep,
                                       solve, true_error)
from darcyfem.spaces import (P0VectorField, P1ScalarField, field_mean,
                             lp_norm, p1_gradients)

from conftest import k_is_constant, record_made, rng_loop, traced_peak
from oracles import as_blocks, scatter_schur


def test_solver_config_rejects_unknown_modes():
    with pytest.raises(ValueError):
        SolverConfig(initial_guess="random")
    with pytest.raises(ValueError):
        SolverConfig(stopping="never")


@pytest.mark.parametrize("setting", [
    {"alpha": -1.0}, {"alpha": math.inf}, {"alpha": math.nan},
    {"tol": 0.0}, {"tol": math.inf}, {"gamma_tilde": -1e-3},
    {"gamma_tilde": math.nan}, {"gamma_tilde": 0.0}, {"max_iter": 0},
    {"max_iter": 2.5}, {"max_iter": True},
])
def test_solver_config_rejects_out_of_range_settings(setting):
    with pytest.raises(ValueError, match=next(iter(setting))):
        SolverConfig(**setting)


def test_solver_config_has_its_seven_fields_and_only_those():
    """The quadrature and the CG tolerance are constants, not settings: a
    SolverConfig refuses them as arguments, and keeps them as class
    attributes equal to the constants for the benchmark's mass-row check."""
    assert [f.name for f in fields(SolverConfig)] == [
        "alpha", "tol", "gamma_tilde", "max_iter", "initial_guess",
        "stopping", "keep_iterates"]
    for name, value in (("volume_degree", 6), ("edge_quad_points", 8),
                        ("cg_tol", 0.0), ("cg_tol", 1e-8)):
        with pytest.raises(TypeError, match=name):
            SolverConfig(**{name: value})
    cfg = SolverConfig()
    assert cfg.volume_degree == SolverConfig.volume_degree \
        == assembly.VOLUME_DEGREE == 4
    assert cfg.edge_quad_points == SolverConfig.edge_quad_points \
        == assembly.LOAD_EDGE_POINTS == 4
    assert cfg.cg_tol == SolverConfig.cg_tol == assembly.CG_TOL == 1e-12


def test_values_every_caller_takes_are_not_settings():
    """Each function below has only the one value every caller used, and
    adaptive_loop is given its first mesh; the parameter, fields and methods
    that nothing read, those that only tests called, the one-line wrappers
    and the second number parser are gone."""
    for fn, name in ((assembly.Assembler.recover_velocity, "p"),
                     (assembly.deflated_cg, "tol"),
                     (render.color_bins, "n_bins"),
                     (alpha_diagnostics, "c_interp"),
                     (problems.gaussian_vortex, "strict_zero_flux"),
                     (generate_structured, "rect"),
                     (generate_lshape, "size"),
                     (adaptive_loop, "initial_n")):
        assert name not in inspect.signature(fn).parameters, fn.__name__
    mesh = inspect.signature(adaptive_loop).parameters["mesh"]
    assert mesh.default is inspect.Parameter.empty
    assert "params" not in {f.name for f in fields(problems.ProblemSpec)}
    assert "name" not in {f.name for f in fields(spaces.QuadratureRule)}
    assert not hasattr(expressions.compile_expression("x"), "source")
    assert not hasattr(P0VectorField, "copy")
    assert not hasattr(P1ScalarField, "copy")
    assert "err_u_l3" not in {f.name for f in fields(LevelRecord)}
    assert "vertex_on_boundary" not in {f.name for f in fields(Mesh)}
    for owner, name in ((ErrorReport, "combined"),
                        (AlphaDiagnostics, "as_dict"),
                        (nonlinear_solver, "compute_lifting"),
                        (Mesh, "tri_coords"), (Mesh, "interior_edges"),
                        (cli, "_real")):
        assert not hasattr(owner, name), name


def test_every_parameter_is_read():
    """No function or lambda of ``src/darcyfem`` takes a parameter that its
    body never reads.  ``self`` and ``cls`` are exempt, and so are the
    problem-data callbacks: their ``(x, y)`` and ``(x, y, normal)``
    signatures are ProblemSpec's contract."""
    callbacks = (["x", "y"], ["x", "y", "normal"])
    unread = []
    for path in sorted(Path(assembly.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                     a.vararg, a.kwarg) if p is not None]
            if names in callbacks:
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name not in read and name not in ("self", "cls")]
    assert unread == []


def test_configs_are_frozen_values():
    """Setting a field or a class attribute on a config raises, and
    ``replace`` still gives a changed copy."""
    cfg = SolverConfig()
    for name, value in (("cg_tol", 1e-8), ("alpha", 2.0)):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg.alpha == 1.0 and SolverConfig().cg_tol == assembly.CG_TOL
    assert replace(cfg, alpha=2.0).alpha == 2.0
    adapt = AdaptConfig()
    with pytest.raises(FrozenInstanceError):
        adapt.theta = 0.3
    assert replace(adapt, theta=0.3).theta == 0.3


def test_solver_config_accepts_alpha_zero_and_one_step():
    assert SolverConfig(alpha=0.0, max_iter=1).max_iter == 1


def test_solve_start_checks_shapes_and_replaces_the_guess():
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(4)
    u0 = np.zeros((m.n_triangles, 2))
    p0 = np.zeros(m.n_vertices)
    for bad in ((u0[1:], p0), (u0.ravel(), p0), (u0, p0[1:]),
                (u0, p0[:, None])):
        with pytest.raises(ValueError, match="start needs shapes"):
            solve(m, prob, start=bad)
    cfg = SolverConfig(alpha=10.0, initial_guess="darcy", max_iter=3)
    from_zero = solve(m, prob, SolverConfig(alpha=10.0, max_iter=3))
    started = solve(m, prob, cfg, start=(u0, p0))
    assert started.u.values.tobytes() == from_zero.u.values.tobytes()
    assert started.trace == from_zero.trace


@pytest.mark.parametrize("built", ["assembler", "context"])
@pytest.mark.parametrize("other, what", [("moved-vertex", "mesh"),
                                         ("beta-1", "problem"),
                                         ("N-5", "mesh")])
def test_solve_refuses_a_setup_for_another_mesh_or_problem(built, other,
                                                           what):
    """A set-up built for a same-size mesh with one vertex moved, for beta
    = 1 or for N = 5 is refused, naming which of the two differs: the first
    two would run to ``converged`` on the wrong data, the third fail inside
    numpy."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = problems.initial_mesh(prob, 4)
    setup_mesh, setup_prob = m, prob
    if other == "moved-vertex":
        xy = m.xy.copy()
        xy[12] = (0.55, 0.45)           # the vertex at (0.5, 0.5)
        setup_mesh = from_arrays(xy, m.tris)
    elif other == "beta-1":
        setup_prob = problems.gaussian_vortex(beta=1.0)
    else:
        setup_mesh = problems.initial_mesh(prob, 5)
    build = Assembler if built == "assembler" else IndicatorContext
    with pytest.raises(ValueError,
                       match=f"^the {built} was built for another {what}$"):
        solve(m, prob, SolverConfig(alpha=10.0),
              **{built: build(setup_mesh, setup_prob)})


def _relative_pressure_residual(mesh, problem, res):
    """||G - S p - mean|| / ||G - mean G|| of the final fields, with the
    system rebuilt from ``u_before``, the iterate entering the last step."""
    system = Assembler(mesh, problem).step(res.u_before.values, res.alpha)
    g = system.g - system.g.mean()
    r = g - system.s @ res.p.values
    return float(np.linalg.norm(r - r.mean()) / np.linalg.norm(g))


def _assert_finished(mesh, problem, res):
    assert _relative_pressure_residual(mesh, problem, res) \
        <= 10.0 * assembly.CG_TOL
    assert res.cg_total == sum(row.cg_iters for row in res.trace)


def test_inexact_steps_keep_the_outer_count_and_cut_cg_work(monkeypatch):
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(12)
    cfg = SolverConfig(alpha=10.0, tol=1e-5)
    inexact = solve(m, prob, cfg)
    monkeypatch.setattr(nonlinear_solver, "CG_FORCING", 0.0)
    exact = solve(m, prob, cfg)
    assert inexact.converged and exact.converged
    assert inexact.iterations == exact.iterations
    assert inexact.cg_total < exact.cg_total
    assert inexact.indicators.eta_d_total == pytest.approx(
        exact.indicators.eta_d_total, rel=1e-8)
    for res in (inexact, exact):
        _assert_finished(m, prob, res)
    # only the last step is solved to CG_TOL
    assert inexact.trace[-2].cg_iters < exact.trace[-2].cg_iters


def test_inexact_adaptive_levels_keep_counts_and_meshes(monkeypatch):
    prob = problems.reentrant_corner()
    cfg = SolverConfig(alpha=10.0, stopping="indicator_balance",
                       initial_guess="darcy")

    def run():
        return adaptive_loop(prob, problems.initial_mesh(prob, 4),
                             levels=4, solver=cfg)

    inexact = run()
    monkeypatch.setattr(nonlinear_solver, "CG_FORCING", 0.0)
    exact = run()
    assert [s.result.iterations for s in inexact] \
        == [s.result.iterations for s in exact]
    assert [s.mesh.n_triangles for s in inexact] \
        == [s.mesh.n_triangles for s in exact]
    assert sum(s.result.cg_total for s in inexact) \
        < sum(s.result.cg_total for s in exact)
    for a, b in zip(inexact, exact):
        assert a.result.converged
        assert a.result.indicators.eta_d_total == pytest.approx(
            b.result.indicators.eta_d_total, rel=1e-6)
        _assert_finished(a.mesh, prob, a.result)


class _FirstStepLooksBalanced:
    """Indicator context that reports eta_L = 0 on its first call, so the
    first step passes the balance test before it is finished; the
    indicators recomputed after finishing are the real ones."""

    def __init__(self, context):
        self.context, self.calls = context, 0
        self.mesh, self.problem = context.mesh, context.problem

    def compute(self, *args):
        self.calls += 1
        ind = self.context.compute(*args)
        if self.calls == 1:
            ind = replace(ind, eta_l=np.zeros_like(ind.eta_l))
        return ind


def test_a_finished_step_that_fails_the_test_goes_on(monkeypatch):
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(8)
    cfg = SolverConfig(alpha=10.0, stopping="indicator_balance",
                       keep_iterates=True)
    plain = solve(m, prob, cfg)
    tricked = solve(m, prob, cfg, context=_FirstStepLooksBalanced(
        IndicatorContext(m, prob)))
    assert tricked.converged and tricked.iterations > 1
    first = tricked.trace[0]
    assert first.eta_l > cfg.gamma_tilde * first.eta_d
    assert first.cg_iters > plain.trace[0].cg_iters
    _assert_finished(m, prob, tricked)
    # the finished first step is the exact first step
    monkeypatch.setattr(nonlinear_solver, "CG_FORCING", 0.0)
    exact = solve(m, prob, replace(cfg, max_iter=1))
    assert np.abs(tricked.iterates[1] - exact.iterates[1]).max() \
        <= 1e-9 * np.abs(exact.iterates[1]).max()


def _outer_path(res):
    return res.iterations, res.converged, res.status


def test_projected_start_keeps_the_sweep_and_cuts_cg_work(monkeypatch):
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(10)
    real, solves = nonlinear_solver.solve, []

    def recording(*args, **kw):
        solves.append(real(*args, **kw))
        return solves[-1]

    monkeypatch.setattr(nonlinear_solver, "solve", recording)

    def run():
        solves.clear()
        rows = alpha_sweep(m, prob, [4.0, 8.0, 16.0])
        return rows, list(solves)

    rows, projected = run()
    monkeypatch.setattr(nonlinear_solver, "PROJECTION_DEPTH", 0)
    plain_rows, plain = run()
    assert [(r.iterations, r.converged, r.status) for r in rows] \
        == [(r.iterations, r.converged, r.status) for r in plain_rows]
    assert [_outer_path(r) for r in projected] \
        == [_outer_path(r) for r in plain]
    for a, b in zip(projected, plain):
        assert a.converged and a.cg_total < b.cg_total
        _assert_finished(m, prob, a)
        assert a.indicators.eta_d_total == pytest.approx(
            b.indicators.eta_d_total, rel=1e-8)


def test_sweep_rows_are_standalone_solves(monkeypatch):
    """Nothing is kept from one solve to the next: each alpha of a sweep,
    whose solves share one Assembler, gives the bytes of a solve with a
    fresh one.  The repeated large alpha starts where a V-cycle kept from
    the previous solve would be within ``VCYCLE_DRIFT``."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(10)
    cfg = SolverConfig(max_iter=30)
    real, solves = nonlinear_solver.solve, []

    def recording(*args, **kw):
        solves.append(real(*args, **kw))
        return solves[-1]

    monkeypatch.setattr(nonlinear_solver, "solve", recording)
    rows = alpha_sweep(m, prob, [1000.0, 1000.0, 8.0], cfg)
    assert len(solves) == len(rows) == 3
    for row, shared in zip(rows, solves):
        alone = real(m, prob, replace(cfg, alpha=row.alpha))
        assert shared.u.values.tobytes() == alone.u.values.tobytes()
        assert shared.p.values.tobytes() == alone.p.values.tobytes()
        assert shared.trace == alone.trace
        assert (shared.status, shared.cg_total, shared.vcycle_builds) \
            == (alone.status, alone.cg_total, alone.vcycle_builds)
        assert row.vcycle_builds == alone.vcycle_builds
        err = true_error(m, prob, alone.u, alone.p).relative
        assert np.float64(row.err).tobytes() == np.float64(err).tobytes()
    assert rows[0].vcycle_builds < rows[0].iterations


def test_sweep_drops_its_setup_before_the_error_pass(monkeypatch):
    """When the sweep calls true_error, its Assembler, hierarchy and
    IndicatorContext are unreachable: the error pass, which sets the
    sweep's peak, runs beside the solved fields only."""
    made = record_made(monkeypatch, nonlinear_solver, "Assembler",
                       "IndicatorContext")
    made.update(record_made(monkeypatch, assembly, "SmoothedAggregation"))
    real, alive = nonlinear_solver.true_error, []

    def checked(*args):
        gc.collect()
        alive.append({name: [ref() is not None for ref in refs]
                      for name, refs in made.items()})
        return real(*args)

    monkeypatch.setattr(nonlinear_solver, "true_error", checked)
    rows = alpha_sweep(generate_structured(6),
                       problems.gaussian_vortex(beta=10.0), [8.0, 12.0])
    assert all(math.isfinite(r.err) for r in rows)
    assert alive == [{"Assembler": [False], "IndicatorContext": [False],
                      "SmoothedAggregation": [False]}]


def test_sweep_row_order_and_errors_around_a_failed_alpha(monkeypatch):
    """An alpha whose pressure solve raises, between two that solve, keeps
    its place among the rows, and the rows on either side keep the errors
    of their own solves."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(6)
    cfg = SolverConfig(max_iter=40)
    real = nonlinear_solver.solve

    def solve_or_fail(mesh, problem, config, **kw):
        if config.alpha == 5.0:
            raise nonlinear_solver.LinearSolverError("injected", [1.0])
        return real(mesh, problem, config, **kw)

    monkeypatch.setattr(nonlinear_solver, "solve", solve_or_fail)
    rows = alpha_sweep(m, prob, [8.0, 5.0, 12.0], cfg)
    assert [(r.alpha, r.status) for r in rows] \
        == [(8.0, "converged"), (5.0, "linear_solver_error"),
            (12.0, "converged")]
    assert math.isnan(rows[1].err) and rows[1].phases_s == {}
    for row in (rows[0], rows[2]):
        alone = real(m, prob, replace(cfg, alpha=row.alpha))
        err = true_error(m, prob, alone.u, alone.p).relative
        assert np.float64(row.err).tobytes() == np.float64(err).tobytes()
        assert row.log10_err == math.log10(err)
        assert row.phases_s["true_error"] >= 0.0


def test_true_error_over_lists_gives_the_bytes_of_each_call(monkeypatch):
    """One pass over lists of fields gives, field by field, every
    ErrorReport value of a call on that field alone; several element
    blocks are sampled."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(7)
    monkeypatch.setattr(spaces, "SAMPLE_BLOCK", 64)
    rng = np.random.default_rng(11)
    us = [P0VectorField(m, rng.standard_normal((m.n_triangles, 2)))
          for _ in range(3)]
    ps = [P1ScalarField(m, rng.standard_normal(m.n_vertices))
          for _ in range(3)]
    reports = true_error(m, prob, us, ps)
    assert len(reports) == 3
    for rep, u, p in zip(reports, us, ps):
        alone = true_error(m, prob, u, p)
        for name in ErrorReport.__dataclass_fields__:
            assert np.float64(getattr(rep, name)).tobytes() \
                == np.float64(getattr(alone, name)).tobytes(), name
    assert true_error(m, prob, [], []) == []
    with pytest.raises(ValueError):
        true_error(m, prob, us, ps[:2])


def test_a_constant_k_step_takes_five_row_norms(monkeypatch):
    """A relaxed step that is not finished takes the row norms of du, of the
    momentum residual, of u_new, of grad p_new and of the gradient change:
    the convective weights of u_prev come from the previous step."""
    prob = problems.gaussian_vortex(beta=10.0)
    assert k_is_constant(prob)
    m = generate_structured(6)
    calls = [0]
    real = spaces.row_norms

    def counted(v):
        calls[0] += 1
        return real(v)

    for module in (spaces, nonlinear_solver, assembly, indicators):
        monkeypatch.setattr(module, "row_norms", counted)

    def count(max_iter):
        calls[0] = 0
        res = solve(m, prob, SolverConfig(alpha=10.0, tol=1e-300,
                                          max_iter=max_iter))
        assert res.iterations == max_iter and not res.converged
        return calls[0]

    assert count(4) - count(3) == 5


def test_projected_start_keeps_a_started_solve(monkeypatch):
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(10)
    cfg = SolverConfig(alpha=10.0)
    pre = solve(m, prob, replace(cfg, max_iter=3))
    start = (pre.u.values, pre.p.values)
    projected = solve(m, prob, cfg, start=start)
    monkeypatch.setattr(nonlinear_solver, "PROJECTION_DEPTH", 0)
    plain = solve(m, prob, cfg, start=start)
    assert _outer_path(projected) == _outer_path(plain)
    assert projected.converged and projected.cg_total < plain.cg_total
    _assert_finished(m, prob, projected)


def test_only_forcing_solves_get_the_step_history(monkeypatch):
    """Each solve starts without history; its k-th forcing solve gets the
    last min(k - 1, PROJECTION_DEPTH) pressure changes, and the Darcy start
    and the finishing solve get none."""
    calls = []
    solve_pressure = Assembler.solve_pressure

    def recording(self, system, **kw):
        basis = kw.get("basis")
        calls.append(None if basis is None else basis.shape[1])
        return solve_pressure(self, system, **kw)

    monkeypatch.setattr(Assembler, "solve_pressure", recording)
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(6)
    cfg = SolverConfig(alpha=10.0, initial_guess="darcy")
    for _ in range(2):
        calls.clear()
        res = solve(m, prob, cfg)
        assert res.converged and res.iterations > 4
        assert calls == [None, 0, 1, 2] + [3] * (res.iterations - 3) + [None]


def test_solve_peak_memory():
    """The traced peak of one N = 112 solve above its set-up (Assembler,
    IndicatorContext, hierarchy and gradient operator) stays under
    7.0 MiB: 6.7 MiB when S's local blocks are summed row by row, the
    indicators gather their edge terms and no zero velocity is kept; before
    that, 7.4 MiB when the system keeps the inverse blocks W_k only,
    7.9 MiB when it also kept the blocks A_k; 9.4 MiB when a finished step
    did not free its first evaluation before its finishing solve; 9.3 MiB
    when each step frees the previous step's system and indicators before
    it assembles its own and the kept V-cycle holds no S (9.1 MiB with
    ``VCYCLE_DRIFT = 0``), 10.0 MiB when the kept V-cycle held the S it was
    built on, 11.2 MiB when both steps' systems and indicators were alive
    together."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = problems.initial_mesh(prob, 112)
    asm = Assembler(m, prob)
    ctx = IndicatorContext(m, prob)
    # the lazy parts of the set-up, built before tracing starts
    asm.hierarchy
    m.gradient_operator
    res, peak = traced_peak(lambda: solve(
        m, prob, SolverConfig(alpha=10.0), assembler=asm, context=ctx))
    assert res.converged
    assert peak <= 7.0 * 2 ** 20


def test_solve_with_its_own_setup_peak_memory():
    """The traced peak of one N = 112 solve that builds its own set-up,
    above the built mesh, stays under 27.5 MiB: 26.1 MiB when the hierarchy
    is built before the indicator set-up and no set-up temporary outlives
    its use, 31.4 MiB when the hierarchy was built in the first pressure
    solve, on top of the indicator set-up and the first system."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = problems.initial_mesh(prob, 112)
    res, peak = traced_peak(lambda: solve(m, prob, SolverConfig(alpha=10.0)))
    assert res.converged
    assert peak <= 27.5 * 2 ** 20


def test_status_converged():
    prob = problems.gaussian_vortex(beta=10.0)
    res = solve(generate_structured(6), prob, SolverConfig(alpha=10.0))
    assert res.converged and res.status == "converged"


def test_status_max_iter_with_finished_fields():
    """beta = 1000 with alpha = 0.1 settles into a period-2 cycle; the step
    that runs out of iterations is finished all the same."""
    prob = problems.gaussian_vortex(beta=1000.0)
    m = generate_structured(10)
    res = solve(m, prob, SolverConfig(alpha=0.1, max_iter=5,
                                      keep_iterates=True))
    assert not res.converged and res.status == "max_iter"
    assert res.iterations == 5
    assert np.array_equal(res.iterates[-2], res.u_before.values)
    _assert_finished(m, prob, res)


@pytest.mark.parametrize("max_iter", [1, 2000])
def test_status_nonfinite(max_iter, monkeypatch):
    """A huge start velocity overflows the step increment on step 1; that
    step is reported as it is, not finished, even as the last step."""
    forcings = []
    solve_pressure = Assembler.solve_pressure

    def recording(self, system, **kw):
        forcings.append(kw.get("forcing", 0.0))
        return solve_pressure(self, system, **kw)

    monkeypatch.setattr(Assembler, "solve_pressure", recording)
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(6)
    start = (np.full((m.n_triangles, 2), 1e110), np.zeros(m.n_vertices))
    with np.errstate(over="ignore"):
        res = solve(m, prob, SolverConfig(alpha=10.0, max_iter=max_iter),
                    start=start)
    assert not res.converged and res.status == "nonfinite"
    assert res.iterations == 1 and math.isinf(res.err_l)
    assert forcings == [nonlinear_solver.CG_FORCING]
    assert res.cg_total == res.trace[0].cg_iters


def test_zero_data_converges_immediately():
    prob = problems.trivial_zero()
    m = generate_structured(4)
    res = solve(m, prob)
    assert res.converged
    assert res.iterations == 1
    assert res.err_l == 0.0
    assert np.allclose(res.u.values, 0.0, atol=1e-13)


def test_linear_problem_unrelaxed_converges_in_two():
    prob = problems.problem_from_config({"beta": 0.0, "f": ["y", "x*x"]})
    m = generate_structured(6)
    res = solve(m, prob, SolverConfig(alpha=0.0))
    assert res.converged
    assert res.iterations <= 2


def test_linear_problem_darcy_guess_is_fixed_point():
    """With no inertia term the first relaxed step reproduces the guess."""
    prob = problems.problem_from_config({"beta": 0.0, "f": ["y", "x*x"]})
    m = generate_structured(6)
    res = solve(m, prob, SolverConfig(alpha=1.0, initial_guess="darcy"))
    assert res.converged
    assert res.iterations == 1
    assert res.err_l <= 1e-10


def test_trace_structure_and_kept_iterates():
    prob = problems.gaussian_vortex(beta=1.0)
    m = generate_structured(10)
    res = solve(m, prob, SolverConfig(alpha=2.3, keep_iterates=True))
    assert res.converged
    assert res.iterations == len(res.trace) >= 3
    assert [row.iteration for row in res.trace] \
        == list(range(1, res.iterations + 1))
    for row in res.trace:
        assert row.err_l >= 0 and math.isfinite(row.err_l)
        assert row.eta_l >= 0 and row.eta_d > 0
        assert row.cg_iters >= 0
    assert res.cg_total == sum(row.cg_iters for row in res.trace)
    # iterate history: initial guess first, final iterate last
    assert len(res.iterates) == res.iterations + 1
    assert np.all(res.iterates[0] == 0.0)
    assert np.array_equal(res.iterates[-1], res.u.values)
    assert np.array_equal(res.iterates[-2], res.u_before.values)
    assert abs(field_mean(res.p)) < 1e-12


def test_fixed_tol_stops_exactly_at_threshold():
    prob = problems.gaussian_vortex(beta=1.0)
    m = generate_structured(10)
    cfg = SolverConfig(alpha=2.3, tol=1e-4)
    res = solve(m, prob, cfg)
    assert res.converged
    assert res.trace[-1].err_l < cfg.tol
    assert all(row.err_l >= cfg.tol for row in res.trace[:-1])


def test_indicator_balance_stopping():
    prob = problems.gaussian_vortex(beta=1.0)
    m = generate_structured(10)
    cfg = SolverConfig(alpha=2.3, gamma_tilde=1e-3,
                       stopping="indicator_balance")
    res = solve(m, prob, cfg)
    assert res.converged
    assert res.indicators.eta_l_total <= cfg.gamma_tilde \
        * res.indicators.eta_d_total
    for row in res.trace[:-1]:
        assert row.eta_l > cfg.gamma_tilde * row.eta_d


def test_max_iter_exhaustion_is_flagged_not_raised():
    prob = problems.gaussian_vortex(beta=1.0)
    m = generate_structured(10)
    res = solve(m, prob, SolverConfig(alpha=1000.0, max_iter=3))
    assert not res.converged
    assert res.iterations == 3


def test_converged_iterate_satisfies_unrelaxed_equations():
    """Drop the relaxation term: the residual must shrink with the tolerance."""
    prob = problems.gaussian_vortex(beta=1.0)
    m = generate_structured(10)
    cfg = SolverConfig(alpha=2.3, tol=1e-8)
    res = solve(m, prob, cfg)
    assert res.converged
    asm = Assembler(m, prob)
    u = res.u.values
    gp = p1_gradients(res.p)
    a0u = np.einsum("mab,mb->ma", as_blocks(asm._k_rows), u)
    speed = np.linalg.norm(u, axis=1)
    nonlin = (prob.beta / prob.rho) * (m.areas * speed)[:, None] * u
    r = a0u + nonlin + m.areas[:, None] * gp - asm.f_int
    scale = np.abs(a0u) + np.abs(nonlin) \
        + np.abs(m.areas[:, None] * gp) + np.abs(asm.f_int)
    assert np.linalg.norm(r) <= 10.0 * cfg.tol * np.linalg.norm(scale)


def test_err_l_trajectory_scale_invariant_linear():
    """Scaling the data of the inertia-free problem scales the fields but
    leaves the relative step increments untouched."""
    base = {"beta": 0.0, "f": ["sin(x)", "y"], "b": "0", "g": "0"}
    scaled = {"beta": 0.0, "f": ["7*sin(x)", "7*y"], "b": "0", "g": "0"}
    m = generate_structured(6)
    cfg = SolverConfig(alpha=1.0, tol=1e-300, max_iter=6)
    r1 = solve(m, problems.problem_from_config(base), cfg)
    r2 = solve(m, problems.problem_from_config(scaled), cfg)
    assert r1.iterations == r2.iterations == 6
    for a, b in zip(r1.trace, r2.trace):
        assert a.err_l == pytest.approx(b.err_l, rel=1e-9)
    assert np.allclose(7.0 * r1.u.values, r2.u.values, rtol=1e-9, atol=1e-13)


def test_alpha_sweep_u_shape_and_growth():
    prob = problems.gaussian_vortex(beta=1.0)
    m = generate_structured(20)
    alphas = [1.0, 2.3, 5.0, 20.0, 80.0]
    rows = alpha_sweep(m, prob, alphas)
    assert [r.alpha for r in rows] == alphas
    assert all(r.converged for r in rows)
    counts = [r.iterations for r in rows]
    assert counts[1] == min(counts)
    assert counts[2] < counts[3] < counts[4]    # growth past the minimizer
    for r in rows:
        assert math.isfinite(r.err) and r.err > 0
        assert r.log10_err == pytest.approx(math.log10(r.err))


def test_alpha_sweep_without_reference_reports_nan():
    prob = problems.reentrant_corner(beta=10.0)
    m = generate_lshape(4)
    rows = alpha_sweep(m, prob, [8.0])
    assert rows[0].converged
    assert math.isnan(rows[0].err) and math.isnan(rows[0].log10_err)


def test_iteration_count_with_darcy_guess_matches_reference():
    """Starting from the inertia-free solution cuts the count to 14-ish
    (reference value 12, thirty percent band)."""
    prob = problems.gaussian_vortex(beta=1.0)
    m = generate_structured(60)
    res = solve(m, prob, SolverConfig(alpha=2.6, initial_guess="darcy"))
    assert res.converged
    assert 9 <= res.iterations <= 15


def test_error_report_relative():
    rep = ErrorReport(u_l2=0.1, u_l3=0.2, grad_p_l32=0.3,
                      exact_u_l3=2.0, exact_grad_p_l32=3.0)
    assert rep.relative == pytest.approx(0.2 / 2.0 + 0.3 / 3.0)


def test_true_error_requires_reference():
    prob = problems.reentrant_corner()
    m = generate_lshape(2)
    res = solve(m, prob, SolverConfig(alpha=10.0))
    with pytest.raises(ValueError):
        true_error(m, prob, res.u, res.p)


def test_true_error_vanishes_for_exact_zero():
    prob = problems.trivial_zero()
    m = generate_structured(4)
    res = solve(m, prob)
    rep = true_error(m, prob, res.u, res.p)
    assert rep.u_l2 < 1e-13 and rep.u_l3 < 1e-13 and rep.grad_p_l32 < 1e-13


def test_true_error_matches_closed_forms():
    """u = (x, 0) and p = x y against u_h = 0 and p_h = 0 on the unit
    square: every norm is a polynomial integral the degree-10 rule
    integrates exactly (the gradient terms are compared with each other)."""
    prob = problems.problem_from_config(
        {"exact_u": ["x", "0"], "exact_p": "x*y",
         "exact_grad_p": ["y", "x"]})
    m = generate_structured(5)
    rep = true_error(m, prob, P0VectorField.zero(m), P1ScalarField.zero(m))
    assert rep.u_l2 == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-13)
    assert rep.u_l3 == pytest.approx(0.25 ** (1.0 / 3.0), rel=1e-13)
    assert rep.exact_u_l3 == rep.u_l3
    assert rep.grad_p_l32 == rep.exact_grad_p_l32 > 0.0


def test_true_error_blocked_sampling_matches_one_block(monkeypatch):
    """Sampling the reference fields over element blocks gives the same
    bytes as one block holding every element, whatever the block size:
    blocks of one element, of 64, and of m - 1, whose last block holds one
    element."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(7)
    rng = np.random.default_rng(3)
    u = P0VectorField(m, rng.standard_normal((m.n_triangles, 2)))
    p = P1ScalarField(m, rng.standard_normal(m.n_vertices))
    monkeypatch.setattr(spaces, "SAMPLE_BLOCK", m.n_triangles)
    whole = true_error(m, prob, u, p)
    for block in (1, 64, m.n_triangles - 1):
        monkeypatch.setattr(spaces, "SAMPLE_BLOCK", block)
        assert block < m.n_triangles
        assert true_error(m, prob, u, p) == whole, block


def test_positive_cubic_root_values():
    assert _positive_cubic_root(0.0, 0.0, 0.0) == 0.0
    # a^3 / 8 = 1  ->  a = 2
    assert _positive_cubic_root(1.0, 0.0, 0.0) == pytest.approx(2.0, abs=1e-9)
    for rng in rng_loop(17, 10):
        c0, c1, c2 = rng.uniform(0.0, 5.0, size=3)
        a = _positive_cubic_root(c0, c1, c2)
        phi = a ** 3 / 8.0 - c0 - c1 * a - c2 * a ** 2

        def phi_at(t):
            return t ** 3 / 8.0 - c0 - c1 * t - c2 * t ** 2

        assert abs(phi) < 1e-6 * max(1.0, c0 + c1 * a + c2 * a ** 2)
        assert phi_at(a * 1.01 + 1e-9) > 0.0
        assert phi_at(a * 0.99) < 0.0 or a == 0.0


def test_alpha_diagnostics_blocked_sampling_matches_one_block(monkeypatch):
    """The degree-10 norm of f, sampled over element blocks, gives the bytes
    of one block holding every element, whatever the block size."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(7)
    monkeypatch.setattr(spaces, "SAMPLE_BLOCK", m.n_triangles)
    whole = alpha_diagnostics(m, prob)
    assert whole.f_l2 > 0.0
    for block in (1, 64, m.n_triangles - 1):
        monkeypatch.setattr(spaces, "SAMPLE_BLOCK", block)
        assert alpha_diagnostics(m, prob) == whole, block


def test_alpha_diagnostics_peak_memory():
    """The traced peak of ``alpha_diagnostics`` at N = 60 stays under
    8.5 MiB: 6.6 MiB with f sampled in element blocks, 17.9 MiB when its
    degree-10 samples of the whole mesh were formed in one call."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = problems.initial_mesh(prob, 60)
    alpha_diagnostics(m, prob)
    _, peak = traced_peak(lambda: alpha_diagnostics(m, prob))
    assert peak <= 8.5 * 2 ** 20


def test_alpha_diagnostics_no_flux_collapse():
    """Without boundary/source data the lifting vanishes and the contraction
    threshold reduces to 4 * gamma2."""
    prob = problems.problem_from_config({"beta": 2.0, "f": ["1", "0"]})
    m = generate_structured(10)
    diag = alpha_diagnostics(m, prob)
    assert diag.lifting_l2 == 0.0 and diag.lifting_l3 == 0.0
    assert diag.ell1 == 0.0
    assert diag.gamma1 == 0.0
    assert diag.alpha_star == pytest.approx(4.0 * diag.gamma2, rel=1e-12)
    assert diag.alpha_cubic > 0.0
    assert diag.k_min == pytest.approx(1.0) and diag.k_max == pytest.approx(1.0)
    assert set(asdict(diag)) == set(AlphaDiagnostics.__dataclass_fields__)


def test_alpha_diagnostics_inertia_free_zero():
    prob = problems.problem_from_config({"beta": 0.0, "f": ["1", "0"]})
    m = generate_structured(6)
    diag = alpha_diagnostics(m, prob)
    assert diag.gamma1 == 0.0 and diag.gamma2 == 0.0
    assert diag.alpha_star == 0.0
    assert diag.alpha_cubic == 0.0


def test_alpha_star_grows_under_refinement():
    prob = problems.gaussian_vortex(beta=1.0)
    stars = [alpha_diagnostics(generate_structured(n), prob).alpha_star
             for n in (10, 20, 40)]
    assert stars[0] < stars[1] < stars[2]


def test_lifting_minimal_norm():
    """Any discretely divergence-free perturbation only adds energy."""
    from darcyfem.assembly import deflated_cg

    prob = problems.problem_from_config({"b": "1", "g": "0.25"})
    m = generate_structured(4)
    asm = Assembler(m, prob)
    u_l, _ = asm.lifting()
    base = lp_norm(u_l, 2.0)
    assert base > 0
    inv_area = 1.0 / m.areas
    local = np.einsum("mja,m,mka->mjk", asm.b, inv_area, asm.b)
    s0 = scatter_schur(m, local)
    for rng in rng_loop(55, 5):
        w0 = rng.standard_normal((m.n_triangles, 2))
        bw = np.zeros(m.n_vertices)
        per = np.einsum("mja,ma->mj", asm.b, w0)
        np.add.at(bw, m.tris.ravel(), per.ravel())
        lam, _ = deflated_cg(s0, bw)
        w = w0 - np.einsum("mja,mj->ma", asm.b, lam[m.tris]) \
            * inv_area[:, None]
        perturbed = float(np.sqrt(m.areas @ (np.linalg.norm(
            u_l.values + w, axis=1) ** 2)))
        w_norm = float(np.sqrt(m.areas @ (np.linalg.norm(w, axis=1) ** 2)))
        assert w_norm > 1e-3                      # perturbation is real
        assert perturbed > base
        assert perturbed ** 2 == pytest.approx(base ** 2 + w_norm ** 2,
                                               rel=1e-9)
