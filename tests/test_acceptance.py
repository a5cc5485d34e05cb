"""End-to-end acceptance gate.

Each test pins one benchmark behavior of the solver: the relaxation-sweep
tables, the benefit of the linear-solve initial guess, a-priori convergence
orders, effectivity of the estimator, adaptive-vs-uniform efficiency, the
growth of the optimal relaxation weight under refinement, equivalence with a
dense saddle-point oracle, the core inequalities as property suites, and
monotone contraction of the Picard iterates.  The expensive N=60 sweeps and
the deep adaptive runs are session fixtures shared across tests.
"""
import json
import math

import numpy as np
import pytest

from darcyfem import problems
from darcyfem.adaptivity import adaptive_loop, uniform_study
from darcyfem.assembly import Assembler
from darcyfem.cli import main
from darcyfem.indicators import IndicatorContext
from darcyfem.mesh import generate_lshape, generate_structured, refine
from darcyfem.nonlinear_solver import SolverConfig, alpha_sweep, solve
from darcyfem.spaces import P0VectorField, P1ScalarField, p1_gradients

from conftest import (SHARED1_ALPHAS, SHARED2_ALPHAS, TABLE1_ALPHAS,
                      TABLE2_ALPHAS, corner_singularity, indicators_of,
                      random_affine_problem, refine_uniform, rng_loop,
                      solve_with_iterates, within_budget)
from oracles import dense_step_solve, element_l2_error, interior_edges


def _assert_u_shape(counts):
    """Strictly decreasing to the minimum, never decreasing after it."""
    k = int(np.argmin(counts))
    assert 0 < k < len(counts) - 1
    for i in range(k):
        assert counts[i] > counts[i + 1], (i, counts)
    for i in range(k, len(counts) - 1):
        assert counts[i + 1] >= counts[i], (i, counts)
    assert counts[-1] > counts[k]
    return k


def test_relaxation_sweep_beta1(table1_zero):
    rows, seconds = table1_zero
    assert all(r.converged for r in rows)
    counts = [r.iterations for r in rows]
    k = _assert_u_shape(counts)
    best = TABLE1_ALPHAS[k]
    assert 1.4 <= best <= 3.7
    assert abs(counts[k] - 14) <= 0.3 * 14
    assert rows[k].log10_err == pytest.approx(-0.939, abs=0.10)
    assert seconds < 300.0


def test_relaxation_sweep_beta10(table2_zero):
    rows, seconds = table2_zero
    assert all(r.converged for r in rows)
    counts = [r.iterations for r in rows]
    k = _assert_u_shape(counts)
    best = TABLE2_ALPHAS[k]
    assert 10 <= best <= 15
    assert abs(counts[k] - 30) <= 0.3 * 30
    assert rows[k].log10_err == pytest.approx(-0.475, abs=0.10)
    assert seconds < 300.0


def test_linear_solve_guess_is_never_worse(table1_zero, table1_darcy,
                                           table2_zero, table2_darcy):
    for (zero_rows, _), (darcy_rows, _), shared in (
            (table1_zero, table1_darcy, SHARED1_ALPHAS),
            (table2_zero, table2_darcy, SHARED2_ALPHAS)):
        zero = {r.alpha: r.iterations for r in zero_rows}
        for row in darcy_rows:
            assert row.converged
            assert row.alpha in zero
            assert row.iterations <= zero[row.alpha] + 2, row.alpha
        assert len(darcy_rows) == len(shared)


def test_uniform_refinement_is_first_order():
    prob = problems.gaussian_vortex(beta=1.0)
    states = uniform_study(prob, [10, 20, 40, 80],
                           SolverConfig(alpha=2.3, initial_guess="darcy"))
    hs = np.log([s.record.h_max for s in states])
    for attr in ("err_u_l2", "err_grad_p_l32"):
        errs = np.log([getattr(s.record, attr) for s in states])
        slope = np.polyfit(hs, errs, 1)[0]
        assert slope >= 0.9, (attr, slope)


def test_effectivity_index_range_and_trend(adaptive_seven):
    assert len(adaptive_seven) == 7
    ei = [s.record.ei for s in adaptive_seven]
    for value in ei:
        assert 10.0 <= value <= 60.0, ei
    assert ei[-1] < ei[0]
    # coarsest level in the ballpark of the reference value
    assert 38.51 / 2 <= ei[0] <= 38.51 * 2


def _at_budgets(adaptive, uniform, budgets):
    """The last adaptive and uniform records within each vertex budget."""
    pairs = [(within_budget([s.record for s in adaptive], b),
              within_budget([s.record for s in uniform], b)) for b in budgets]
    assert all(a is not None and u is not None for a, u in pairs)
    return pairs


def test_adaptive_beats_uniform_on_smooth_case(vortex_budget_runs):
    adaptive, uniform = vortex_budget_runs
    budgets = [s.record.vertices for s in uniform if s.record.vertices >= 1000]
    assert len(budgets) == 2
    for a, u in _at_budgets(adaptive, uniform, budgets):
        assert math.isfinite(a.err)
        assert a.err < u.err, (a.vertices, a.err, u.err)


def test_adaptive_beats_uniform_on_corner_case(corner_budget_runs):
    adaptive, uniform = corner_budget_runs
    budgets = [s.record.vertices for s in uniform if s.record.vertices >= 1000]
    assert budgets
    for a, u in _at_budgets(adaptive, uniform, budgets):
        # no closed-form reference here, so the relative indicator decides
        assert math.isnan(a.err) and math.isnan(u.err)
        assert a.e_tot < u.e_tot, (a.vertices, a.e_tot, u.e_tot)


def test_adaptive_beats_uniform_by_true_error_on_corner_singularity():
    """On the L-shape's manufactured corner singularity the loop is judged
    by the true relative error, not by the eta_D that drives its marking.
    At the vertex budgets of uniform N = 16 and 32 it reads 0.0507 and
    0.0266, against uniform's 0.165 and 0.121; over its levels past 1 000
    triangles its error falls like triangles^(-0.5), uniform's like
    triangles^(-0.22)."""
    prob = corner_singularity(beta=10.0)
    adaptive = adaptive_loop(
        prob, problems.initial_mesh(prob, 4), levels=30,
        solver=SolverConfig(alpha=10.0, stopping="indicator_balance",
                            initial_guess="darcy"))
    uniform = uniform_study(prob, [16, 32],
                            SolverConfig(alpha=10.0, initial_guess="darcy"))
    assert all(s.record.converged for s in adaptive + uniform)
    for a, u in _at_budgets(adaptive, uniform,
                            [s.record.vertices for s in uniform]):
        assert math.isfinite(a.err)
        assert a.err < u.err, (a.vertices, a.err, u.err)
    fine = [s.record for s in adaptive if s.record.triangles >= 1000]
    assert fine[-1].triangles > uniform[-1].record.triangles
    rate = np.polyfit(np.log([r.triangles for r in fine]),
                      np.log([r.err for r in fine]), 1)[0]
    assert rate <= -0.45, rate


def test_best_relaxation_weight_grows_with_refinement():
    prob = problems.gaussian_vortex(beta=100.0)
    grid = [40, 50, 60, 70, 80, 90, 100, 110, 120]
    best = []
    for n in (10, 20, 40):
        rows = alpha_sweep(problems.initial_mesh(prob, n), prob, grid,
                           SolverConfig(initial_guess="zero"))
        counts = [r.iterations if r.converged else 10 ** 9 for r in rows]
        k = int(np.argmin(counts))
        assert rows[k].converged
        best.append(grid[k])
    assert all(a <= b for a, b in zip(best, best[1:])), best


def test_matches_dense_saddle_point_oracle():
    small = [
        generate_structured(1),
        generate_structured(2),
        refine(generate_structured(2), [0, 3]),
        generate_structured(4),
    ]
    assert all(m.n_triangles <= 32 for m in small)
    for i, rng in enumerate(rng_loop(929, 10)):
        mesh = small[i % len(small)]
        prob = random_affine_problem(rng)
        u_prev = rng.standard_normal((mesh.n_triangles, 2))
        alpha = float(rng.uniform(0.0, 3.0))
        asm = Assembler(mesh, prob)
        system = asm.step(u_prev, alpha)
        p, _ = asm.solve_pressure(system)
        u = asm.recover_velocity(system, p1_gradients(p))
        u_ref, p_ref = dense_step_solve(mesh.xy, mesh.tris, prob,
                                        u_prev, alpha)
        scale_u = max(1.0, np.abs(u_ref).max())
        scale_p = max(1.0, np.abs(p_ref).max())
        assert np.abs(u.values - u_ref).max() / scale_u < 1e-10
        assert np.abs(p.values - p_ref).max() / scale_p < 1e-10


def test_drag_pairing_nonnegative_thousand_pairs():
    rng = np.random.default_rng(1234)
    scale = 10.0 ** rng.uniform(-3, 3, size=(1000, 1))
    v = rng.standard_normal((1000, 2)) * scale
    w = rng.standard_normal((1000, 2)) * scale
    nv = np.linalg.norm(v, axis=1, keepdims=True)
    nw = np.linalg.norm(w, axis=1, keepdims=True)
    pair = np.sum((nv * v - nw * w) * (v - w), axis=1)
    cube = np.linalg.norm(v - w, axis=1) ** 3
    assert (pair >= 0.0).all()
    assert (pair >= 0.25 * cube * (1 - 1e-12)).all()


def test_linearization_indicator_lower_bound():
    """eta_L,k <= ||u - u_prev||_L2(k) + ||u - u_new||_L2(k) on every
    element, up to a relative and absolute rounding slack of 1e-10.  A
    triangle inequality, so it holds for any pair of iterates; it guards
    the indicator's scaling."""
    prob = problems.gaussian_vortex(beta=1.0)
    mesh = problems.initial_mesh(prob, 3)
    ctx = IndicatorContext(mesh, prob)
    p = P1ScalarField(mesh, np.zeros(mesh.n_vertices))
    for rng in rng_loop(77, 8):
        scale = 10.0 ** rng.uniform(-2, 2)
        u_new, u_prev = (P0VectorField(mesh, rng.standard_normal(
            (mesh.n_triangles, 2)) * scale) for _ in range(2))
        eta_l = indicators_of(ctx, u_new, u_prev, p, 0.0).eta_l
        bound = element_l2_error(mesh, prob, u_prev.values) \
            + element_l2_error(mesh, prob, u_new.values)
        assert (eta_l <= bound * (1.0 + 1e-10) + 1e-10).all()


def test_indicator_totals_aggregate_in_rss():
    prob = problems.gaussian_vortex(beta=1.0)
    mesh = problems.initial_mesh(prob, 4)
    res = solve(mesh, prob, SolverConfig(alpha=2.3))
    ind = res.indicators
    assert ind.eta_l_total == pytest.approx(
        math.sqrt(float((ind.eta_l ** 2).sum())), rel=1e-12)
    assert ind.eta_d_total == pytest.approx(
        math.sqrt(float((ind.eta_d ** 2).sum())), rel=1e-12)
    assert ind.osc_total == pytest.approx(
        math.sqrt(float((ind.osc_f ** 2 + ind.osc_b ** 2
                         + ind.osc_g ** 2).sum())), rel=1e-12)


def test_edge_census_and_refinement_invariants():
    meshes = [generate_structured(3), generate_lshape(2),
              refine_uniform(generate_lshape(1)),
              refine(generate_structured(2), [0, 1, 5])]
    rng = np.random.default_rng(3)
    child = generate_structured(2)
    for _ in range(3):
        marked = rng.choice(child.n_triangles,
                            size=max(1, child.n_triangles // 4),
                            replace=False)
        parent_area = child.areas.sum()
        child = refine(child, marked)
        assert child.areas.sum() == pytest.approx(parent_area, rel=1e-12)
        meshes.append(child)
    for mesh in meshes:
        interior = int(interior_edges(mesh).shape[0])
        boundary = int(mesh.boundary_edges.shape[0])
        assert 3 * mesh.n_triangles == 2 * interior + boundary
        assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1


def test_divergence_coupling_duality():
    prob = problems.trivial_zero()
    for mesh in (generate_structured(3), generate_lshape(2)):
        asm = Assembler(mesh, prob)
        for rng in rng_loop(11, 5):
            q = P1ScalarField(mesh, rng.standard_normal(mesh.n_vertices))
            v = rng.standard_normal((mesh.n_triangles, 2))
            lhs = float(np.sum(mesh.areas[:, None]
                               * p1_gradients(q) * v))
            rhs = float(np.einsum("mja,ma,mj->", asm.b, v,
                                  q.values[mesh.tris]))
            assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-13)


def test_single_threaded_rerun_is_byte_identical(tmp_path):
    argv = ["solve", "--N", "5", "--alpha", "2.3"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(argv + ["--out", str(out)]) == 0
        outs.append(out)
    for name in ("trace.csv", "indicators.csv", "velocity.p0field",
                 "pressure.p1field"):
        assert (outs[0] / name).read_bytes() == \
            (outs[1] / name).read_bytes(), name
    docs = [json.loads((o / "manifest.json").read_text()) for o in outs]
    for doc in docs:
        doc["config"].pop("out")
    assert docs[0]["config"] == docs[1]["config"]


def test_iterate_distance_to_limit_never_grows():
    prob = problems.gaussian_vortex(beta=1.0)
    mesh = problems.initial_mesh(prob, 20)
    for alpha in (2.3, 3.0, 5.0):
        res, iterates = solve_with_iterates(mesh, prob,
                                            SolverConfig(alpha=alpha))
        assert res.converged
        last = iterates[-1]
        dist = [math.sqrt(float(np.sum(mesh.areas[:, None]
                                       * (it - last) ** 2)))
                for it in iterates[:-1]]
        for a, b in zip(dist, dist[1:]):
            assert b <= a * (1 + 1e-12), (alpha, dist)
