import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from darcyfem import adaptivity, assembly, problems
from darcyfem.adaptivity import (AdaptConfig, LevelRecord, adaptive_loop,
                                 mark, transfer, uniform_study)
from darcyfem.assembly import Assembler, CompatibilityError
from darcyfem.indicators import IndicatorContext
from darcyfem.mesh import generate_lshape, generate_structured, refine
from darcyfem.nonlinear_solver import SolverConfig
from darcyfem.spaces import (SAMPLE_BLOCK, ElementCarry, physical_points,
                             triangle_rule)

from conftest import (k_is_constant, record_made, rng_loop, traced_peak,
                      within_budget)
from oracles import doerfler_prefix_bruteforce


def test_adapt_config_validation():
    with pytest.raises(ValueError):
        AdaptConfig(theta=0.0)
    with pytest.raises(ValueError):
        AdaptConfig(theta=1.5)
    with pytest.raises(ValueError):
        AdaptConfig(marker="metric")
    assert AdaptConfig(theta=1.0).theta == 1.0


def test_adaptive_loop_rejects_no_levels():
    with pytest.raises(ValueError, match="levels"):
        adaptive_loop(problems.gaussian_vortex(), generate_structured(2),
                      levels=0)


@pytest.mark.parametrize("levels", [2.5, True])
def test_adaptive_loop_refuses_levels_that_are_not_integers(levels):
    """2.5 would fail in range() after the first set-up, and True would
    run one level."""
    with pytest.raises(ValueError, match="^levels must be an integer"):
        adaptive_loop(problems.gaussian_vortex(), generate_structured(2),
                      levels=levels)


def test_mark_theta_one_marks_all_positive():
    marked = mark(np.array([1.0, 0.0, 2.0, 3.0]), theta=1.0)
    assert marked.tolist() == [0, 2, 3]


def test_mark_single_dominant_element():
    marked = mark(np.array([0.0, 5.0, 0.0]), theta=0.5)
    assert marked.tolist() == [1]


def test_mark_three_two_one():
    """eta = {3,2,1}, theta=0.8: 9 >= 0.64*14, so the largest alone is marked."""
    marked = mark(np.array([3.0, 2.0, 1.0]), theta=0.8)
    assert marked.tolist() == [0]


def test_mark_zero_indicators_mark_nothing():
    assert mark(np.zeros(7), theta=0.5).size == 0


def test_mark_matches_bruteforce_prefix():
    for rng in rng_loop(404, 30):
        eta = rng.uniform(0.1, 2.0, size=int(rng.integers(3, 20)))
        theta = float(rng.uniform(0.2, 0.95))
        got = mark(eta, theta).tolist()
        assert got == doerfler_prefix_bruteforce(eta.tolist(), theta)


def test_mark_minimality():
    """Removing the weakest marked element must break the bulk criterion."""
    for rng in rng_loop(808, 30):
        eta = rng.uniform(0.05, 3.0, size=15)
        theta = float(rng.uniform(0.3, 0.9))
        marked = mark(eta, theta)
        sq = eta ** 2
        target = theta ** 2 * sq.sum()
        assert sq[marked].sum() >= target * (1 - 1e-12)
        assert sq[marked].sum() - sq[marked].min() < target


def test_mark_max_strategy():
    eta = np.array([5.0, 2.5, 2.4, 0.0])
    assert mark(eta, theta=0.5, marker="max").tolist() == [0, 1]
    assert mark(eta, theta=1.0, marker="max").tolist() == [0]


@pytest.mark.parametrize("args, match", [
    ((0.5, "Max"), "unknown marker"), ((-1.0,), "theta"), ((0.0,), "theta"),
    ((1.5, "max"), "theta"),
])
def test_mark_refuses_what_adapt_config_refuses(args, match):
    """The marker "Max" would run Doerfler, and theta = -1 would mark
    every element."""
    with pytest.raises(ValueError, match=match):
        mark(np.array([1.0, 2.0, 3.0, 4.0]), *args)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("marker", ["doerfler", "max"])
def test_mark_refuses_non_finite_indicators(bad, marker):
    with pytest.raises(ValueError, match="finite"):
        mark(np.array([1.0, bad, 2.0]), 0.5, marker)


def test_mark_tie_break_is_low_id():
    marked = mark(np.array([2.0, 2.0, 2.0, 2.0]), theta=0.5)
    assert marked.tolist() == [0]


def test_adaptive_loop_zero_data_stops_at_level_zero():
    prob = problems.trivial_zero()
    states = adaptive_loop(prob, problems.initial_mesh(prob, 4), levels=5)
    assert len(states) == 1
    rec = states[0].record
    assert rec.eta_d == 0.0 and rec.eta_l == 0.0
    assert rec.e_tot == 0.0 and rec.err == 0.0 and rec.ei == 0.0
    assert rec.marked == 0


def test_adaptive_loop_structure_and_determinism():
    prob = problems.gaussian_vortex(beta=1.0)
    cfg = SolverConfig(alpha=2.3, stopping="indicator_balance",
                       initial_guess="darcy")
    states = adaptive_loop(prob, problems.initial_mesh(prob, 5),
                           levels=4, solver=cfg)
    assert len(states) == 4
    verts = [s.mesh.n_vertices for s in states]
    assert verts == sorted(verts) and len(set(verts)) == len(verts)
    for i, s in enumerate(states):
        rec = s.record
        assert rec.level == i
        assert rec.vertices == s.mesh.n_vertices
        assert rec.triangles == s.mesh.n_triangles
        assert rec.converged
        assert rec.eta_d > 0 and math.isfinite(rec.err)
        assert rec.marked > 0 if i < 3 else rec.marked == 0
    again = adaptive_loop(prob, problems.initial_mesh(prob, 5),
                          levels=4, solver=cfg)
    assert [s.record for s in again] == [s.record for s in states]


def _random_refinement(rng, rounds=3):
    coarse = generate_lshape(3)
    for _ in range(rounds):
        marked = rng.choice(coarse.n_triangles, replace=False,
                            size=int(rng.integers(1, coarse.n_triangles // 4)))
        fine = refine(coarse, marked)
        yield coarse, fine
        coarse = fine


def test_transfer_is_exact_for_linear_pressure():
    for rng in rng_loop(515, 4):
        c0, cx, cy = rng.normal(size=3)
        for coarse, fine in _random_refinement(rng):
            u = rng.normal(size=(coarse.n_triangles, 2))
            p = c0 + cx * coarse.xy[:, 0] + cy * coarse.xy[:, 1]
            _, p_fine = transfer(fine, u, p)
            exact = c0 + cx * fine.xy[:, 0] + cy * fine.xy[:, 1]
            assert p_fine.shape == (fine.n_vertices,)
            assert (p_fine[:coarse.n_vertices] == p).all()
            assert np.allclose(p_fine, exact, rtol=0.0, atol=1e-14)


def test_transfer_injects_velocity_into_children():
    for rng in rng_loop(516, 4):
        for coarse, fine in _random_refinement(rng):
            u = rng.normal(size=(coarse.n_triangles, 2))
            u_fine, _ = transfer(fine, u, np.zeros(coarse.n_vertices))
            assert u_fine.shape == (fine.n_triangles, 2)
            for k in range(coarse.n_triangles):
                children = np.flatnonzero(fine.parent == k)
                assert children.size in (1, 2, 3, 4)
                assert (u_fine[children] == u[k]).all()
                assert fine.areas[children].sum() == pytest.approx(
                    coarse.areas[k], rel=1e-12)


def test_adaptive_loop_starts_later_levels_from_the_previous_one():
    prob = problems.reentrant_corner()
    cfg = SolverConfig(alpha=10.0, stopping="indicator_balance",
                       initial_guess="darcy")
    states = adaptive_loop(prob, problems.initial_mesh(prob, 4),
                           levels=5, solver=cfg)
    steps = [s.record.iterations for s in states]
    assert len(steps) == 5 and all(s.record.converged for s in states)
    assert max(steps[1:]) < steps[0]


def test_adaptive_loop_reruns_are_byte_identical():
    prob = problems.reentrant_corner()
    cfg = SolverConfig(alpha=10.0, stopping="indicator_balance",
                       initial_guess="darcy")
    runs = [adaptive_loop(prob, problems.initial_mesh(prob, 4),
                          levels=4, solver=cfg)
            for _ in range(2)]
    for a, b in zip(*runs):
        assert a.record == b.record
        for x, y in ((a.mesh.xy, b.mesh.xy), (a.mesh.tris, b.mesh.tris),
                     (a.result.u.values, b.result.u.values),
                     (a.result.p.values, b.result.p.values)):
            assert x.tobytes() == y.tobytes()
        assert [(r.err_l, r.eta_l, r.eta_d, r.cg_iters)
                for r in a.result.trace] == \
            [(r.err_l, r.eta_l, r.eta_d, r.cg_iters) for r in b.result.trace]


def test_adaptive_loop_stops_at_a_level_that_did_not_converge():
    # beta = 1000 with alpha = 0.1 settles into a period-2 cycle.
    prob = problems.gaussian_vortex(beta=1000.0)
    cfg = SolverConfig(alpha=0.1, max_iter=40, stopping="indicator_balance",
                       initial_guess="darcy")
    states = adaptive_loop(prob, problems.initial_mesh(prob, 6),
                           levels=3, solver=cfg)
    assert len(states) == 1
    rec = states[0].record
    assert not rec.converged and rec.iterations == 40
    assert rec.marked == 0


def test_adaptive_loop_refines_the_vortex_ring():
    """New vertices concentrate in the annulus where the velocity varies."""
    prob = problems.gaussian_vortex(beta=1.0)
    cfg = SolverConfig(alpha=2.3, stopping="indicator_balance",
                       initial_guess="darcy")
    states = adaptive_loop(prob, problems.initial_mesh(prob, 5),
                           levels=5, solver=cfg)
    n0 = states[0].mesh.n_vertices
    new = states[-1].mesh.xy[n0:]
    assert len(new) >= 10
    r = np.hypot(new[:, 0] - 0.5, new[:, 1] - 0.5)
    inside = (r >= 0.1) & (r <= 0.45)
    assert inside.mean() >= 0.6


def test_adaptive_loop_eta_d_decreases():
    prob = problems.gaussian_vortex(beta=1.0)
    cfg = SolverConfig(alpha=2.3, stopping="indicator_balance",
                       initial_guess="darcy")
    states = adaptive_loop(prob, problems.initial_mesh(prob, 5),
                           levels=5, solver=cfg)
    eta = [s.record.eta_d for s in states]
    for a, b in zip(eta, eta[1:]):
        assert b <= 1.05 * a
    assert eta[-1] < eta[0]


# -- set-up carried across refinement ----------------------------------------

_CARRIED = {
    Assembler: ("_k_rows", "f_int", "_b_phi", "_b_abs", "h", "b"),
    IndicatorContext: ("f_means", "osc_f", "b_means", "osc_b", "k_samples",
                       "g_h", "osc_g", "_b_l3"),
}


def _assert_same_bytes(got, want):
    for name in _CARRIED[type(want)]:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def _rough(b):
    """Data that vary within each element, so the degree-10 samples go
    through BLAS matrix-vector products (constant data are broadcast)."""
    return problems.problem_from_config({
        "domain": "l-shape", "beta": 10.0, "b": b,
        "f": ["exp(x)*sin(5*y)", "x*x*y"],
        "k_inverse": [["1 + x*x", "0.1*y"], ["0.1*y", "2 + sin(3*x)"]]})


@pytest.mark.parametrize("data", ["corner", "rough", "rough_b"])
def test_carried_setup_has_the_bytes_of_a_fresh_build(corner_budget_runs,
                                                      data):
    """Along a reentrant-corner loop, each level's Assembler and
    IndicatorContext carried from the previous level's equal fresh builds
    bit for bit, S0 included, also on levels with more than SAMPLE_BLOCK
    new children.  A non-zero b fails the compatibility check, so with it
    only the contexts are built."""
    states = corner_budget_runs[0][:21]
    prob = {"corner": problems.reentrant_corner,
            "rough": lambda: _rough("0"),
            "rough_b": lambda: _rough("sin(7*x*y) + x")}[data]()
    assert not k_is_constant(prob)
    asm_rows = ctx_rows = None
    new_children = []
    for state in states:
        mesh = state.mesh
        ctx = IndicatorContext(mesh, prob, parent=ctx_rows)
        _assert_same_bytes(ctx, IndicatorContext(mesh, prob))
        ctx_rows = ctx.carried()
        if data != "rough_b":
            asm = Assembler(mesh, prob, parent=asm_rows)
            fresh = Assembler(mesh, prob)
            _assert_same_bytes(asm, fresh)
            assert asm._reference_schur().data.tobytes() \
                == fresh._reference_schur().data.tobytes()
            asm_rows = asm.carried()
        if mesh.parent is not None:
            new_children.append(
                int((np.bincount(mesh.parent)[mesh.parent] > 1).sum()))
    assert len(new_children) == 20
    assert max(new_children) > SAMPLE_BLOCK


def test_carry_samples_only_the_new_children():
    coarse = generate_lshape(6)
    fine = refine(coarse, [0, 40, 41, 200])
    carry = ElementCarry(fine, coarse)
    split = np.bincount(fine.parent)[fine.parent] > 1
    # the split children are sampled, exactly once and in order, and every
    # other element is carried from its parent
    assert np.array_equal(carry.sampled, np.flatnonzero(split))
    assert np.array_equal(carry.kept, np.flatnonzero(~split))
    assert np.array_equal(carry.src, fine.parent[carry.kept])
    assert np.array_equal(fine.tris[carry.kept], coarse.tris[carry.src])
    assert np.array_equal(np.concatenate(carry.blocks()), carry.sampled)
    # Refining nothing keeps every row and samples none.
    coarse = generate_lshape(4)
    same = refine(coarse, [])
    carry = ElementCarry(same, coarse)
    assert carry.kept.size == same.n_triangles == 96
    assert carry.sampled.size == 0 and carry.blocks() == []
    for prob in (problems.reentrant_corner(), _rough("0")):
        _assert_same_bytes(
            Assembler(same, prob, parent=Assembler(coarse, prob).carried()),
            Assembler(same, prob))
        parent = IndicatorContext(coarse, prob).carried()
        _assert_same_bytes(IndicatorContext(same, prob, parent=parent),
                           IndicatorContext(same, prob))


def test_carry_rejects_a_mesh_not_refined_from_the_parent():
    prob = problems.reentrant_corner()
    coarse = generate_lshape(4)
    asm_rows = Assembler(coarse, prob).carried()
    ctx_rows = IndicatorContext(coarse, prob).carried()
    other = refine(coarse, [3])
    moved = replace(coarse, xy=2.0 * coarse.xy)
    for mesh in (generate_lshape(5),        # no parent map
                 refine(other, [0, 7]),     # refined from a finer mesh
                 refine(moved, [3])):       # same triangles, other vertices
        with pytest.raises(ValueError, match="not refined from"):
            Assembler(mesh, prob, parent=asm_rows)
        with pytest.raises(ValueError, match="not refined from"):
            IndicatorContext(mesh, prob, parent=ctx_rows)
    with pytest.raises(ValueError, match="quadrature degree"):
        Assembler(other, prob, volume_degree=6, parent=asm_rows)
    with pytest.raises(ValueError, match="another problem"):
        Assembler(other, problems.reentrant_corner(), parent=asm_rows)
    with pytest.raises(ValueError, match="another problem"):
        IndicatorContext(other, problems.reentrant_corner(), parent=ctx_rows)


def test_compatibility_error_fires_on_a_carried_level():
    """A narrow source that no coarse quadrature point sees passes the
    check on the coarse mesh; once a new child's quadrature point sits on
    it, the carried build rejects the data like a fresh one."""
    base = problems.problem_from_config({"f": ["1", "0"]})
    coarse = generate_structured(4)
    fine = refine(coarse, [5])
    child = int(np.flatnonzero(fine.parent == 5)[0])
    rule = triangle_rule(4)
    x0, y0 = physical_points(fine, rule, [child])[0, 0]
    coarse_pts = physical_points(coarse, rule).reshape(-1, 2)
    assert np.hypot(*(coarse_pts - (x0, y0)).T).min() > 0.02
    prob = replace(base, b=lambda x, y: np.exp(
        -((x - x0) ** 2 + (y - y0) ** 2) / 1e-6))
    parent = Assembler(coarse, prob).carried()
    with pytest.raises(CompatibilityError, match="incompatible"):
        Assembler(fine, prob, parent=parent)
    with pytest.raises(CompatibilityError, match="incompatible"):
        Assembler(fine, prob)


def test_a_levels_setup_is_gone_before_the_next_hierarchy(monkeypatch):
    """When the loop starts to build a level's multigrid hierarchy, every
    earlier level's Assembler, hierarchy and IndicatorContext is
    unreachable: only their carried rows outlive their solves."""
    made = record_made(monkeypatch, adaptivity, "Assembler",
                       "IndicatorContext")
    build, hierarchies, alive = assembly.SmoothedAggregation, [], []

    def checked_build(*args):
        gc.collect()
        earlier = made["Assembler"][:-1] + made["IndicatorContext"] \
            + hierarchies
        alive.append(sum(ref() is not None for ref in earlier))
        hierarchy = build(*args)
        hierarchies.append(weakref.ref(hierarchy))
        return hierarchy

    monkeypatch.setattr(assembly, "SmoothedAggregation", checked_build)
    prob = problems.reentrant_corner()
    states = adaptive_loop(prob, problems.initial_mesh(prob, 4), levels=4)
    assert len(states) == 4
    assert alive == [0, 0, 0, 0]


def test_adaptive_loop_peak_memory():
    """The traced peak of a 14-level reentrant-corner loop from N = 10
    (2 259 triangles at the end), above the built mesh, stays under
    9.0 MiB: 8.5 MiB when each level's set-up is dropped once its solve
    returns and only the rows the next level copies are carried; 9.7 MiB
    when the previous level's whole set-up was alive while the next one
    was built."""
    prob = problems.reentrant_corner()
    mesh = problems.initial_mesh(prob, 10)
    cfg = SolverConfig(alpha=10.0, stopping="indicator_balance",
                       initial_guess="darcy")
    states, peak = traced_peak(
        lambda: adaptive_loop(prob, mesh, levels=14, solver=cfg))
    assert states[-1].mesh.n_triangles == 2259
    assert peak <= 9.0 * 2 ** 20


def test_loop_records_setup_time_per_level():
    prob = problems.reentrant_corner()
    cfg = SolverConfig(alpha=10.0, stopping="indicator_balance",
                       initial_guess="darcy")
    states = adaptive_loop(prob, problems.initial_mesh(prob, 4),
                           levels=3, solver=cfg)
    assert all(s.setup_s > 0.0 for s in states)
    uniform = uniform_study(prob, [2, 3], SolverConfig(alpha=10.0))
    assert all(s.setup_s > 0.0 for s in uniform)


def observed_orders(errors, hs):
    """Convergence rates from successive (error, h) pairs."""
    rates = []
    for (e0, h0), (e1, h1) in zip(zip(errors, hs), zip(errors[1:], hs[1:])):
        rates.append(math.log(e0 / e1) / math.log(h0 / h1))
    return rates


def test_uniform_study_first_order_rates():
    prob = problems.gaussian_vortex(beta=1.0)
    states = uniform_study(prob, [10, 20, 40],
                           SolverConfig(alpha=2.3, initial_guess="darcy"))
    assert [s.record.vertices for s in states] == [121, 441, 1681]
    errs = [s.record.err_u_l2 for s in states]
    hs = [s.record.h_max for s in states]
    for rate in observed_orders(errs, hs):
        assert rate >= 0.9


def test_uniform_study_linear_case_same_rates():
    prob = problems.gaussian_vortex(beta=0.0)
    states = uniform_study(prob, [10, 20, 40],
                           SolverConfig(alpha=1.0, initial_guess="darcy"))
    errs = [s.record.err_u_l2 for s in states]
    hs = [s.record.h_max for s in states]
    for rate in observed_orders(errs, hs):
        assert rate >= 0.9


@pytest.mark.parametrize("n", [2.5, True])
def test_uniform_study_refuses_counts_that_are_not_integers(n, monkeypatch):
    """2.5 would run N = 2 and True N = 1; every count is checked before
    the first solve."""
    monkeypatch.setattr(adaptivity, "solve", None)
    with pytest.raises(ValueError,
                       match="^subdivision count must be an integer"):
        uniform_study(problems.gaussian_vortex(beta=1.0), [3, n])


def test_observed_orders_hand_values():
    rates = observed_orders([1.0, 0.5, 0.125], [1.0, 0.5, 0.25])
    assert rates[0] == pytest.approx(1.0)
    assert rates[1] == pytest.approx(2.0)


def _rec(vertices):
    return LevelRecord(level=0, vertices=vertices, triangles=2 * vertices,
                       h_max=0.1, iterations=1, converged=True,
                       eta_l=0.0, eta_d=0.0, e_tot=0.0)


def test_within_budget_takes_the_last_record_that_fits():
    records = [_rec(100), _rec(200), _rec(500)]
    assert within_budget(records, 250).vertices == 200
    assert within_budget(records, 100).vertices == 100
    assert within_budget(records, 50) is None


def test_projected_start_keeps_adaptive_levels_and_cuts_cg_work(monkeypatch):
    from darcyfem import nonlinear_solver
    prob = problems.reentrant_corner()
    cfg = SolverConfig(alpha=10.0, stopping="indicator_balance",
                       initial_guess="darcy")

    def run():
        states = adaptive_loop(prob, problems.initial_mesh(prob, 4),
                               levels=3, solver=cfg)
        return [(s.result.iterations, s.result.converged, s.result.status,
                 s.mesh.n_triangles) for s in states], \
            [s.result.cg_total for s in states]

    levels, cg = run()
    monkeypatch.setattr(nonlinear_solver, "PROJECTION_DEPTH", 0)
    plain_levels, plain_cg = run()
    assert levels == plain_levels
    assert all(converged for _, converged, _, _ in levels)
    assert sum(cg) < sum(plain_cg)
