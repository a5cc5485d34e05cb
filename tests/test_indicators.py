import math
from dataclasses import replace

import numpy as np
import pytest

from darcyfem import problems, spaces
from darcyfem.assembly import Assembler
from darcyfem.indicators import (ElementIndicators, IndicatorContext,
                                 effectivity_index, total_relative_indicator)
from darcyfem.mesh import from_arrays, generate_structured, refine
from darcyfem.nonlinear_solver import SolverConfig, relative_increment, solve
from darcyfem.spaces import (P0VectorField, P1ScalarField, p1_gradients,
                             row_norms)

from conftest import indicators_of, k_is_constant, refine_uniform
from oracles import (edge_flux, einsum_gradients, einsum_recover,
                     interior_edges, step_error, step_indicators,
                     whole_data_means)


def _two_triangles_vertical_edge():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    tris = np.array([[0, 1, 2], [1, 3, 2]])
    return from_arrays(xy, tris)


def test_edge_flux_constant_field_vanishes():
    m = generate_structured(3)
    u = np.tile([0.7, -0.4], (m.n_triangles, 1))
    g_h = np.zeros(m.n_edges)
    for e in m.boundary_edges:
        g_h[e] = u[0] @ m.edge_normals[e]
    flux = edge_flux(m, u, g_h)
    assert np.abs(flux).max() < 1e-14


def test_edge_flux_half_jump_across_vertical_edge():
    m = _two_triangles_vertical_edge()
    interior = interior_edges(m)
    assert len(interior) == 1
    e = interior[0]
    assert abs(abs(m.edge_normals[e, 0]) - 1.0) < 1e-14   # vertical edge
    u = np.array([[1.0, 0.0], [0.0, 0.0]])
    flux = edge_flux(m, u, np.zeros(m.n_edges))
    assert abs(flux[e]) == pytest.approx(0.5, abs=1e-14)


def test_edge_flux_boundary_defect():
    m = _two_triangles_vertical_edge()
    u = np.array([[1.0, 0.0], [0.0, 0.0]])
    g_h = np.zeros(m.n_edges)
    flux = edge_flux(m, u, g_h)
    for e in m.boundary_edges:
        k = m.edge_tris[e, 0]
        expected = u[k] @ m.edge_normals[e]
        assert flux[e] == pytest.approx(expected, abs=1e-14)


def test_eta_l_is_exact_p0_distance():
    m = generate_structured(4)
    prob = problems.trivial_zero()
    rng = np.random.default_rng(3)
    un = rng.standard_normal((m.n_triangles, 2))
    up = rng.standard_normal((m.n_triangles, 2))
    p = P1ScalarField(m, np.zeros(m.n_vertices))
    ind = indicators_of(IndicatorContext(m, prob), P0VectorField(m, un),
                        P0VectorField(m, up), p, alpha=1.0)
    expected = np.sqrt(m.areas) * np.linalg.norm(un - up, axis=1)
    assert np.allclose(ind.eta_l, expected, rtol=0, atol=1e-14)


def test_converged_state_has_zero_eta_l():
    m = generate_structured(4)
    prob = problems.gaussian_vortex(beta=1.0)
    rng = np.random.default_rng(4)
    u = P0VectorField(m, rng.standard_normal((m.n_triangles, 2)))
    p = P1ScalarField(m, np.zeros(m.n_vertices))
    ind = indicators_of(IndicatorContext(m, prob), u, u, p, alpha=2.0)
    assert np.all(ind.eta_l == 0.0)


def test_momentum_residual_hand_example():
    """Reference triangle, u_new=(1,0), u_prev=0, grad p=(1,1), alpha=1,
    K=I, mu=rho=beta=1, f_h=0: residual (-3,-1), norm sqrt(10)*|k|^(1/2)."""
    m = from_arrays(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]))
    prob = problems.trivial_zero()
    assert prob.beta == 1.0 and prob.mu == 1.0 and prob.rho == 1.0
    u_new = P0VectorField(m, np.array([[1.0, 0.0]]))
    u_prev = P0VectorField(m, np.zeros((m.n_triangles, 2)))
    p = P1ScalarField(m, m.xy[:, 0] + m.xy[:, 1])      # grad p = (1, 1)
    ind = indicators_of(IndicatorContext(m, prob), u_new, u_prev, p,
                        alpha=1.0)
    expected = math.sqrt(10.0) * math.sqrt(0.5)
    assert ind.eta_d1[0] == pytest.approx(expected, rel=1e-12)


def test_momentum_residual_uses_previous_speed():
    """Same setup but u_prev=(0,2): the convective weight |u_prev| = 2
    multiplies u_new, and the alpha term tracks the difference."""
    m = from_arrays(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]))
    prob = problems.trivial_zero()
    u_new = P0VectorField(m, np.array([[1.0, 0.0]]))
    u_prev = P0VectorField(m, np.array([[0.0, 2.0]]))
    p = P1ScalarField(m, m.xy[:, 0] + m.xy[:, 1])
    ind = indicators_of(IndicatorContext(m, prob), u_new, u_prev, p,
                        alpha=1.0)
    # residual = -grad p - alpha (u_new - u_prev) - u_new - 2 u_new
    r = -np.array([1.0, 1.0]) - (np.array([1.0, 0.0]) - np.array([0.0, 2.0])) \
        - np.array([1.0, 0.0]) - 2.0 * np.array([1.0, 0.0])
    assert ind.eta_d1[0] == pytest.approx(
        np.linalg.norm(r) * math.sqrt(0.5), rel=1e-12)


def test_exact_data_case_all_zero_oscillation():
    prob = problems.problem_from_config({"f": ["2", "3"], "b": "0", "g": "0"})
    m = generate_structured(4)
    u = P0VectorField(m, np.zeros((m.n_triangles, 2)))
    p = P1ScalarField(m, np.zeros(m.n_vertices))
    ind = indicators_of(IndicatorContext(m, prob), u, u, p, alpha=1.0)
    assert np.abs(ind.osc_f).max() < 1e-12
    assert np.all(ind.osc_b == 0.0)
    assert np.all(ind.osc_g == 0.0)
    assert np.abs(ind.eta_d2).max() < 1e-14
    # f_h = (2,3) is the whole residual here
    assert np.allclose(ind.eta_d1,
                       math.sqrt(13.0) * np.sqrt(m.areas), rtol=1e-12)


def test_resolved_solution_zeroes_every_indicator():
    """u=0, p=x-1/2 solves f=(1,0) exactly in the discrete spaces, so the
    residual characterization forces eta_D1 = 0 (and everything else)."""
    prob = problems.problem_from_config({"f": ["1", "0"]})
    m = generate_structured(4)
    res = solve(m, prob, SolverConfig(initial_guess="darcy", max_iter=1))
    u, p = res.u, res.p
    ind = indicators_of(IndicatorContext(m, prob), u, u, p, alpha=0.5)
    assert np.abs(ind.eta_d1).max() < 1e-10
    assert np.abs(ind.eta_d2).max() < 1e-10
    assert np.all(ind.eta_l == 0.0)
    assert ind.eta_d_total < 1e-9


def test_aggregates_are_root_sum_squares():
    rng = np.random.default_rng(8)
    vals = {f: rng.uniform(0.0, 2.0, size=40)
            for f in ("eta_l", "eta_d1", "eta_d2", "osc_f", "osc_b", "osc_g")}
    ind = ElementIndicators(**vals)
    assert ind.eta_l_total == pytest.approx(
        math.sqrt(float((vals["eta_l"] ** 2).sum())), rel=1e-12)
    assert ind.eta_d_total == pytest.approx(
        math.sqrt(float((vals["eta_d1"] ** 2 + vals["eta_d2"] ** 2).sum())),
        rel=1e-12)
    assert ind.osc_total == pytest.approx(
        math.sqrt(float((vals["osc_f"] ** 2 + vals["osc_b"] ** 2
                         + vals["osc_g"] ** 2).sum())), rel=1e-12)
    assert np.allclose(ind.eta_d,
                       np.sqrt(vals["eta_d1"] ** 2 + vals["eta_d2"] ** 2),
                       rtol=1e-12)
    # each total is summed once and kept
    for name in ("eta_l_total", "eta_d_total", "osc_total"):
        assert getattr(ind, name) is getattr(ind, name)


def test_element_order_does_not_change_indicators():
    """The stored edge orientation flips with construction order; only
    magnitudes may enter the indicators."""
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    m1 = from_arrays(xy, np.array([[0, 1, 2], [1, 3, 2]]))
    m2 = from_arrays(xy, np.array([[1, 3, 2], [0, 1, 2]]))
    prob = problems.trivial_zero()
    vals = np.array([[1.0, -0.5], [0.25, 2.0]])
    p1 = P1ScalarField(m1, xy[:, 0] * xy[:, 1])
    p2 = P1ScalarField(m2, xy[:, 0] * xy[:, 1])
    zero = np.zeros_like(vals)
    i1 = indicators_of(IndicatorContext(m1, prob), P0VectorField(m1, vals),
                       P0VectorField(m1, zero), p1, alpha=1.0)
    i2 = indicators_of(IndicatorContext(m2, prob),
                       P0VectorField(m2, vals[::-1]), P0VectorField(m2, zero),
                       p2, alpha=1.0)
    assert np.allclose(np.sort(i1.eta_d2), np.sort(i2.eta_d2), rtol=1e-13)
    assert np.allclose(np.sort(i1.eta_d1), np.sort(i2.eta_d1), rtol=1e-13)


def _locate(parent, pts):
    """Brute-force point location: containing parent triangle per point."""
    coords = parent.xy[parent.tris]
    out = np.empty(len(pts), dtype=int)
    for i, p in enumerate(pts):
        for k in range(parent.n_triangles):
            a, b, c = coords[k]
            lam = np.linalg.solve(np.column_stack([b - a, c - a]), p - a)
            if lam.min() >= -1e-10 and lam.sum() <= 1.0 + 1e-10:
                out[i] = k
                break
        else:
            raise AssertionError(f"point {p} not located")
    return out


def test_eta_d2_stable_under_uniform_refinement_transfer():
    """Transfer a P0 field exactly to the bisected mesh: jumps survive on
    old edges, vanish on the new intra-parent edges, and the total stays
    within a factor two."""
    prob = problems.problem_from_config({"f": ["0", "0"], "b": "0", "g": "0"})
    parent = generate_structured(2)
    child = refine_uniform(parent)
    rng = np.random.default_rng(12)
    u_par = rng.standard_normal((parent.n_triangles, 2))
    owner = _locate(parent, child.xy[child.tris].mean(axis=1))
    u_chi = u_par[owner]

    p_par = P1ScalarField(parent, np.zeros(parent.n_vertices))
    p_chi = P1ScalarField(child, np.zeros(child.n_vertices))
    u_p = P0VectorField(parent, u_par)
    u_c = P0VectorField(child, u_chi)
    i_par = indicators_of(IndicatorContext(parent, prob), u_p, u_p, p_par,
                          alpha=0.0)
    i_chi = indicators_of(IndicatorContext(child, prob), u_c, u_c, p_chi,
                          alpha=0.0)

    # new interior edges (both sides in the same parent) carry no jump
    flux = edge_flux(child, u_chi, np.zeros(child.n_edges))
    for e in interior_edges(child):
        k1, k2 = child.edge_tris[e]
        if owner[k1] == owner[k2]:
            assert abs(flux[e]) < 1e-13

    total_par = math.sqrt(float((i_par.eta_d2 ** 2).sum()))
    total_chi = math.sqrt(float((i_chi.eta_d2 ** 2).sum()))
    assert 0.5 * total_par <= total_chi <= 2.0 * total_par


def test_effectivity_index_edge_cases():
    zeros = {f: np.zeros(5) for f in ("eta_l", "eta_d1", "eta_d2",
                                      "osc_f", "osc_b", "osc_g")}
    ind0 = ElementIndicators(**zeros)
    assert effectivity_index(ind0, 0.3, 0.2) == 0.0
    assert effectivity_index(ind0, 0.0, 0.0) == 0.0
    some = dict(zeros, eta_d1=np.ones(5))
    ind1 = ElementIndicators(**some)
    assert effectivity_index(ind1, 0.0, 0.0) == math.inf
    assert effectivity_index(ind1, 1.0, 1.0) == pytest.approx(
        math.sqrt(5.0) / 2.0)


def test_effectivity_index_includes_oscillation():
    fields = {f: np.zeros(2) for f in ("eta_l", "eta_d1", "eta_d2",
                                       "osc_f", "osc_b", "osc_g")}
    fields["eta_l"] = np.array([3.0, 4.0])        # total 5
    fields["eta_d2"] = np.array([0.0, 2.0])       # total 2
    fields["osc_f"] = np.array([6.0, 8.0])        # total 10
    ind = ElementIndicators(**fields)
    assert effectivity_index(ind, 1.0, 0.5) == pytest.approx((5 + 2 + 10) / 1.5)


def test_total_relative_indicator_scale_covariant_linear():
    base = {"beta": 0.0, "f": ["sin(3*x)", "cos(2*y)"]}
    scaled = {"beta": 0.0, "f": ["5*sin(3*x)", "5*cos(2*y)"]}
    m = generate_structured(6)
    cfg = SolverConfig(alpha=1.0, tol=1e-300, max_iter=4)
    r1 = solve(m, problems.problem_from_config(base), cfg)
    r2 = solve(m, problems.problem_from_config(scaled), cfg)
    e1 = total_relative_indicator(r1.indicators, r1.u, r1.p)
    e2 = total_relative_indicator(r2.indicators, r2.u, r2.p)
    assert e1 == pytest.approx(e2, rel=1e-9)


# -- the fused step path against the gathered forms it replaced -------------

def _step_cases():
    """Three meshes and problems: constant K, variable K on a graded mesh,
    and a non-zero boundary flux g = x - 1/2 (compatible with b = 0)."""
    vortex = problems.gaussian_vortex(beta=10.0)
    corner = problems.reentrant_corner(beta=10.0)
    flux = problems.problem_from_config(
        {"beta": 3.0, "f": ["sin(3*x)", "x*y"], "b": "0", "g": "x - 0.5"})
    graded = problems.initial_mesh(corner, 6)
    graded = refine(graded, np.arange(0, graded.n_triangles, 5))
    return {"vortex": (vortex, generate_structured(9)),
            "corner": (corner, graded),
            "boundary_flux": (flux, generate_structured(7))}


def _close(got, want, rel=1e-13):
    return np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("case", ["vortex", "corner", "boundary_flux"])
def test_step_quantities_match_gathered_oracles(case):
    """err_L, eta_L, eta_D1 and eta_D2 of real fixed-point steps agree with
    the forms built from gathered gradients and per-edge fluxes."""
    prob, m = _step_cases()[case]
    alpha = 4.0
    asm = Assembler(m, prob)
    ctx = IndicatorContext(m, prob)
    rng = np.random.default_rng(5)
    u_prev = P0VectorField(m, rng.standard_normal((m.n_triangles, 2)))
    p_prev = P1ScalarField(m, rng.standard_normal(m.n_vertices))
    g_prev = p1_gradients(p_prev)
    assert np.abs(ctx.g_h).max() > 0.0 or case == "corner"
    for _ in range(3):
        system = asm.step(u_prev.values, alpha)
        p_new, _ = asm.solve_pressure(system, x0=p_prev.values)
        g_new = p1_gradients(p_new)
        assert _close(g_new, einsum_gradients(m, p_new.values))
        u_new = asm.recover_velocity(system, g_new)
        ind = ctx.compute(u_new, u_prev, alpha, g_new,
                          asm.convection(row_norms(u_prev.values)))
        eta_l, eta_d1, eta_d2 = step_indicators(
            ctx, u_new.values, u_prev.values, p_new.values, alpha)
        assert _close(ind.eta_l, eta_l)
        assert _close(ind.eta_d1, eta_d1)
        assert _close(ind.eta_d2, eta_d2)
        err = relative_increment(m.areas, row_norms(u_new.values), g_new,
                                 g_prev, ind.du)
        want = step_error(m, u_new.values, u_prev.values, p_new.values,
                          p_prev.values)
        assert err == pytest.approx(want, rel=1e-13)
        u_prev, p_prev, g_prev = u_new, p_new, g_new


@pytest.mark.parametrize("case", ["vortex", "corner"])
def test_recover_velocity_matches_einsum_form(case):
    prob, m = _step_cases()[case]
    asm = Assembler(m, prob)
    rng = np.random.default_rng(6)
    system = asm.step(rng.standard_normal((m.n_triangles, 2)), 2.0)
    p = P1ScalarField(m, rng.standard_normal(m.n_vertices))
    u = asm.recover_velocity(system, p1_gradients(p))
    assert _close(u.values, einsum_recover(asm, system, p.values))
    # blocks without symmetry
    skew = replace(system, weights=rng.standard_normal((4, m.n_triangles)))
    assert _close(asm.recover_velocity(skew, p1_gradients(p)).values,
                  einsum_recover(asm, skew, p.values))


@pytest.mark.parametrize("case", ["vortex", "corner", "boundary_flux"])
def test_blocked_data_sampling_matches_whole_array(case, monkeypatch):
    """Sampling the degree-10 data over element blocks gives the same bytes
    as one sampling of all elements, whatever the block size: blocks of
    one element, of 64, and of m - 1, whose last block holds one element."""
    prob, m = _step_cases()[case]
    if case == "boundary_flux":
        prob = problems.problem_from_config(
            {"f": ["exp(x)*sin(5*y)", "x*x*y"], "b": "sin(7*x*y) + x"})
    want = whole_data_means(m, prob)
    for block in (1, 64, m.n_triangles - 1):
        monkeypatch.setattr(spaces, "SAMPLE_BLOCK", block)
        assert block < m.n_triangles
        ctx = IndicatorContext(m, prob)
        got = (ctx.f_means, ctx.osc_f, ctx.b_means, ctx.osc_b)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), block


@pytest.mark.parametrize("viscosity", [None, (0.37, 1.3)])
def test_variable_k_residual_has_the_bytes_of_the_einsum_form(viscosity):
    """eta_D1 with variable K, formed on (m, q) rows, equals the einsum form
    of the oracle bit for bit on real reentrant-corner steps, also with
    mu / rho != 1."""
    prob, m = _step_cases()["corner"]
    if viscosity is not None:
        prob = replace(prob, mu=viscosity[0], rho=viscosity[1])
    assert not k_is_constant(prob)
    alpha = 10.0
    asm = Assembler(m, prob)
    ctx = IndicatorContext(m, prob)
    u_prev = P0VectorField(m, np.zeros((m.n_triangles, 2)))
    p_prev = P1ScalarField(m, np.zeros(m.n_vertices))
    for _ in range(3):
        system = asm.step(u_prev.values, alpha)
        p_new, _ = asm.solve_pressure(system, x0=p_prev.values)
        u_new = asm.recover_velocity(system, p1_gradients(p_new))
        ind = indicators_of(ctx, u_new, u_prev, p_new, alpha)
        _, eta_d1, _ = step_indicators(ctx, u_new.values, u_prev.values,
                                       p_new.values, alpha)
        assert ind.eta_d1.tobytes() == eta_d1.tobytes()
        u_prev, p_prev = u_new, p_new
