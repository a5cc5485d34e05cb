import math

import numpy as np
import pytest

from darcyfem import problems
from darcyfem.assembly import Assembler
from darcyfem.mesh import generate_lshape, generate_structured
from darcyfem.nonlinear_solver import (AlphaDiagnostics, ErrorReport,
                                       SolverConfig, _positive_cubic_root,
                                       alpha_diagnostics, alpha_sweep,
                                       compute_lifting, solve, true_error)
from darcyfem.spaces import field_mean, lp_norm, p1_gradients

from conftest import rng_loop


def test_solver_config_rejects_unknown_modes():
    with pytest.raises(ValueError):
        SolverConfig(initial_guess="random")
    with pytest.raises(ValueError):
        SolverConfig(stopping="never")


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
    a0u = np.einsum("mab,mb->ma", asm.k_term, u)
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


def test_alpha_sweep_threads_match_serial():
    prob = problems.gaussian_vortex(beta=1.0)
    m = generate_structured(10)
    alphas = [1.0, 2.3, 10.0]
    assert alpha_sweep(m, prob, alphas) \
        == alpha_sweep(m, prob, alphas, threads=3)


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


def test_error_report_combined_and_relative():
    rep = ErrorReport(u_l2=0.1, u_l3=0.2, grad_p_l32=0.3,
                      exact_u_l3=2.0, exact_grad_p_l32=3.0)
    assert rep.combined == pytest.approx(0.5)
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
    d = diag.as_dict()
    assert set(d) == set(AlphaDiagnostics.__dataclass_fields__)


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


def test_compute_lifting_minimal_norm():
    """Any discretely divergence-free perturbation only adds energy."""
    from darcyfem.assembly import deflated_cg

    prob = problems.problem_from_config({"b": "1", "g": "0.25"})
    m = generate_structured(4)
    u_l = compute_lifting(m, prob)
    base = lp_norm(u_l, 2.0)
    assert base > 0
    asm = Assembler(m, prob)
    inv_area = 1.0 / m.areas
    local = np.einsum("mja,m,mka->mjk", asm.b, inv_area, asm.b)
    s0 = asm._s.copy()
    s0.data = np.bincount(asm._scatter, weights=local.ravel(),
                          minlength=s0.data.size)
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
