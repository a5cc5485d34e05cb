import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as spm

import darcyfem
from darcyfem import assembly, multigrid, nonlinear_solver, problems
from darcyfem.assembly import (Assembler, CompatibilityError,
                               LinearSolverError, PressureSystem, deflated_cg)
from darcyfem.indicators import IndicatorContext
from darcyfem.mesh import generate_lshape, generate_structured, refine
from darcyfem.multigrid import (MAX_COARSE, Pattern, SmoothedAggregation,
                                VCycle, _aggregate)
from darcyfem.nonlinear_solver import SolverConfig, _within_drift, solve
from darcyfem.spaces import (P0VectorField, P1ScalarField, p1_gradients,
                              project_mean_zero, row_norms)

from conftest import random_affine_problem as _random_problem
from conftest import drag, rng_loop, traced_peak
from oracles import (DivergenceCoupling, argsort_product_map, as_blocks,
                     assemble_step, coo_flux, element_matrices,
                     dense_projected_start, dense_step_solve, einsum_schur,
                     loop_aggregate,
                     one_stage_galerkin_map, spgemm_hierarchy,
                     spgemm_prolongators, subtract_at_load, tol_only_cg)


def test_element_blocks_identity_case():
    prob = problems.trivial_zero()
    m = generate_structured(1)
    asm = Assembler(m, prob)
    d = drag(asm, np.zeros((m.n_triangles, 2)), 0.0)
    weights = asm.element_blocks(d)
    assert weights.shape == (4, m.n_triangles)
    blocks = element_matrices(asm, d)
    for k in range(m.n_triangles):
        assert np.allclose(blocks[k], m.areas[k] * np.eye(2), atol=1e-14)
        assert np.allclose(as_blocks(weights)[k], np.eye(2) / m.areas[k],
                           atol=1e-12)


def test_element_blocks_scalar_arithmetic():
    """alpha=1, beta=1, |u_prev|=2, K=I gives A = 4|k| I."""
    prob = problems.problem_from_config({"beta": 1.0})
    m = generate_structured(1)
    asm = Assembler(m, prob)
    u_prev = np.tile([2.0, 0.0], (m.n_triangles, 1))
    d = drag(asm, u_prev, 1.0)
    weights = as_blocks(asm.element_blocks(d))
    for k in range(m.n_triangles):
        assert np.allclose(element_matrices(asm, d)[k],
                           4.0 * m.areas[k] * np.eye(2), rtol=0, atol=1e-13)
        assert np.allclose(weights[k], np.eye(2) / (4.0 * m.areas[k]),
                           rtol=1e-14, atol=0)


def test_element_blocks_spd_random():
    m = generate_structured(2)
    for rng in rng_loop(101, 10):
        prob = _random_problem(rng, with_data=False)
        asm = Assembler(m, prob)
        u_prev = rng.standard_normal((m.n_triangles, 2))
        alpha = float(rng.uniform(0, 5))
        d = drag(asm, u_prev, alpha)
        blocks = element_matrices(asm, d)
        weights = as_blocks(asm.element_blocks(d))
        k_m = problems.validate(prob, m)["K_m"]
        for k in range(m.n_triangles):
            a = blocks[k]
            assert np.allclose(a, a.T, atol=1e-13)
            eigs = np.linalg.eigvalsh(a)
            assert eigs.min() > 0
            assert eigs.min() >= k_m * m.areas[k] * (1 - 1e-12)
            assert np.allclose(a @ weights[k], np.eye(2), atol=1e-12)


def test_divergence_coupling_rows_annihilate_constants():
    prob = problems.trivial_zero()
    m = generate_structured(3)
    asm = Assembler(m, prob)
    # the three local hats sum to one, so their gradients cancel per element
    assert np.abs(asm.b.sum(axis=1)).max() < 1e-13
    # and B is exactly |k| grad(phi)
    assert np.allclose(asm.b, m.grads * m.areas[:, None, None], atol=1e-15)
    weights, coupling, system = assemble_step(
        m, prob, P0VectorField.zero(m), alpha=0.0)
    assert weights.shape == (4, m.n_triangles)
    assert isinstance(coupling, DivergenceCoupling)
    assert isinstance(system, PressureSystem)
    assert coupling.b.shape == (m.n_triangles, 3, 2)


def test_schur_system_invariants():
    m = generate_structured(2)
    rng = np.random.default_rng(42)
    prob = _random_problem(rng)
    asm = Assembler(m, prob)
    system = asm.step(rng.standard_normal((m.n_triangles, 2)), 0.7)
    s = system.s.toarray()
    assert np.allclose(s, s.T, atol=1e-12)
    # constants span the kernel: S 1 = 0, and S is PSD on the rest
    assert np.abs(s @ np.ones(m.n_vertices)).max() < 1e-12
    eigs = np.linalg.eigvalsh(s)
    assert eigs[0] > -1e-12
    assert eigs[1] > 1e-10          # only one zero eigenvalue
    # right side is orthogonal to constants (compatible data)
    assert abs(system.g.sum()) < 1e-10


def test_schur_matches_dense_oracle_smallest_mesh():
    m = generate_structured(1)
    rng = np.random.default_rng(0)
    prob = _random_problem(rng)
    u_prev = rng.standard_normal((m.n_triangles, 2))
    alpha = 1.3
    asm = Assembler(m, prob)
    system = asm.step(u_prev, alpha)
    p, _ = asm.solve_pressure(system)
    u = asm.recover_velocity(system, p, p1_gradients(p))
    u_ref, p_ref = dense_step_solve(m.xy, m.tris, prob, u_prev, alpha)
    assert np.abs(u.values - u_ref).max() < 1e-10
    assert np.abs(p.values - p_ref).max() < 1e-10


def test_schur_matches_dense_oracle_ten_seeds():
    """Randomized equivalence on meshes with at most 32 triangles."""
    meshes = [generate_structured(n) for n in (1, 2, 4)]
    meshes.append(refine(generate_structured(2), [0, 3]))
    assert all(m.n_triangles <= 32 for m in meshes)
    for i, rng in enumerate(rng_loop(888, 10)):
        prob = _random_problem(rng)
        m = meshes[i % len(meshes)]
        u_prev = rng.standard_normal((m.n_triangles, 2))
        alpha = float(rng.uniform(0, 4))
        asm = Assembler(m, prob)
        system = asm.step(u_prev, alpha)
        p, _ = asm.solve_pressure(system)
        u = asm.recover_velocity(system, p, p1_gradients(p))
        u_ref, p_ref = dense_step_solve(m.xy, m.tris, prob, u_prev, alpha)
        scale_u = max(1.0, np.abs(u_ref).max())
        scale_p = max(1.0, np.abs(p_ref).max())
        assert np.abs(u.values - u_ref).max() / scale_u < 1e-10
        assert np.abs(p.values - p_ref).max() / scale_p < 1e-10


def test_step_solution_satisfies_both_equations():
    """The recovered pair solves the momentum rows exactly and the mass rows
    to the linear-solver tolerance."""
    m = generate_structured(2)
    rng = np.random.default_rng(77)
    prob = _random_problem(rng)
    u_prev = rng.standard_normal((m.n_triangles, 2))
    asm = Assembler(m, prob)
    system = asm.step(u_prev, 0.9)
    p, _ = asm.solve_pressure(system)
    gp = p1_gradients(p)
    u = asm.recover_velocity(system, p, gp)
    blocks = element_matrices(asm, system.drag)
    for k in range(m.n_triangles):
        r = blocks[k] @ u.values[k] \
            + m.areas[k] * gp[k] - system.f[k]
        assert np.abs(r).max() < 1e-10
    per_vertex = np.einsum("mja,ma->mj", asm.b, u.values)
    bu = np.zeros(m.n_vertices)
    np.add.at(bu, m.tris.ravel(), per_vertex.ravel())
    res = bu - asm.h
    res -= res.mean()
    assert np.linalg.norm(res) <= 1e-10 * max(1.0, np.linalg.norm(asm.h))


@pytest.mark.parametrize("case", ["random_w", "graded_lshape", "n112"])
def test_schur_is_byte_identical_to_einsum(case):
    """``_schur`` has the bytes, dtypes included, of the einsum local blocks
    added by the ``np.unique`` + ``bincount`` oracle scatter."""
    if case == "random_w":
        rng = np.random.default_rng(12)
        asm = Assembler(generate_structured(12), _random_problem(rng))
        weights = rng.standard_normal((4, asm.mesh.n_triangles))
    elif case == "n112":
        prob = problems.gaussian_vortex(beta=10.0)
        asm = Assembler(problems.initial_mesh(prob, 112), prob)
        rng = np.random.default_rng(14)
        weights = rng.standard_normal((4, asm.mesh.n_triangles))
    else:
        prob = problems.reentrant_corner(beta=10.0)
        assert not prob.k_constant
        asm = Assembler(_graded_lshape(), prob)
        rng = np.random.default_rng(13)
        weights = asm.element_blocks(drag(
            asm, rng.standard_normal((asm.mesh.n_triangles, 2)), 3.0))
        assert np.abs(weights[1]).min() > 0
    s = asm._schur(weights)
    ref = einsum_schur(asm, weights)
    assert s.shape == ref.shape
    for got, want in ((s.indptr, ref.indptr), (s.indices, ref.indices),
                      (s.data, ref.data)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_schur_peak_memory():
    """The traced peak of one ``_schur`` call at N = 112, above its entry,
    stays under 4.6 MiB; the transposed copy and ``bincount`` of the
    ``np.unique`` scatter took it to 5.2 MiB."""
    prob = problems.gaussian_vortex(beta=10.0)
    asm = Assembler(problems.initial_mesh(prob, 112), prob)
    weights = asm.element_blocks(drag(
        asm, np.zeros((asm.mesh.n_triangles, 2)), 10.0))
    asm._schur(weights)
    _, peak = traced_peak(lambda: asm._schur(weights))
    assert peak <= 4.6 * 2 ** 20


def test_setup_keeps_one_layout_of_the_coupling():
    """The Assembler keeps the coupling |k| grad phi_j once, as the rows
    ``_bt``; ``b`` forms the (m, 3, 2) layout from the mesh on each read,
    with the bytes of ``_bt``.  The traced peak of a solve that builds its
    set-up at N = 60 stays under 8.0 MiB: 7.5 MiB when no set-up array is
    alive beyond its use, 9.0 MiB when the hierarchy was built on top of
    the indicator set-up, 9.4 MiB when the Assembler also kept ``b``
    beside ``_bt``."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = problems.initial_mesh(prob, 60)
    asm = Assembler(m, prob)
    assert "b" not in vars(asm)
    assert asm.b.tobytes() == (m.grads * m.areas[:, None, None]).tobytes()
    assert asm.b.transpose(2, 1, 0).tobytes() == asm._bt.tobytes()
    res, peak = traced_peak(lambda: solve(m, prob, SolverConfig(alpha=10.0)))
    assert res.converged
    assert peak <= 8.0 * 2 ** 20


def test_assembler_setup_peak_memory():
    """The traced peak of ``Assembler(mesh, problem)`` at N = 112 stays under
    16 MiB: 14.5 MiB when the data samples are freed before the sort of
    the pattern of S, 20.2 MiB when they were alive through it."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = problems.initial_mesh(prob, 112)
    asm, peak = traced_peak(lambda: Assembler(m, prob))
    assert asm._hierarchy is None
    assert peak <= 16 * 2 ** 20


def _signed_zeros(rng, shape):
    """+0 and -0 at random, both present."""
    zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    return zeros


@pytest.mark.parametrize("case", ["vortex_n12", "vortex_n112", "w01_zero",
                                  "all_zero"])
def test_schur_skipping_zero_terms_keeps_the_einsum_bytes(case):
    """``_schur`` skips a term whose weights are +0 or -0 on every element,
    and S keeps the bytes of the einsum oracle, which adds all four terms.
    The cases: gaussian-vortex element blocks (diagonal K, so both
    off-diagonal weights are zero) at N = 12 and N = 112, with +0 and -0
    mixed; a random W with only W_01 zero; an all-zero W, whose S has +0
    data."""
    prob = problems.gaussian_vortex(beta=10.0)
    n = 112 if case == "vortex_n112" else 12
    asm = Assembler(problems.initial_mesh(prob, n), prob)
    m = asm.mesh.n_triangles
    rng = np.random.default_rng(17)
    if case.startswith("vortex"):
        weights = asm.element_blocks(drag(
            asm, rng.standard_normal((m, 2)), 10.0))
        assert not weights[1].any() and not weights[2].any()
        weights[1] = _signed_zeros(rng, m)
        weights[2] = _signed_zeros(rng, m)
    elif case == "w01_zero":
        weights = rng.standard_normal((4, m))
        weights[1] = _signed_zeros(rng, m)
    else:
        weights = _signed_zeros(rng, (4, m))
    s = asm._schur(weights)
    ref = einsum_schur(asm, weights)
    for got, want in ((s.indptr, ref.indptr), (s.indices, ref.indices),
                      (s.data, ref.data)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    if case == "all_zero":
        assert s.data.tobytes() == np.zeros(s.nnz).tobytes()


@pytest.mark.parametrize("case", ["vortex", "corner"])
def test_step_with_the_convective_weights_passed_in_keeps_the_bytes(case):
    """``Assembler.step(u, alpha)`` and the call given
    ``conv = convection(|u|)`` build the same system, byte for byte."""
    if case == "vortex":
        prob = problems.gaussian_vortex(beta=10.0)
        asm = Assembler(generate_structured(10), prob)
    else:
        asm = Assembler(_graded_lshape(), problems.reentrant_corner(beta=10.0))
    u = np.random.default_rng(19).standard_normal((asm.mesh.n_triangles, 2))
    alone = asm.step(u, 3.0)
    shared = asm.step(u, 3.0, asm.convection(row_norms(u)))
    for got, want in ((shared.s.data, alone.s.data), (shared.g, alone.g),
                      (shared.f, alone.f), (shared.weights, alone.weights),
                      (shared.drag, alone.drag)):
        assert got.tobytes() == want.tobytes()


def test_solve_pressure_zero_rhs():
    prob = problems.trivial_zero()
    m = generate_structured(2)
    asm = Assembler(m, prob)
    system = asm.step(np.zeros((m.n_triangles, 2)), 0.0)
    p, iters = asm.solve_pressure(system)
    assert iters == 0
    assert np.allclose(p.values, 0.0, atol=1e-14)


def _darcy_start(m, prob):
    """The Darcy start of the fixed-point solve, then one step from it."""
    res = solve(m, prob, SolverConfig(initial_guess="darcy", max_iter=1))
    return res.u, res.p


def test_darcy_solve_trivial():
    prob = problems.trivial_zero()
    m = generate_structured(2)
    u, p = _darcy_start(m, prob)
    assert np.allclose(u.values, 0.0, atol=1e-13)
    assert np.allclose(p.values, 0.0, atol=1e-13)


def test_darcy_conservative_forcing_gives_linear_pressure():
    """f = (1, 0) with zero flux data: u = 0 and p = x - 1/2."""
    prob = problems.problem_from_config({"f": ["1", "0"]})
    m = generate_structured(2)
    u, p = _darcy_start(m, prob)
    assert np.abs(u.values).max() < 1e-11
    assert np.allclose(p.values, m.xy[:, 0] - 0.5, atol=1e-11)


def test_compatibility_rejection():
    prob = problems.problem_from_config({"b": "1", "g": "0"})
    m = generate_structured(2)
    with pytest.raises(CompatibilityError):
        Assembler(m, prob)


@pytest.mark.parametrize("data", ["b", "g"])
def test_compatibility_rejects_non_finite_data(data):
    """NaN compares False, so a bare defect test would let NaN data pass."""
    prob = problems.problem_from_config({"b": "1", "g": "0.25"})
    Assembler(generate_structured(2), prob)             # compatible as given
    if data == "b":
        bad = replace(prob, b=lambda x, y: np.full(np.shape(x), np.nan))
    else:
        bad = replace(prob, g=lambda x, y, normal: np.full(np.shape(x), np.nan))
    with pytest.raises(CompatibilityError, match="non-finite"):
        Assembler(generate_structured(2), bad)


@pytest.mark.parametrize("k_constant", [False, True])
def test_assembler_rejects_a_non_finite_k_term(k_constant):
    """A K^-1 that is nan at a quadrature point (or, for a constant K^-1,
    at the origin) is a configuration error, raised before any solve."""
    prob = replace(problems.problem_from_config(
        {"k_inverse": [["sqrt(x - 0.5)", "0"], ["0", "1"]]}),
        k_constant=k_constant)
    with np.errstate(invalid="ignore"), \
            pytest.raises(problems.ProblemConfigError, match=r"K\^-1"):
        Assembler(generate_structured(4), prob)


def _graph_laplacian(rng, n):
    w = np.abs(rng.standard_normal((n, n)))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return spm.csr_matrix(np.diag(w.sum(axis=1)) - w)


def test_deflated_cg_solves_and_projects_constants():
    rng = np.random.default_rng(5)
    n = 30
    s = _graph_laplacian(rng, n)
    x_true = rng.standard_normal(n)
    x_true -= x_true.mean()
    rhs = s @ x_true
    x, iters = deflated_cg(s, rhs)
    assert iters >= 1
    assert np.abs(x - x_true).max() < 1e-8
    assert abs(x.mean()) < 1e-12
    # a constant shift of the right side lands in the kernel and is ignored
    x2, _ = deflated_cg(s, rhs + 3.0)
    assert np.abs(x2 - x_true).max() < 1e-8


def test_deflated_cg_warm_start_uses_fewer_iterations():
    rng = np.random.default_rng(9)
    n = 25
    s = _graph_laplacian(rng, n)
    x_true = rng.standard_normal(n)
    x_true -= x_true.mean()
    rhs = s @ x_true
    _, cold = deflated_cg(s, rhs)
    _, warm = deflated_cg(s, rhs,
                          x0=x_true + 1e-10 * rng.standard_normal(n))
    assert warm < cold


def test_deflated_cg_failure_carries_history():
    rng = np.random.default_rng(11)
    n = 20
    s = _graph_laplacian(rng, n)
    x_true = rng.standard_normal(n)
    x_true -= x_true.mean()
    rhs = s @ x_true
    with pytest.raises(LinearSolverError) as err:
        deflated_cg(-s, rhs)                 # negative curvature immediately
    assert len(err.value.residual_history) >= 1
    with pytest.raises(LinearSolverError) as err:
        deflated_cg(s, rhs, maxiter=1)       # too few iterations
    assert len(err.value.residual_history) == 2


def _deflated_residual(s, rhs, x):
    r = rhs - rhs.mean() - s @ (x - x.mean())
    return float(np.linalg.norm(r - r.mean()))


def test_deflated_cg_forcing_stops_at_a_fraction_of_the_initial_residual():
    rng = np.random.default_rng(13)
    n = 40
    s = _graph_laplacian(rng, n)
    rhs = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    r0 = _deflated_residual(s, rhs, x0)
    for forcing in (1e-1, 1e-3):
        x, iters = deflated_cg(s, rhs, x0=x0, forcing=forcing)
        assert iters >= 1
        assert _deflated_residual(s, rhs, x) <= 1.0001 * forcing * r0
        # one iteration fewer does not reach the forcing term
        with pytest.raises(LinearSolverError) as err:
            deflated_cg(s, rhs, x0=x0, forcing=forcing, maxiter=iters - 1)
        assert err.value.residual_history[0] == pytest.approx(r0, rel=1e-12)
        assert err.value.residual_history[-1] > forcing * r0
    _, exact = deflated_cg(s, rhs, x0=x0)
    _, loose = deflated_cg(s, rhs, x0=x0, forcing=1e-3)
    assert loose < exact
    # a forcing term below tol changes nothing
    x_tiny, n_tiny = deflated_cg(s, rhs, x0=x0, forcing=1e-30)
    x_zero, n_zero = deflated_cg(s, rhs, x0=x0)
    assert n_tiny == n_zero and x_tiny.tobytes() == x_zero.tobytes()


def _projection_case(seed, n=40):
    """A graph Laplacian, a right side, a start x0 and the exact correction
    x_true - x0 of that start."""
    rng = np.random.default_rng(seed)
    s = _graph_laplacian(rng, n)
    x_true = rng.standard_normal(n)
    rhs = s @ x_true
    x0 = x_true + rng.standard_normal(n)
    return rng, s, rhs, x0, x_true - x0


def test_projected_start_matches_the_dense_oracle():
    rng, s, rhs, x0, dx = _projection_case(29)
    x = x0 - x0.mean()
    r = rhs - rhs.mean() - s @ x
    r -= r.mean()
    for k in (1, 2, 3):
        basis = dx[:, None] + 0.3 * rng.standard_normal((dx.size, k))
        moved, r_new, rn = assembly._projected_start(
            s, basis, x, r, float(np.linalg.norm(r)))
        x_ref, r_ref = dense_projected_start(s, rhs, x0, basis)
        assert np.abs(moved - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
        assert np.abs(r_new - r_ref).max() \
            <= 1e-12 * np.linalg.norm(r) + 1e-12 * np.abs(r_ref).max()
        assert rn == float(np.linalg.norm(r_new)) < np.linalg.norm(r)


def test_no_basis_or_an_empty_one_keeps_the_bytes():
    _, s, rhs, x0, _ = _projection_case(31)
    for forcing in (0.0, 1e-3):
        x, iters = deflated_cg(s, rhs, x0=x0, forcing=forcing)
        for basis in (None, np.empty((rhs.size, 0))):
            xb, iters_b = deflated_cg(s, rhs, x0=x0, forcing=forcing,
                                      basis=basis)
            assert iters_b == iters and xb.tobytes() == x.tobytes()
    x_old, iters_old = tol_only_cg(s, rhs, x0=x0)
    x, iters = deflated_cg(s, rhs, x0=x0, basis=np.empty((rhs.size, 0)))
    assert iters == iters_old and x.tobytes() == x_old.tobytes()


def test_a_basis_holding_the_correction_needs_no_iteration():
    rng, s, rhs, x0, dx = _projection_case(37)
    basis = np.stack([rng.standard_normal(dx.size), dx,
                      rng.standard_normal(dx.size)], axis=1)
    x, iters = deflated_cg(s, rhs, x0=x0, forcing=1e-3, basis=basis)
    assert iters == 0
    assert _deflated_residual(s, rhs, x) <= 1e-12 * np.linalg.norm(rhs)


def test_projected_start_keeps_the_forcing_stop_of_x0():
    """The stop stays forcing * |r(x0)|, not a fraction of the projected
    start's residual."""
    rng, s, rhs, x0, dx = _projection_case(41)
    r0 = _deflated_residual(s, rhs, x0)
    basis = dx[:, None] + 0.5 * rng.standard_normal((dx.size, 2))
    for forcing in (1e-1, 1e-3):
        x, iters = deflated_cg(s, rhs, x0=x0, forcing=forcing, basis=basis)
        _, plain = deflated_cg(s, rhs, x0=x0, forcing=forcing)
        assert 1 <= iters <= plain
        assert _deflated_residual(s, rhs, x) <= 1.0001 * forcing * r0
        # one iteration fewer does not reach the forcing term
        with pytest.raises(LinearSolverError) as err:
            deflated_cg(s, rhs, x0=x0, forcing=forcing, basis=basis,
                        maxiter=iters - 1)
        history = err.value.residual_history
        assert history[0] == pytest.approx(r0, rel=1e-12)
        assert forcing * r0 < history[1] < r0       # the start moved
        assert history[-1] > forcing * r0


def test_projected_start_falls_back_to_x0():
    """A singular Gram matrix (a zero direction), a non-finite correction
    and a direction whose energy-minimal step raises the residual norm
    leave the start at x0: the same bytes and count as no basis."""
    rng, s, rhs, x0, dx = _projection_case(43)
    singular = np.stack([dx + rng.standard_normal(dx.size),
                         np.zeros(dx.size)], axis=1)
    huge = np.stack([dx, np.full(dx.size, 1e300)], axis=1)
    # On the Laplacian of a path, r0 = u + v/10 and the direction u + v,
    # with u and v the eigenvectors of the smallest non-zero and the
    # largest eigenvalue (about 0.006 and 4): the step takes out about v,
    # so the residual norm grows.
    n = dx.size
    path = spm.diags([-np.ones(n - 1), np.r_[1.0, 2.0 * np.ones(n - 2), 1.0],
                      -np.ones(n - 1)], [-1, 0, 1], format="csr")
    _, vec = np.linalg.eigh(path.toarray())
    u, v = vec[:, 1], vec[:, -1]
    raising = (u + v)[:, None]
    _, r_up = dense_projected_start(path, u + 0.1 * v, np.zeros(n), raising)
    assert np.linalg.norm(r_up) > 1.3 * np.linalg.norm(u + 0.1 * v)
    for mat, b, start, basis in ((s, rhs, x0, singular), (s, rhs, x0, huge),
                                 (path, u + 0.1 * v, np.zeros(n), raising)):
        for forcing in (0.0, 1e-2):
            x, iters = deflated_cg(mat, b, x0=start, forcing=forcing)
            with np.errstate(over="ignore", invalid="ignore"):
                xb, iters_b = deflated_cg(mat, b, x0=start, forcing=forcing,
                                          basis=basis)
            assert iters_b == iters and xb.tobytes() == x.tobytes()


def test_deflated_cg_without_forcing_matches_tol_only_loop():
    rng = np.random.default_rng(17)
    s = _graph_laplacian(rng, 30)
    rhs = rng.standard_normal(30)
    x0 = rng.standard_normal(30)
    for kw in ({}, {"x0": x0}):
        x, iters = deflated_cg(s, rhs, forcing=0.0, **kw)
        x_old, iters_old = tol_only_cg(s, rhs, **kw)
        assert iters == iters_old and x.tobytes() == x_old.tobytes()
    asm, system = _first_step(generate_structured(12),
                              problems.gaussian_vortex(beta=10.0))
    precond = VCycle(asm.hierarchy, system.s)
    x, iters = deflated_cg(system.s, system.g, precond=precond, forcing=0.0)
    x_old, iters_old = tol_only_cg(system.s, system.g, precond=precond)
    assert iters == iters_old and x.tobytes() == x_old.tobytes()


def test_deflated_cg_stops_at_once_on_non_finite_values():
    rng = np.random.default_rng(19)
    n = 20
    s = _graph_laplacian(rng, n)
    rhs = rng.standard_normal(n)
    bad_rhs = rhs.copy()
    bad_rhs[3] = np.nan
    bad_s = s.copy()
    bad_s.data[5] = np.nan
    cases = [
        (dict(s=s, rhs=bad_rhs), "right side"),
        (dict(s=s, rhs=np.full(n, np.inf)), "right side"),
        (dict(s=bad_s, rhs=rhs), "initial residual"),
        (dict(s=s, rhs=rhs, x0=np.full(n, np.inf)), "initial residual"),
        (dict(s=s, rhs=rhs, precond=lambda r: np.full(n, np.nan)),
         "curvature"),
        (dict(s=s, rhs=rhs, precond=lambda r: r * 1e300), "curvature"),
    ]
    for kw, what in cases:
        with pytest.raises(LinearSolverError, match="non-finite " + what) \
                as err, np.errstate(invalid="ignore", over="ignore"):
            deflated_cg(**kw)
        assert len(err.value.residual_history) <= 2


class _FirstProductOverflows:
    """Acts as S, except that the product with the first search direction
    gets a huge entry where that direction is exactly 0: the curvature stays
    finite and the residual update overflows."""

    def __init__(self, s):
        self.s, self.calls = s, 0

    def __matmul__(self, v):
        self.calls += 1
        out = self.s @ v
        if self.calls == 2:
            assert v[0] == 0.0
            out[0] = 1e308
        return out


def test_deflated_cg_non_finite_residual_stops_after_one_iteration():
    rng = np.random.default_rng(23)
    s = _graph_laplacian(rng, 5)
    rhs = np.array([0.0, 1.0, -1.0, 2.0, -2.0])      # mean 0, so r_0[0] = 0
    with pytest.raises(LinearSolverError,
                       match="non-finite residual at iteration 1") as err, \
            np.errstate(invalid="ignore", over="ignore"):
        deflated_cg(_FirstProductOverflows(s), rhs)
    assert len(err.value.residual_history) == 2
    assert not np.isfinite(err.value.residual_history[-1])


def test_multigrid_and_plain_cg_pressures_agree():
    m = generate_structured(12)
    rng = np.random.default_rng(21)
    prob = _random_problem(rng)
    asm = Assembler(m, prob)
    assert len(asm.hierarchy.sizes) > 1
    system = asm.step(rng.standard_normal((m.n_triangles, 2)), 1.0)
    p_amg, amg_iters = asm.solve_pressure(system)
    raw, plain_iters = deflated_cg(system.s, system.g)
    raw = project_mean_zero(P1ScalarField(m, raw)).values
    assert amg_iters < plain_iters
    assert np.abs(p_amg.values - raw).max() < 1e-9


def _first_step(mesh, problem, alpha=10.0):
    asm = Assembler(mesh, problem)
    return asm, asm.step(np.zeros((mesh.n_triangles, 2)), alpha)


def test_multigrid_cg_iterations_do_not_grow_with_refinement():
    prob = problems.gaussian_vortex(beta=10.0)
    for n in (8, 16, 32, 64):
        asm, system = _first_step(problems.initial_mesh(prob, n), prob)
        _, iters = asm.solve_pressure(system)
        assert len(asm.hierarchy.sizes) > 1
        assert 1 <= iters <= 40, (n, iters)


def test_small_meshes_use_one_level_and_solve():
    prob = problems.gaussian_vortex(beta=10.0)
    for n in (1, 2):
        mesh = problems.initial_mesh(prob, n)
        assert mesh.n_vertices <= MAX_COARSE
        asm, system = _first_step(mesh, prob)
        p, _ = asm.solve_pressure(system)
        assert asm.hierarchy.sizes == (mesh.n_vertices,)
        assert asm.hierarchy.prolongators == ()
        raw, _ = deflated_cg(system.s, system.g)
        raw = project_mean_zero(P1ScalarField(mesh, raw)).values
        assert np.abs(p.values).max() > 0
        assert np.abs(p.values - raw).max() < 1e-10


def _graded_lshape():
    mesh = generate_lshape(8)
    for _ in range(5):
        # refine towards the reentrant corner at the origin
        centroids = mesh.xy[mesh.tris].mean(axis=1)
        near = np.argsort(np.hypot(*centroids.T), kind="stable")
        mesh = refine(mesh, near[:mesh.n_triangles // 4])
    return mesh


@pytest.mark.parametrize("case", ["structured", "graded_lshape"])
def test_true_residual_of_returned_pressure(case):
    """||G - S p - mean|| <= 10 CG_TOL ||G - mean G|| for the returned p, as
    the benchmark checks on the mass rows."""
    if case == "structured":
        prob = problems.gaussian_vortex(beta=10.0)
        mesh = problems.initial_mesh(prob, 40)
    else:
        prob = problems.reentrant_corner(beta=10.0)
        mesh = _graded_lshape()
        assert not prob.k_constant
    asm, system = _first_step(mesh, prob)
    p, _ = asm.solve_pressure(system)
    assert len(asm.hierarchy.sizes) > 2
    res = system.g - system.s @ p.values
    res -= res.mean()
    g = system.g - system.g.mean()
    assert np.linalg.norm(res) <= 10 * assembly.CG_TOL * np.linalg.norm(g)


def _hierarchy_case(case):
    if case == "graded_lshape":
        prob = problems.reentrant_corner(beta=10.0)
        mesh = _graded_lshape()
    else:
        prob = problems.gaussian_vortex(beta=10.0)
        mesh = problems.initial_mesh(prob, int(case[1:]))
    return _first_step(mesh, prob, alpha=3.0)


@pytest.mark.parametrize("case", ["n1", "n2", "n40", "graded_lshape"])
def test_galerkin_maps_give_the_sparse_products(case):
    """Each level's operator built by the hierarchy's maps equals R A P, and
    the coarsest dense inverse is that of the shifted operator."""
    asm, system = _hierarchy_case(case)
    hierarchy = asm.hierarchy
    assert len(hierarchy.maps) == len(hierarchy.sizes) - 1
    assert (len(hierarchy.sizes) > 2) == (case in ("n40", "graded_lshape"))
    data = system.s.data
    a = system.s
    for level, (p, r) in enumerate(hierarchy.prolongators):
        q1, q2 = hierarchy.maps[level]
        data = q2 @ (q1 @ data)
        a = r @ a @ p
        pattern = hierarchy.patterns[level + 1]
        ref = a.toarray()
        got = pattern.dense(data)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(pattern.matrix(data).toarray(), got)
        assert np.abs(np.diagonal(got) - data[pattern.diag]).max() == 0.0
    dense = a.toarray()
    shifted = dense + np.mean(np.diagonal(dense)) / dense.shape[0]
    coarse = VCycle(hierarchy, system.s).coarse
    assert np.abs(coarse @ shifted - np.eye(dense.shape[0])).max() < 1e-10


@pytest.mark.parametrize("case",
                         ["n1", "n2", "n40", "graded_lshape", "n112"])
def test_two_stage_maps_match_the_one_stage_oracle(case):
    """Each level keeps the maps Q1 (A to A P) and Q2 (A P to P^T A P), not
    their product; the coarse pattern and Q2 Q1 have the bytes of the
    one-stage map."""
    asm, _ = _hierarchy_case(case)
    hierarchy = asm.hierarchy
    assert len(hierarchy.maps) == len(hierarchy.prolongators)
    for level, (p, _) in enumerate(hierarchy.prolongators):
        fine = hierarchy.patterns[level]
        coarse, q = one_stage_galerkin_map(fine, p)
        got = hierarchy.patterns[level + 1]
        for want_arr, got_arr in ((coarse.indptr, got.indptr),
                                  (coarse.indices, got.indices)):
            assert got_arr.dtype == want_arr.dtype
            assert got_arr.tobytes() == want_arr.tobytes()
        q1, q2 = hierarchy.maps[level]
        assert q1.shape[1] == fine.indices.size
        assert q2.shape == (got.indices.size, q1.shape[0])
        product = (q2 @ q1).tocsr()
        product.sort_indices()
        assert product.shape == q.shape
        for want_arr, got_arr in ((q.indptr, product.indptr),
                                  (q.indices, product.indices),
                                  (q.data, product.data)):
            assert got_arr.dtype == want_arr.dtype
            assert got_arr.tobytes() == want_arr.tobytes()


def test_aggregates_match_the_loop_oracle(corner_budget_runs):
    """The flat-list aggregation gives the aggregates of the per-vertex
    neighbour-list loop on the corner levels and at N = 112."""
    prob = problems.reentrant_corner()
    vortex = problems.gaussian_vortex(beta=10.0)
    cases = [(s.mesh, prob) for s in corner_budget_runs[0][:21]]
    cases.append((problems.initial_mesh(vortex, 112), vortex))
    for mesh, problem in cases:
        s0 = Assembler(mesh, problem)._reference_schur()
        pattern = Pattern(s0.indptr, s0.indices)
        got = _aggregate(pattern, s0.data)
        assert got.tobytes() == loop_aggregate(pattern, s0.data).tobytes()


def test_unconnected_matrix_gives_a_single_level():
    """Without strong connections every vertex is its own aggregate, so
    coarsening stops at once."""
    eye = spm.identity(MAX_COARSE + 10, format="csr")
    pattern = Pattern(eye.indptr, eye.indices)
    agg = _aggregate(pattern, eye.data)
    assert agg.tobytes() == loop_aggregate(pattern, eye.data).tobytes()
    assert agg.tolist() == list(range(eye.shape[0]))
    assert SmoothedAggregation(pattern, eye.data).sizes == (eye.shape[0],)


def _assert_same_arrays(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        _assert_same_arrays(getattr(got, name), getattr(want, name))


def test_per_level_setup_matches_the_replaced_forms(corner_budget_runs):
    """The prolongators P and R, the load vector H and the flux matrix F,
    formed by index arithmetic, have the bytes of the sparse products, the
    ``np.subtract.at`` scatter and the COO build on the corner levels and at
    N = 112.  P is stored with ascending columns, the oracle's P only after
    sorting."""
    prob = problems.reentrant_corner()
    vortex = problems.gaussian_vortex(beta=10.0)
    cases = [(s.mesh, prob) for s in corner_budget_runs[0][:21]]
    cases.append((problems.initial_mesh(vortex, 112), vortex))
    levels = 0
    for mesh, problem in cases:
        asm = Assembler(mesh, problem)
        _assert_same_arrays(asm.h, subtract_at_load(asm))
        _assert_same_csr(IndicatorContext(mesh, problem)._flux,
                         coo_flux(mesh))
        hierarchy = asm.hierarchy
        data = asm._reference_schur().data
        for level, (p, r) in enumerate(hierarchy.prolongators):
            fine = hierarchy.patterns[level]
            want_p, want_r = spgemm_prolongators(fine, data,
                                                 _aggregate(fine, data))
            assert p.has_sorted_indices
            _assert_same_csr(p, want_p.sorted_indices())
            _assert_same_csr(r, want_r)
            q1, q2 = hierarchy.maps[level]
            data = q2 @ (q1 @ data)
            levels += 1
    assert levels > len(cases)


def test_product_map_matches_the_argsort_form(corner_budget_runs,
                                              monkeypatch):
    """Every ``product_map`` call of the set-up, the Q0 of each ``Assembler``
    and both Galerkin maps of every hierarchy level, gives the bytes of the
    stable-argsort and ``searchsorted`` form (indptr, indices and Q) on the
    corner levels and at N = 112."""
    calls = {"q0": 0, "galerkin": 0}
    product_map = multigrid.product_map

    def checked(kind):
        def call(*args):
            got = product_map(*args)
            want = argsort_product_map(*args)
            _assert_same_arrays(got[0], want[0])
            _assert_same_arrays(got[1], want[1])
            _assert_same_csr(got[2], want[2])
            calls[kind] += 1
            return got
        return call

    monkeypatch.setattr(assembly, "product_map", checked("q0"))
    monkeypatch.setattr(multigrid, "product_map", checked("galerkin"))
    prob = problems.reentrant_corner()
    vortex = problems.gaussian_vortex(beta=10.0)
    cases = [(s.mesh, prob) for s in corner_budget_runs[0][:21]]
    cases.append((problems.initial_mesh(vortex, 112), vortex))
    levels = 0
    for mesh, problem in cases:
        levels += len(Assembler(mesh, problem).hierarchy.maps)
    assert calls["q0"] == len(cases)
    assert calls["galerkin"] == 2 * levels > 2 * len(cases)


@pytest.mark.parametrize("case",
                         ["n1", "n2", "n40", "graded_lshape", "n112"])
def test_hierarchy_matches_the_spgemm_oracle(case):
    """Forming every coarser level of S0 by the maps gives the levels and
    prolongators of the SpGEMM build R A P, to rounding."""
    asm, _ = _hierarchy_case(case)
    hierarchy = asm.hierarchy
    sizes, prolongators = spgemm_hierarchy(asm._reference_schur())
    assert hierarchy.sizes == sizes
    for got_pair, want_pair in zip(hierarchy.prolongators, prolongators):
        for got, want in zip(got_pair, want_pair):
            got = got.sorted_indices()
            want = want.sorted_indices()
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.abs(got.data - want.data).max() \
                <= 1e-14 * np.abs(want.data).max()


def test_hierarchy_build_peak_memory():
    """The traced peak of a hierarchy build at N = 112, above its entry, stays
    under 20 MiB; the one-stage map took it to 34.5 MiB."""
    prob = problems.gaussian_vortex(beta=10.0)
    asm = Assembler(problems.initial_mesh(prob, 112), prob)
    s0 = asm._reference_schur()
    hierarchy, peak = traced_peak(
        lambda: SmoothedAggregation(asm._pattern, s0.data))
    assert len(hierarchy.sizes) > 3
    assert peak <= 20 * 2 ** 20


def test_hierarchy_keeps_the_assemblers_pattern():
    """The finest level of the hierarchy is the Assembler's own pattern of
    S, not a second one rebuilt from S0."""
    prob = problems.gaussian_vortex(beta=10.0)
    asm = Assembler(problems.initial_mesh(prob, 12), prob)
    assert len(asm.hierarchy.sizes) > 1
    assert asm.hierarchy.patterns[0] is asm._pattern


def test_vcycle_rejects_a_matrix_with_another_pattern():
    prob = problems.gaussian_vortex(beta=10.0)
    asm = Assembler(problems.initial_mesh(prob, 12), prob)
    s0 = asm._reference_schur()
    vcycle = VCycle(asm.hierarchy, s0)
    # Same values, but the exact zeros on the diagonal edges are dropped.
    pruned = s0.copy()
    pruned.eliminate_zeros()
    assert pruned.nnz < s0.nnz
    assert np.array_equal(pruned.toarray(), s0.toarray())
    for other in (pruned, spm.identity(s0.shape[0], format="csr")):
        with pytest.raises(ValueError, match="sparsity pattern"):
            VCycle(asm.hierarchy, other)
        with pytest.raises(ValueError, match="sparsity pattern"):
            vcycle.with_finest(other)


def test_vcycle_takes_the_matrix_on_its_pattern_as_the_finest_level():
    """A matrix holding the pattern's own index arrays is accepted as it is
    and used as the finest level; one with copies of them is compared entry
    by entry and gives the same bytes."""
    prob = problems.reentrant_corner(beta=10.0)
    asm, system = _first_step(_graded_lshape(), prob)
    hierarchy = asm.hierarchy
    assert system.s.indptr is hierarchy.patterns[0].indptr
    vcycle = VCycle(hierarchy, system.s)
    assert vcycle.levels[0][0] is system.s
    copied = system.s.copy()
    assert not np.shares_memory(copied.indices,
                                hierarchy.patterns[0].indices)
    r = np.random.default_rng(5).standard_normal(system.s.shape[0])
    assert VCycle(hierarchy, copied)(r).tobytes() == vcycle(r).tobytes()


def test_two_solves_through_one_assembler_are_byte_identical():
    prob = problems.reentrant_corner(beta=10.0)
    asm, system = _first_step(_graded_lshape(), prob)
    p1, it1 = asm.solve_pressure(system)
    p2, it2 = asm.solve_pressure(system)
    assert it1 == it2
    assert p1.values.tobytes() == p2.values.tobytes()


def test_solver_imports_no_dense_or_sparse_linalg():
    """scipy.linalg and scipy.sparse.linalg cost ~10 MiB and ~0.13 s per
    process; the solver must not pull them in."""
    code = ("import sys, darcyfem.adaptivity; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') "
            "if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(darcyfem.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_lifting_satisfies_flux_constraint():
    prob = problems.problem_from_config({"b": "1", "g": "0.25"})
    m = generate_structured(3)
    asm = Assembler(m, prob)
    u, _ = asm.lifting()
    per_vertex = np.einsum("mja,ma->mj", asm.b, u.values)
    bu = np.zeros(m.n_vertices)
    np.add.at(bu, m.tris.ravel(), per_vertex.ravel())
    assert np.abs(bu - asm.h).max() < 1e-10 * max(1.0, np.abs(asm.h).max())


def test_lifting_zero_data_is_zero():
    prob = problems.trivial_zero()
    m = generate_structured(2)
    u, _ = Assembler(m, prob).lifting()
    assert np.allclose(u.values, 0.0, atol=1e-13)


def test_lifting_has_the_bytes_of_the_c_ordered_einsum():
    """The lifting's einsum reads ``b`` in C order, although ``grads`` is a
    view of an (m, 2, 3) buffer: an einsum adds in an order set by its
    operands' layout, and over the strided layout the lifting on this
    refined mesh has other bytes."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = problems.initial_mesh(prob, 17)
    rng = np.random.default_rng(5)
    for _ in range(2):
        m = refine(m, rng.choice(m.n_triangles, m.n_triangles // 5,
                                 replace=False))
    asm = Assembler(m, prob)
    assert asm.b.flags.c_contiguous
    s0 = asm._reference_schur()
    lam, _ = deflated_cg(s0, asm.h, precond=VCycle(asm.hierarchy, s0))
    b = np.ascontiguousarray(m.grads) * m.areas[:, None, None]
    want = np.einsum("mja,mj->ma", b, lam[m.tris]) / m.areas[:, None]
    u, _ = asm.lifting()
    assert u.values.tobytes() == want.tobytes()


def test_forchheimer_pairing_monotone_with_cubic_bound():
    """sum |k| (|v|v - |w|w).(v - w) >= 0, and >= 1/4 ||v - w||^3 in L3."""
    m = generate_structured(2)
    for rng in rng_loop(313, 50):
        v = rng.standard_normal((m.n_triangles, 2))
        w = rng.standard_normal((m.n_triangles, 2))
        nv = np.linalg.norm(v, axis=1, keepdims=True)
        nw = np.linalg.norm(w, axis=1, keepdims=True)
        pair = float(np.sum(m.areas[:, None] * (nv * v - nw * w) * (v - w)))
        assert pair >= 0.0
        diff_l3_cubed = float(np.sum(
            m.areas * np.linalg.norm(v - w, axis=1) ** 3))
        assert pair >= 0.25 * diff_l3_cubed - 1e-12


def test_one_vcycle_per_step(monkeypatch):
    """With ``VCYCLE_DRIFT = 0`` a solve builds one V-cycle per fixed-point
    step: the finishing solve of the last step reuses its step's V-cycle.
    With the default drift it takes the same steps, builds fewer, and
    ``vcycle_builds`` counts them."""
    built, solves = [], []

    class CountingVCycle(VCycle):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    solve_pressure = Assembler.solve_pressure

    def counted(self, system, *args, **kwargs):
        solves.append(1)
        return solve_pressure(self, system, *args, **kwargs)

    monkeypatch.setattr(assembly, "VCycle", CountingVCycle)
    monkeypatch.setattr(Assembler, "solve_pressure", counted)
    prob = problems.gaussian_vortex(beta=10.0)

    def run():
        built.clear()
        solves.clear()
        return solve(generate_structured(8), prob, SolverConfig(alpha=10.0))

    kept = run()
    kept_builds = len(built)
    assert kept.converged and kept.vcycle_builds == kept_builds
    monkeypatch.setattr(nonlinear_solver, "VCYCLE_DRIFT", 0.0)
    res = run()
    assert res.converged
    assert len(solves) == res.iterations + 1      # the last step is finished
    assert len(built) == res.iterations
    assert res.vcycle_builds == len(built)
    assert kept.iterations == res.iterations
    assert kept_builds < len(built)


def test_within_drift_rejects_what_it_cannot_bound():
    built = np.array([1.0, 2.0, 4.0])
    drift = nonlinear_solver.VCYCLE_DRIFT
    assert 0.0 <= drift < 1.0 / 3.0
    assert _within_drift(built, built)
    assert _within_drift(built, built * (1.0 + 0.99 * drift))
    assert _within_drift(built, built * (1.0 - 0.99 * drift))
    assert not _within_drift(built, built * (1.0 + 1.01 * drift))
    assert not _within_drift(built, built * (1.0 - 1.01 * drift))
    for bad_built, drag in (([0.0, 2.0, 4.0], [0.0, 2.0, 4.0]),
                            ([0.0, 2.0, 4.0], [1e-300, 2.0, 4.0]),
                            ([math.inf, 2.0, 4.0], [1.0, 2.0, 4.0]),
                            ([1.0, 2.0, 4.0], [math.nan, 2.0, 4.0]),
                            ([1.0, 2.0, 4.0], [math.inf, 2.0, 4.0])):
        assert not _within_drift(np.array(bad_built), np.array(drag))


@pytest.mark.parametrize("signs", ["up", "down", "mixed"])
def test_kept_vcycle_on_drifted_weights_stays_spd(signs):
    """A V-cycle built on S(u), given the S of drag weights drifted by
    ``VCYCLE_DRIFT`` as its finest operator, keeps its Jacobi weights, is
    symmetric and positive on mean-zero vectors, to rounding, and CG with
    it reaches ``CG_TOL``."""
    drift = nonlinear_solver.VCYCLE_DRIFT
    assert 0.0 <= drift < 1.0 / 3.0
    prob = problems.reentrant_corner(beta=10.0)
    asm = Assembler(_graded_lshape(), prob)
    rng = np.random.default_rng(23)
    m, n = asm.mesh.n_triangles, asm.mesh.n_vertices
    u = rng.standard_normal((m, 2))
    built = asm.step(u, 1.0)
    sigma = {"up": np.ones(m), "down": -np.ones(m),
             "mixed": rng.choice([-1.0, 1.0], m)}[signs]
    drifted = drag(asm, u, 1.0) * (1.0 + drift * sigma)
    s = asm._schur(asm.element_blocks(drifted))
    assert len(asm.hierarchy.sizes) > 2
    vcycle = VCycle(asm.hierarchy, built.s)
    kept = vcycle.with_finest(None)
    assert kept.levels[0][0] is None and vcycle.levels[0][0] is built.s
    swapped = kept.with_finest(s)
    assert swapped.levels[0][0] is s
    assert swapped.levels[0][1] is vcycle.levels[0][1]
    assert swapped.coarse is vcycle.coarse

    centred = np.eye(n) - 1.0 / n
    mat = np.stack([swapped(col) for col in centred.T], axis=1)
    scale = np.abs(mat).max()
    assert np.abs(mat - mat.T).max() <= 1e-13 * scale
    # Constants are in the kernel of mat; lifting them to ``scale`` leaves
    # the eigenvalues on the mean-zero vectors as they are.
    eig = np.linalg.eigvalsh(0.5 * (mat + mat.T) + scale / n)
    assert eig.min() > 1e-8 * eig.max()

    g = rng.standard_normal(n)
    x, iters = deflated_cg(s, g, precond=swapped)
    b = g - g.mean()
    r = b - s @ x
    assert 1 <= iters <= 60
    assert np.linalg.norm(r - r.mean()) \
        <= 10 * assembly.CG_TOL * np.linalg.norm(b)


def test_kept_vcycle_gives_the_bytes_of_a_fresh_one():
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(8)
    asm = Assembler(m, prob)
    u = np.random.default_rng(4).standard_normal((m.n_triangles, 2))
    system = asm.step(u, 10.0)
    inexact, _ = asm.solve_pressure(system, forcing=1e-3)
    kept = system.vcycle
    finished, _ = asm.solve_pressure(system, x0=inexact.values)
    assert system.vcycle is kept
    fresh, _ = asm.solve_pressure(replace(system, vcycle=None),
                                  x0=inexact.values)
    assert finished.values.tobytes() == fresh.values.tobytes()


def test_kept_single_level_vcycle_inverts_the_new_matrix():
    """On a mesh of at most ``MAX_COARSE`` vertices the hierarchy has a single
    level, whose coarsest operator is S itself: a kept V-cycle given a new S
    has the bytes of a fresh V-cycle on it, not the inverse of the S it was
    built on."""
    prob = problems.gaussian_vortex(beta=10.0)
    m = generate_structured(4)
    asm = Assembler(m, prob)
    rng = np.random.default_rng(8)
    built = asm.step(rng.standard_normal((m.n_triangles, 2)), 10.0)
    new = asm.step(rng.standard_normal((m.n_triangles, 2)), 10.0)
    assert m.n_vertices <= MAX_COARSE
    assert asm.hierarchy.sizes == (m.n_vertices,)
    vcycle = VCycle(asm.hierarchy, built.s)
    swapped = vcycle.with_finest(None).with_finest(new.s)
    fresh = VCycle(asm.hierarchy, new.s)
    assert swapped.coarse.tobytes() == fresh.coarse.tobytes()
    r = rng.standard_normal(m.n_vertices)
    assert swapped(r).tobytes() == fresh(r).tobytes()
    assert vcycle(r).tobytes() != fresh(r).tobytes()
