from dataclasses import replace

import numpy as np
import pytest

from darcyfem import problems
from darcyfem.assembly import Assembler
from darcyfem.indicators import IndicatorContext
from darcyfem.mesh import generate_structured
from darcyfem.nonlinear_solver import true_error
from darcyfem.spaces import (P0VectorField, P1ScalarField, physical_points,
                             triangle_rule)

from conftest import rng_loop


def test_vortex_velocity_divergence_free():
    """The curl construction is divergence-free; check with central FD."""
    prob = problems.gaussian_vortex(beta=1.0)
    rng = np.random.default_rng(42)
    x = rng.uniform(0.05, 0.95, size=1000)
    y = rng.uniform(0.05, 0.95, size=1000)
    h = 1e-6
    ux_p, _ = prob.exact_u(x + h, y)
    ux_m, _ = prob.exact_u(x - h, y)
    _, uy_p = prob.exact_u(x, y + h)
    _, uy_m = prob.exact_u(x, y - h)
    div = (np.asarray(ux_p) - np.asarray(ux_m)
           + np.asarray(uy_p) - np.asarray(uy_m)) / (2 * h)
    assert np.abs(div).max() < 1e-4  # FD noise floor; analytic value is 0

    # hand-derived partials of the curl components cancel exactly
    gam = 50.0
    psi = np.exp(-gam * ((x - 0.5) ** 2 + (y - 0.5) ** 2))
    dux_dx = -2 * gam * (y - 0.5) * (-2 * gam * (x - 0.5)) * psi
    duy_dy = 2 * gam * (x - 0.5) * (-2 * gam * (y - 0.5)) * psi
    assert np.abs(dux_dx + duy_dy).max() < 1e-10
    ux, uy = prob.exact_u(x, y)
    assert np.shape(ux) == x.shape and np.shape(uy) == y.shape


def test_vortex_f_consistency_finite_differences():
    """f must equal (mu/rho) K^-1 u + (beta/rho)|u| u + grad p."""
    for beta in (1.0, 10.0):
        prob = problems.gaussian_vortex(beta=beta)
        rng = np.random.default_rng(7)
        x = rng.uniform(0.1, 0.9, size=200)
        y = rng.uniform(0.1, 0.9, size=200)
        h = 1e-7
        px_p = np.asarray(prob.exact_p(x + h, y))
        px_m = np.asarray(prob.exact_p(x - h, y))
        py_p = np.asarray(prob.exact_p(x, y + h))
        py_m = np.asarray(prob.exact_p(x, y - h))
        gpx = (px_p - px_m) / (2 * h)
        gpy = (py_p - py_m) / (2 * h)
        ux, uy = (np.asarray(v) for v in prob.exact_u(x, y))
        speed = np.hypot(ux, uy)
        fx, fy = (np.asarray(v) for v in prob.f(x, y))
        assert np.abs(fx - (ux + beta * speed * ux + gpx)).max() < 1e-5
        assert np.abs(fy - (uy + beta * speed * uy + gpy)).max() < 1e-5


@pytest.mark.parametrize("beta", [1.0, 10.0, 100.0])
def test_vortex_f_is_the_hypot_form_within_one_ulp(beta):
    """f forms |u| as sqrt(ux^2 + uy^2), within 1 ulp of hypot(ux, uy).
    Every later operation of f is monotone in |u|, so f lies between the
    hypot forms with |u| moved one ulp down and one ulp up."""
    prob = problems.gaussian_vortex(beta=beta)
    pts = physical_points(generate_structured(12), triangle_rule(10))
    x, y = pts[..., 0], pts[..., 1]
    ux, uy = prob.exact_u(x, y)
    px, py = prob.exact_grad_p(x, y)
    speed = np.hypot(ux, uy)
    assert (np.abs(np.sqrt(ux * ux + uy * uy) - speed)
            <= np.spacing(speed)).all()
    lo, hi = np.nextafter(speed, 0.0), np.nextafter(speed, np.inf)
    for f, u, g in zip(prob.f(x, y), (ux, uy), (px, py)):
        ends = [u + beta * s * u + g for s in (lo, hi)]
        assert (np.minimum(*ends) <= f).all() and (f <= np.maximum(*ends)).all()


def test_vortex_exact_grad_p_matches_fd():
    prob = problems.gaussian_vortex()
    rng = np.random.default_rng(3)
    x = rng.uniform(0.1, 0.9, size=100)
    y = rng.uniform(0.1, 0.9, size=100)
    h = 1e-7
    gx, gy = (np.asarray(v) for v in prob.exact_grad_p(x, y))
    fd_x = (np.asarray(prob.exact_p(x + h, y))
            - np.asarray(prob.exact_p(x - h, y))) / (2 * h)
    fd_y = (np.asarray(prob.exact_p(x, y + h))
            - np.asarray(prob.exact_p(x, y - h))) / (2 * h)
    assert np.abs(gx - fd_x).max() < 1e-6
    assert np.abs(gy - fd_y).max() < 1e-6


def test_vortex_pressure_zero_mean():
    prob = problems.gaussian_vortex()
    m = generate_structured(20)
    rule = triangle_rule(10)
    pts = physical_points(m, rule)
    vals = np.asarray(prob.exact_p(pts[..., 0], pts[..., 1]))
    integral = float(m.areas @ (vals @ rule.weights))
    assert abs(integral) < 1e-12


def test_vortex_boundary_flux_modes():
    exact = problems.gaussian_vortex()
    strict = problems.gaussian_vortex(strict_zero_flux=True)
    x = np.linspace(0, 1, 11)
    n = np.array([0.0, -1.0])
    g_exact = np.asarray(exact.g(x, np.zeros_like(x), n))
    g_strict = np.asarray(strict.g(x, np.zeros_like(x), n))
    assert (g_strict == 0).all()
    # tails are tiny but not identically zero
    assert 0 < np.abs(g_exact).max() < 1e-4


def test_corner_k_inverse_value():
    prob = problems.reentrant_corner()
    k = problems.eval_k_inverse(prob, np.array(0.5), np.array(0.5))
    assert np.allclose(k.reshape(2, 2), [[3.0, 0.1], [0.1, 4.0]], atol=1e-14)


def test_corner_f_piecewise():
    prob = problems.reentrant_corner()
    x = np.linspace(0.1, 0.9, 5)
    fx_lo, fy_lo = prob.f(x, np.full_like(x, 0.5))
    fx_hi, fy_hi = prob.f(x, np.full_like(x, 1.5))
    assert np.allclose(np.asarray(fx_lo), -2.0)
    assert np.allclose(np.asarray(fy_lo), 0.0)
    assert np.allclose(np.asarray(fx_hi), 0.0)
    assert np.allclose(np.asarray(fy_hi), 0.0)


def test_corner_k_bounds_against_dense_sampling():
    prob = problems.reentrant_corner()
    m = problems.initial_mesh(prob, 8)
    report = problems.validate(prob, m)
    # dense oracle: eigenvalues on a fine point grid over the L-shape
    xs = np.linspace(0, 2, 301)
    ys = np.linspace(0, 2, 301)
    X, Y = np.meshgrid(xs, ys)
    keep = ~((X > 1) & (Y > 1))
    k = problems.eval_k_inverse(prob, X[keep], Y[keep])
    tr = k[0, 0] + k[1, 1]
    det = k[0, 0] * k[1, 1] - k[0, 1] * k[1, 0]
    disc = np.sqrt(tr * tr / 4 - det)
    lam_min = float((tr / 2 - disc).min())
    lam_max = float((tr / 2 + disc).max())
    assert report["K_m"] == pytest.approx(lam_min, rel=0.02)
    assert report["K_M"] == pytest.approx(lam_max, rel=0.02)
    assert report["K_m"] >= 0.9
    assert report["K_M"] <= 4.2


def test_validate_identity_k():
    prob = problems.trivial_zero()
    m = generate_structured(3)
    report = problems.validate(prob, m)
    assert report["K_m"] == pytest.approx(1.0, abs=1e-13)
    assert report["K_M"] == pytest.approx(1.0, abs=1e-13)


def test_validate_rejects_non_spd():
    bad = problems.problem_from_config({
        "domain": "unit-square",
        "k_inverse": [["1", "3"], ["3", "1"]],  # symmetric, indefinite
    })
    m = generate_structured(2)
    with pytest.raises(problems.ProblemConfigError):
        problems.validate(bad, m)


def test_initial_mesh_domains():
    v = problems.gaussian_vortex()
    m = problems.initial_mesh(v, 10)
    assert m.n_vertices == 121
    assert m.domain_area == pytest.approx(1.0, rel=1e-12)
    c = problems.reentrant_corner()
    ml = problems.initial_mesh(c, 4)
    assert ml.domain_area == pytest.approx(3.0, rel=1e-12)


def test_problem_from_config_expressions():
    prob = problems.problem_from_config({
        "domain": "unit-square",
        "beta": 2.0,
        "f": ["sin(x)*cos(y)", "exp(-x*y)"],
        "b": "0",
        "g": "0",
        "k_inverse": [["2", "0"], ["0", "2"]],
    })
    x = np.array([0.3, 0.7])
    y = np.array([0.2, 0.9])
    fx, fy = prob.f(x, y)
    assert np.allclose(fx, np.sin(x) * np.cos(y))
    assert np.allclose(fy, np.exp(-x * y))
    assert prob.beta == 2.0


def test_problem_from_config_piecewise():
    prob = problems.problem_from_config({
        "domain": "unit-square",
        "f": ["where(y <= 0.5, -2, 0)", "0"],
    })
    fx, _ = prob.f(np.array([0.1, 0.1]), np.array([0.2, 0.8]))
    assert np.allclose(np.asarray(fx), [-2.0, 0.0])


def test_problem_from_config_rejects_bad_expression():
    with pytest.raises(problems.ProblemConfigError):
        problems.problem_from_config({"f": ["__import__('os')", "0"]})
    with pytest.raises(problems.ProblemConfigError):
        problems.problem_from_config({"b": "open('x')"})
    with pytest.raises(problems.ProblemConfigError):
        problems.problem_from_config({"mu": -1.0})


@pytest.mark.parametrize("beta", [-5.0, float("nan"), float("inf")])
@pytest.mark.parametrize("build", [
    problems.gaussian_vortex,
    problems.reentrant_corner,
    lambda beta: problems.problem_from_config({"beta": beta}),
], ids=["gaussian_vortex", "reentrant_corner", "problem_from_config"])
def test_problem_constructors_reject_a_bad_beta(build, beta):
    with pytest.raises(problems.ProblemConfigError, match="beta"):
        build(beta=beta)


@pytest.mark.parametrize("setting", [
    {"mu": 0.0}, {"mu": float("inf")}, {"rho": -1.0}, {"rho": float("nan")},
])
def test_problem_spec_rejects_a_bad_mu_or_rho(setting):
    with pytest.raises(problems.ProblemConfigError, match=next(iter(setting))):
        problems.problem_from_config(setting)
    with pytest.raises(problems.ProblemConfigError, match=next(iter(setting))):
        replace(problems.gaussian_vortex(), **setting)


def test_problem_spec_accepts_beta_zero():
    assert problems.problem_from_config({"beta": 0.0}).beta == 0.0
    assert problems.gaussian_vortex(beta=0.0).beta == 0.0


def test_expression_randomized_polynomials():
    """String polynomials evaluate like numpy on random points."""
    for rng in rng_loop(31, 10):
        c = rng.uniform(-2, 2, size=3).round(3)
        expr = f"{c[0]} + {c[1]}*x + {c[2]}*x*y"
        prob = problems.problem_from_config({"b": expr, "g": expr})
        x = rng.uniform(0, 1, size=16)
        y = rng.uniform(0, 1, size=16)
        want = c[0] + c[1] * x + c[2] * x * y
        assert np.allclose(np.asarray(prob.b(x, y)), want, atol=1e-12)


def test_each_data_function_is_sampled_once():
    """g once per Assembler and per IndicatorContext, f once per
    IndicatorContext, the exact fields once each per true_error."""
    base = problems.gaussian_vortex(beta=10.0)
    calls = dict.fromkeys(("f", "g", "exact_u", "exact_grad_p"), 0)

    def counted(name):
        fn = getattr(base, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    prob = replace(base, **{name: counted(name) for name in calls})
    m = problems.initial_mesh(prob, 4)
    Assembler(m, prob)
    assert calls == {"f": 1, "g": 1, "exact_u": 0, "exact_grad_p": 0}
    IndicatorContext(m, prob)
    assert calls == {"f": 2, "g": 2, "exact_u": 0, "exact_grad_p": 0}
    true_error(m, prob, P0VectorField.zero(m), P1ScalarField.zero(m))
    assert calls == {"f": 2, "g": 2, "exact_u": 1, "exact_grad_p": 1}
