from dataclasses import replace

import numpy as np
import pytest

from darcyfem import expressions, problems, spaces
from darcyfem.assembly import Assembler
from darcyfem.indicators import IndicatorContext
from darcyfem.mesh import generate_structured
from darcyfem.nonlinear_solver import SolverConfig, solve, true_error
from darcyfem.spaces import (P0VectorField, P1ScalarField, physical_points,
                             triangle_rule)

from conftest import corner_singularity, rng_loop, traced_peak


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
    x = np.linspace(0, 1, 11)
    n = np.array([0.0, -1.0])
    g_exact = np.asarray(exact.g(x, np.zeros_like(x), n))
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


def test_corner_singularity_is_a_solution():
    """The manufactured corner solution: grad p is the gradient of p and p
    is harmonic (so b = 0 is div u), by central differences on points of
    the L-shape off the corner; the momentum equation holds with K = I;
    g = u.n vanishes on the two edges at the corner, where rounding may put
    a point a hair outside the domain; and the assembler's compatibility
    check passes."""
    prob = corner_singularity(beta=10.0)
    rng = np.random.default_rng(7)
    x, y = rng.uniform(0.0, 2.0, size=(2, 4000))
    keep = ~((x > 0.95) & (y > 0.95)) & (np.hypot(x - 1.0, y - 1.0) > 0.05)
    x, y = x[keep], y[keep]
    h = 1e-5
    px, py = prob.exact_grad_p(x, y)
    fd_x = (prob.exact_p(x + h, y) - prob.exact_p(x - h, y)) / (2 * h)
    fd_y = (prob.exact_p(x, y + h) - prob.exact_p(x, y - h)) / (2 * h)
    assert np.abs(fd_x - px).max() < 1e-6
    assert np.abs(fd_y - py).max() < 1e-6
    h = 1e-3
    lap = (prob.exact_p(x + h, y) + prob.exact_p(x - h, y)
           + prob.exact_p(x, y + h) + prob.exact_p(x, y - h)
           - 4.0 * prob.exact_p(x, y)) / h ** 2
    assert np.abs(lap).max() < 1e-3
    ux, uy = prob.exact_u(x, y)
    fx, fy = prob.f(x, y)
    speed = np.hypot(ux, uy)
    assert np.allclose(ux + 10.0 * speed * ux + px, fx, rtol=1e-12, atol=0)
    assert np.allclose(uy + 10.0 * speed * uy + py, fy, rtol=1e-12, atol=0)
    t = np.linspace(1e-3, 1.0, 50)
    for one in (1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)):
        on_x = prob.g(one, 1.0 + t, np.array([1.0, 0.0]))
        on_y = prob.g(1.0 + t, one, np.array([0.0, 1.0]))
        assert np.abs(on_x).max() < 1e-12 and np.abs(on_y).max() < 1e-12
    Assembler(problems.initial_mesh(prob, 8), prob)


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


@pytest.mark.parametrize("k_inverse, message", [
    ([["1", "0.5"], ["0", "1"]], "not symmetric"),
    ([["0", "1"], ["1", "0"]], "not positive definite"),
], ids=["asymmetric", "zero-diagonal"])
def test_validate_names_what_k_inverse_is_not(k_inverse, message):
    bad = problems.problem_from_config({"k_inverse": k_inverse})
    with pytest.raises(problems.ProblemConfigError, match=message):
        problems.validate(bad, generate_structured(2))


def test_validate_takes_symmetry_relative_to_the_diagonal():
    """|k12 - k21| = 5.8e-11 is rounding next to a diagonal of 1e6, as the
    Assembler's K-term test finds too."""
    spec = problems.problem_from_config({"k_inverse": [
        ["1e6", "3e5"], ["(0.1+0.2)*1e6", "1e6"]]})
    report = problems.validate(spec, generate_structured(2))
    assert report["K_m"] == pytest.approx(0.7e6)
    assert report["K_M"] == pytest.approx(1.3e6)


@pytest.mark.parametrize("entry", ["sqrt(x - 0.5)", "1 / (x - x)"])
def test_validate_rejects_non_finite_k_inverse(entry):
    """A nan (or an inf, whose eigenvalue bounds come out nan) fails every
    comparison, so the symmetry and definiteness tests alone let it pass."""
    bad = problems.problem_from_config(
        {"k_inverse": [[entry, "0"], ["0", "1"]]})
    with np.errstate(invalid="ignore", divide="ignore"), \
            pytest.raises(problems.ProblemConfigError, match=r"K\^-1"):
        problems.validate(bad, generate_structured(4))


@pytest.mark.parametrize("name", ["gaussian-vortex", "reentrant-corner"])
def test_validate_is_the_same_in_any_blocks(monkeypatch, name):
    """K^-1 sampled in element blocks gives the bounds of one block holding
    every element, whatever the block size."""
    prob = problems.BUILTIN_PROBLEMS[name]()
    m = problems.initial_mesh(prob, 7)
    monkeypatch.setattr(spaces, "SAMPLE_BLOCK", m.n_triangles)
    whole = problems.validate(prob, m)
    for block in (1, 64, m.n_triangles - 1):
        monkeypatch.setattr(spaces, "SAMPLE_BLOCK", block)
        assert problems.validate(prob, m) == whole, block


def test_validate_peak_memory():
    """The traced peak of ``validate`` on reentrant-corner at N = 40 stays
    under 4 MiB: 2.1 MiB with K^-1 sampled in element blocks, 11.7 MiB
    when it sampled the whole mesh in one call."""
    prob = problems.reentrant_corner()
    m = problems.initial_mesh(prob, 40)
    problems.validate(prob, m)
    _, peak = traced_peak(lambda: problems.validate(prob, m))
    assert peak <= 4 * 2 ** 20


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


def _file_k(k21):
    """A problem file's K^-1 [[2, 0.3], [k21, 1.5]] with mu/rho = 1/4."""
    return problems.problem_from_config(
        {"mu": 0.5, "rho": 2.0, "k_inverse": [["2", "0.3"], [k21, "1.5"]]})


def test_a_file_k_inverse_of_constants_is_one_value():
    """K^-1 entries that name neither x nor y give one (2, 2) value: the
    IndicatorContext keeps it as ``k_const``, and the Assembler's K-term is
    (mu/rho) |k| K^-1 on every element."""
    prob, m = _file_k("0.3"), generate_structured(4)
    k = np.array([[2.0, 0.3], [0.3, 1.5]])
    assert problems.eval_k_inverse(prob, np.ones(3), np.ones(3)).shape \
        == (2, 2)
    ctx = IndicatorContext(m, prob)
    assert ctx.k_samples is None and np.array_equal(ctx.k_const, k)
    assert np.array_equal(Assembler(m, prob)._k_rows,
                          (0.25 * m.areas) * k.reshape(4, 1))


def test_a_file_k_inverse_naming_x_is_sampled():
    """One entry that names x (here "0.3 + 0*x") puts the same K^-1 on the
    sampled path: ``k_samples`` holds it at every residual point, and the
    K-term agrees with the constant one to rounding."""
    prob, m = _file_k("0.3 + 0*x"), generate_structured(4)
    k = np.array([[2.0, 0.3], [0.3, 1.5]])
    ctx = IndicatorContext(m, prob)
    assert ctx.k_const is None
    assert ctx.k_samples.shape[:3] == (2, 2, m.n_triangles)
    assert np.array_equal(ctx.k_samples,
                          np.broadcast_to(k[:, :, None, None],
                                          ctx.k_samples.shape))
    assert np.allclose(Assembler(m, prob)._k_rows,
                       (0.25 * m.areas) * k.reshape(4, 1),
                       rtol=1e-14, atol=0.0)


def test_a_python_k_inverse_of_one_value_solves_as_the_builtin():
    """A Python K^-1 that returns np.eye(2) is constant and solves the
    gaussian vortex to the bytes of the builtin, whose K^-1 returns the
    identity with unit point axes."""
    builtin = problems.gaussian_vortex(beta=10.0)
    eye = replace(builtin, k_inverse=lambda x, y: np.eye(2))
    m = generate_structured(6)
    cfg = SolverConfig(alpha=10.0)
    want, got = solve(m, builtin, cfg), solve(m, eye, cfg)
    assert got.iterations == want.iterations
    assert got.cg_total == want.cg_total
    for name in ("u", "p"):
        assert getattr(got, name).values.tobytes() \
            == getattr(want, name).values.tobytes(), name
    assert got.indicators.eta_d.tobytes() == want.indicators.eta_d.tobytes()


def test_problem_from_config_rejects_bad_expression():
    with pytest.raises(problems.ProblemConfigError):
        problems.problem_from_config({"f": ["__import__('os')", "0"]})
    with pytest.raises(problems.ProblemConfigError):
        problems.problem_from_config({"b": "open('x')"})
    with pytest.raises(problems.ProblemConfigError):
        problems.problem_from_config({"mu": -1.0})


@pytest.mark.parametrize("src, message", [
    ("'a'", "unsupported constant 'a'"),
    ("x + 1j", "unsupported constant 1j"),
    ("z", "unknown name 'z'"),
    ("x % 2", "unsupported operator"),
    ("x // 2", "unsupported operator"),
    ("~x", "unsupported unary operator"),
    ("not x", "unsupported unary operator"),
    ("log(x)", "unsupported function call"),
    ("sin(x=1)", "keyword arguments are not supported"),
    ("where(x < 1, 0)", "where() takes exactly three arguments"),
    ("sin(x, y)", "sin() takes exactly one argument"),
    ("sqrt()", "sqrt() takes exactly one argument"),
    ("x < 1", "comparisons are only allowed as the condition of where()"),
    ("where(0 < x < 1, 1, 0)", "unsupported comparison"),
    ("where(x == 1, 1, 0)", "unsupported comparison"),
    ("[x]", "unsupported syntax (List)"),
    ("1 if x else 0", "unsupported syntax (IfExp)"),
    ("x +", "cannot parse 'x +'"),
    ("x + True", "unsupported constant True"),
    ("where(x < 1, True, False)", "unsupported constant True"),
], ids=["string", "complex", "name", "modulo", "floor-division", "invert",
        "not", "function", "keyword", "where-arity", "arity-two",
        "arity-none", "comparison", "chained-comparison", "equality", "list",
        "conditional", "unparsable", "bool", "bool-where"])
def test_expressions_outside_the_grammar_are_refused(src, message):
    with pytest.raises(expressions.ExpressionError) as exc:
        expressions.compile_expression(src)
    assert str(exc.value).startswith(message)
    assert repr(src) in str(exc.value)


def test_an_unknown_domain_is_refused():
    with pytest.raises(problems.ProblemConfigError,
                       match="^unknown domain 'disk'$"):
        problems.problem_from_config({"domain": "disk"})
    disk = replace(problems.gaussian_vortex(), domain="disk")
    with pytest.raises(problems.ProblemConfigError,
                       match="^unknown domain 'disk'$"):
        problems.initial_mesh(disk, 4)


@pytest.mark.parametrize("spec, message", [
    ([1, 2], "JSON object"),
    ({"mu": "abc"}, "mu"),
    ({"rho": [1.0]}, "rho"),
    ({"beta": True}, "beta"),
    ({"k_inverse": 5}, "k_inverse"),
    ({"k_inverse": [["1", "0"], ["0"]]}, "k_inverse"),
    ({"exact_grad": ["0", "0"]}, "exact_grad"),
], ids=["list", "mu-text", "rho-list", "beta-bool", "k-inverse-number",
        "k-inverse-short-row", "unknown-key"])
def test_problem_from_config_rejects_a_malformed_spec(spec, message):
    with pytest.raises(problems.ProblemConfigError, match=message):
        problems.problem_from_config(spec)


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
    true_error(m, prob, P0VectorField(m, np.zeros((m.n_triangles, 2))),
               P1ScalarField(m, np.zeros(m.n_vertices)))
    assert calls == {"f": 2, "g": 2, "exact_u": 1, "exact_grad_p": 1}
