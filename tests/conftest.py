"""Shared fixtures.

The expensive benchmark runs (the four N=60 alpha tables and the adaptive
studies) are computed once per session and shared between the acceptance
tests that read different aspects of the same data.  The tables run in two
worker processes (see ``table_jobs``).
"""
import multiprocessing
import time
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from darcyfem import problems
from darcyfem.adaptivity import adaptive_loop, uniform_study
from darcyfem.mesh import refine
from darcyfem.nonlinear_solver import SolverConfig, alpha_sweep
from darcyfem.spaces import p1_gradients, row_norms

TABLE1_ALPHAS = [0.001, 0.01, 0.1, 1, 1.4, 1.9, 2.1, 2.3, 2.5, 2.7,
                 3, 3.7, 5, 10, 100, 1000]
TABLE2_ALPHAS = [0.001, 0.01, 0.1, 1, 6, 8, 10, 11, 12, 13, 14, 15,
                 18, 21, 35, 100, 1000]
# values common to the zero-guess and linear-guess tables
SHARED1_ALPHAS = [0.001, 0.01, 0.1, 1, 1.4, 1.9, 2.3, 3.7, 5, 10, 100, 1000]
SHARED2_ALPHAS = [0.001, 0.01, 0.1, 1, 6, 10, 11, 12, 13, 14, 15, 18,
                  21, 100, 1000]


def _timed_sweep(beta, alphas, guess):
    prob = problems.gaussian_vortex(beta=beta)
    mesh = problems.initial_mesh(prob, 60)
    t0 = time.perf_counter()
    rows = alpha_sweep(mesh, prob, alphas,
                       SolverConfig(tol=1e-5, initial_guess=guess))
    return rows, time.perf_counter() - t0


# The four N = 60 tables: (beta, alphas, initial guess) per fixture name.
TABLES = {
    "table1_zero": (1.0, TABLE1_ALPHAS, "zero"),
    "table2_zero": (10.0, TABLE2_ALPHAS, "zero"),
    "table1_darcy": (1.0, SHARED1_ALPHAS, "darcy"),
    "table2_darcy": (10.0, SHARED2_ALPHAS, "darcy"),
}
# The tables by serial run time, longest first (9.5, 8.6, 5.4 and 4.9 s on
# a 2-vCPU host with one BLAS thread), so that two workers finish together.
_LONGEST_FIRST = ("table2_zero", "table2_darcy", "table1_zero",
                  "table1_darcy")


@pytest.fixture(scope="session")
def table_jobs(request):
    """Submit a table to the worker pool, or find it there: a function
    from a fixture name of ``TABLES`` to the future of its
    ``_timed_sweep``, which is timed in the worker.

    The pool is two fork-context processes.  It starts on the first request
    of a table, with every table that a collected test names as a fixture,
    and shuts down at session end.  A table asked for only at run time
    (``request.getfixturevalue``) is submitted when it is first asked for.
    """
    named = set().union(*(item.fixturenames
                          for item in request.session.items))
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(2, mp_context=context) as pool:
        jobs = {}

        def job(name):
            if name not in jobs:
                jobs[name] = pool.submit(_timed_sweep, *TABLES[name])
            return jobs[name]

        for name in _LONGEST_FIRST:
            if name in named:
                job(name)
        yield job


@pytest.fixture(scope="session")
def table1_zero(table_jobs):
    return table_jobs("table1_zero").result()


@pytest.fixture(scope="session")
def table2_zero(table_jobs):
    return table_jobs("table2_zero").result()


@pytest.fixture(scope="session")
def table1_darcy(table_jobs):
    return table_jobs("table1_darcy").result()


@pytest.fixture(scope="session")
def table2_darcy(table_jobs):
    return table_jobs("table2_darcy").result()


@pytest.fixture(scope="session")
def adaptive_seven():
    prob = problems.gaussian_vortex(beta=10.0)
    return adaptive_loop(prob, problems.initial_mesh(prob, 10), levels=7,
                         solver=SolverConfig(alpha=10.0, gamma_tilde=1e-3,
                                             stopping="indicator_balance",
                                             initial_guess="darcy"))


@pytest.fixture(scope="session")
def vortex_budget_runs():
    """Deep adaptive run and uniform reference for the smooth test case."""
    prob = problems.gaussian_vortex(beta=10.0)
    cfg = SolverConfig(alpha=10.0, gamma_tilde=1e-3,
                       stopping="indicator_balance", initial_guess="darcy")
    adaptive = adaptive_loop(prob, problems.initial_mesh(prob, 10),
                             levels=28, solver=cfg)
    uniform = uniform_study(prob, [40, 80],
                            SolverConfig(alpha=10.0, initial_guess="darcy"))
    return adaptive, uniform


@pytest.fixture(scope="session")
def corner_budget_runs():
    """Same comparison for the reentrant-corner case (no exact solution)."""
    prob = problems.reentrant_corner()
    cfg = SolverConfig(alpha=10.0, gamma_tilde=1e-3,
                       stopping="indicator_balance", initial_guess="darcy")
    adaptive = adaptive_loop(prob, problems.initial_mesh(prob, 8),
                             levels=30, solver=cfg)
    uniform = uniform_study(prob, [8, 16, 32],
                            SolverConfig(alpha=10.0, initial_guess="darcy"))
    return adaptive, uniform


# -- acceptance report --------------------------------------------------------

_acceptance = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance):
        outcome = _acceptance[name].upper()
        terminalreporter.write_line(f"  {name}: {outcome}")


def refine_uniform(mesh, rounds=1):
    """Bisect every triangle, ``rounds`` times."""
    for _ in range(rounds):
        mesh = refine(mesh, np.arange(mesh.n_triangles))
    return mesh


def drag(asm, u, alpha):
    """The drag weights alpha + (beta/rho) |u_k| of ``asm``'s problem, as
    ``solve`` forms them from the convective weights it keeps."""
    return alpha + asm.convection(row_norms(u))


def indicators_of(ctx, u_new, u_prev, p_new, alpha):
    """``ctx.compute`` given the gradients of ``p_new`` and the convective
    weights (beta/rho) |u_prev_k|, each formed here as ``solve`` forms
    them."""
    pr = ctx.problem
    conv = (pr.beta / pr.rho) * row_norms(u_prev.values)
    return ctx.compute(u_new, u_prev, alpha, p1_gradients(p_new), conv)


def traced_peak(fn):
    """Call ``fn()`` under tracemalloc; return its result and the traced peak
    of the call above the memory traced at its entry, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - entry


def corner_singularity(beta=10.0):
    """The L-shape's corner singularity as a manufactured solution.

    p = r^(2/3) cos(2 phi / 3) about the reentrant corner (1, 1), with phi
    the angle from the edge x = 1, y > 1, running through the domain to
    3 pi / 2 on the edge y = 1, x > 1; u = -grad p, K = I, mu = rho = 1 and
    b = 0.  So f = -(beta/rho) |grad p| grad p and g = u.n, which is 0 on
    the two edges at the corner.  |u| grows like r^(-1/3) there: u is in
    L^3 and f in L^2, but neither is bounded.  The expression grammar has
    no atan2, so a problem file cannot state this solution.
    """

    def polar(x, y):
        """r^2 and phi about the corner.  The branch cut of phi runs along
        the notch's diagonal, which no point of the domain reaches, so
        rounding on the corner's edges cannot flip phi between 0 and
        2 pi."""
        dx, dy = x - 1.0, y - 1.0
        theta = np.arctan2(dy, dx)
        return dx * dx + dy * dy, np.where(theta < np.pi / 4,
                                           theta + 1.5 * np.pi,
                                           theta - 0.5 * np.pi)

    def grad_p(x, y):
        r2, phi = polar(x, y)
        scale = (2.0 / 3.0) * r2 ** (-1.0 / 6.0)
        return -scale * np.sin(phi / 3.0), scale * np.cos(phi / 3.0)

    def exact_p(x, y):
        r2, phi = polar(x, y)
        return r2 ** (1.0 / 3.0) * np.cos(2.0 * phi / 3.0)

    def exact_u(x, y):
        px, py = grad_p(x, y)
        return -px, -py

    def f(x, y):
        px, py = grad_p(x, y)
        speed = np.sqrt(px * px + py * py)
        return -beta * speed * px, -beta * speed * py

    def g(x, y, normal):
        ux, uy = exact_u(x, y)
        return ux * normal[0] + uy * normal[1]

    identity = problems.gaussian_vortex().k_inverse
    return problems.ProblemSpec(
        name="corner-singularity", domain="l-shape", mu=1.0, rho=1.0,
        beta=beta, k_inverse=identity, f=f,
        b=lambda x, y: np.zeros(np.shape(x)), g=g,
        exact_u=exact_u, exact_p=exact_p, exact_grad_p=grad_p)


def record_made(monkeypatch, module, *names):
    """Replace each class ``names`` of ``module`` by a factory that makes
    the same object and keeps a weak reference to it; returns those
    references, a list per name in order of making."""
    made = {name: [] for name in names}
    for name in names:
        def make(*args, _cls=getattr(module, name), _refs=made[name],
                 **kwargs):
            obj = _cls(*args, **kwargs)
            _refs.append(weakref.ref(obj))
            return obj
        monkeypatch.setattr(module, name, make)
    return made


def rng_loop(seed, n):
    """Seeded generators for property-test loops."""
    root = np.random.default_rng(seed)
    return [np.random.default_rng(s)
            for s in root.integers(0, 2 ** 63, size=n)]


def random_affine_problem(rng, with_data=True):
    """Constant SPD K^-1, affine f, compatible constant (b, g) on the square."""
    a = rng.uniform(0.5, 2.0)
    d = rng.uniform(0.5, 2.0)
    off = rng.uniform(-0.4, 0.4) * min(a, d)
    k = np.array([[a, off], [off, d]])
    c_f = rng.uniform(-2, 2, size=6)
    c_b = float(rng.uniform(-1, 1)) if with_data else 0.0

    def k_inverse(x, y):
        return k.reshape((2, 2) + (1,) * np.ndim(x))

    def f(x, y):
        return (c_f[0] + c_f[1] * x + c_f[2] * y,
                c_f[3] + c_f[4] * x + c_f[5] * y)

    def b(x, y):
        return np.full(np.shape(x), c_b)

    def g(x, y, normal):
        # constant flux balancing the constant source: |domain| = 1, |bdy| = 4
        return np.full(np.shape(x), c_b / 4.0)

    return problems.ProblemSpec(
        name="random", domain="unit-square", mu=1.0, rho=1.0,
        beta=float(rng.uniform(0, 2)), k_inverse=k_inverse, f=f, b=b, g=g)


def k_is_constant(prob):
    """Whether K^-1 of ``prob`` takes the constant path: one (2, 2) value
    from ``eval_k_inverse`` at two points."""
    x, y = np.array([0.25, 0.75]), np.array([0.5, 0.6])
    return problems.eval_k_inverse(prob, x, y).ndim == 2
