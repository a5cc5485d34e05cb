"""Problem definitions: coefficients, data, domains and exact solutions.

A problem bundles the model coefficients (viscosity mu, density rho,
inertia coefficient beta, permeability inverse K^-1) with the data (momentum
source f, mass source b, normal flux g) and, when available, the exact
solution used for error reporting.  All data callables are numpy-vectorized:
scalar data maps point arrays to arrays, vector data returns an (fx, fy)
pair, and K^-1 returns something broadcastable to shape (2, 2) + x.shape.
The boundary flux g takes the outward unit normals as a third argument; see
:class:`ProblemSpec` for the shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import mesh as _mesh
from .expressions import ExpressionError, compile_expression
from .spaces import physical_points, triangle_rule


class ProblemConfigError(ValueError):
    """Raised when a problem configuration is inconsistent."""


@dataclass
class ProblemSpec:
    """Coefficients, data and (optional) exact solution of one flow problem.

    ``g(x, y, normal)`` is called once for all boundary edges: x and y have
    shape (nb, q), one row of q edge quadrature points per boundary edge,
    and ``normal`` is the (2, nb, 1) array of outward unit normals, so
    ``normal[0]`` and ``normal[1]`` broadcast against x and y.  The result
    must broadcast to x.shape.  Construction raises ProblemConfigError
    unless mu and rho are finite and > 0 and beta is finite and >= 0.
    """

    name: str
    domain: str                    # "unit-square" or "l-shape"
    mu: float
    rho: float
    beta: float
    k_inverse: Callable            # (x, y) -> (2, 2)-like
    f: Callable                    # (x, y) -> (fx, fy)
    b: Callable                    # (x, y) -> array
    g: Callable                    # (x, y, normal) -> array
    k_constant: bool = False       # True when K^-1 does not vary in space
    exact_u: Callable | None = None
    exact_p: Callable | None = None
    exact_grad_p: Callable | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, rule, ok in (("mu", "> 0", self.mu > 0.0),
                               ("rho", "> 0", self.rho > 0.0),
                               ("beta", ">= 0", self.beta >= 0.0)):
            value = getattr(self, name)
            if not (ok and math.isfinite(value)):
                raise ProblemConfigError(
                    f"{name} must be finite and {rule}, not {value!r}")

    def has_exact(self) -> bool:
        return self.exact_u is not None and self.exact_grad_p is not None


def eval_k_inverse(problem: ProblemSpec, x, y) -> np.ndarray:
    """Evaluate K^-1 at points, normalized to shape (2, 2) + x.shape."""
    out = np.asarray(problem.k_inverse(x, y), dtype=float)
    return np.broadcast_to(out, (2, 2) + np.shape(x))


def initial_mesh(problem: ProblemSpec, n: int) -> _mesh.Mesh:
    """Structured starting triangulation for the problem's domain."""
    if problem.domain == "unit-square":
        return _mesh.generate_structured(n)
    if problem.domain == "l-shape":
        return _mesh.generate_lshape(n)
    raise ProblemConfigError(f"unknown domain {problem.domain!r}")


# ---------------------------------------------------------------------------
# Built-in problems
# ---------------------------------------------------------------------------

def gaussian_vortex(beta: float = 1.0, gamma: float = 50.0,
                    strict_zero_flux: bool = False) -> ProblemSpec:
    """Manufactured vortex on the unit square.

    The velocity is the curl of the Gaussian bump exp(-gamma*r^2) centered at
    (1/2, 1/2), the pressure x(x-2/3)y(y-2/3) (which already has zero mean),
    with mu = rho = 1 and K = I; f is assembled from the strong form.  The
    vortex is divergence free, so b = 0.  Its normal trace on the boundary is
    not exactly zero (Gaussian tails of order exp(-gamma/4)); by default g is
    the exact trace, keeping the manufactured solution consistent.
    ``strict_zero_flux=True`` forces g = 0 instead.
    """

    def psi_parts(x, y):
        dx = x - 0.5
        dy = y - 0.5
        return dx, dy, np.exp(-gamma * (dx * dx + dy * dy))

    def exact_u(x, y):
        dx, dy, psi = psi_parts(x, y)
        return -2.0 * gamma * dy * psi, 2.0 * gamma * dx * psi

    def exact_p(x, y):
        return x * (x - 2.0 / 3.0) * y * (y - 2.0 / 3.0)

    def exact_grad_p(x, y):
        return ((2.0 * x - 2.0 / 3.0) * y * (y - 2.0 / 3.0),
                x * (x - 2.0 / 3.0) * (2.0 * y - 2.0 / 3.0))

    def f(x, y):
        ux, uy = exact_u(x, y)
        speed = np.sqrt(ux * ux + uy * uy)   # |u| as row_norms forms it
        px, py = exact_grad_p(x, y)
        return ux + beta * speed * ux + px, uy + beta * speed * uy + py

    def b(x, y):
        return np.zeros(np.shape(x))

    if strict_zero_flux:
        def g(x, y, normal):
            return np.zeros(np.shape(x))
    else:
        def g(x, y, normal):
            ux, uy = exact_u(x, y)
            return ux * normal[0] + uy * normal[1]

    def k_inverse(x, y):
        return np.eye(2)[(...,) + (None,) * np.ndim(x)]

    return ProblemSpec(
        name="gaussian-vortex", domain="unit-square",
        mu=1.0, rho=1.0, beta=beta,
        k_inverse=k_inverse, f=f, b=b, g=g, k_constant=True,
        exact_u=exact_u, exact_p=exact_p, exact_grad_p=exact_grad_p,
        params={"gamma": gamma, "strict_zero_flux": strict_zero_flux})


def reentrant_corner(beta: float = 10.0) -> ProblemSpec:
    """Impermeable L-shaped domain with a piecewise momentum source.

    K^-1 has sinusoidal diagonal entries and the linear off-diagonal 0.2 x;
    the source pushes horizontally in the lower half (y <= 1) only, driving a
    recirculation around the reentrant corner at (1, 1).  No exact solution.
    """

    def k_inverse(x, y):
        s = np.sin(np.pi * x) * np.sin(np.pi * y)
        off = 0.2 * x
        k11 = 2.0 + s
        k22 = 3.0 + s
        out = np.empty((2, 2) + np.shape(x))
        out[0, 0] = k11
        out[0, 1] = off
        out[1, 0] = off
        out[1, 1] = k22
        return out

    def f(x, y):
        fx = np.where(y <= 1.0, -2.0, 0.0)
        return fx, np.zeros(np.shape(x))

    def b(x, y):
        return np.zeros(np.shape(x))

    def g(x, y, normal):
        return np.zeros(np.shape(x))

    return ProblemSpec(
        name="reentrant-corner", domain="l-shape",
        mu=1.0, rho=1.0, beta=beta,
        k_inverse=k_inverse, f=f, b=b, g=g, k_constant=False)


def trivial_zero() -> ProblemSpec:
    """Zero data on the unit square; the solution is identically zero."""

    def zero(x, y):
        return np.zeros(np.shape(x))

    def zero_vec(x, y):
        z = np.zeros(np.shape(x))
        return z, z

    def g(x, y, normal):
        return np.zeros(np.shape(x))

    def k_inverse(x, y):
        return np.eye(2)[(...,) + (None,) * np.ndim(x)]

    return ProblemSpec(
        name="trivial-zero", domain="unit-square",
        mu=1.0, rho=1.0, beta=1.0,
        k_inverse=k_inverse, f=zero_vec, b=zero, g=g, k_constant=True,
        exact_u=zero_vec, exact_p=zero,
        exact_grad_p=zero_vec)


BUILTIN_PROBLEMS = {
    "gaussian-vortex": gaussian_vortex,
    "reentrant-corner": reentrant_corner,
    "trivial-zero": trivial_zero,
}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(problem: ProblemSpec, mesh: _mesh.Mesh) -> dict:
    """Sample-based check of K^-1 on a mesh.

    Returns the eigenvalue bounds of K^-1 over degree-6 quadrature points
    (K_m, K_M).  Raises if K^-1 is not symmetric positive definite at a
    sample point.  The compatibility of b and g is checked by
    :class:`~darcyfem.assembly.Assembler`.
    """
    pts = physical_points(mesh, triangle_rule(6))
    kk = eval_k_inverse(problem, pts[..., 0], pts[..., 1])
    asym = np.abs(kk[0, 1] - kk[1, 0]).max()
    if asym > 1e-12:
        raise ProblemConfigError(
            f"K^-1 is not symmetric (max |k12 - k21| = {asym:.3e})")
    tr = kk[0, 0] + kk[1, 1]
    det = kk[0, 0] * kk[1, 1] - kk[0, 1] * kk[1, 0]
    disc = np.sqrt(np.maximum(tr * tr / 4.0 - det, 0.0))
    lam_min = (tr / 2.0 - disc).min()
    lam_max = (tr / 2.0 + disc).max()
    if lam_min <= 0.0:
        raise ProblemConfigError(
            f"K^-1 is not positive definite (min eigenvalue {lam_min:.3e})")
    return {"K_m": float(lam_min), "K_M": float(lam_max)}


# ---------------------------------------------------------------------------
# Problems from configuration
# ---------------------------------------------------------------------------

def _vector_from_exprs(pair, what: str):
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ProblemConfigError(f"{what} must be a pair of expressions")
    fx = compile_expression(str(pair[0]))
    fy = compile_expression(str(pair[1]))

    def fn(x, y):
        shape = np.shape(x)
        return (np.broadcast_to(fx(x, y), shape),
                np.broadcast_to(fy(x, y), shape))

    return fn


def problem_from_config(cfg: dict) -> ProblemSpec:
    """Build a problem from a configuration mapping (see README grammar)."""
    try:
        domain = cfg.get("domain", "unit-square")
        if domain not in ("unit-square", "l-shape"):
            raise ProblemConfigError(f"unknown domain {domain!r}")
        mu = float(cfg.get("mu", 1.0))
        rho = float(cfg.get("rho", 1.0))
        beta = float(cfg.get("beta", 1.0))

        kcfg = cfg.get("k_inverse", [["1", "0"], ["0", "1"]])
        rows = [[compile_expression(str(kcfg[i][j])) for j in range(2)]
                for i in range(2)]

        def k_inverse(x, y):
            shape = np.shape(x)
            out = np.empty((2, 2) + shape)
            for i in range(2):
                for j in range(2):
                    out[i, j] = np.broadcast_to(rows[i][j](x, y), shape)
            return out

        f = _vector_from_exprs(cfg.get("f", ["0", "0"]), "f")
        b_expr = compile_expression(str(cfg.get("b", "0")))

        def b(x, y):
            return np.broadcast_to(b_expr(x, y), np.shape(x))

        g_expr = compile_expression(str(cfg.get("g", "0")))

        def g(x, y, normal):
            return np.broadcast_to(g_expr(x, y), np.shape(x))

        exact_u = exact_p = exact_grad_p = None
        if "exact_u" in cfg:
            exact_u = _vector_from_exprs(cfg["exact_u"], "exact_u")
        if "exact_p" in cfg:
            p_expr = compile_expression(str(cfg["exact_p"]))

            def exact_p(x, y):  # noqa: F811 - deliberate rebinding
                return np.broadcast_to(p_expr(x, y), np.shape(x))

        if "exact_grad_p" in cfg:
            exact_grad_p = _vector_from_exprs(cfg["exact_grad_p"], "exact_grad_p")
        elif exact_p is not None:
            # fall back to central differences for reporting purposes
            eps = 1e-6

            def exact_grad_p(x, y):  # noqa: F811
                return ((exact_p(x + eps, y) - exact_p(x - eps, y)) / (2 * eps),
                        (exact_p(x, y + eps) - exact_p(x, y - eps)) / (2 * eps))

        return ProblemSpec(
            name=str(cfg.get("name", "custom")), domain=domain,
            mu=mu, rho=rho, beta=beta,
            k_inverse=k_inverse, f=f, b=b, g=g, k_constant=False,
            exact_u=exact_u, exact_p=exact_p, exact_grad_p=exact_grad_p,
            params={"custom": True})
    except ExpressionError as exc:
        raise ProblemConfigError(str(exc)) from None
