"""Problem definitions: coefficients, data, domains and exact solutions.

A problem bundles the model coefficients (viscosity mu, density rho,
inertia coefficient beta, permeability inverse K^-1) with the data (momentum
source f, mass source b, normal flux g) and, when available, the exact
solution used for error reporting.  All data callables are numpy-vectorized:
scalar data maps point arrays to arrays, vector data returns an (fx, fy)
pair, and K^-1 returns one (2, 2) value when it is constant, or else
values broadcastable to shape (2, 2) + x.shape.
The boundary flux g takes the outward unit normals as a third argument; see
:class:`ProblemSpec` for the shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import mesh as _mesh
from .expressions import ExpressionError, compile_expression
from .spaces import physical_points, sample_blocks, triangle_rule


class ProblemConfigError(ValueError):
    """Raised when a problem configuration is inconsistent."""


@dataclass
class ProblemSpec:
    """Coefficients, data and (optional) exact solution of one flow problem.

    ``g(x, y, normal)`` is called once for all boundary edges: x and y have
    shape (nb, q), one row of q edge quadrature points per boundary edge,
    and ``normal`` is the (2, nb, 1) array of outward unit normals, so
    ``normal[0]`` and ``normal[1]`` broadcast against x and y.  The result
    must broadcast to x.shape.  ``k_inverse`` returns one (2, 2) value for
    a constant K^-1 (see :func:`eval_k_inverse`), else values that
    broadcast to (2, 2) + x.shape.  Construction raises ProblemConfigError
    unless mu and rho are finite and > 0 and beta is finite and >= 0.
    """

    name: str
    domain: str                    # "unit-square" or "l-shape"
    mu: float
    rho: float
    beta: float
    k_inverse: Callable            # (x, y) -> (2, 2) or (2, 2) + x.shape
    f: Callable                    # (x, y) -> (fx, fy)
    b: Callable                    # (x, y) -> array
    g: Callable                    # (x, y, normal) -> array
    exact_u: Callable | None = None
    exact_p: Callable | None = None
    exact_grad_p: Callable | None = None

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
    """K^-1 at points: one (2, 2) value when the result has no point axis
    longer than 1 (K^-1 is constant), else the samples broadcast to
    (2, 2) + x.shape."""
    out = np.asarray(problem.k_inverse(x, y), dtype=float)
    if max(out.shape[2:], default=1) == 1:
        return np.broadcast_to(out.reshape(out.shape[:2]), (2, 2))
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

def _zero(x, y):
    return np.zeros(np.shape(x))


def _zero_pair(x, y):
    z = np.zeros(np.shape(x))
    return z, z


def _no_flux(x, y, normal):
    return np.zeros(np.shape(x))


def _identity(x, y):
    return np.eye(2)[(...,) + (None,) * np.ndim(x)]


def gaussian_vortex(beta: float = 1.0, gamma: float = 50.0) -> ProblemSpec:
    """Manufactured vortex on the unit square.

    The velocity is the curl of the Gaussian bump exp(-gamma*r^2) centered at
    (1/2, 1/2), the pressure x(x-2/3)y(y-2/3) (which already has zero mean),
    with mu = rho = 1 and K = I; f is assembled from the strong form.  The
    vortex is divergence free, so b = 0.  Its normal trace on the boundary is
    not exactly zero (Gaussian tails of order exp(-gamma/4)); g is the exact
    trace, keeping the manufactured solution consistent.
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

    def g(x, y, normal):
        ux, uy = exact_u(x, y)
        return ux * normal[0] + uy * normal[1]

    return ProblemSpec(
        name="gaussian-vortex", domain="unit-square",
        mu=1.0, rho=1.0, beta=beta,
        k_inverse=_identity, f=f, b=_zero, g=g,
        exact_u=exact_u, exact_p=exact_p, exact_grad_p=exact_grad_p)


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

    return ProblemSpec(
        name="reentrant-corner", domain="l-shape",
        mu=1.0, rho=1.0, beta=beta,
        k_inverse=k_inverse, f=f, b=_zero, g=_no_flux)


def trivial_zero(beta: float = 1.0) -> ProblemSpec:
    """Zero data on the unit square; the solution is identically zero."""
    return ProblemSpec(
        name="trivial-zero", domain="unit-square",
        mu=1.0, rho=1.0, beta=beta,
        k_inverse=_identity, f=_zero_pair, b=_zero, g=_no_flux,
        exact_u=_zero_pair, exact_p=_zero, exact_grad_p=_zero_pair)


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
    (K_m, K_M), sampled in element blocks (which bounds the peak memory;
    the maxima and minima are those of one whole-mesh sampling).  Raises if
    K^-1 is not finite, or not symmetric positive definite, at a sample
    point; symmetric means |k12 - k21| <= 1e-12 (|k11| + |k22|), the test
    the Assembler applies to its K-terms.  The compatibility of b and g is
    checked by :class:`~darcyfem.assembly.Assembler`.
    """
    rule = triangle_rule(6)
    asym, lam_min, lam_max = 0.0, np.inf, -np.inf
    for blk in sample_blocks(mesh):
        pts = physical_points(mesh, rule, blk)
        kk = eval_k_inverse(problem, pts[..., 0], pts[..., 1])
        if not np.isfinite(kk).all():
            raise ProblemConfigError("K^-1 is not finite at a sample point")
        # np.maximum and np.minimum keep a nan (of an overflow), which the
        # negated tests below refuse
        diag = np.maximum(np.abs(kk[0, 0]) + np.abs(kk[1, 1]),
                          np.finfo(float).tiny)
        asym = np.maximum(asym, (np.abs(kk[0, 1] - kk[1, 0]) / diag).max())
        tr = kk[0, 0] + kk[1, 1]
        det = kk[0, 0] * kk[1, 1] - kk[0, 1] * kk[1, 0]
        disc = np.sqrt(np.maximum(tr * tr / 4.0 - det, 0.0))
        lam_min = np.minimum(lam_min, (tr / 2.0 - disc).min())
        lam_max = np.maximum(lam_max, (tr / 2.0 + disc).max())
    if not asym <= 1e-12:
        raise ProblemConfigError(f"K^-1 is not symmetric (max |k12 - k21| / "
                                 f"(|k11| + |k22|) = {asym:.3e})")
    if not lam_min > 0.0:
        raise ProblemConfigError(
            f"K^-1 is not positive definite (min eigenvalue {lam_min:.3e})")
    return {"K_m": float(lam_min), "K_M": float(lam_max)}


# ---------------------------------------------------------------------------
# Problems from configuration
# ---------------------------------------------------------------------------

# The keys of a problem spec (see the README's "Problem files").
_SPEC_KEYS = ("name", "domain", "mu", "rho", "beta", "k_inverse", "f", "b",
              "g", "exact_u", "exact_p", "exact_grad_p")


def _pair(exprs, what: str):
    """Two expressions compiled into an (x, y) function of a pair."""
    if not (isinstance(exprs, (list, tuple)) and len(exprs) == 2):
        raise ProblemConfigError(f"{what} must be a pair of expressions")
    first, second = (compile_expression(str(e)) for e in exprs)

    def pair(x, y):
        return first(x, y), second(x, y)

    return pair


def number(value, what: str) -> float:
    """A setting that must be a number: an int or a float (not a bool), or a
    string holding one; anything else is a ProblemConfigError."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ProblemConfigError(f"{what} must be a number, not {value!r}")


def problem_from_config(cfg: dict) -> ProblemSpec:
    """Build a problem from a configuration mapping (see README grammar).

    Raises ProblemConfigError for a spec that is not a mapping, an unknown
    key, a non-numeric mu, rho or beta, a k_inverse that is not a 2x2 list
    of expressions and an expression outside the grammar.
    """
    if not isinstance(cfg, dict):
        raise ProblemConfigError(
            f"a problem spec must be a JSON object, not {type(cfg).__name__}")
    unknown = sorted(set(cfg) - set(_SPEC_KEYS))
    if unknown:
        raise ProblemConfigError(f"unknown problem key {unknown[0]!r} "
                                 f"(known: {', '.join(_SPEC_KEYS)})")
    try:
        domain = cfg.get("domain", "unit-square")
        if domain not in ("unit-square", "l-shape"):
            raise ProblemConfigError(f"unknown domain {domain!r}")

        k_cfg = cfg.get("k_inverse", [["1", "0"], ["0", "1"]])
        if not (isinstance(k_cfg, (list, tuple)) and len(k_cfg) == 2):
            raise ProblemConfigError(
                "k_inverse must be a 2x2 list of expressions")
        row0, row1 = (_pair(row, "each row of k_inverse") for row in k_cfg)

        def k_inverse(x, y):
            # constant when no entry names x or y
            entries = np.broadcast_arrays(*row0(x, y), *row1(x, y))
            return np.reshape(entries, (2, 2) + entries[0].shape)

        g_expr = compile_expression(str(cfg.get("g", "0")))

        def g(x, y, normal):
            return g_expr(x, y)

        exact_u = _pair(cfg["exact_u"], "exact_u") if "exact_u" in cfg \
            else None
        exact_p = compile_expression(str(cfg["exact_p"])) \
            if "exact_p" in cfg else None
        exact_grad_p = None
        if "exact_grad_p" in cfg:
            exact_grad_p = _pair(cfg["exact_grad_p"], "exact_grad_p")
        elif exact_p is not None:
            # fall back to central differences for reporting purposes
            eps = 1e-6

            def exact_grad_p(x, y):
                return ((exact_p(x + eps, y) - exact_p(x - eps, y)) / (2 * eps),
                        (exact_p(x, y + eps) - exact_p(x, y - eps)) / (2 * eps))

        return ProblemSpec(
            name=str(cfg.get("name", "custom")), domain=domain,
            mu=number(cfg.get("mu", 1.0), "mu"),
            rho=number(cfg.get("rho", 1.0), "rho"),
            beta=number(cfg.get("beta", 1.0), "beta"),
            k_inverse=k_inverse, f=_pair(cfg.get("f", ["0", "0"]), "f"),
            b=compile_expression(str(cfg.get("b", "0"))), g=g,
            exact_u=exact_u, exact_p=exact_p, exact_grad_p=exact_grad_p)
    except ExpressionError as exc:
        raise ProblemConfigError(str(exc)) from None
