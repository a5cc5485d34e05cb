"""Discrete spaces, quadrature rules and norm computations.

Velocity lives in the space of piecewise-constant vector fields (one 2-vector
per triangle); pressure in continuous piecewise-linears with zero mean (one
value per vertex).  Both are plain numpy arrays wrapped with their mesh.

Norms that are exact for the discrete spaces (Lp of a piecewise-constant
field, Lp of a piecewise-linear gradient) are computed element by element
without quadrature; everything involving problem data goes through a
quadrature rule of configurable exactness degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle in barycentric coordinates.

    ``points`` has shape (q, 3) with rows summing to one, ``weights`` shape
    (q,) summing to one; the integral over a physical triangle is
    ``area * sum_i w_i f(x_i)``.
    """

    name: str
    degree: int
    points: np.ndarray
    weights: np.ndarray


def _duffy_rule(degree: int) -> QuadratureRule:
    # Map a tensor Gauss-Legendre rule from the unit square onto the
    # triangle via (x, y) = (s, t(1-s)); the Jacobian (1-s) raises the
    # s-degree by one, so npts = ceil((degree + 2) / 2) per direction.
    npts = (degree + 3) // 2
    gx, gw = np.polynomial.legendre.leggauss(npts)
    s = 0.5 * (gx + 1.0)
    w = 0.5 * gw
    ss, tt = np.meshgrid(s, s, indexing="ij")
    ws = np.outer(w * (1.0 - s), w)
    x = ss.ravel()
    y = (tt * (1.0 - ss)).ravel()
    weights = ws.ravel()
    weights = weights / weights.sum()
    points = np.stack([1.0 - x - y, x, y], axis=1)
    return QuadratureRule(f"duffy{npts}x{npts}", degree, points, weights)


def triangle_rule(degree: int) -> QuadratureRule:
    """Symmetric rule exact for polynomials up to the given total degree."""
    if degree <= 1:
        return QuadratureRule("centroid", 1,
                              np.array([[1 / 3, 1 / 3, 1 / 3]]),
                              np.array([1.0]))
    if degree == 2:
        pts = np.array([[2 / 3, 1 / 6, 1 / 6],
                        [1 / 6, 2 / 3, 1 / 6],
                        [1 / 6, 1 / 6, 2 / 3]])
        return QuadratureRule("midorbit3", 2, pts, np.full(3, 1 / 3))
    if degree in (3, 4):
        # Two three-point orbits (the classic 6-point degree-4 rule).
        a1, w1 = 0.445948490915965, 0.223381589678011
        a2, w2 = 0.091576213509771, 0.109951743655322
        pts = []
        wts = []
        for a, w in ((a1, w1), (a2, w2)):
            pts += [[1 - 2 * a, a, a], [a, 1 - 2 * a, a], [a, a, 1 - 2 * a]]
            wts += [w, w, w]
        return QuadratureRule("dunavant6", 4, np.array(pts), np.array(wts))
    return _duffy_rule(degree)


def edge_rule(n_points: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] (weights sum to one)."""
    gx, gw = np.polynomial.legendre.leggauss(n_points)
    return 0.5 * (gx + 1.0), 0.5 * gw


def physical_points(mesh: Mesh, rule: QuadratureRule) -> np.ndarray:
    """Quadrature points mapped to every triangle, shape (m, q, 2)."""
    return rule.points @ mesh.tri_coords()


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

@dataclass
class P0VectorField:
    """Piecewise-constant vector field: one 2-vector per triangle."""

    mesh: Mesh
    values: np.ndarray          # (m, 2)

    @classmethod
    def zero(cls, mesh: Mesh) -> "P0VectorField":
        return cls(mesh, np.zeros((mesh.n_triangles, 2)))

    def copy(self) -> "P0VectorField":
        return P0VectorField(self.mesh, self.values.copy())

    def magnitudes(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=1)


@dataclass
class P1ScalarField:
    """Continuous piecewise-linear scalar field: one value per vertex."""

    mesh: Mesh
    values: np.ndarray          # (n,)

    @classmethod
    def zero(cls, mesh: Mesh) -> "P1ScalarField":
        return cls(mesh, np.zeros(mesh.n_vertices))

    def copy(self) -> "P1ScalarField":
        return P1ScalarField(self.mesh, self.values.copy())


def vertex_weights(mesh: Mesh) -> np.ndarray:
    """Integral of each P1 hat function, i.e. sum of |k|/3 over incident k."""
    w = np.zeros(mesh.n_vertices)
    np.add.at(w, mesh.tris.ravel(), np.repeat(mesh.areas / 3.0, 3))
    return w


def field_mean(field: P1ScalarField) -> float:
    """Mean value of a piecewise-linear field over the domain."""
    mesh = field.mesh
    return float(vertex_weights(mesh) @ field.values / mesh.areas.sum())


def project_mean_zero(field: P1ScalarField) -> P1ScalarField:
    """Shift a piecewise-linear field to zero mean (gradient unchanged)."""
    return P1ScalarField(field.mesh, field.values - field_mean(field))


def p1_gradients(field: P1ScalarField) -> np.ndarray:
    """Elementwise (constant) gradient of a piecewise-linear field, (m, 2)."""
    mesh = field.mesh
    return np.einsum("mld,ml->md", mesh.grads, field.values[mesh.tris])


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def lp_norm(field: P0VectorField, p: float, elements=None) -> float:
    """Exact Lp norm of a piecewise-constant vector field."""
    mags = field.magnitudes()
    areas = field.mesh.areas
    if elements is not None:
        mags = mags[elements]
        areas = areas[elements]
    return float((areas @ mags ** p) ** (1.0 / p))


def gradient_lp_norm(field: P1ScalarField, p: float, elements=None) -> float:
    """Exact Lp norm of the (piecewise-constant) gradient of a P1 field."""
    g = np.linalg.norm(p1_gradients(field), axis=1)
    areas = field.mesh.areas
    if elements is not None:
        g = g[elements]
        areas = areas[elements]
    return float((areas @ g ** p) ** (1.0 / p))


def element_means(mesh: Mesh, fn, rule: QuadratureRule) -> np.ndarray:
    """Mean value of a function on every triangle; (m,) or (m, 2).

    ``fn(x, y)`` must broadcast over arrays; vector-valued functions return a
    pair ``(fx, fy)``.
    """
    pts = physical_points(mesh, rule)
    out = fn(pts[..., 0], pts[..., 1])
    if isinstance(out, tuple):
        fx = np.broadcast_to(out[0], pts.shape[:2])
        fy = np.broadcast_to(out[1], pts.shape[:2])
        return np.stack([fx @ rule.weights, fy @ rule.weights], axis=1)
    return np.broadcast_to(out, pts.shape[:2]) @ rule.weights


def function_lp_norm(mesh: Mesh, fn, p: float, rule: QuadratureRule,
                     elements=None) -> float:
    """Lp norm of a scalar or vector function by quadrature."""
    pts = physical_points(mesh, rule)
    out = fn(pts[..., 0], pts[..., 1])
    if isinstance(out, tuple):
        fx = np.broadcast_to(out[0], pts.shape[:2])
        fy = np.broadcast_to(out[1], pts.shape[:2])
        mag = np.hypot(fx, fy)
    else:
        mag = np.abs(np.broadcast_to(out, pts.shape[:2]))
    cell = (mag ** p) @ rule.weights * mesh.areas
    if elements is not None:
        cell = cell[elements]
    return float(cell.sum() ** (1.0 / p))


def p0_error_lp_norm(field: P0VectorField, fn, p: float,
                     rule: QuadratureRule, elements=None) -> float:
    """Lp norm of ``fn - field`` for a vector function fn, by quadrature."""
    mesh = field.mesh
    pts = physical_points(mesh, rule)
    fx, fy = fn(pts[..., 0], pts[..., 1])
    dx = np.broadcast_to(fx, pts.shape[:2]) - field.values[:, None, 0]
    dy = np.broadcast_to(fy, pts.shape[:2]) - field.values[:, None, 1]
    cell = (np.hypot(dx, dy) ** p) @ rule.weights * mesh.areas
    if elements is not None:
        cell = cell[elements]
    return float(cell.sum() ** (1.0 / p))


def p0_error_element_norms(field: P0VectorField, fn, p: float,
                           rule: QuadratureRule) -> np.ndarray:
    """Per-element Lp norms of ``fn - field``, shape (m,)."""
    mesh = field.mesh
    pts = physical_points(mesh, rule)
    fx, fy = fn(pts[..., 0], pts[..., 1])
    dx = np.broadcast_to(fx, pts.shape[:2]) - field.values[:, None, 0]
    dy = np.broadcast_to(fy, pts.shape[:2]) - field.values[:, None, 1]
    cell = (np.hypot(dx, dy) ** p) @ rule.weights * mesh.areas
    return cell ** (1.0 / p)


def p1_gradient_error_lp_norm(field: P1ScalarField, grad_fn, p: float,
                              rule: QuadratureRule, elements=None) -> float:
    """Lp norm of ``grad_fn - grad(field)`` by quadrature."""
    mesh = field.mesh
    pts = physical_points(mesh, rule)
    gx, gy = grad_fn(pts[..., 0], pts[..., 1])
    gh = p1_gradients(field)
    dx = np.broadcast_to(gx, pts.shape[:2]) - gh[:, None, 0]
    dy = np.broadcast_to(gy, pts.shape[:2]) - gh[:, None, 1]
    cell = (np.hypot(dx, dy) ** p) @ rule.weights * mesh.areas
    if elements is not None:
        cell = cell[elements]
    return float(cell.sum() ** (1.0 / p))


# ---------------------------------------------------------------------------
# Edge means
# ---------------------------------------------------------------------------

def edge_points(mesh: Mesh, edges: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Points at parameters ``ts`` along each edge, shape (len(edges), len(ts), 2)."""
    a = mesh.xy[mesh.edge_vertices[edges, 0]]
    b = mesh.xy[mesh.edge_vertices[edges, 1]]
    return a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]


def boundary_edge_means(mesh: Mesh, g, n_points: int = 4,
                        edges=None) -> np.ndarray:
    """Mean of a boundary function g(x, y, normal) on each boundary edge."""
    if edges is None:
        edges = mesh.boundary_edges
    edges = np.asarray(edges)
    if edges.size and (mesh.edge_tris[edges, 1] >= 0).any():
        bad = int(edges[np.flatnonzero(mesh.edge_tris[edges, 1] >= 0)[0]])
        raise ValueError(f"edge {bad} is interior; boundary data has no trace there")
    ts, ws = edge_rule(n_points)
    pts = edge_points(mesh, edges, ts)
    vals = np.empty(pts.shape[:2])
    for j, e in enumerate(edges):
        vals[j] = np.broadcast_to(
            g(pts[j, :, 0], pts[j, :, 1], mesh.edge_normals[e]), (len(ts),))
    return vals @ ws


def edge_mean(mesh: Mesh, g, edge_id: int, n_points: int = 4) -> float:
    """Mean of a boundary function on a single boundary edge."""
    return float(boundary_edge_means(mesh, g, n_points, np.array([edge_id]))[0])


# ---------------------------------------------------------------------------
# Field dump format
# ---------------------------------------------------------------------------

def dump_p0(field: P0VectorField) -> str:
    lines = [f"p0field {field.mesh.n_triangles}"]
    lines += [f"{float(v[0])!r} {float(v[1])!r}" for v in field.values]
    return "\n".join(lines) + "\n"


def dump_p1(field: P1ScalarField) -> str:
    lines = [f"p1field {field.mesh.n_vertices}"]
    lines += [f"{float(v)!r}" for v in field.values]
    return "\n".join(lines) + "\n"


def load_p0(text: str, mesh: Mesh) -> P0VectorField:
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("#")]
    head = lines[0].split()
    if head[0] != "p0field" or int(head[1]) != mesh.n_triangles:
        raise ValueError("p0field header does not match the mesh")
    vals = np.array([[float(x) for x in l.split()] for l in lines[1:]])
    if vals.shape != (mesh.n_triangles, 2):
        raise ValueError("p0field body does not match the header")
    return P0VectorField(mesh, vals)


def load_p1(text: str, mesh: Mesh) -> P1ScalarField:
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("#")]
    head = lines[0].split()
    if head[0] != "p1field" or int(head[1]) != mesh.n_vertices:
        raise ValueError("p1field header does not match the mesh")
    vals = np.array([float(l.split()[0]) for l in lines[1:]])
    if vals.shape != (mesh.n_vertices,):
        raise ValueError("p1field body does not match the header")
    return P1ScalarField(mesh, vals)
