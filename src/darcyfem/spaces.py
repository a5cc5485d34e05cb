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

import functools
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# Degree of the volume rule of errors against a reference solution.
ERROR_QUAD_DEGREE = 10


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle in barycentric coordinates.

    ``points`` has shape (q, 3) with rows summing to one, ``weights`` shape
    (q,) summing to one; the integral over a physical triangle is
    ``area * sum_i w_i f(x_i)``.  Rules are cached and shared, so both
    arrays are read-only.
    """

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
    return QuadratureRule(degree, points, weights)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@functools.lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Symmetric rule exact for polynomials up to the given total degree."""
    rule = _triangle_rule(degree)
    _read_only(rule.points, rule.weights)
    return rule


def _triangle_rule(degree: int) -> QuadratureRule:
    if degree in (3, 4):
        # Two three-point orbits (the classic 6-point degree-4 rule).
        a1, w1 = 0.445948490915965, 0.223381589678011
        a2, w2 = 0.091576213509771, 0.109951743655322
        pts = []
        wts = []
        for a, w in ((a1, w1), (a2, w2)):
            pts += [[1 - 2 * a, a, a], [a, 1 - 2 * a, a], [a, a, 1 - 2 * a]]
            wts += [w, w, w]
        return QuadratureRule(4, np.array(pts), np.array(wts))
    return _duffy_rule(degree)


@functools.lru_cache(maxsize=None)
def edge_rule(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1] (weights sum to one);
    cached and shared, so both arrays are read-only."""
    gx, gw = np.polynomial.legendre.leggauss(n_points)
    ts, ws = 0.5 * (gx + 1.0), 0.5 * gw
    _read_only(ts, ws)
    return ts, ws


def physical_points(mesh: Mesh, rule: QuadratureRule,
                    elements=slice(None)) -> np.ndarray:
    """Quadrature points mapped to the selected triangles (all by default),
    shape (m, q, 2)."""
    return rule.points @ mesh.xy[mesh.tris[elements]]


def quadrature_sums(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-element sums ``sum_i w_i v_ki`` of samples ``values`` (m, q)
    against a rule's ``weights`` (q,).

    ``np.einsum`` adds each row on its own, in the order of its q samples,
    so a row's sum has the same bytes whichever call, block or batch it is
    formed in.  A BLAS matrix-vector product (``values @ weights``) does
    not: it forms rows in groups and a one-row product as a dot product.
    """
    return np.einsum("mq,q->m", values, weights)


# Elements per block where data are sampled at many points per element
# (the degree-10 rules): bounds the peak memory.
SAMPLE_BLOCK = 1024


def sample_blocks(mesh: Mesh) -> list[slice]:
    """Slices of at most ``SAMPLE_BLOCK`` consecutive elements covering the
    mesh."""
    return [slice(lo, lo + SAMPLE_BLOCK)
            for lo in range(0, mesh.n_triangles, SAMPLE_BLOCK)]


class ElementCarry:
    """Which per-element rows of a set-up on ``mesh`` are sampled, and which
    are copied from the same set-up on ``coarse``, the mesh that
    :func:`~darcyfem.mesh.refine` made ``mesh`` from.

    Without ``coarse`` every element is sampled: a fresh build, in one call
    (``sampled``) or in ``SAMPLE_BLOCK`` blocks (``blocks``).  With it, each
    unsplit child (``kept``: the single child of its parent, which keeps
    the parent's row of ``tris``) copies its parent's rows, and only the
    other children (``sampled``) are sampled.  Every per-element value is
    formed row by row (:func:`quadrature_sums`), so carried and sampled
    values have the bytes of a fresh build.  Raises ValueError when
    ``mesh`` was not refined from ``coarse``.
    """

    def __init__(self, mesh: Mesh, coarse: Mesh | None = None):
        self.mesh = mesh
        self.kept = self.src = np.empty(0, dtype=np.int64)
        self.sampled: slice | np.ndarray = slice(None)
        if coarse is None:
            return
        m = mesh.n_triangles
        parent = mesh.parent
        if parent is None or parent.shape != (m,) \
                or mesh.n_vertices < coarse.n_vertices \
                or parent.min() < 0 or parent.max() >= coarse.n_triangles:
            raise ValueError("the mesh was not refined from the parent's mesh")
        single = np.bincount(parent, minlength=coarse.n_triangles)[parent] == 1
        if not (np.array_equal(mesh.tris[single], coarse.tris[parent[single]])
                and np.array_equal(mesh.xy[:coarse.n_vertices], coarse.xy)):
            raise ValueError("the mesh was not refined from the parent's mesh")
        self.kept = np.flatnonzero(single)
        self.src = parent[self.kept]
        self.sampled = np.flatnonzero(~single)

    def blocks(self) -> list:
        """The sampled elements in calls of at most ``SAMPLE_BLOCK``."""
        if isinstance(self.sampled, slice):
            return sample_blocks(self.mesh)
        return [self.sampled[lo:lo + SAMPLE_BLOCK]
                for lo in range(0, self.sampled.size, SAMPLE_BLOCK)]

    def start(self, coarse_values: np.ndarray | None, shape: tuple,
              axis: int = 0) -> np.ndarray:
        """A new array of ``shape``, elements along ``axis``, whose kept
        elements hold their parents' values from ``coarse_values``; the
        caller fills the sampled ones."""
        out = np.empty(shape)
        if self.kept.size:
            at = (slice(None),) * axis
            out[at + (self.kept,)] = coarse_values[at + (self.src,)]
        return out


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean length of each row of an (m, 2) array.

    The same values as ``np.linalg.norm(v, axis=1)``, and faster; like it,
    no scaling against overflow.
    """
    out = v[:, 0] * v[:, 0]
    out += v[:, 1] * v[:, 1]
    return np.sqrt(out, out=out)


@dataclass
class P0VectorField:
    """Piecewise-constant vector field: one 2-vector per triangle."""

    mesh: Mesh
    values: np.ndarray          # (m, 2)

    def magnitudes(self) -> np.ndarray:
        return row_norms(self.values)


@dataclass
class P1ScalarField:
    """Continuous piecewise-linear scalar field: one value per vertex."""

    mesh: Mesh
    values: np.ndarray          # (n,)


def field_mean(field: P1ScalarField) -> float:
    """Mean value of a piecewise-linear field over the domain."""
    mesh = field.mesh
    return float(mesh.vertex_weights @ field.values / mesh.domain_area)


def project_mean_zero(field: P1ScalarField) -> P1ScalarField:
    """Shift a piecewise-linear field to zero mean (gradient unchanged)."""
    return P1ScalarField(field.mesh, field.values - field_mean(field))


def p1_gradients(field: P1ScalarField) -> np.ndarray:
    """Elementwise (constant) gradient of a piecewise-linear field, (m, 2)."""
    return (field.mesh.gradient_operator @ field.values).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def lp_norm(field: P0VectorField, p: float) -> float:
    """Exact Lp norm of a piecewise-constant vector field."""
    return float((field.mesh.areas @ field.magnitudes() ** p) ** (1.0 / p))


def gradient_lp_norm(field: P1ScalarField, p: float) -> float:
    """Exact Lp norm of the (piecewise-constant) gradient of a P1 field."""
    g = row_norms(p1_gradients(field))
    return float((field.mesh.areas @ g ** p) ** (1.0 / p))


def sample(pts: np.ndarray, fn):
    """Values of ``fn(x, y)`` at mapped quadrature points ``pts`` (m, q, 2).

    A scalar function gives one (m, q) array, a vector function the pair
    ``(fx, fy)`` of (m, q) arrays; constant returns are broadcast.
    """
    out = fn(pts[..., 0], pts[..., 1])
    if isinstance(out, tuple):
        return tuple(np.broadcast_to(c, pts.shape[:2]) for c in out)
    return np.broadcast_to(out, pts.shape[:2])


def element_lp(mesh: Mesh, rule: QuadratureRule, vx: np.ndarray,
               vy: np.ndarray, p: float, elements=slice(None)) -> np.ndarray:
    """Per-element INT_k |v|^p by quadrature of v sampled as (m, q) arrays
    on the selected elements (all by default).

    |v|^p is formed as (vx^2 + vy^2)^(p/2), with one power and no hypot:
    on degree-10 samples those two are the costly kernels.  Like
    :func:`row_norms`, no scaling against overflow.
    """
    return quadrature_sums((vx * vx + vy * vy) ** (0.5 * p), rule.weights) \
        * mesh.areas[elements]


# ---------------------------------------------------------------------------
# Boundary data
# ---------------------------------------------------------------------------

def boundary_samples(mesh: Mesh, g, n_points: int):
    """Samples of ``g(x, y, normal)`` at Gauss points of the boundary edges.

    Returns ``(edges, ts, ws, vals)``: the boundary edge ids, the edge rule
    on [0, 1] and the samples, shape (len(edges), n_points), from a single
    call of g.  ``normal`` is the (2, len(edges), 1) array of outward unit
    normals, so ``normal[0]`` and ``normal[1]`` broadcast against x and y.
    """
    edges = mesh.boundary_edges
    ts, ws = edge_rule(n_points)
    a = mesh.xy[mesh.edge_vertices[edges, 0]]
    b = mesh.xy[mesh.edge_vertices[edges, 1]]
    pts = a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]
    normal = mesh.edge_normals[edges].T[:, :, None]
    vals = np.broadcast_to(g(pts[..., 0], pts[..., 1], normal), pts.shape[:2])
    return edges, ts, ws, vals


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


def _load_field(text: str, kind: str, size: int, width: int) -> np.ndarray:
    """The (size, width) values of a ``<kind> <size>`` field dump; raises
    ValueError for a missing, short or non-integer header, a count other
    than ``size`` and a body that does not match it."""
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("#")]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != kind:
        raise ValueError(f"expected a '{kind} <count>' header")
    try:
        count = int(head[1])
    except ValueError:
        raise ValueError(f"{kind} count is not an integer") from None
    if count != size:
        raise ValueError(f"{kind} header does not match the mesh")
    vals = np.array([[float(x) for x in l.split()] for l in lines[1:]])
    if vals.shape != (size, width):
        raise ValueError(f"{kind} body does not match the header")
    return vals


def load_p0(text: str, mesh: Mesh) -> P0VectorField:
    return P0VectorField(
        mesh, _load_field(text, "p0field", mesh.n_triangles, 2))


def load_p1(text: str, mesh: Mesh) -> P1ScalarField:
    return P1ScalarField(
        mesh, _load_field(text, "p1field", mesh.n_vertices, 1)[:, 0])
