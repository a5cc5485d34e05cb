"""Independent slow-path oracles used to cross-check the fast solver paths.

Everything here is deliberately written from first principles — dense
matrices, per-element Python loops, hat-function gradients recovered from a
Vandermonde solve instead of the mesh's cached arrays — so that agreement
with the production code is meaningful.  The mesh section keeps the
per-triangle loops that the vectorized edge tables and bisection in
``darcyfem.mesh`` replaced.  The one exception is the last
section: thin wrappers over the production ``Assembler`` that only tests
use.
"""

from dataclasses import dataclass

import numpy as np

from darcyfem.assembly import Assembler
from darcyfem.mesh import MeshConformityError

GL4_T = np.array([0.069431844202974, 0.330009478207572,
                  0.669990521792428, 0.930568155797026])
GL4_W = np.array([0.173927422568727, 0.326072577431273,
                  0.326072577431273, 0.173927422568727])


def hat_gradients(coords):
    """Gradients of the three hat functions on one triangle.

    Solves the 3x3 Vandermonde system [1 x y] c = e_i for each vertex
    instead of the closed rotation formula used by the mesh module.
    """
    v = np.column_stack([np.ones(3), coords])
    inv = np.linalg.inv(v)
    return inv[1:, :].T          # (3, 2); row i is grad of hat_i


def tri_area(coords):
    d1 = coords[1] - coords[0]
    d2 = coords[2] - coords[0]
    return 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])


def tri_quad(f, coords, order=3):
    """Integrate f(x, y) over the triangle with a tensor Gauss rule on the
    collapsed square (exact well beyond the polynomial data used in tests)."""
    total = 0.0
    for s, ws in zip(GL4_T, GL4_W):
        for t, wt in zip(GL4_T, GL4_W):
            lam1, lam2 = s, t * (1.0 - s)
            lam0 = 1.0 - lam1 - lam2
            x = lam0 * coords[0, 0] + lam1 * coords[1, 0] + lam2 * coords[2, 0]
            y = lam0 * coords[0, 1] + lam1 * coords[1, 1] + lam2 * coords[2, 1]
            total += ws * wt * (1.0 - s) * f(x, y)
    return 2.0 * tri_area(coords) * total


def edge_quad(f, a, b):
    length = float(np.hypot(*(b - a)))
    total = 0.0
    for t, w in zip(GL4_T, GL4_W):
        p = a + t * (b - a)
        total += w * f(p[0], p[1])
    return length * total


def boundary_edges(tris):
    """Edges owned by exactly one triangle, with outward orientation."""
    seen = {}
    for k, tri in enumerate(tris):
        for i in range(3):
            a, b = int(tri[i]), int(tri[(i + 1) % 3])
            key = (min(a, b), max(a, b))
            if key in seen:
                seen[key] = None
            else:
                seen[key] = (a, b, k)
    return [v for v in seen.values() if v is not None]


def dense_step_solve(xy, tris, problem, u_prev, alpha):
    """Solve one relaxed fixed-point step as one dense bordered saddle system.

    Unknowns: element velocities (2 per triangle), vertex pressures, and one
    multiplier pinning the area-weighted pressure mean.  No Schur complement,
    no sparse structure, no shared code with the assembly module.
    """
    m = len(tris)
    n = len(xy)
    nu = 2 * m
    size = nu + n + 1
    mat = np.zeros((size, size))
    rhs = np.zeros(size)

    for k, tri in enumerate(tris):
        coords = xy[np.asarray(tri)]
        area = tri_area(coords)
        grads = hat_gradients(coords)
        speed = float(np.hypot(*u_prev[k]))

        a_block = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                a_block[i, j] = tri_quad(
                    lambda x, y, i=i, j=j: problem.k_inverse(x, y)[i][j]
                    * problem.mu / problem.rho, coords)
        a_block += (alpha + problem.beta / problem.rho * speed) * area * np.eye(2)
        mat[2 * k:2 * k + 2, 2 * k:2 * k + 2] = a_block

        for i, vglob in enumerate(tri):
            col = nu + int(vglob)
            # momentum: + grad p tested with constant velocities
            mat[2 * k:2 * k + 2, col] += area * grads[i]
            # mass: INT grad q . u
            mat[col, 2 * k:2 * k + 2] += area * grads[i]

        fx = tri_quad(lambda x, y: float(np.broadcast_to(
            problem.f(np.asarray(x), np.asarray(y))[0], ())), coords)
        fy = tri_quad(lambda x, y: float(np.broadcast_to(
            problem.f(np.asarray(x), np.asarray(y))[1], ())), coords)
        rhs[2 * k] = fx + alpha * area * u_prev[k, 0]
        rhs[2 * k + 1] = fy + alpha * area * u_prev[k, 1]

        vmat = np.column_stack([np.ones(3), coords])
        for i, vglob in enumerate(tri):
            col = nu + int(vglob)
            ci = np.linalg.solve(vmat, np.eye(3)[i])   # hat_i = c0 + c1 x + c2 y
            rhs[col] += -tri_quad(
                lambda x, y, c=ci: float(np.broadcast_to(
                    problem.b(np.asarray(x), np.asarray(y)), ()))
                * (c[0] + c[1] * x + c[2] * y), coords)

    for a, b, k in boundary_edges(tris):
        pa, pb = xy[a], xy[b]
        tang = pb - pa
        normal = np.array([tang[1], -tang[0]])
        normal /= np.linalg.norm(normal)
        # make sure it points away from the owning triangle
        centroid = xy[np.asarray(tris[k])].mean(axis=0)
        if np.dot(normal, 0.5 * (pa + pb) - centroid) < 0:
            normal = -normal
        for vglob, shape in ((a, lambda t: 1.0 - t), (b, lambda t: t)):
            col = nu + vglob
            length = float(np.hypot(*tang))
            acc = 0.0
            for t, w in zip(GL4_T, GL4_W):
                p = pa + t * (pb - pa)
                gval = float(np.broadcast_to(problem.g(
                    np.asarray(p[0]), np.asarray(p[1]), normal), ()))
                acc += w * gval * shape(t)
            rhs[col] += length * acc

    # area-weighted zero-mean constraint on the pressure
    wvec = np.zeros(n)
    for k, tri in enumerate(tris):
        area = tri_area(xy[np.asarray(tri)])
        for vglob in tri:
            wvec[int(vglob)] += area / 3.0
    mat[nu:nu + n, -1] = wvec
    mat[-1, nu:nu + n] = wvec

    sol = np.linalg.solve(mat, rhs)
    u = sol[:nu].reshape(m, 2)
    p = sol[nu:nu + n]
    return u, p


def doerfler_prefix_bruteforce(eta, theta):
    """Smallest marked set by decreasing indicator with sum of squares
    reaching theta^2 of the total; ties broken toward lower element ids."""
    order = sorted(range(len(eta)), key=lambda i: (-eta[i] ** 2, i))
    total = sum(e ** 2 for e in eta)
    acc = 0.0
    marked = []
    for i in order:
        if acc >= theta ** 2 * total and marked:
            break
        marked.append(i)
        acc += eta[i] ** 2
    if total == 0.0:
        return []
    return sorted(marked)


# ---------------------------------------------------------------------------
# Mesh layer: edge tables and bisection as per-triangle loops
# ---------------------------------------------------------------------------

def loop_edge_tables(tris):
    """``(tri_edges, edge_vertices, edge_tris)`` from one pass over the
    triangles with a dict keyed by sorted endpoints; ids in order of first
    traversal.  Raises ``MeshConformityError`` at the first bad traversal."""
    tris = np.asarray(tris, dtype=np.int64)
    m = tris.shape[0]
    edge_id: dict[tuple[int, int], int] = {}
    first_dir: list[tuple[int, int]] = []
    edge_tris_list: list[list[int]] = []
    tri_edges = np.empty((m, 3), dtype=np.int64)
    for k in range(m):
        t = tris[k]
        for i in range(3):
            a, b = int(t[i]), int(t[(i + 1) % 3])
            key = (a, b) if a < b else (b, a)
            e = edge_id.get(key)
            if e is None:
                e = len(first_dir)
                edge_id[key] = e
                first_dir.append((a, b))
                edge_tris_list.append([k, -1])
            else:
                if edge_tris_list[e][1] != -1:
                    raise MeshConformityError(
                        f"edge {key} is shared by more than two triangles")
                if first_dir[e] == (a, b):
                    raise MeshConformityError(
                        f"edge {key} is traversed twice in the same direction "
                        f"(triangles {edge_tris_list[e][0]} and {k} overlap or "
                        f"one of them is misoriented)")
                edge_tris_list[e][1] = k
            tri_edges[k, i] = e
    return (tri_edges, np.array(first_dir, dtype=np.int64),
            np.array(edge_tris_list, dtype=np.int64))


def loop_refine(mesh, marked):
    """``(xy, tris, parent)`` of newest-vertex bisection with closure, built
    child by child in parent order (the mesh's own edge tables are read)."""
    marked = np.asarray(list(marked), dtype=np.int64)
    edge_marked = np.zeros(mesh.n_edges, dtype=bool)
    edge_marked[mesh.tri_edges[marked, 0]] = True
    while True:
        has_marked = edge_marked[mesh.tri_edges].any(axis=1)
        need = has_marked & ~edge_marked[mesh.tri_edges[:, 0]]
        if not need.any():
            break
        edge_marked[mesh.tri_edges[need, 0]] = True

    n = mesh.n_vertices
    midpoint = -np.ones(mesh.n_edges, dtype=np.int64)
    split_edges = np.flatnonzero(edge_marked)
    midpoint[split_edges] = n + np.arange(split_edges.size)
    mid_xy = 0.5 * (mesh.xy[mesh.edge_vertices[split_edges, 0]]
                    + mesh.xy[mesh.edge_vertices[split_edges, 1]])
    new_xy = np.vstack([mesh.xy, mid_xy])

    new_tris: list[tuple[int, int, int]] = []
    parent: list[int] = []
    for k in range(mesh.n_triangles):
        z1, z2, z3 = (int(v) for v in mesh.tris[k])
        e0, e1, e2 = (int(e) for e in mesh.tri_edges[k])
        before = len(new_tris)
        if not edge_marked[e0]:
            new_tris.append((z1, z2, z3))
        else:
            m01 = int(midpoint[e0])
            if edge_marked[e2]:
                m20 = int(midpoint[e2])
                new_tris.append((m01, z3, m20))
                new_tris.append((z1, m01, m20))
            else:
                new_tris.append((z3, z1, m01))
            if edge_marked[e1]:
                m12 = int(midpoint[e1])
                new_tris.append((m01, z2, m12))
                new_tris.append((z3, m01, m12))
            else:
                new_tris.append((z2, z3, m01))
        parent.extend([k] * (len(new_tris) - before))
    return new_xy, np.array(new_tris), np.array(parent, dtype=np.int64)


# ---------------------------------------------------------------------------
# Test conveniences over the production assembly (not independent oracles)
# ---------------------------------------------------------------------------

@dataclass
class DivergenceCoupling:
    """Pressure-velocity coupling B_{jk} = |k| grad(phi_j)|_k, shape (m, 3, 2)."""

    b: np.ndarray


def assemble_step(mesh, problem, u_prev, alpha, volume_degree=4,
                  edge_quad_points=4):
    """Assemble one fixed-point step; returns (blocks, coupling, system)."""
    asm = Assembler(mesh, problem, volume_degree, edge_quad_points)
    system = asm.step(u_prev.values, alpha)
    return system.blocks, DivergenceCoupling(asm.b), system


def einsum_schur(asm, weights):
    """S = B W B^T with the local blocks from one three-operand einsum,
    scattered through the Assembler's pattern; ``Assembler._schur`` must give
    the same bytes."""
    local = np.einsum("mja,mab,mkb->mjk", asm.b, weights, asm.b)
    s = asm._s.copy()
    s.data = np.bincount(asm._scatter, weights=local.ravel(),
                         minlength=asm._s.data.size)
    return s
