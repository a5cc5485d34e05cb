"""Independent slow-path oracles used to cross-check the fast solver paths.

Everything here is deliberately written from first principles — dense
matrices, per-element Python loops, hat-function gradients recovered from a
Vandermonde solve instead of the mesh's cached arrays — so that agreement
with the production code is meaningful.  The mesh section keeps the
per-triangle loops that the vectorized edge tables and bisection in
``darcyfem.mesh`` replaced; the per-step section keeps the gathered,
per-edge forms of the gradients, edge fluxes, step error, indicators and
velocity recovery that the fused step path replaced; the multigrid section
keeps the one-stage Galerkin map that the two-stage maps replaced, the
SciPy SpGEMM build of the hierarchy, the aggregation loop with one neighbour
list per vertex and the ``np.unique`` + ``bincount``
scatter of the Schur matrix, which the maps of :mod:`darcyfem.multigrid`
replaced; the norms section keeps the ``np.hypot`` norms and the per-call
vertex weights that the sampled norms and the mesh's cache replaced, and
a per-element L2 velocity error against the reference solution; the
per-level set-up section keeps the sparse products that formed the
prolongators, the ``np.subtract.at`` load vector and the COO flux matrix,
which index arithmetic replaced, and the stable-argsort and ``searchsorted``
form of ``product_map``, which one packed sort replaced.  The one exception
is the last section: thin wrappers over the production ``Assembler`` that
only tests use.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from darcyfem.assembly import CG_TOL, LOAD_EDGE_POINTS, Assembler
from darcyfem.indicators import OSCILLATION_DEGREE
from darcyfem.mesh import MeshConformityError
from darcyfem.multigrid import MAX_COARSE, STRENGTH_THETA, Pattern, _aggregate
from darcyfem.spaces import (ERROR_QUAD_DEGREE, boundary_samples,
                             physical_points, quadrature_sums, sample,
                             triangle_rule)

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
# Mesh layer: generators, edge tables and bisection as per-triangle loops
# ---------------------------------------------------------------------------

def loop_structured(n):
    """``(xy, tris)`` of ``generate_structured`` filled cell by cell."""
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs)
    xy = np.stack([gx.ravel(), gy.ravel()], axis=1)
    tris = []
    for j in range(n):
        for i in range(n):
            bl = j * (n + 1) + i
            br = bl + 1
            tl = bl + (n + 1)
            tr = tl + 1
            tris.append((bl, br, tr))
            tris.append((bl, tr, tl))
    return xy, np.array(tris)


def loop_lshape(n):
    """``(xy, tris)`` of ``generate_lshape`` filled vertex by vertex and cell
    by cell, skipping the notch."""
    step = 2.0 / (2 * n)
    idx = -np.ones((2 * n + 1, 2 * n + 1), dtype=np.int64)
    coords = []
    for j in range(2 * n + 1):
        for i in range(2 * n + 1):
            if i > n and j > n:
                continue        # strictly inside the notch
            idx[j, i] = len(coords)
            coords.append((i * step, j * step))
    tris = []
    for j in range(2 * n):
        for i in range(2 * n):
            if i >= n and j >= n:
                continue        # cell lies in the notch
            bl = idx[j, i]
            br = idx[j, i + 1]
            tl = idx[j + 1, i]
            tr = idx[j + 1, i + 1]
            tris.append((bl, br, tr))
            tris.append((bl, tr, tl))
    return np.array(coords), np.array(tris)


def interior_edges(mesh):
    """Ids of the edges with a triangle on each side."""
    return np.flatnonzero(mesh.edge_tris[:, 1] >= 0)


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
# Pressure solve: deflated CG that stops at ``tol`` only, and the dense
# projected start
# ---------------------------------------------------------------------------

def tol_only_cg(s, rhs, x0=None, tol=CG_TOL, precond=None):
    """``(x, iterations)`` of deflated (preconditioned) CG stopped at
    ||r|| <= tol ||rhs - mean||, with no forcing term and no finiteness
    checks; ``deflated_cg(..., forcing=0)`` must give the same bytes."""
    n = rhs.shape[0]
    b = rhs - rhs.mean()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n), 0
    x = np.zeros(n) if x0 is None else x0 - x0.mean()
    r = b - s @ x
    r -= r.mean()
    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = float(r @ z)
    if float(np.linalg.norm(r)) <= tol * b_norm:
        return x, 0
    for it in range(1, 10 * n + 1):
        sp_vec = s @ p
        a = rz / float(p @ sp_vec)
        x += a * p
        r -= a * sp_vec
        r -= r.mean()
        if float(np.linalg.norm(r)) <= tol * b_norm:
            return x, it
        z = precond(r) if precond is not None else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("tol_only_cg did not converge")


def dense_projected_start(s, rhs, x0, basis):
    """``(x, r)``: the S-energy-minimal point x0 + D c of x0 + span(D), with
    D = basis, an (n, k) array of columns, and c from the dense system D^T S D c = D^T r0, and its
    mean-free residual; x0 and r0 as :func:`deflated_cg` forms them."""
    s = np.asarray(s.toarray() if sp.issparse(s) else s)
    d = np.asarray(basis, dtype=float)
    x = x0 - x0.mean()
    r0 = (rhs - rhs.mean()) - s @ x
    r0 -= r0.mean()
    c = np.linalg.solve(d.T @ s @ d, d.T @ r0)
    x = x + d @ c
    r = (rhs - rhs.mean()) - s @ x
    return x, r - r.mean()


# ---------------------------------------------------------------------------
# Multigrid and Schur assembly: the forms the sparse maps replaced
# ---------------------------------------------------------------------------

def one_stage_galerkin_map(fine: Pattern, p: sp.csr_matrix):
    """Pattern of P^T A P for any A with pattern ``fine``, and the sparse map
    Q with data(P^T A P) = Q @ data(A).

    The entry A_ij in slot e contributes P_iI A_ij P_jJ to (I, J) for every
    stored P_iI and P_jJ, so Q[slot(I, J), e] = P_iI P_jJ; each (slot, e)
    pair arises once.
    """
    n_coarse = p.shape[1]
    deg = np.diff(p.indptr)
    deg_i = deg[fine.rows]
    deg_j = deg[fine.indices]
    count = deg_i * deg_j
    entry = np.repeat(np.arange(fine.indices.size, dtype=np.int32), count)
    # k enumerates the P_iI P_jJ pairs of one entry, I-major.
    k = np.arange(entry.size) - np.repeat(np.cumsum(count) - count, count)
    deg_j = deg_j[entry]
    ki = p.indptr[fine.rows[entry]] + k // deg_j
    kj = p.indptr[fine.indices[entry]] + k % deg_j
    # There is one term per entry of Q; free each term-sized temporary as
    # soon as it is used, to keep the peak memory of the build down.
    del k, deg_j
    values = p.data[ki] * p.data[kj]
    keys = p.indices[ki].astype(np.int64) * n_coarse + p.indices[kj]
    del ki, kj
    unique_keys, slot = np.unique(keys, return_inverse=True)
    del keys
    indptr = np.searchsorted(unique_keys // n_coarse,
                             np.arange(n_coarse + 1)).astype(np.int32)
    coarse = Pattern(indptr, (unique_keys % n_coarse).astype(np.int32))
    q = sp.csr_matrix((values, (slot, entry)),
                      shape=(unique_keys.size, fine.indices.size))
    return coarse, q


def spgemm_hierarchy(s0: sp.csr_matrix):
    """Sizes and prolongators ``(P, R)`` of the smoothed-aggregation
    hierarchy of ``s0``, with every coarser level formed by the SpGEMM
    R A P and the Jacobi weights from the diagonal and the absolute row sums
    of that product."""
    prolongators = []
    a = s0.tocsr()
    while a.shape[0] > MAX_COARSE:
        n = a.shape[0]
        agg = _aggregate(Pattern(a.indptr, a.indices), a.data)
        n_coarse = int(agg.max()) + 1
        if n_coarse >= n:
            break
        t = sp.csr_matrix((np.ones(n), (np.arange(n), agg)),
                          shape=(n, n_coarse))
        diag = a.diagonal()
        abs_row_sums = np.asarray(abs(a).sum(axis=1)).ravel()
        weights = 4.0 / (3.0 * float(np.max(abs_row_sums / diag))) / diag
        p = (t - sp.diags(weights) @ (a @ t)).tocsr()
        r = p.T.tocsr()
        prolongators.append((p, r))
        a = (r @ a @ p).tocsr()
    sizes = tuple([s0.shape[0]] + [p.shape[1] for p, _ in prolongators])
    return sizes, tuple(prolongators)


def loop_aggregate(pattern: Pattern, data: np.ndarray) -> np.ndarray:
    """``multigrid._aggregate`` with one neighbour list per vertex, every
    pass over all vertices and the third pass of the usual algorithm, which
    groups what passes 1 and 2 left: the aggregates must have the same
    bytes."""
    n, rows, cols = pattern.n, pattern.rows, pattern.indices
    diag = np.abs(data[pattern.diag])
    strong = (rows != cols) & (np.abs(data) >= STRENGTH_THETA
                               * np.sqrt(diag[rows] * diag[cols]))
    graph = sp.csr_matrix((np.ones(int(strong.sum())),
                           (rows[strong], cols[strong])), shape=(n, n))
    ptr = graph.indptr.tolist()
    nbrs = [graph.indices[ptr[i]:ptr[i + 1]].tolist() for i in range(n)]
    agg = [-1] * n
    count = 0
    for i in range(n):
        if agg[i] < 0 and all(agg[j] < 0 for j in nbrs[i]):
            agg[i] = count
            for j in nbrs[i]:
                agg[j] = count
            count += 1
    first = list(agg)
    for i in range(n):
        if agg[i] < 0:
            for j in nbrs[i]:
                if first[j] >= 0:
                    agg[i] = first[j]
                    break
    for i in range(n):
        if agg[i] < 0:
            agg[i] = count
            for j in nbrs[i]:
                if agg[j] < 0:
                    agg[j] = count
            count += 1
    return np.asarray(agg)


def unique_scatter(mesh):
    """Pattern of S = B A^-1 B^T as a zero-data CSR template, and the data
    slot of every local entry, element by element and (a, b) within one,
    from the inverse of ``np.unique`` on the row-major keys."""
    n = mesh.n_vertices
    rows = mesh.tris[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
    cols = mesh.tris[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
    keys = rows.astype(np.int64) * n + cols
    unique_keys, scatter = np.unique(keys, return_inverse=True)
    indices = (unique_keys % n).astype(np.int32)
    indptr = np.searchsorted(unique_keys // n, np.arange(n + 1)).astype(np.int32)
    template = sp.csr_matrix(
        (np.zeros(unique_keys.size), indices, indptr), shape=(n, n))
    return template, scatter


def scatter_schur(mesh, local):
    """S from its (m, 3, 3) local blocks, added slot by slot in element order
    by ``np.bincount`` through :func:`unique_scatter`."""
    template, scatter = unique_scatter(mesh)
    s = template.copy()
    s.data = np.bincount(scatter, weights=local.ravel(),
                         minlength=template.data.size)
    return s


# ---------------------------------------------------------------------------
# Per-step quantities in the forms the fused step path replaced
# ---------------------------------------------------------------------------

def einsum_gradients(mesh, p_values):
    """Elementwise P1 gradients by gathering the vertex values, (m, 2).

    einsum's bytes depend on its operands' layout, so it reads the
    gradients as a C-contiguous (m, 3, 2) copy, not the mesh's strided
    view."""
    return np.einsum("mld,ml->md", np.ascontiguousarray(mesh.grads),
                     p_values[mesh.tris])


def edge_flux(mesh, u_values, g_h):
    """Normal-flux defect per edge: half the jump of u.n across interior
    edges, u.n - g_h on boundary edges, signs after the stored normal."""
    first = mesh.edge_tris[:, 0]
    second = mesh.edge_tris[:, 1]
    un_first = np.einsum("ed,ed->e", u_values[first], mesh.edge_normals)
    flux = un_first - g_h
    interior = second >= 0
    un_second = np.einsum("ed,ed->e", u_values[second[interior]],
                          mesh.edge_normals[interior])
    flux[interior] = 0.5 * (un_first[interior] - un_second)
    return flux


def _lp(mesh, v, q):
    return float(mesh.areas @ np.linalg.norm(v, axis=1) ** q) ** (1.0 / q)


def step_error(mesh, u_new, u_prev, p_new, p_prev):
    """err_L from the two fields' differences: ||u_new - u_prev||_L3 +
    ||grad(p_new - p_prev)||_L3/2 over ||u_new||_L3 + ||grad p_new||_L3/2."""
    denom = _lp(mesh, u_new, 3.0) \
        + _lp(mesh, einsum_gradients(mesh, p_new), 1.5)
    if denom < 1e-300:
        return 0.0
    return (_lp(mesh, u_new - u_prev, 3.0)
            + _lp(mesh, einsum_gradients(mesh, p_new - p_prev), 1.5)) / denom


def step_indicators(ctx, u_new, u_prev, p_new, alpha):
    """``(eta_l, eta_d1, eta_d2)`` per element from the context's data, with
    the gradients gathered, the edge fluxes from :func:`edge_flux` and the
    edge terms gathered per triangle."""
    mesh, pr = ctx.mesh, ctx.problem
    du = u_new - u_prev
    eta_l = np.sqrt(mesh.areas) * np.linalg.norm(du, axis=1)
    c = ctx.f_means - einsum_gradients(mesh, p_new) - alpha * du \
        - (pr.beta / pr.rho) * np.linalg.norm(u_prev, axis=1)[:, None] * u_new
    if ctx.k_const is not None:
        r = c - (pr.mu / pr.rho) * u_new @ ctx.k_const.T
        eta_d1 = np.sqrt(mesh.areas) * np.linalg.norm(r, axis=1)
    else:
        ku = np.einsum("abmq,mb->mqa", ctx.k_samples, u_new)
        r = c[:, None, :] - (pr.mu / pr.rho) * ku
        sq = np.einsum("mqa,mqa->mq", r, r)
        eta_d1 = np.sqrt(mesh.areas * (sq @ ctx._res_rule.weights))
    edge_term = mesh.edge_lengths ** (2.0 / 3.0) \
        * np.abs(edge_flux(mesh, u_new, ctx.g_h))
    eta_d2 = mesh.h_tri * np.abs(ctx.b_means) * np.cbrt(mesh.areas) \
        + edge_term[mesh.tri_edges].sum(axis=1)
    return eta_l, eta_d1, eta_d2


def einsum_recover(asm, system, p_values):
    """u_k = A_k^-1 (F_k - B_k^T p) with B^T p gathered per element."""
    btp = np.einsum("mja,mj->ma", asm.b, p_values[asm.mesh.tris])
    return np.einsum("mab,mb->ma", as_blocks(system.weights), system.f - btp)


def whole_data_means(mesh, problem):
    """``(f_means, osc_f, b_means, osc_b)`` of ``IndicatorContext`` from one
    sampling of all elements at once, each quadrature sum a written-out
    ``np.einsum`` over all rows."""
    rule = triangle_rule(OSCILLATION_DEGREE)
    pts = physical_points(mesh, rule)
    w = rule.weights

    def sums(v):
        return np.einsum("mq,q->m", v, w)

    fx, fy = sample(pts, problem.f)
    f_means = np.stack([sums(fx), sums(fy)], axis=1)
    df = (fx - f_means[:, :1]) ** 2 + (fy - f_means[:, 1:]) ** 2
    osc_f = np.sqrt(mesh.areas * sums(df))
    bv = sample(pts, problem.b)
    b_means = sums(bv)
    osc_b = mesh.h_tri * np.cbrt(
        mesh.areas * sums(np.abs(bv - b_means[:, None]) ** 3))
    return f_means, osc_f, b_means, osc_b


# ---------------------------------------------------------------------------
# Sampled norms and vertex weights in the forms the faster kernels replaced
# ---------------------------------------------------------------------------

def hypot_element_lp(mesh, rule, vx, vy, p, elements=slice(None)):
    """``spaces.element_lp`` with |v| from ``np.hypot`` and then raised to
    the power p, the form that ``(vx^2 + vy^2)^(p/2)`` replaced."""
    return quadrature_sums(np.hypot(vx, vy) ** p, rule.weights) \
        * mesh.areas[elements]


def element_l2_error(mesh, problem, u_values):
    """||exact_u - u||_L2(k) per element of the P0 velocities ``u_values``,
    on the ``ERROR_QUAD_DEGREE`` rule, sampled on the whole mesh at once."""
    rule = triangle_rule(ERROR_QUAD_DEGREE)
    ux, uy = sample(physical_points(mesh, rule), problem.exact_u)
    dx, dy = ux - u_values[:, :1], uy - u_values[:, 1:]
    return np.sqrt(mesh.areas * ((dx * dx + dy * dy) @ rule.weights))


def add_at_vertex_weights(mesh):
    """Integral of each P1 hat function, scattered with ``np.add.at`` on
    every call, as ``spaces.vertex_weights`` formed it before the mesh
    cached it."""
    w = np.zeros(mesh.n_vertices)
    np.add.at(w, mesh.tris.ravel(), np.repeat(mesh.areas / 3.0, 3))
    return w


# ---------------------------------------------------------------------------
# Per-level set-up in the forms that direct index arithmetic replaced
# ---------------------------------------------------------------------------

def spgemm_prolongators(fine: Pattern, data: np.ndarray, agg: np.ndarray):
    """P = T - diags(omega D^-1) @ (A @ T) and R = P^T by scipy's sparse
    products, with T built from COO triplets; P's rows are left in the
    order the products leave them."""
    n = fine.n
    t = sp.csr_matrix((np.ones(n), (np.arange(n), agg)),
                      shape=(n, int(agg.max()) + 1))
    weights = fine.jacobi_weights(data)
    p = (t - sp.diags(weights) @ (fine.matrix(data) @ t)).tocsr()
    return p, p.T.tocsr()


def argsort_product_map(keys, values, entry, n_entries, n_rows, n_cols):
    """``multigrid.product_map`` with numpy's stable argsort of the keys and
    the row pointers from ``np.searchsorted`` over the ``n_rows + 1`` row
    starts."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    keys = keys[first]
    indptr = np.searchsorted(keys // n_cols,
                             np.arange(n_rows + 1)).astype(np.int32)
    indices = (keys % n_cols).astype(np.int32)
    q_indptr = np.append(first, order.size).astype(np.int32)
    q = sp.csr_matrix((values[order], entry[order], q_indptr),
                      shape=(keys.size, n_entries))
    return indptr, indices, q


def subtract_at_load(asm, edge_quad_points=LOAD_EDGE_POINTS):
    """The load vector H of ``asm``: the interior terms subtracted from zero
    one by one with ``np.subtract.at``, then the boundary endpoint terms
    added in edge order."""
    mesh = asm.mesh
    h = np.zeros(mesh.n_vertices)
    np.subtract.at(h, mesh.tris.ravel(), asm._b_phi.ravel())
    edges, ts, ews, gv = boundary_samples(mesh, asm.problem.g,
                                          edge_quad_points)
    le = mesh.edge_lengths[edges]
    ends = np.stack([le * ((gv * (1.0 - ts)) @ ews),
                     le * ((gv * ts) @ ews)], axis=1)
    np.add.at(h, mesh.edge_vertices[edges].ravel(), ends.ravel())
    return h


def coo_flux(mesh):
    """The edge-flux matrix F of :class:`IndicatorContext` from COO
    triplets: every edge's first triangle with the normal (halved on
    interior edges), the second with its negative."""
    first, second = mesh.edge_tris.T
    interior = np.flatnonzero(second >= 0)
    scaled = mesh.edge_normals.copy()
    scaled[interior] *= 0.5
    rows = np.concatenate([np.repeat(np.arange(mesh.n_edges), 2),
                           np.repeat(interior, 2)])
    cols = np.concatenate([(2 * first[:, None] + [0, 1]).ravel(),
                           (2 * second[interior, None] + [0, 1]).ravel()])
    return sp.csr_matrix(
        (np.concatenate([scaled.ravel(), -scaled[interior].ravel()]),
         (rows, cols)), shape=(mesh.n_edges, 2 * mesh.n_triangles))


# ---------------------------------------------------------------------------
# Test conveniences over the production assembly (not independent oracles)
# ---------------------------------------------------------------------------

@dataclass
class DivergenceCoupling:
    """Pressure-velocity coupling B_{jk} = |k| grad(phi_j)|_k, shape (m, 3, 2)."""

    b: np.ndarray


def assemble_step(mesh, problem, u_prev, alpha, volume_degree=4,
                  edge_quad_points=4):
    """Assemble one fixed-point step; returns (weights, coupling, system)."""
    asm = Assembler(mesh, problem, volume_degree, edge_quad_points)
    system = asm.step(u_prev.values, alpha)
    return system.weights, DivergenceCoupling(asm.b), system


def as_blocks(rows):
    """The (m, 2, 2) view of per-element 2x2 blocks stored as (4, m) rows
    of the entries 00, 01, 10, 11."""
    return rows.T.reshape(-1, 2, 2)


def element_matrices(asm, drag):
    """A_k = K-term + d_k |k| I for the drag weights ``drag``, (m, 2, 2)."""
    return as_blocks(asm._k_rows) \
        + (drag * asm.mesh.areas)[:, None, None] * np.eye(2)


def einsum_schur(asm, weights):
    """S = B W B^T for (4, m) weight rows, with the local blocks from one
    three-operand einsum, added by :func:`scatter_schur`;
    ``Assembler._schur`` must give the same bytes."""
    local = np.einsum("mja,mab,mkb->mjk", asm.b, as_blocks(weights), asm.b)
    return scatter_schur(asm.mesh, local)

