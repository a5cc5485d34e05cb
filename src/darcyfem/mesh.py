"""Conforming triangulations of polygonal domains.

The mesh is stored struct-of-arrays style (vertex coordinates, triangle
connectivity, derived edge tables).  Triangles are counter-clockwise and
carry their refinement edge positionally: the refinement edge of triangle
``(v0, v1, v2)`` is ``(v0, v1)``.
On input meshes the refinement edge is seeded as the longest edge; refinement
follows newest-vertex bisection with conforming closure, so each bisection
hands the two old non-refinement edges down to the children.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class MeshFormatError(ValueError):
    """Raised when a mesh file cannot be parsed."""


class MeshConformityError(ValueError):
    """Raised when a triangulation is not a conforming mesh."""


@dataclass
class Mesh:
    """Conforming triangulation.

    Attributes
    ----------
    xy : (n, 2) float array
        Vertex coordinates.
    tris : (m, 3) int array
        Vertex indices per triangle, counter-clockwise; the local refinement
        edge is ``(tris[k, 0], tris[k, 1])``.
    tri_edges : (m, 3) int array
        Edge ids per triangle; local edge ``i`` joins local vertices ``i`` and
        ``(i + 1) % 3``, so the refinement edge is ``tri_edges[k, 0]``.
    edge_vertices : (E, 2) int array
        Edge endpoints as first traversed (by the first adjacent triangle).
    edge_tris : (E, 2) int array
        Adjacent triangles, ``-1`` in the second slot on the boundary.
    edge_normals : (E, 2) float array
        Unit normals pointing out of the first adjacent triangle; on boundary
        edges this is the outward normal of the domain.

    parent : (m,) int array or None
        On a mesh returned by :func:`refine`: per triangle, the triangle of
        the coarser mesh it came from (the same triangle when that one was
        not bisected).  None on meshes not made by refinement.
    split_edges : (s, 2) int array or None
        On a mesh returned by :func:`refine`: the end vertices of each
        bisected edge of the coarser mesh; the midpoint of row ``i`` is
        vertex ``n_coarse + i``.  None on meshes not made by refinement.

    The remaining arrays cache areas, element diameters, edge lengths and P1
    hat function gradients; the domain area, the P1 vertex
    weights and the gradient operator are formed on first use.  Instances
    are treated as immutable; refinement returns a new mesh.
    """

    xy: np.ndarray
    tris: np.ndarray
    tri_edges: np.ndarray
    edge_vertices: np.ndarray
    edge_tris: np.ndarray
    areas: np.ndarray
    h_tri: np.ndarray
    grads: np.ndarray
    edge_lengths: np.ndarray
    edge_normals: np.ndarray
    parent: np.ndarray | None = None
    split_edges: np.ndarray | None = None

    # -- basic counts ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.xy.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.tris.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_vertices.shape[0]

    @property
    def boundary_edge_mask(self) -> np.ndarray:
        return self.edge_tris[:, 1] < 0

    @property
    def boundary_edges(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_edge_mask)

    @property
    def h_max(self) -> float:
        return float(self.h_tri.max())

    @cached_property
    def domain_area(self) -> float:
        """Sum of the triangle areas, formed on first use."""
        return float(self.areas.sum())

    @cached_property
    def vertex_weights(self) -> np.ndarray:
        """Integral of each P1 hat function, the sum of |k|/3 over the
        triangles k at the vertex; formed on first use and read-only."""
        w = np.zeros(self.n_vertices)
        np.add.at(w, self.tris.ravel(), np.repeat(self.areas / 3.0, 3))
        w.flags.writeable = False
        return w

    @cached_property
    def gradient_operator(self) -> sp.csr_matrix:
        """Sparse (2m, n) map from vertex values to the elementwise P1
        gradients, rows ordered (k, x), (k, y); built on first use.

        Each row keeps the triangle's local vertex order, so a product sums
        the three hat-gradient terms in that order.  Its data is the
        contiguous (m, 2, 3) buffer that ``grads`` views, not a copy.
        """
        m, n = self.n_triangles, self.n_vertices
        return sp.csr_matrix(
            (self.grads.transpose(0, 2, 1).ravel(),
             np.repeat(self.tris, 2, axis=0).ravel().astype(np.int32),
             np.arange(0, 6 * m + 1, 3, dtype=np.int32)),
            shape=(2 * m, n))


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def _rotate_longest_edge_first(xy, tris):
    """Cyclically reorder each triangle so its longest edge comes first.

    Ties go to the smallest local edge index, so the labeling is
    deterministic.  Cyclic rotation keeps the orientation.
    """
    p = xy[tris]                              # (m, 3, 2)
    lengths = np.stack([
        np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
        np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
        np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
    ], axis=1)
    k = np.argmax(lengths, axis=1)
    rolled = tris.copy()
    for shift in (1, 2):
        sel = k == shift
        rolled[sel] = np.roll(tris[sel], -shift, axis=1)
    return rolled


def stable_sort(keys: np.ndarray, bound: int):
    """``(order, keys[order])`` for integer ``keys`` in [0, bound), with
    ``order = np.argsort(keys, kind="stable")``.

    Each key is packed with its position into one int64,
    ``(key << b) | position`` with b the bit length of ``keys.size - 1``.
    The packed values are unique, so numpy's default (SIMD quicksort) sort
    of them is deterministic and gives the stable order, which is the low b
    bits; the sorted keys are the high bits.  This is several times faster
    than the stable argsort (timsort) on the scrambled keys of graded
    meshes.  Keys that do not fit beside their positions in 63 bits take the
    stable argsort.
    """
    b = (keys.size - 1).bit_length()
    if (int(bound) - 1).bit_length() + b > 63:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    order = np.arange(keys.size)
    packed = keys.astype(np.int64)
    packed <<= b
    packed |= order
    packed.sort()
    np.bitwise_and(packed, (1 << b) - 1, out=order)
    packed >>= b
    return order, packed.astype(keys.dtype, copy=False)


def _edge_tables(tris, n):
    """``(tri_edges, edge_vertices, edge_tris)`` of a counter-clockwise mesh.

    Edges get ids in order of first traversal (triangle by triangle, local
    edge by local edge); a conforming mesh traverses every interior edge
    exactly twice, in opposite directions.  Sorting the sorted endpoint key
    with :func:`stable_sort` lists each edge's traversals in traversal
    order; the first bad traversal in that order is reported.
    """
    m = tris.shape[0]
    a = tris.ravel()                       # traversal j = 3 k + i runs a -> b
    b = tris[:, (1, 2, 0)].ravel()
    key = np.minimum(a, b) * n + np.maximum(a, b)
    order, skey = stable_sort(key, n * n)
    starts = np.flatnonzero(np.r_[True, skey[1:] != skey[:-1]])
    sizes = np.diff(np.r_[starts, skey.size])
    group = np.repeat(np.arange(starts.size), sizes)
    rank = np.arange(skey.size) - starts[group]
    first = order[starts]                  # first traversal of each edge

    # A third traversal, or a second one in the first one's direction.
    bad = (rank >= 2) | ((rank == 1) & (a[order] == a[first[group]]))
    if bad.any():
        pos = np.flatnonzero(bad)
        p = pos[np.argmin(order[pos])]
        j = int(order[p])
        edge = (int(min(a[j], b[j])), int(max(a[j], b[j])))
        if rank[p] >= 2:
            raise MeshConformityError(
                f"edge {edge} is shared by more than two triangles")
        raise MeshConformityError(
            f"edge {edge} is traversed twice in the same direction "
            f"(triangles {int(first[group[p]]) // 3} and {j // 3} overlap or "
            f"one of them is misoriented)")

    by_first = np.argsort(first)           # edge id -> group
    edge_id = np.empty(starts.size, dtype=np.int64)
    edge_id[by_first] = np.arange(starts.size)
    tri_edges = np.empty(3 * m, dtype=np.int64)
    tri_edges[order] = edge_id[group]

    j0 = first[by_first]
    edge_vertices = np.stack([a[j0], b[j0]], axis=1)
    second = np.full(starts.size, -1, dtype=np.int64)
    paired = sizes[by_first] == 2
    second[paired] = order[starts[by_first][paired] + 1] // 3
    edge_tris = np.stack([j0 // 3, second], axis=1)
    return tri_edges.reshape(m, 3), edge_vertices, edge_tris


def _build(xy, tris, seed_refinement_edges=False) -> Mesh:
    xy = np.ascontiguousarray(np.asarray(xy, dtype=np.float64))
    tris = np.ascontiguousarray(np.asarray(tris, dtype=np.int64))
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise MeshFormatError("vertex array must have shape (n, 2)")
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshFormatError("triangle array must have shape (m, 3)")
    n = xy.shape[0]
    m = tris.shape[0]
    if m == 0:
        raise MeshConformityError("mesh has no triangles")
    if tris.min() < 0 or tris.max() >= n:
        k = int(np.flatnonzero((tris < 0).any(axis=1) | (tris >= n).any(axis=1))[0])
        raise MeshConformityError(f"triangle {k} references a vertex out of range")
    repeated = (tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2]) \
        | (tris[:, 2] == tris[:, 0])
    if repeated.any():
        k = int(np.flatnonzero(repeated)[0])
        raise MeshConformityError(f"triangle {k} has a repeated vertex")

    used = np.zeros(n, dtype=bool)
    used[tris.ravel()] = True
    if not used.all():
        raise MeshConformityError(f"dangling vertex {int(np.flatnonzero(~used)[0])}")

    p = xy[tris]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    if (signed <= 0.0).any():
        k = int(np.flatnonzero(signed <= 0.0)[0])
        kind = "degenerate" if signed[k] == 0.0 else "inverted (clockwise)"
        raise MeshConformityError(f"triangle {k} is {kind}")

    if seed_refinement_edges:
        tris = _rotate_longest_edge_first(xy, tris)
        p = xy[tris]

    tri_edges, edge_vertices, edge_tris = _edge_tables(tris, n)
    areas = signed

    # P1 hat gradients: grad(lambda_i) = rot90(p_{i+2} - p_{i+1}) / (2A),
    # stored (m, 2, 3) so that the gradient operator's data is this buffer;
    # ``grads`` is its (m, 3, 2) view.
    grads = np.empty((m, 2, 3)).transpose(0, 2, 1)
    for i in range(3):
        d = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -d[:, 1]
        grads[:, i, 1] = d[:, 0]
    grads /= (2.0 * areas)[:, None, None]

    dvec = xy[edge_vertices[:, 1]] - xy[edge_vertices[:, 0]]
    edge_lengths = np.linalg.norm(dvec, axis=1)
    edge_normals = np.stack([dvec[:, 1], -dvec[:, 0]], axis=1) / edge_lengths[:, None]

    return Mesh(xy=xy, tris=tris, tri_edges=tri_edges,
                edge_vertices=edge_vertices, edge_tris=edge_tris,
                areas=areas, h_tri=edge_lengths[tri_edges].max(axis=1),
                grads=grads, edge_lengths=edge_lengths,
                edge_normals=edge_normals)


def from_arrays(xy, tris) -> Mesh:
    """Build a mesh from raw arrays, seeding refinement edges (longest edge)."""
    return _build(xy, tris, seed_refinement_edges=True)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_structured(n: int) -> Mesh:
    """Structured triangulation of the unit square.

    The square is split into ``n x n`` cells, each cut along the
    bottom-left/top-right diagonal, giving ``2 n^2`` triangles and
    ``(n + 1)^2`` vertices with diameter ``h = sqrt(2) / n``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs)
    xy = np.stack([gx.ravel(), gy.ravel()], axis=1)

    j, i = np.divmod(np.arange(n * n), n)          # cells, row by row
    bl = j * (n + 1) + i
    return _build(xy, _cell_triangles(bl, bl + 1, bl + (n + 1), bl + (n + 2)),
                  seed_refinement_edges=True)


def _cell_triangles(bl, br, tl, tr):
    """Two triangles per cell, cut along the bl-tr diagonal, cell by cell."""
    return np.stack([bl, br, tr, bl, tr, tl], axis=1).reshape(-1, 3)


def generate_lshape(n: int) -> Mesh:
    """Structured triangulation of the L-shaped polygon
    (0,0), (2,0), (2,1), (1,1), (1,2), (0,2).

    The grid spacing is ``1 / n``; cells in the removed quadrant
    (x > 1 and y > 1) are dropped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    step = 1.0 / n
    j, i = np.divmod(np.arange((2 * n + 1) ** 2), 2 * n + 1)
    kept = ~((i > n) & (j > n))          # drop vertices strictly in the notch
    idx = np.full(kept.size, -1, dtype=np.int64)
    idx[kept] = np.arange(np.count_nonzero(kept))
    idx = idx.reshape(2 * n + 1, 2 * n + 1)
    xy = np.stack([i[kept] * step, j[kept] * step], axis=1)

    j, i = np.divmod(np.arange(4 * n * n), 2 * n)
    cell = ~((i >= n) & (j >= n))        # drop cells in the notch
    j, i = j[cell], i[cell]
    return _build(xy, _cell_triangles(idx[j, i], idx[j, i + 1],
                                      idx[j + 1, i], idx[j + 1, i + 1]),
                  seed_refinement_edges=True)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def load_mesh(text: str) -> Mesh:
    """Parse the plain-text mesh format.

    The format is line based: a ``vertices <n>`` header followed by ``n``
    lines of ``x y boundary_flag``, then a ``triangles <m>`` header followed
    by ``m`` lines of three 0-based vertex ids (counter-clockwise).  ``#``
    starts a comment.  Boundary edges are re-detected from connectivity, so
    the vertex flags are informational.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    pos = 0

    def take(expect: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            raise MeshFormatError(f"unexpected end of file, expected '{expect}'")
        lineno, content = lines[pos]
        pos += 1
        return lineno, content.split()

    def count(expect: str, what: str) -> int:
        """The count of an ``expect`` header, refused before anything is
        allocated when it is negative or exceeds the lines that follow."""
        lineno, head = take(expect)
        if len(head) != 2 or head[0] != expect.split()[0]:
            raise MeshFormatError(f"line {lineno}: expected '{expect}'")
        try:
            k = int(head[1])
        except ValueError:
            raise MeshFormatError(
                f"line {lineno}: {what} count is not an integer") from None
        if k < 0:
            raise MeshFormatError(f"line {lineno}: {what} count {k} is negative")
        if k > len(lines) - pos:
            raise MeshFormatError(f"line {lineno}: {what} count {k} exceeds "
                                  f"the {len(lines) - pos} lines that follow")
        return k

    n = count("vertices <n>", "vertex")
    xy = np.empty((n, 2))
    for i in range(n):
        lineno, parts = take("x y boundary_flag")
        if len(parts) != 3:
            raise MeshFormatError(
                f"line {lineno}: vertex {i} needs 'x y boundary_flag'")
        try:
            xy[i, 0] = float(parts[0])
            xy[i, 1] = float(parts[1])
            int(parts[2])
        except ValueError:
            raise MeshFormatError(f"line {lineno}: vertex {i} is malformed") from None

    m = count("triangles <m>", "triangle")
    tris = np.empty((m, 3), dtype=np.int64)
    for k in range(m):
        lineno, parts = take("v0 v1 v2")
        if len(parts) != 3:
            raise MeshFormatError(f"line {lineno}: triangle {k} needs three vertex ids")
        try:
            tris[k] = [int(v) for v in parts]
        except ValueError:
            raise MeshFormatError(f"line {lineno}: triangle {k} is malformed") from None

    if pos != len(lines):
        lineno, _ = lines[pos]
        raise MeshFormatError(f"line {lineno}: trailing content after triangle list")

    return _build(xy, tris, seed_refinement_edges=True)


def save_mesh(mesh: Mesh) -> str:
    """Serialize a mesh to the plain-text format accepted by load_mesh."""
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[mesh.edge_vertices[mesh.boundary_edges].ravel()] = True
    out = [f"vertices {mesh.n_vertices}"]
    for i in range(mesh.n_vertices):
        flag = 1 if on_boundary[i] else 0
        out.append(f"{float(mesh.xy[i, 0])!r} {float(mesh.xy[i, 1])!r} {flag}")
    out.append(f"triangles {mesh.n_triangles}")
    for k in range(mesh.n_triangles):
        t = mesh.tris[k]
        out.append(f"{t[0]} {t[1]} {t[2]}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Newest-vertex bisection with conforming closure
# ---------------------------------------------------------------------------

def refine(mesh: Mesh, marked: "np.ndarray | list[int]") -> Mesh:
    """Bisect the marked triangles, closing the mesh to stay conforming.

    Marking a triangle marks its refinement edge for splitting; the closure
    then marks the refinement edge of every triangle that has any marked
    edge, until stable.  Each triangle is bisected according to which of its
    edges are marked (1, 2 or 3 marked edges give 2, 3 or 4 children), the
    refinement edge always first, so the result has no hanging nodes.

    The old vertices keep their ids and the midpoints of the split edges are
    appended in edge-id order: ``split_edges[i]`` on the returned mesh holds
    the endpoints of the edge whose midpoint is vertex
    ``mesh.n_vertices + i``.  Children replace their parent in triangle
    order, and ``parent[c]`` on the returned mesh is the triangle of ``mesh``
    that child ``c`` came from (an unsplit triangle is its own single child).
    The output is deterministic; with nothing marked it is a copy of
    ``mesh`` with the identity parent map and no split edges.  ``marked``
    holds triangle ids: a boolean mask, or any other non-integer dtype, is
    a ValueError.
    """
    marked = np.asarray(list(marked))
    if marked.size and not np.issubdtype(marked.dtype, np.integer):
        raise ValueError(f"marked must hold integer triangle ids, "
                         f"not {marked.dtype}")
    marked = marked.astype(np.int64, copy=False)
    if marked.size == 0:
        return replace(mesh, parent=np.arange(mesh.n_triangles),
                       split_edges=np.empty((0, 2), dtype=np.int64))
    if marked.min() < 0 or marked.max() >= mesh.n_triangles:
        raise ValueError("marked triangle id out of range")

    edge_marked = np.zeros(mesh.n_edges, dtype=bool)
    edge_marked[mesh.tri_edges[marked, 0]] = True

    # Closure: a triangle with any marked edge must split its refinement edge.
    while True:
        has_marked = edge_marked[mesh.tri_edges].any(axis=1)
        need = has_marked & ~edge_marked[mesh.tri_edges[:, 0]]
        if not need.any():
            break
        edge_marked[mesh.tri_edges[need, 0]] = True

    split_edges = mesh.edge_vertices[edge_marked]
    midpoint = -np.ones(mesh.n_edges, dtype=np.int64)
    midpoint[edge_marked] = mesh.n_vertices + np.arange(split_edges.shape[0])
    new_xy = np.vstack([mesh.xy, 0.5 * (mesh.xy[split_edges[:, 0]]
                                        + mesh.xy[split_edges[:, 1]])])

    # Up to four child slots per parent.  The first bisection gives
    # (z3, z1, m01) and (z2, z3, m01), which inherit the parent's other edges
    # as their refinement edges; slots 0-1 hold the first child or its two
    # halves when e2 is split too, slots 2-3 the second child or its halves
    # when e1 is split.
    z1, z2, z3 = mesh.tris.T
    m01, m12, m20 = midpoint[mesh.tri_edges].T
    split = edge_marked[mesh.tri_edges]
    s0 = split[:, 0]
    s1 = s0 & split[:, 1]
    s2 = s0 & split[:, 2]

    def tri(*v):
        return np.stack(v, axis=1)

    def where(mask, yes, no):
        return np.where(mask[:, None], yes, no)

    slots = np.stack([
        where(s2, tri(m01, z3, m20), where(s0, tri(z3, z1, m01), mesh.tris)),
        tri(z1, m01, m20),
        where(s1, tri(m01, z2, m12), tri(z2, z3, m01)),
        tri(z3, m01, m12),
    ], axis=1)                                       # (m, 4, 3)
    keep = np.stack([np.ones_like(s0), s2, s0, s1], axis=1)
    parent = np.nonzero(keep)[0]

    out = _build(new_xy, slots[keep], seed_refinement_edges=False)
    return replace(out, parent=parent, split_edges=split_edges)
