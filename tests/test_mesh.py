import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from darcyfem import mesh as msh

from conftest import rng_loop
from oracles import loop_edge_tables, loop_lshape, loop_refine, loop_structured


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _assert_same_mesh(a, b):
    for f in dataclasses.fields(msh.Mesh):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x is None or y is None:
            assert x is y, f.name
        else:
            assert _same_bytes(x, y), f.name


def _assert_edge_tables_match_loop(m):
    tri_edges, edge_vertices, edge_tris = loop_edge_tables(m.tris)
    assert _same_bytes(m.tri_edges, tri_edges)
    assert _same_bytes(m.edge_vertices, edge_vertices)
    assert _same_bytes(m.edge_tris, edge_tris)


def test_structured_counts_and_h():
    m = msh.generate_structured(10)
    assert m.n_triangles == 200
    assert m.n_vertices == 121
    assert m.h_max == pytest.approx(np.sqrt(2) / 10, rel=1e-12)
    assert abs(m.h_max - 0.1414) < 5e-4


def test_structured_minimal():
    m = msh.generate_structured(1)
    assert m.n_triangles == 2
    assert m.n_vertices == 4
    assert m.domain_area == pytest.approx(1.0, abs=1e-14)


def test_triangles_counterclockwise_and_areas_positive():
    square = msh.generate_structured(5)
    m = msh.from_arrays(2 * square.xy - 1, square.tris)
    assert (m.areas > 0).all()
    # signed area of each triangle is positive for ccw orientation
    c = m.xy[m.tris]
    signed = 0.5 * ((c[:, 1, 0] - c[:, 0, 0]) * (c[:, 2, 1] - c[:, 0, 1])
                    - (c[:, 2, 0] - c[:, 0, 0]) * (c[:, 1, 1] - c[:, 0, 1]))
    assert np.allclose(signed, m.areas)


def test_h_tri_is_longest_edge():
    m = msh.generate_structured(3)
    c = m.xy[m.tris]
    for k in range(m.n_triangles):
        d = [np.linalg.norm(c[k, i] - c[k, j])
             for i in range(3) for j in range(i)]
        assert m.h_tri[k] == pytest.approx(max(d), rel=1e-12)


def test_edge_census_and_adjacency():
    for n in (1, 2, 3, 7):
        m = msh.generate_structured(n)
        n_int = len(m.interior_edges)
        n_bnd = len(m.boundary_edges)
        assert 3 * m.n_triangles == 2 * n_int + n_bnd
        assert (m.edge_tris[m.boundary_edges, 1] == -1).all()
        assert (m.edge_tris[m.interior_edges, 1] >= 0).all()


def test_edge_normals_unit_and_outward():
    m = msh.generate_structured(4)
    assert np.allclose(np.linalg.norm(m.edge_normals, axis=1), 1.0)
    # boundary normals point away from the element centroid
    for e in m.boundary_edges:
        k = m.edge_tris[e, 0]
        centroid = m.xy[m.tris[k]].mean(axis=0)
        mid = m.xy[m.edge_vertices[e]].mean(axis=0)
        assert np.dot(mid - centroid, m.edge_normals[e]) > 0


def test_refine_empty_is_noop():
    m = msh.generate_structured(2)
    r = msh.refine(m, [])
    assert r.n_triangles == m.n_triangles
    assert _same_bytes(r.tris, m.tris)
    assert (r.parent == np.arange(m.n_triangles)).all()
    assert r.split_edges.shape == (0, 2)


def test_refine_both_triangles():
    m = msh.generate_structured(1)
    r = msh.refine(m, [0, 1])
    assert r.n_triangles == 4
    assert r.domain_area == pytest.approx(1.0, abs=1e-14)


def test_refine_single_triangle_forces_closure():
    m = msh.generate_structured(1)
    r = msh.refine(m, [0])
    assert r.n_triangles == 4
    assert r.domain_area == pytest.approx(1.0, abs=1e-14)
    # conforming: census must still hold
    assert 3 * r.n_triangles == 2 * len(r.interior_edges) + len(r.boundary_edges)


def test_refine_marked_strictly_subdivided():
    m = msh.generate_structured(3)
    marked = [0, 5, 7]
    areas_before = m.areas[marked].copy()
    r = msh.refine(m, marked)
    # every area in the refined mesh that lies inside a marked triangle is
    # strictly smaller than the original
    assert r.n_triangles > m.n_triangles
    assert r.areas.max() <= m.areas.max()
    assert r.areas.min() >= areas_before.min() / 4 - 1e-15


def _shape_ratios(m):
    """Diameter over inscribed-circle diameter, per triangle."""
    a, b, c = (m.tris[:, i] for i in range(3))
    per = (np.linalg.norm(m.xy[b] - m.xy[a], axis=1)
           + np.linalg.norm(m.xy[c] - m.xy[b], axis=1)
           + np.linalg.norm(m.xy[a] - m.xy[c], axis=1))
    return m.h_tri * per / (4.0 * m.areas)


def test_repeated_refinement_keeps_area_and_shape():
    rng = np.random.default_rng(11)
    square = msh.generate_structured(2)
    m = msh.from_arrays(2 * square.xy - 1, square.tris)
    base_ratio = _shape_ratios(m).max()
    area = m.domain_area
    for _ in range(6):
        marked = rng.choice(m.n_triangles, size=max(1, m.n_triangles // 5),
                            replace=False)
        m = msh.refine(m, marked)
    assert m.domain_area == pytest.approx(area, rel=1e-12)
    assert _shape_ratios(m).max() <= 2.0 * base_ratio + 1e-12


def test_save_load_roundtrip():
    square = msh.generate_structured(3)
    m = msh.from_arrays(2 * square.xy - [1.0, 0.0], square.tris)
    text = msh.save_mesh(m)
    back = msh.load_mesh(text)
    assert np.allclose(back.xy, m.xy)
    assert (back.tris == m.tris).all()


def test_load_two_triangle_file_matches_structured():
    text = "\n".join([
        "# unit square",
        "vertices 4",
        "0.0 0.0 1", "1.0 0.0 1", "1.0 1.0 1", "0.0 1.0 1",
        "triangles 2",
        "0 1 2", "0 2 3",
    ])
    m = msh.load_mesh(text)
    assert m.n_triangles == 2
    assert m.n_vertices == 4
    assert m.domain_area == pytest.approx(1.0, abs=1e-14)


def test_load_rejects_duplicate_triangle():
    text = "\n".join([
        "vertices 4",
        "0.0 0.0 1", "1.0 0.0 1", "1.0 1.0 1", "0.0 1.0 1",
        "triangles 2",
        "0 1 2", "0 1 2",
    ])
    with pytest.raises(msh.MeshConformityError):
        msh.load_mesh(text)


def test_rejects_repeated_vertex_naming_first_bad_triangle():
    xy = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    tris = [[0, 1, 2], [0, 2, 2], [3, 3, 0]]
    with pytest.raises(msh.MeshConformityError,
                       match="triangle 1 has a repeated vertex"):
        msh.from_arrays(xy, tris)


def test_load_rejects_clockwise_triangle():
    text = "\n".join([
        "vertices 3",
        "0.0 0.0 1", "1.0 0.0 1", "0.5 1.0 1",
        "triangles 1",
        "0 2 1",
    ])
    with pytest.raises((msh.MeshFormatError, msh.MeshConformityError)):
        msh.load_mesh(text)


def test_load_rejects_dangling_vertex():
    text = "\n".join([
        "vertices 4",
        "0.0 0.0 1", "1.0 0.0 1", "0.5 1.0 1", "5.0 5.0 1",
        "triangles 1",
        "0 1 2",
    ])
    with pytest.raises((msh.MeshFormatError, msh.MeshConformityError)):
        msh.load_mesh(text)


def test_lshape_counts_and_census():
    m = msh.generate_lshape(4)
    assert m.domain_area == pytest.approx(3.0, rel=1e-12)
    assert 3 * m.n_triangles == 2 * len(m.interior_edges) + len(m.boundary_edges)


def test_interior_edge_orientations_opposite():
    m = msh.generate_structured(3)
    for e in m.interior_edges:
        va, vb = m.edge_vertices[e]
        k1, k2 = m.edge_tris[e]
        # the edge appears with opposite traversal in the two triangles
        def traversal(k):
            t = list(m.tris[k])
            ia, ib = t.index(va), t.index(vb)
            return (ib - ia) % 3
        assert {traversal(k1), traversal(k2)} == {1, 2}


def test_refinement_edges_are_longest_initially():
    m = msh.generate_structured(4)
    c = m.xy[m.tris]
    lens = np.stack([np.linalg.norm(c[:, 1] - c[:, 0], axis=1),
                     np.linalg.norm(c[:, 2] - c[:, 1], axis=1),
                     np.linalg.norm(c[:, 0] - c[:, 2], axis=1)], axis=1)
    # the stored refinement edge is local edge 0 after rotation
    assert np.allclose(lens[:, 0], lens.max(axis=1))


@pytest.mark.parametrize("build", [
    lambda: msh.generate_structured(5),
    lambda: msh.from_arrays(2.0 * msh.generate_lshape(3).xy - 1.0,
                            msh.generate_lshape(3).tris),
    lambda: msh.refine(msh.generate_structured(3), [0, 4, 7]),
], ids=["structured", "from_arrays", "refined"])
def test_gradient_operator_shares_the_hat_gradients(build):
    """``grads`` is the (m, 3, 2) view of a contiguous (m, 2, 3) buffer,
    and the gradient operator's data is that buffer, not a copy."""
    m = build()
    assert m.grads.shape == (m.n_triangles, 3, 2)
    assert m.grads.transpose(0, 2, 1).flags.c_contiguous
    assert np.shares_memory(m.grads, m.gradient_operator.data)
    hat = m.gradient_operator @ np.eye(m.n_vertices)[:, m.tris[0, 1]]
    assert hat[:2].tolist() == m.grads[0, 1].tolist()


def test_random_refinement_sequences_stay_conforming():
    for rng in rng_loop(202, 5):
        m = msh.generate_structured(2)
        for _ in range(4):
            k = int(rng.integers(m.n_triangles))
            m = msh.refine(m, [k])
        assert 3 * m.n_triangles == 2 * len(m.interior_edges) + len(m.boundary_edges)
        assert m.domain_area == pytest.approx(1.0, rel=1e-12)
        assert (m.areas > 0).all()


@pytest.mark.parametrize("n", [1, 2, 5, 40, 112])
@pytest.mark.parametrize("generate", [msh.generate_structured,
                                      msh.generate_lshape])
def test_edge_tables_match_loop_oracle(generate, n):
    _assert_edge_tables_match_loop(generate(n))


@pytest.mark.parametrize("n", [1, 2, 5, 40, 112])
@pytest.mark.parametrize("generate, loop", [
    (msh.generate_structured, loop_structured),
    (msh.generate_lshape, loop_lshape),
], ids=["structured", "lshape"])
def test_generators_match_loop_oracle(generate, loop, n):
    xy, tris = loop(n)
    m = generate(n)
    assert _same_bytes(m.xy, xy)
    _assert_same_mesh(m, msh.from_arrays(xy, tris))


def test_refine_matches_loop_oracle_on_random_marking():
    for rng in rng_loop(606, 8):
        m = msh.generate_lshape(int(rng.integers(1, 5)))
        for _ in range(5):
            marked = rng.choice(m.n_triangles, replace=False,
                                size=int(rng.integers(1, m.n_triangles // 3 + 2)))
            xy, tris, parent = loop_refine(m, marked)
            r = msh.refine(m, marked)
            assert _same_bytes(r.xy, xy)
            assert _same_bytes(r.tris, tris)
            assert _same_bytes(r.parent, parent)
            _assert_edge_tables_match_loop(r)
            ends = r.split_edges
            assert ends.shape == (r.n_vertices - m.n_vertices, 2)
            assert (r.xy[m.n_vertices:]
                    == 0.5 * (m.xy[ends[:, 0]] + m.xy[ends[:, 1]])).all()
            m = r


def _conformity_message(fn):
    with pytest.raises(msh.MeshConformityError) as exc:
        fn()
    return str(exc.value)


# Vertices 2 and 4 lie above the edge (0, 1), vertex 3 below it.
_FAN_XY = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                    [0.5, 2.0]])


@pytest.mark.parametrize("tris, message", [
    ([[0, 1, 2], [1, 0, 3], [0, 1, 4]],
     "edge (0, 1) is shared by more than two triangles"),
    ([[1, 0, 3], [0, 1, 2], [0, 1, 4]],
     "edge (0, 1) is shared by more than two triangles"),
    ([[0, 1, 2], [0, 1, 4], [1, 0, 3]],
     "edge (0, 1) is traversed twice in the same direction (triangles 0 "
     "and 1 overlap or one of them is misoriented)"),
])
def test_conformity_errors_keep_the_loop_message(tris, message):
    tris = np.array(tris)
    assert _conformity_message(lambda: loop_edge_tables(tris)) == message
    assert _conformity_message(lambda: msh._build(_FAN_XY, tris)) == message


def test_conformity_errors_name_the_same_edge_as_the_loop():
    """A copy of one triangle inserted anywhere makes either error, at the
    first bad traversal; both paths must report the same one."""
    base = msh.generate_structured(3)
    kinds = set()
    for rng in rng_loop(707, 40):
        k = int(rng.integers(base.n_triangles))
        tris = np.insert(base.tris, int(rng.integers(base.n_triangles + 1)),
                         base.tris[k], axis=0)
        expected = _conformity_message(lambda: loop_edge_tables(tris))
        assert _conformity_message(lambda: msh._build(base.xy, tris)) \
            == expected
        kinds.add("shared by more" in expected)
    assert kinds == {True, False}


def _nearly_sorted(rng, n):
    keys = np.arange(n) // 3
    swap = rng.integers(n - 1, size=n // 20)
    keys[swap], keys[swap + 1] = keys[swap + 1], keys[swap].copy()
    return keys


@pytest.mark.parametrize("case", ["ties", "ties_int32", "nearly_sorted",
                                  "reversed", "empty", "one", "fallback"])
def test_stable_sort_is_the_stable_argsort(case):
    """``stable_sort`` gives the order of the stable argsort, with its dtype,
    and the keys in that order, with theirs; a bound of 2**62 leaves no
    room for the positions and takes the fallback."""
    rng = np.random.default_rng(61)
    bound = 1000
    keys = {
        "ties": lambda: rng.integers(7, size=5000),
        "ties_int32": lambda: rng.integers(7, size=5000).astype(np.int32),
        "nearly_sorted": lambda: _nearly_sorted(rng, 3000),
        "reversed": lambda: np.arange(3000)[::-1] // 3,
        "empty": lambda: np.zeros(0, dtype=np.int64),
        "one": lambda: np.array([999]),
        "fallback": lambda: rng.choice(
            rng.integers(2 ** 61, 2 ** 62, size=40), size=3000),
    }[case]()
    if case == "fallback":
        bound = 2 ** 62
    assert keys.min(initial=0) >= 0 and keys.max(initial=0) < bound
    order, sorted_keys = msh.stable_sort(keys, bound)
    want = np.argsort(keys, kind="stable")
    assert _same_bytes(order, want)
    assert _same_bytes(sorted_keys, keys[want])


def test_stable_sorts_go_through_stable_sort():
    """The package sorts stably only inside ``mesh.stable_sort``: no other
    line of ``src/darcyfem`` asks numpy for its stable sort."""
    stable = re.compile(r"""kind\s*=\s*["']stable["']""")
    outside, inside = [], 0
    for path in sorted(Path(msh.__file__).parent.glob("*.py")):
        source = path.read_text()
        allowed = set()
        if path.name == "mesh.py":
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.FunctionDef) \
                        and node.name == "stable_sort":
                    allowed.update(range(node.lineno, node.end_lineno + 1))
        for number, line in enumerate(source.splitlines(), 1):
            if stable.search(line):
                if number in allowed:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{number}: {line.strip()}")
    assert outside == []
    assert inside > 0          # the scan sees the helper's own fallback
