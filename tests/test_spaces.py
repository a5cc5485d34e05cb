import math

import numpy as np
import pytest

from darcyfem import spaces as sp
from darcyfem.mesh import from_arrays, generate_structured, refine

from conftest import rng_loop
from oracles import add_at_vertex_weights, hypot_element_lp


def test_triangle_rule_weights_normalized():
    for deg in (1, 2, 4, 10):
        rule = sp.triangle_rule(deg)
        assert (rule.weights > 0).all()
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)


def test_rules_are_cached_and_read_only():
    """Cached rules are shared by every caller, so none can change them."""
    rule = sp.triangle_rule(10)
    assert sp.triangle_rule(10) is rule
    ts, ws = sp.edge_rule(8)
    assert sp.edge_rule(8)[0] is ts
    for a in (rule.points, rule.weights, ts, ws):
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert ws.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("degree", [1, 2, 4, 6, 10])
def test_quadrature_sums_keep_each_rows_bytes(degree):
    """A row's quadrature sum has the same bytes whichever rows share its
    call: random row subsets, single rows and permuted rows of random
    (m, q) arrays, and broadcast constant rows of any height.  It is the
    weighted sum of the row, up to rounding."""
    w = sp.triangle_rule(degree).weights
    for rng in rng_loop(11 + degree, 6):
        m = int(rng.integers(1, 300))
        v = rng.standard_normal((m, w.size)) * 10.0 ** rng.integers(-3, 4)
        whole = sp.quadrature_sums(v, w)
        assert whole.shape == (m,)
        assert np.allclose(whole, (v * w).sum(axis=1), rtol=1e-13,
                           atol=1e-13 * np.abs(v).max())
        subset = np.flatnonzero(rng.random(m) < 0.3)
        assert sp.quadrature_sums(v[subset], w).tobytes() \
            == whole[subset].tobytes()
        perm = rng.permutation(m)
        assert sp.quadrature_sums(v[perm], w).tobytes() \
            == whole[perm].tobytes()
        for k in rng.integers(0, m, size=3):
            assert sp.quadrature_sums(v[k:k + 1], w).tobytes() \
                == whole[k:k + 1].tobytes()
        c = rng.standard_normal()
        const = sp.quadrature_sums(np.broadcast_to(c, (m, w.size)), w)
        assert np.all(const == const[0])
        assert sp.quadrature_sums(np.broadcast_to(c, (1, w.size)), w) \
            .tobytes() == const[:1].tobytes()


def test_triangle_rule_monomial_exactness():
    """Each rule integrates x^a y^b exactly up to its stated degree."""
    for deg in (1, 2, 4, 6, 10):
        rule = sp.triangle_rule(deg)
        x, y = rule.points[:, 0], rule.points[:, 1]
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                got = 0.5 * (rule.weights * x ** a * y ** b).sum()
                # exact integral over the reference triangle
                exact = math.factorial(a) * math.factorial(b) \
                    / math.factorial(a + b + 2)
                assert got == pytest.approx(exact, abs=1e-14), (deg, a, b)


def test_p1_gradient_linear_exact():
    m = generate_structured(3)
    q = sp.P1ScalarField(m, m.xy[:, 0].copy())
    g = sp.p1_gradients(q)
    assert np.allclose(g, [1.0, 0.0], atol=1e-13)
    qc = sp.P1ScalarField(m, np.full(m.n_vertices, 7.0))
    assert np.allclose(sp.p1_gradients(qc), 0.0, atol=1e-13)


def test_p1_gradient_matches_affine_solve():
    m = generate_structured(2)
    for rng in rng_loop(5, 5):
        q = sp.P1ScalarField(m, rng.standard_normal(m.n_vertices))
        g = sp.p1_gradients(q)
        for k in range(m.n_triangles):
            c = m.xy[m.tris[k]]
            vand = np.column_stack([np.ones(3), c])
            coef = np.linalg.solve(vand, q.values[m.tris[k]])
            assert np.allclose(g[k], coef[1:], atol=1e-11)


def test_project_mean_zero():
    m = generate_structured(4)
    const = sp.P1ScalarField(m, np.full(m.n_vertices, 3.5))
    z = sp.project_mean_zero(const)
    assert np.allclose(z.values, 0.0, atol=1e-13)

    q = sp.P1ScalarField(m, m.xy[:, 0].copy())
    z = sp.project_mean_zero(q)
    assert abs(sp.field_mean(z)) < 1e-14
    assert np.allclose(z.values, q.values - 0.5, atol=1e-13)
    again = sp.project_mean_zero(z)
    assert np.allclose(again.values, z.values, atol=1e-14)
    assert np.allclose(sp.p1_gradients(z), sp.p1_gradients(q), atol=1e-14)


def test_vertex_weights_are_cached_read_only_and_keep_their_bytes():
    """The mesh forms its P1 vertex weights once, with the bytes of the
    per-call ``np.add.at`` scatter, and no caller can change them; the
    mean-zero projection keeps the bytes it had with per-call weights."""
    m = refine(generate_structured(5), [0, 7, 30])
    w = m.vertex_weights
    assert m.vertex_weights is w
    with pytest.raises(ValueError):
        w[0] = 0.0
    ref = add_at_vertex_weights(m)
    assert w.tobytes() == ref.tobytes()
    assert m.domain_area == float(m.areas.sum())
    for rng in rng_loop(29, 5):
        q = sp.P1ScalarField(m, rng.standard_normal(m.n_vertices))
        old = q.values - float(ref @ q.values / m.areas.sum())
        assert sp.project_mean_zero(q).values.tobytes() == old.tobytes()


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_element_lp_matches_the_hypot_form(p):
    """|v|^p as (vx^2 + vy^2)^(p/2) agrees with hypot(vx, vy)^p to 1e-14
    relative per element, zero vectors included (0^(p/2) = 0)."""
    m = generate_structured(6)
    rule = sp.triangle_rule(10)
    q = rule.weights.size
    for rng in rng_loop(31, 4):
        vx = rng.standard_normal((m.n_triangles, q)) \
            * 10.0 ** rng.uniform(-3, 3, (m.n_triangles, 1))
        vy = rng.standard_normal((m.n_triangles, q))
        zero = rng.random((m.n_triangles, q)) < 0.2
        vx[zero] = vy[zero] = 0.0
        vx[0] = vy[0] = 0.0
        got = sp.element_lp(m, rule, vx, vy, p)
        ref = hypot_element_lp(m, rule, vx, vy, p)
        assert got[0] == ref[0] == 0.0
        assert (np.abs(got - ref) <= 1e-14 * ref).all()
        blk = slice(3, 11)
        assert np.array_equal(
            sp.element_lp(m, rule, vx[blk], vy[blk], p, blk), got[blk])


def test_physical_points_match_einsum_mapping():
    square = generate_structured(3)
    m = refine(from_arrays(square.xy * [3.0, 1.0] + [-1.0, 0.5],
                           square.tris), [0, 5, 11])
    coords = m.xy[m.tris]
    for deg in (1, 2, 4, 10):
        rule = sp.triangle_rule(deg)
        pts = sp.physical_points(m, rule)
        ref = np.einsum("ql,mld->mqd", rule.points, coords)
        assert pts.shape == ref.shape == (m.n_triangles, len(rule.weights), 2)
        assert np.abs(pts - ref).max() <= 4 * np.finfo(float).eps \
            * np.abs(coords).max()


def test_element_means():
    m = generate_structured(2)
    rule = sp.triangle_rule(4)
    pts = sp.physical_points(m, rule)
    c = sp.sample(pts, lambda x, y: 2.0)
    assert c.shape == pts.shape[:2]
    assert np.allclose(c @ rule.weights, 2.0, atol=1e-14)
    mx, my = sp.sample(pts, lambda x, y: (x, 3.0))
    cent = m.xy[m.tris].mean(axis=1)
    assert np.allclose(mx @ rule.weights, cent[:, 0], atol=1e-13)
    assert my.shape == pts.shape[:2] and (my == 3.0).all()


def test_element_means_sharp_function_against_degree10():
    square = generate_structured(4)
    m = from_arrays(2 * square.xy - 1, square.tris)
    gam = 50.0

    def sharp(x, y):
        return np.exp(-gam * (x ** 2 + y ** 2))

    lo_rule, hi_rule = sp.triangle_rule(4), sp.triangle_rule(10)
    lo = sp.sample(sp.physical_points(m, lo_rule), sharp) @ lo_rule.weights
    hi = sp.sample(sp.physical_points(m, hi_rule), sharp) @ hi_rule.weights
    # ballpark agreement on the coarse mesh; exponential tails compared
    # against the peak, not against themselves
    assert np.allclose(lo, hi, rtol=0.2, atol=1e-6 * hi.max())


def test_edge_mean_values():
    m = generate_structured(1)
    edges, ts, ws, zero = sp.boundary_samples(
        m, lambda x, y, n: np.zeros(np.shape(x)), 4)
    assert (edges == m.boundary_edges).all()
    assert zero.shape == (edges.size, 4) and (zero @ ws == 0.0).all()
    _, _, _, one = sp.boundary_samples(m, lambda x, y, n: 1.0, 4)
    assert np.allclose(one @ ws, 1.0, atol=1e-14)
    # g = x on the bottom edge of the unit square -> mean 1/2
    _, _, _, gx = sp.boundary_samples(m, lambda x, y, n: x, 4)
    bottom = [j for j, e in enumerate(edges)
              if (m.xy[m.edge_vertices[e], 1] == 0.0).all()]
    assert len(bottom) == 1
    assert gx[bottom[0]] @ ws == pytest.approx(0.5, abs=1e-14)
    # the normals broadcast against the points, one row per edge
    for n_points in (1, 4):
        _, _, _, nx = sp.boundary_samples(m, lambda x, y, n: n[0], n_points)
        assert (nx == m.edge_normals[edges, 0][:, None]).all()
        assert nx.shape == (edges.size, n_points)


def test_lp_norm_p0():
    m = generate_structured(3)
    ones = sp.P0VectorField(m, np.tile([1.0, 0.0], (m.n_triangles, 1)))
    assert sp.lp_norm(ones, 3.0) == pytest.approx(1.0, abs=1e-13)
    assert sp.lp_norm(ones, 2.0) == pytest.approx(1.0, abs=1e-13)

    # single triangle: |v| * area^(1/3) for p=3
    v = sp.P0VectorField(m, np.zeros((m.n_triangles, 2)))
    v.values[5] = [3.0, 4.0]
    expect = 5.0 * m.areas[5] ** (1.0 / 3.0)
    assert sp.lp_norm(v, 3.0) == pytest.approx(expect, rel=1e-13)


def test_lp_norm_homogeneous():
    m = generate_structured(2)
    for rng in rng_loop(17, 8):
        vals = rng.standard_normal((m.n_triangles, 2))
        c = float(rng.uniform(0.1, 10))
        f = sp.P0VectorField(m, vals)
        fc = sp.P0VectorField(m, c * vals)
        for p in (1.5, 2.0, 3.0):
            assert sp.lp_norm(fc, p) == pytest.approx(
                c * sp.lp_norm(f, p), rel=1e-12)


def test_gradient_lp_norm_brute_force():
    m = generate_structured(2)
    q = sp.P1ScalarField(m, m.xy[:, 0] * m.xy[:, 1])
    got = sp.gradient_lp_norm(q, 1.5)
    g = sp.p1_gradients(q)
    brute = (np.sum(np.linalg.norm(g, axis=1) ** 1.5 * m.areas)) ** (2.0 / 3.0)
    assert got == pytest.approx(brute, rel=1e-13)


def test_duality_with_coupling():
    """Sum_k |k| grad(q)|_k . v_k equals the assembled B-product."""
    from darcyfem.assembly import Assembler
    from darcyfem import problems
    prob = problems.trivial_zero()
    m = generate_structured(3)
    asm = Assembler(m, prob)
    for rng in rng_loop(23, 6):
        q = sp.P1ScalarField(m, rng.standard_normal(m.n_vertices))
        v = sp.P0VectorField(m, rng.standard_normal((m.n_triangles, 2)))
        direct = float(np.sum(m.areas[:, None] * sp.p1_gradients(q) * v.values))
        # (B v) scattered to vertices, then dotted with the nodal values
        per_vertex = np.einsum("mja,ma->mj", asm.b, v.values)
        coupled = float(np.sum(per_vertex * q.values[m.tris]))
        assert coupled == pytest.approx(direct, rel=1e-12)


def test_field_dump_roundtrip():
    m = generate_structured(2)
    rng = np.random.default_rng(0)
    u = sp.P0VectorField(m, rng.standard_normal((m.n_triangles, 2)))
    p = sp.P1ScalarField(m, rng.standard_normal(m.n_vertices))
    u2 = sp.load_p0(sp.dump_p0(u), m)
    p2 = sp.load_p1(sp.dump_p1(p), m)
    assert (u2.values == u.values).all()
    assert (p2.values == p.values).all()


@pytest.mark.parametrize("text, message", [
    ("", "expected a '{kind} <count>' header"),
    ("# only a comment\n", "expected a '{kind} <count>' header"),
    ("{kind}\n", "expected a '{kind} <count>' header"),
    ("{kind} 8 9\n", "expected a '{kind} <count>' header"),
    ("p2field 8\n", "expected a '{kind} <count>' header"),
    ("{kind} eight\n", "{kind} count is not an integer"),
])
@pytest.mark.parametrize("kind", ["p0field", "p1field"])
def test_field_load_rejects_a_bad_header(text, message, kind):
    """A missing, short or non-integer header is a ValueError for both
    field formats, not an IndexError."""
    m = generate_structured(2)
    load = sp.load_p0 if kind == "p0field" else sp.load_p1
    with pytest.raises(ValueError, match=message.format(kind=kind)):
        load(text.format(kind=kind), m)


def test_field_load_rejects_wrong_mesh():
    m2 = generate_structured(2)
    m3 = generate_structured(3)
    u = sp.P0VectorField(m2, np.zeros((m2.n_triangles, 2)))
    with pytest.raises(ValueError):
        sp.load_p0(sp.dump_p0(u), m3)


@pytest.mark.parametrize("text", [
    "{kind} {size}\n", "{kind} {size}\n1 2 3\n",
    "{kind} {size}\n" + "1 2 3\n" * 9])
@pytest.mark.parametrize("kind", ["p0field", "p1field"])
def test_field_load_rejects_a_body_that_does_not_match_its_header(kind,
                                                                 text):
    m = generate_structured(2)
    load, size = (sp.load_p0, m.n_triangles) if kind == "p0field" \
        else (sp.load_p1, m.n_vertices)
    with pytest.raises(ValueError,
                       match=f"^{kind} body does not match the header$"):
        load(text.format(kind=kind, size=size), m)
