import itertools

import numpy as np
import pytest

from tetraquadric import (
    LineRelation,
    Plane3,
    TetraKind,
    Tetrahedron,
    Tolerance,
    altitude,
    altitudes_meet,
    analyze,
    centroid,
    circumcenter,
    classify,
    edge_vector,
    line_line_meet,
    midplane,
    monge_identity_residual,
    monge_point,
    noteworthy,
    opposite_edge_dots,
    ortho_perpendicular,
    pluecker_residual,
    q_star,
    random_tetra,
)
from tetraquadric import tetra
from tetraquadric.errors import BadIndex, DegenerateTetrahedron
from tetraquadric.tetra import _FACES, OPPOSITE_EDGE_PAIRS

from plane_oracle import line_from_two_planes, perp_bisector, solve3

EPS = np.finfo(float).eps
ALL_KINDS = [TetraKind.GENERIC, TetraKind.SEMI_ORTHOCENTRIC, TetraKind.ORTHOCENTRIC]


def random_mixed(n, seed0=0):
    return [random_tetra(ALL_KINDS[s % 3], seed0 + s) for s in range(n)]


def test_degenerate_rejected():
    with pytest.raises(DegenerateTetrahedron):
        Tetrahedron(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, 1]], float))
    with pytest.raises(DegenerateTetrahedron):
        Tetrahedron(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float))


def test_edge_vector_examples(t_tri, t_gen):
    np.testing.assert_allclose(edge_vector(t_tri, 0, 1), [-1, 0, 0])
    np.testing.assert_allclose(edge_vector(t_gen, 2, 3), [-1, 2, -2])
    with pytest.raises(BadIndex):
        edge_vector(t_gen, 1, 1)


def test_edge_vector_identities():
    for t in random_mixed(10):
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                np.testing.assert_array_equal(
                    edge_vector(t, i, j), -edge_vector(t, j, i)
                )
                for k in range(4):
                    if k in (i, j):
                        continue
                    np.testing.assert_allclose(
                        edge_vector(t, i, j)
                        + edge_vector(t, j, k)
                        + edge_vector(t, k, i),
                        0,
                        atol=1e-12,
                    )


def test_vertices_are_copied_and_every_derived_array_is_frozen():
    v = np.array([[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]], float)
    t = Tetrahedron(v)
    assert v.flags.writeable and not np.shares_memory(v, t.vertices)
    v[0] = 9.0
    np.testing.assert_array_equal(t.vertices[0], [0, 0, 0])
    assert t.vertices is t.vertices and q_star(t) is q_star(t)
    readers = (monge_point(t), circumcenter(t), opposite_edge_dots(t), edge_vector(t, 0, 1))
    for a in (t.vertices, *readers, q_star(t).matrix):
        with pytest.raises(ValueError):
            a[0] += 1.0
    np.testing.assert_allclose(monge_point(t), [1.5, 1.0, 1.25], atol=1e-12)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_face_normals_equal_np_cross_to_the_bit(scale):
    for t in random_mixed(60):
        t = Tetrahedron(t.vertices * scale)
        i, j, k = np.array(_FACES).T
        v = t.vertices
        ref = np.cross(v[j] - v[i], v[k] - v[i])
        np.testing.assert_array_equal(np.array(t._normals), ref)
        for l in range(4):
            np.testing.assert_array_equal(
                np.abs(t._unit_normals[l]), np.abs(altitude(t, l).dir)
            )


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_gram_is_the_coordinate_order_sum_and_lambdas_its_row_0(scale):
    for t in random_mixed(60):
        t = Tetrahedron(t.vertices * scale)
        c = np.array(t._centered)
        ref = c[:, None, 0] * c[None, :, 0] + c[:, None, 1] * c[None, :, 1] + c[:, None, 2] * c[None, :, 2]
        np.testing.assert_array_equal(t._lambdas, ref[0, 1:])
        splits = [abs(ref[i, j] - ref[k, l]) for (i, j), (k, l) in OPPOSITE_EDGE_PAIRS]
        assert monge_identity_residual(t) == max(splits)


def test_pluecker_examples(t_tri, t_gen, t_semi):
    assert pluecker_residual(t_gen) == pytest.approx(0, abs=1e-12)
    assert pluecker_residual(t_tri) == pytest.approx(0, abs=1e-12)
    assert pluecker_residual(t_semi) == pytest.approx(0, abs=1e-12)


def test_pluecker_random():
    for t in random_mixed(30):
        assert abs(pluecker_residual(t)) <= 1e-9 * t.edge_scale() ** 2


def test_altitude_examples(t_tri, t_gen, t_orth):
    h = altitude(t_tri, 3)
    np.testing.assert_allclose(h.dir, [0, 0, 1])
    np.testing.assert_allclose(h.base, [0, 0, 1])

    h = altitude(t_orth, 0)
    np.testing.assert_allclose(h.dir, np.ones(3) / np.sqrt(3), atol=1e-12)
    assert h.distance_to_point(np.zeros(3)) < 1e-12

    h = altitude(t_gen, 3)
    np.testing.assert_allclose(h.dir, [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(h.base, [2, 1, 2])


def test_ortho_perpendicular_examples(t_tri, t_gen, t_orth):
    n3 = ortho_perpendicular(t_orth, 3)
    h3 = altitude(t_orth, 3)
    assert line_line_meet(n3, h3).relation is LineRelation.IDENTICAL

    n3 = ortho_perpendicular(t_gen, 3)
    np.testing.assert_allclose(n3.dir, [0, 0, 1], atol=1e-12)
    assert n3.distance_to_point(np.array([1, 1, 0.0])) < 1e-12

    n0 = ortho_perpendicular(t_tri, 0)
    np.testing.assert_allclose(np.abs(n0.dir), np.ones(3) / np.sqrt(3), atol=1e-12)
    assert n0.distance_to_point(np.zeros(3)) < 1e-12


#: Draw 23 of the sliver probe: vertex 3 sits 1.3e-8 edge lengths from the
#: centroid of the opposite face, so every face normal is within 3e-8 of the
#: others, and n_l and h_i cross at that angle.  Its gaps read up to 9.3e-10 of
#: its size against the fixed 1e-9 meet gate, so it is scaled by powers of two,
#: which keep every bit; at 1e-6, 1e-3 and 1e3 rounding puts a pair above it.
SLIVER = [[0.387540214171084, -4.174651271526702, 4.4301462617276774],
          [-5.6762335399145565, -3.328023257569995, 4.453897287898569],
          [-6.900162795163933, -7.142018931863856, 2.5174122574586377],
          [-4.062952118472688, -4.881564461252999, 3.800485330795028]]


def test_parallelism_and_theorem1():
    # n_l is parallel to h_l and meets every h_i, i != l, at a point of the
    # proof's plane b_jk . (a_i - x) = 0; the point is checked to within
    # 8 eps * edge_scale / |c|, its own conditioning, c = d(n_l) x d(h_i)
    shapes = [t.vertices for t in random_mixed(20, seed0=100)]
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        sliver = Tetrahedron(np.ldexp(SLIVER, round(np.log2(scale))))
        for t in [Tetrahedron(scale * v) for v in shapes] + [sliver]:
            _check_theorem1(t)


def _check_theorem1(t):
    v, size = t.vertices, t.edge_scale()
    for l in range(4):
        n, d = ortho_perpendicular(t, l), altitude(t, l).dir
        assert min(np.linalg.norm(d - n.dir), np.linalg.norm(d + n.dir)) <= 1e-9
        for i in range(4):
            if i == l:
                continue
            h = altitude(t, i)
            m = line_line_meet(n, h)
            assert m.relation in (LineRelation.MEETING, LineRelation.IDENTICAL)
            assert m.gap <= 1e-8 * size
            if m.point is None:
                continue
            j, k = (x for x in range(4) if x not in (i, l))
            b = v[k] - v[j]
            bound = 8 * EPS * size / np.linalg.norm(np.cross(n.dir, h.dir))
            assert n.distance_to_point(m.point) <= bound
            assert h.distance_to_point(m.point) <= bound
            assert abs(b @ (v[i] - m.point)) / np.linalg.norm(b) <= bound


def test_midplane_examples(t_tri, t_gen, t_semi):
    p = midplane(t_gen, 0, 1)
    np.testing.assert_allclose(p.normal, [1, 0, 0])
    assert p.offset == pytest.approx(1.5)

    # edge 01 points along x; the opposite-edge midpoint (0, 1/2, 1/2) puts
    # this midplane through the origin (unlike the bisector, which is x = 1/2)
    p = midplane(t_tri, 0, 1)
    assert p.offset == pytest.approx(0.0, abs=1e-15)
    assert p.residual(0.5 * (t_tri.vertices[2] + t_tri.vertices[3])) < 1e-15

    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            k, l = (x for x in range(4) if x not in (i, j))
            mid = 0.5 * (t_semi.vertices[k] + t_semi.vertices[l])
            assert midplane(t_semi, i, j).residual(mid) < 1e-12


def test_perp_bisector_examples(t_tri, t_gen):
    assert perp_bisector(t_tri, 0, 1).offset == pytest.approx(0.5)
    p = perp_bisector(t_gen, 0, 1)
    np.testing.assert_allclose(p.normal, [1, 0, 0])
    assert p.offset == pytest.approx(2.0)
    p = perp_bisector(t_gen, 2, 3)
    assert p.residual(np.array([1.5, 2.0, 1.0])) < 1e-12


def test_monge_point_examples(t_tri, t_gen, t_orth):
    np.testing.assert_allclose(monge_point(t_gen), [1.5, 1.0, 1.25], atol=1e-12)
    np.testing.assert_allclose(monge_point(t_orth), [1, 1, 1], atol=1e-12)
    np.testing.assert_allclose(monge_point(t_tri), [0, 0, 0], atol=1e-12)


def test_monge_on_all_six_midplanes():
    for t in random_mixed(30, seed0=200):
        m = monge_point(t)
        scale = t.edge_scale()
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert midplane(t, i, j).residual(m) <= 1e-9 * scale


def test_monge_identity(t_tri, t_gen, t_semi):
    for t in (t_tri, t_gen, t_semi):
        assert monge_identity_residual(t) < 1e-12
    for t in random_mixed(30, seed0=300):
        assert monge_identity_residual(t) <= 1e-9 * t.edge_scale() ** 2


def test_centroid_examples(t_tri, t_gen):
    np.testing.assert_allclose(centroid(t_tri), [0.25, 0.25, 0.25])
    np.testing.assert_allclose(centroid(t_gen), [1.75, 1.0, 0.5])
    shifted = Tetrahedron(t_gen.vertices + np.array([1.0, -2.0, 3.0]))
    np.testing.assert_allclose(centroid(shifted), centroid(t_gen) + [1, -2, 3])


def test_circumcenter_examples(t_tri, t_gen):
    np.testing.assert_allclose(circumcenter(t_tri), [0.5, 0.5, 0.5], atol=1e-12)
    c = circumcenter(t_gen)
    np.testing.assert_allclose(c, [2.0, 1.0, -0.25], atol=1e-12)
    for i in range(4):
        assert np.dot(t_gen.vertices[i] - c, t_gen.vertices[i] - c) == pytest.approx(
            81 / 16
        )
    np.testing.assert_allclose(
        c, 2 * centroid(t_gen) - monge_point(t_gen), atol=1e-12
    )


def test_euler_relation():
    for t in random_mixed(30, seed0=400):
        pts = noteworthy(t)
        gap = np.linalg.norm(pts.centroid - 0.5 * (pts.circumcenter + pts.monge))
        assert gap <= 1e-9 * t.edge_scale()


def test_noteworthy_examples(t_gen, t_orth):
    pts = noteworthy(t_gen)
    np.testing.assert_allclose(pts.monge, [1.5, 1, 1.25], atol=1e-12)
    np.testing.assert_allclose(pts.centroid, [1.75, 1, 0.5])
    np.testing.assert_allclose(pts.circumcenter, [2, 1, -0.25], atol=1e-12)
    assert pts.orthocenter is None
    d = pts.circumcenter - pts.monge
    d /= np.linalg.norm(d)
    assert min(
        np.linalg.norm(pts.euler.dir - d), np.linalg.norm(pts.euler.dir + d)
    ) < 1e-12
    assert pts.euler.distance_to_point(pts.centroid) < 1e-12

    pts = noteworthy(t_orth)
    np.testing.assert_allclose(pts.orthocenter, [1, 1, 1], atol=1e-12)
    np.testing.assert_allclose(pts.orthocenter, pts.monge)


def test_noteworthy_regular_tetrahedron():
    # alternate corners of the unit cube
    t = Tetrahedron(
        np.array([[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]], float)
    )
    pts = noteworthy(t)
    np.testing.assert_allclose(pts.monge, pts.centroid, atol=1e-12)
    np.testing.assert_allclose(pts.circumcenter, pts.centroid, atol=1e-12)
    assert pts.euler is None


def test_lambdas_examples(t_tri, t_gen, t_orth):
    np.testing.assert_allclose(analyze(t_gen).lambdas, [-19 / 16, 5 / 16, -27 / 16], atol=1e-12)
    l01, l02, l03 = analyze(t_orth).lambdas
    assert l01 == pytest.approx(l02) == pytest.approx(l03)
    np.testing.assert_allclose(analyze(t_tri).lambdas, 0, atol=1e-12)


def test_lambda_symmetry_random():
    # the Monge-centered products of opposite splits agree
    for t in random_mixed(20, seed0=500):
        m = monge_point(t)
        scale = t.edge_scale() ** 2
        for (i, j), (k, l) in OPPOSITE_EDGE_PAIRS:
            lhs = np.dot(t.vertices[i] - m, t.vertices[j] - m)
            rhs = np.dot(t.vertices[k] - m, t.vertices[l] - m)
            assert abs(lhs - rhs) <= 1e-9 * scale


def test_altitudes_meet_examples(t_semi, t_orth):
    assert altitudes_meet(t_semi, 2, 3)
    assert not altitudes_meet(t_semi, 0, 2)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert altitudes_meet(t_orth, i, j)


def test_altitudes_meet_symmetry():
    for t in random_mixed(20, seed0=600):
        for (i, j), (k, l) in OPPOSITE_EDGE_PAIRS:
            assert altitudes_meet(t, i, j) == altitudes_meet(t, k, l)


def test_classify_examples(t_gen, t_semi, t_orth):
    assert classify(t_gen).kind is TetraKind.GENERIC
    cls = classify(t_semi)
    assert cls.kind is TetraKind.SEMI_ORTHOCENTRIC
    assert cls.orthogonal_pair == ((0, 1), (2, 3))
    assert classify(t_orth).kind is TetraKind.ORTHOCENTRIC


def test_two_vanished_dots_read_generic_with_a_warning():
    # d3 = -(d1 + d2), so at a loose tolerance a short pair 03, 12 can keep its dot
    # above ten gates while the other two read zero, which no exact figure allows
    t = Tetrahedron([[0, 0, 0], [4, 0, 0], [0, 4, 0], [0.1, -0.1, 0.1]])
    tol = Tolerance(0.05)
    zero = np.abs(opposite_edge_dots(t)) <= tol.rel_eps * np.array(t._scales)
    assert zero.tolist() == [True, True, False]
    cls = classify(t, tol)
    assert cls.kind is TetraKind.GENERIC and cls.orthogonal_pair is None
    assert "two opposite-edge dot products vanished" in cls.warning
    assert analyze(t, tol).warnings == [cls.warning]


def test_two_meets_force_concurrency():
    # altitudes sharing an index that both meet a third force the orthocentric case
    for s in range(10):
        t = random_tetra(TetraKind.ORTHOCENTRIC, 700 + s)
        assert classify(t).kind is TetraKind.ORTHOCENTRIC
        pts = []
        for i in range(4):
            for j in range(i + 1, 4):
                m = line_line_meet(altitude(t, i), altitude(t, j))
                assert m.relation is LineRelation.MEETING
                pts.append(m.point)
        spread = max(np.linalg.norm(a - b) for a in pts for b in pts)
        assert spread <= 1e-8 * t.edge_scale()


def test_similarity_equivariance():
    rng = np.random.default_rng(77)
    for t in random_mixed(10, seed0=800):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.uniform(-3, 3, size=3)
        t2 = Tetrahedron(t.vertices @ q.T + shift)
        scale = t.edge_scale()
        for f in (monge_point, centroid, circumcenter):
            np.testing.assert_allclose(
                f(t2), q @ f(t) + shift, atol=1e-9 * max(1.0, scale)
            )


def _plane_pair_line(points, normals):
    """Line through the two planes (point, normal) whose unit normals are most
    nearly orthogonal; the construction the closed forms replaced."""
    unit = [n / np.linalg.norm(n) for n in normals]
    a, b = max(
        itertools.combinations(range(3), 2),
        key=lambda ab: np.linalg.norm(np.cross(unit[ab[0]], unit[ab[1]])),
    )
    planes = [Plane3.from_point_normal(p, n) for p, n in zip(points, normals)]
    return line_from_two_planes(planes[a], planes[b])


def _needle(rng):
    """Tetrahedron whose face 012 is a needle: |a_2 - a_1 - s(a_1 - a_0)| = 1e-6."""
    a0 = rng.uniform(-5, 5, size=3)
    d = rng.normal(size=3)
    d *= rng.uniform(2, 5) / np.linalg.norm(d)
    off = np.cross(d, rng.normal(size=3))
    off /= np.linalg.norm(off)
    a1 = a0 + d
    a2 = a1 + rng.uniform(0.3, 1.0) * d + 1e-6 * off
    a3 = a0 + 0.5 * d + rng.uniform(2, 4) * np.cross(d, off) / np.linalg.norm(d)
    return Tetrahedron(np.array([a0, a1, a2, a3]))


def _same_dir(u, v):
    return min(np.linalg.norm(u - v), np.linalg.norm(u + v))


@pytest.mark.parametrize("shape, bound", [("random", 1e-12), ("needle", 1e-8)])
def test_closed_forms_match_plane_intersections(shape, bound):
    rng = np.random.default_rng(31)
    if shape == "random":
        cases = random_mixed(30, seed0=900)
    else:
        cases = [_needle(rng) for _ in range(30)]
    for t in cases:
        v = t.vertices
        g = centroid(t)
        m_ref = solve3(*(midplane(t, 0, j) for j in (1, 2, 3)))
        c_ref = solve3(*(perp_bisector(t, 0, j) for j in (1, 2, 3)))
        assert np.linalg.norm(monge_point(t) - m_ref) <= bound * np.linalg.norm(m_ref - g)
        assert np.linalg.norm(circumcenter(t) - c_ref) <= bound * np.linalg.norm(c_ref - g)
        for l in range(4):
            i, j, k = _FACES[l]
            edges = [v[i] - v[j], v[j] - v[k], v[k] - v[i]]
            h, n = altitude(t, l), ortho_perpendicular(t, l)
            h_ref = _plane_pair_line([v[l]] * 3, edges)
            n_ref = _plane_pair_line([v[k], v[i], v[j]], edges)
            assert _same_dir(h.dir, h_ref.dir) <= bound
            assert _same_dir(n.dir, n_ref.dir) <= bound
            reach = max(np.linalg.norm(n_ref.base - g), t.edge_scale())
            assert n.distance_to_point(n_ref.base) <= bound * reach
            for e in edges:
                e = e / np.linalg.norm(e)
                assert abs(h.dir @ e) <= 1e-8 and abs(n.dir @ e) <= 1e-8


@pytest.fixture
def decisions(monkeypatch):
    """The tolerance of every class decision made, in order."""
    made = []
    decide = tetra._classify
    monkeypatch.setattr(tetra, "_classify", lambda t, tol: made.append(tol) or decide(t, tol))
    return made


def test_one_analyze_decides_the_class_once(decisions):
    for kind in ALL_KINDS:
        # a fresh copy: `random_tetra` has classified its own tetrahedron
        t = Tetrahedron(random_tetra(kind, 7).vertices)
        decisions.clear()
        # analyze, noteworthy and build each ask for the class
        assert analyze(t).tetra_class == kind.value
        assert decisions == [Tolerance()]
        assert classify(t) is classify(t, Tolerance(1e-9))
        assert len(decisions) == 1


def test_each_tolerance_gets_its_own_class(decisions):
    # the README semi-orthocentric tetrahedron with its apex moved by 1e-9: its
    # orthogonal pair is within the default gate and outside a tighter one
    t = Tetrahedron([[0, 0, 0], [4, 0, 0], [1, 3, 0], [1.000000001, 2, 2]])
    tight = Tolerance(1e-12)
    assert analyze(t, tight).quadric_kind == "hyperboloid"
    assert analyze(t).quadric_kind == "plane_pair"
    assert classify(t, tight).kind is TetraKind.GENERIC
    assert decisions == [tight, Tolerance()]
    # the decisions are kept on the tetrahedron, so a copy decides afresh
    assert classify(Tetrahedron(t.vertices)).kind is TetraKind.SEMI_ORTHOCENTRIC
    assert decisions == [tight, Tolerance(), Tolerance()]
