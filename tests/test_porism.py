import math
import warnings

import numpy as np
import pytest

from tetraquadric import (
    Plane3,
    QuadForm3,
    Tripod,
    classify,
    ellipse_section,
    orthocenter2d,
    porism_family,
    tripod_through_generator,
    vec,
)
from tetraquadric.core import DEFAULT_TOL
from tetraquadric.errors import (
    CollinearPoints,
    DegenerateForm,
    PlaneMissesLeg,
    ZeroOffset,
)
from tetraquadric.porism import _cut
from tetraquadric.tetra import TetraKind, Tetrahedron

from tripod_oracle import tripods

D = QuadForm3


def cut_tripod(tp, cut):
    """Base vertices where the legs of one tripod pierce the plane; with the
    origin as apex they form a trirectangular tetrahedron."""
    return _cut(np.array(tp.legs)[None], cut, DEFAULT_TOL)[0]


def test_trirect_from_tripod_cone():
    q = D(1, 1, -2)
    tp = tripod_through_generator(q, vec(1, 1, 1) / math.sqrt(3))
    cut = Plane3(vec(0, 0, 1.0), 1.0)
    legs = cut_tripod(tp, cut)
    for a in range(3):
        for b in range(a + 1, 3):
            assert abs(np.dot(legs[a], legs[b])) < 1e-9


def test_trirect_recovers_axis_tetrahedron():
    # the cone through all three axes, cut by the unit-sum plane
    tp = Tripod((vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)))
    legs = cut_tripod(tp, Plane3(vec(1, 1, 1.0), 1.0))
    got = sorted(tuple(np.round(l, 9)) for l in legs)
    assert got == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    verts = np.vstack([np.zeros(3), legs])
    assert classify(Tetrahedron(verts)).kind is TetraKind.ORTHOCENTRIC


def test_trirect_plane_misses_leg():
    q = D(1, 1, -2)
    tp = tripod_through_generator(q, vec(1, 1, 1) / math.sqrt(3))
    # plane parallel to the seed leg
    n = np.cross(tp.legs[0], tp.legs[1])
    with pytest.raises(PlaneMissesLeg):
        cut_tripod(tp, Plane3(n, 1.0))
    with pytest.raises(PlaneMissesLeg):
        cut_tripod(tp, Plane3(vec(0, 0, 1.0), 0.0))


@pytest.mark.parametrize("offset", [1e-10, 1e-300])
def test_trirect_cut_close_to_the_apex(offset):
    # the cone is scale-free; a plane exactly through the apex still raises above
    tp = tripod_through_generator(D(1, 1, -2), vec(1, 1, 1) / math.sqrt(3))
    legs = cut_tripod(tp, Plane3(vec(0, 0, 1.0), offset))
    unit = cut_tripod(tp, Plane3(vec(0, 0, 1.0), 1.0))
    np.testing.assert_allclose(legs / offset, unit, rtol=1e-14)


def test_orthocenter2d_examples():
    h = orthocenter2d((vec(0, 0, 0), vec(4, 0, 0), vec(1, 3, 0)))
    np.testing.assert_allclose(h, [1, 1, 0], atol=1e-12)
    h = orthocenter2d((vec(0, 0, 0), vec(1, 0, 0), vec(0, 1, 0)))
    np.testing.assert_allclose(h, 0, atol=1e-12)
    tri = (vec(0, 0, 0), vec(1, 0, 0), vec(0.5, math.sqrt(3) / 2, 0))
    np.testing.assert_allclose(
        orthocenter2d(tri), np.mean(tri, axis=0), atol=1e-12
    )
    with pytest.raises(CollinearPoints):
        orthocenter2d((vec(0, 0, 0), vec(1, 0, 0), vec(2, 0, 0)))


@pytest.mark.parametrize("s", [1e160, 1e-160, 1e300, 1e-300])
def test_orthocenter2d_at_extreme_scale(s):
    h = orthocenter2d((vec(0, 0, 0), vec(4, 0, 0) * s, vec(1, 3, 0) * s))
    np.testing.assert_allclose(h, vec(1, 1, 0) * s, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "tri, h",
    [
        # right angles at the origin and at (0, 1e308, 0); the second
        # triangle's longest edge, 2e308, is beyond the largest double
        (((0, 0, 0), (1.2e308, 0, 0), (0, 1e308, 0)), (0, 0, 0)),
        (((-1e308, 0, 0), (1e308, 0, 0), (0, 1e308, 0)), (0, 1e308, 0)),
    ],
)
def test_orthocenter2d_near_the_double_maximum(tri, h):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = orthocenter2d(tuple(np.array(p, float) for p in tri))
    np.testing.assert_allclose(got, h, rtol=1e-12, atol=1e-12 * 1e308)


def test_orthocenter2d_beyond_the_double_maximum():
    # obtuse and flat: the orthocenter is near (0, -1e316, 0), past every double
    tri = (vec(-1e308, 0, 0), vec(1e308, 0, 0), vec(0, 1e300, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CollinearPoints, match="double range"):
            orthocenter2d(tri)


def test_orthocenter2d_perpendicularity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        tri = [rng.normal(size=3) * 3 for _ in range(3)]
        if np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) < 0.5:
            continue
        h = orthocenter2d(tuple(tri))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            assert abs(np.dot(h - tri[i], tri[j] - tri[k])) < 1e-8


def test_ellipse_section_circle():
    e = ellipse_section(D(1, 1, -2), 1.0)
    np.testing.assert_allclose(e.center, [0, 0, 1], atol=1e-12)
    for a in e.semi_axes:
        assert np.linalg.norm(a) == pytest.approx(math.sqrt(2))


def test_ellipse_section_general():
    e = ellipse_section(D(2, 1, -3), 1.0)
    lengths = sorted(np.linalg.norm(a) for a in e.semi_axes)
    assert lengths[0] == pytest.approx(math.sqrt(1.5))
    assert lengths[1] == pytest.approx(math.sqrt(3))
    assert abs(np.dot(*e.semi_axes)) < 1e-12
    # every sampled point of the ellipse is on the cone
    u, v = e.semi_axes
    for th in np.linspace(0, 2 * math.pi, 17):
        p = e.center + math.cos(th) * u + math.sin(th) * v
        from tetraquadric import evaluate

        assert abs(evaluate(D(2, 1, -3), p)) < 1e-9


def test_ellipse_section_errors():
    with pytest.raises(ZeroOffset):
        ellipse_section(D(1, 1, -2), 0.0)
    with pytest.raises(DegenerateForm):
        ellipse_section(D(1, -1, 0), 1.0)
    with pytest.raises(DegenerateForm):
        ellipse_section(D(1, 1, 1), 1.0)


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
def test_non_finite_height_is_rejected(rho):
    q = D(2, 1, -3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rho must be finite"):
            ellipse_section(q, rho)
        with pytest.raises(ValueError, match="rho must be finite"):
            porism_family(q, rho, 3)


def test_porism_family_circle_is_equilateral():
    fam = porism_family(D(1, 1, -2), 1.0, 12)
    assert len(fam) == 12
    for tri in fam:
        for ang in tri.angles:
            assert ang == pytest.approx(math.pi / 3, abs=1e-9)
        oc = orthocenter2d(tri.vertices)
        assert np.linalg.norm(oc - [0, 0, 1]) < 1e-9


def test_porism_family_general():
    q = D(2, 1, -3)
    e = ellipse_section(q, 1.0)
    fam = porism_family(q, 1.0, 8)
    assert len(fam) == 8
    shapes = set()
    for tri in fam:
        assert all(a < math.pi / 2 - 1e-7 for a in tri.angles)
        oc = orthocenter2d(tri.vertices)
        assert np.linalg.norm(oc - e.center) <= 1e-8 * max(math.hypot(*a) for a in e.semi_axes)
        shapes.add(round(max(tri.angles), 6))
    assert len(shapes) > 1  # not all congruent

    fam1 = porism_family(q, 1.0, 1)
    assert len(fam1) == 1
    with pytest.raises(ValueError):
        porism_family(q, 1.0, 0)


def test_trirectangular_length_identity():
    # |L1L2|^2 + |L1L3|^2 - |L2L3|^2 = 2 |OL1|^2 for every family member
    q = D(2, 1, -3)
    for tri_offset, rho in ((5, 1.0), (9, -0.7)):
        fam = porism_family(q, rho, tri_offset)
        for tri in fam:
            l1, l2, l3 = tri.vertices
            lhs = (
                np.dot(l2 - l1, l2 - l1)
                + np.dot(l3 - l1, l3 - l1)
                - np.dot(l3 - l2, l3 - l2)
            )
            rhs = 2 * np.dot(l1, l1)
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_apex_projects_to_orthocenter():
    q = D(2, 1, -3)
    e = ellipse_section(q, 1.0)
    reach = max(1.0, *(math.hypot(*a) for a in e.semi_axes))
    for tri in porism_family(q, 1.0, 6):
        n = e.plane.normal
        apex_proj = e.plane.offset * n  # origin projected onto the cut plane
        oc = orthocenter2d(tri.vertices)
        assert np.linalg.norm(apex_proj - oc) <= 1e-8 * reach


def test_triangles_ccw_in_section_plane():
    q = D(2, 1, -3)
    e = ellipse_section(q, 1.0)
    u = e.semi_axes[0] / np.linalg.norm(e.semi_axes[0])
    v = e.semi_axes[1] / np.linalg.norm(e.semi_axes[1])
    for tri in porism_family(q, 1.0, 6):
        pts = [(np.dot(p, u), np.dot(p, v)) for p in tri.vertices]
        area2 = sum(
            pts[i][0] * pts[(i + 1) % 3][1] - pts[(i + 1) % 3][0] * pts[i][1]
            for i in range(3)
        )
        assert area2 > 0


def _reference_family(q, rho, count):
    """Triangle by triangle: the oracle's tripod, cut, counter-clockwise order,
    angles."""
    frame = q.frame
    if (frame.values > 0).sum() == 1:
        q = QuadForm3.from_matrix(-q.matrix)
        frame = q.frame
    (v1, v2, v3), (e1, e2, e3) = frame.values, frame.axes
    cut = Plane3.from_point_normal(rho * e3, e3)
    out = []
    for idx in range(count):
        phi = 2.0 * math.pi * idx / count
        g = (
            math.cos(phi) / math.sqrt(v1) * e1
            + math.sin(phi) / math.sqrt(v2) * e2
            + 1.0 / math.sqrt(-v3) * e3
        )
        pts = list(_cut(tripods(q, g[None]), cut, DEFAULT_TOL)[0])
        xy = [(np.dot(p, e1), np.dot(p, e2)) for p in pts]
        area2 = sum(xy[i][0] * xy[i - 2][1] - xy[i - 2][0] * xy[i][1] for i in range(3))
        if area2 < 0:
            pts = [pts[0], pts[2], pts[1]]
        angles = []
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            u = (pts[b] - pts[a]) / np.linalg.norm(pts[b] - pts[a])
            w = (pts[c] - pts[a]) / np.linalg.norm(pts[c] - pts[a])
            angles.append(math.acos(max(-1.0, min(1.0, np.dot(u, w)))))
        out.append((np.array(pts), np.array(angles)))
    return out


@pytest.mark.parametrize(
    "q, rho, count",
    [
        (D(2, 1, -3), 1.0, 7),
        (D(2, 1, -3), -0.7, 12),
        (D(-1, -2, 3), 2.5, 5),
        (QuadForm3(0.3, 1.1, -1.4, 0.8, -0.5, 0.2), 3.0, 31),
    ],
)
def test_porism_family_matches_reference_loop(q, rho, count):
    fam = porism_family(q, rho, count)
    ref = _reference_family(q, rho, count)
    assert len(fam) == len(ref) == count
    for tri, (pts, angles) in zip(fam, ref):
        np.testing.assert_allclose(
            np.array(tri.vertices), pts, rtol=0, atol=1e-12 * np.max(np.abs(pts))
        )
        np.testing.assert_allclose(tri.angles, angles, rtol=1e-12, atol=0)


@pytest.mark.parametrize("rho", [1e300, -1e300, 1e-300, -1e-300])
def test_porism_at_extreme_heights_stays_finite(rho):
    q = D(2, 1, -3)
    e = ellipse_section(q, rho)
    assert np.all(np.isfinite(e.center)) and np.all(np.isfinite(e.semi_axes))
    assert max(math.hypot(*a) for a in e.semi_axes) == pytest.approx(math.sqrt(3) * abs(rho))
    fam = porism_family(q, rho, 8)
    ref = porism_family(q, 1.0, 8)
    for tri, unit in zip(fam, ref):
        pts = np.array(tri.vertices)
        assert np.all(np.isfinite(pts))
        expected = np.array(unit.vertices) * math.copysign(1, rho)
        np.testing.assert_allclose(pts / abs(rho), expected, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(tri.angles, unit.angles, rtol=1e-14)
        h = orthocenter2d(tri.vertices)
        np.testing.assert_allclose(h, e.center, rtol=0, atol=1e-12 * abs(rho))


def _near_rank_two_forms():
    """Traceless forms with eigenvalues 1, r and -(1 + r), r in 1e-8..1e-1, in
    fixed random frames; each also negated, so that one eigenvalue is positive."""
    rng = np.random.default_rng(22)
    for r in np.logspace(-8, -1, 8):
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = rot @ np.diag([1.0, r, -(1.0 + r)]) @ rot.T
        yield QuadForm3.from_matrix(m)
        yield QuadForm3.from_matrix(-m)


@pytest.mark.parametrize("rho", [1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300])
def test_porism_of_a_near_rank_two_cone_keeps_its_tripods(rho):
    # an ellipse with semi-axes up to 1e4 apart: each tripod stays orthogonal
    # and on the cone to a few ulps, and its triangle keeps the center as orthocenter
    eps = np.finfo(float).eps
    for q in _near_rank_two_forms():
        e = ellipse_section(q, rho)
        radius = max(math.hypot(*a) for a in e.semi_axes)
        for tri in porism_family(q, rho, 24):
            units = [p / math.hypot(*p) for p in tri.vertices]
            for i, j in ((0, 1), (0, 2), (1, 2)):
                assert abs(np.dot(units[i], units[j])) <= 16 * eps
            for u in units:
                assert abs(u @ q.matrix @ u) <= 32 * eps * q.max_abs()
            h = orthocenter2d(tri.vertices)
            assert math.dist(h, e.center) <= 1e-12 * radius
