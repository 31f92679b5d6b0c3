import math
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tetraquadric
from tetraquadric import (
    ConicKind,
    Line3,
    LineRelation,
    Plane3,
    Tolerance,
    altitude,
    build,
    centroid,
    dot,
    line_line_meet,
    midplane,
    orthocenter2d,
    random_tetra,
    section,
    vec,
)
from tetraquadric.core import _unit
from tetraquadric.tetra import _volume

from line_oracle import reference_line_meet
from test_exact_oracle import _cross, _dot, _sub
from plane_oracle import (
    ParallelPlanes,
    SingularSystem,
    line_from_two_planes,
    reference_plane,
    solve3,
)

EPS = np.finfo(float).eps

coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
vectors = st.builds(vec, coord, coord, coord)


def test_exported_names_are_pinned():
    names = [n for n, v in vars(tetraquadric).items() if not isinstance(v, types.ModuleType)]
    assert sorted(n for n in names if not n.startswith("_")) == [
        "AltitudeQuadric", "AnalysisReport", "ConicKind", "ConicSection", "DEFAULT_TOL",
        "EigenFrame", "Ellipse3", "InscribedTriangle", "Line3", "LineMeet", "LineRelation",
        "Mesh", "NoteworthyPoints", "Plane3", "QuadForm3", "QuadricKind", "RegulusTag",
        "TetraClass", "TetraKind", "Tetrahedron", "Tolerance", "TracelessClass",
        "TracelessKind", "Tripod", "altitude", "altitudes_meet", "analyze", "asymptotic_cone",
        "build", "centroid", "circumcenter", "classify", "classify_traceless", "contains_line",
        "dot", "edge_vector", "ellipse_section", "emit_svg_porism", "evaluate",
        "line_line_meet", "mesh_to_obj", "midplane", "monge_identity_residual", "monge_point",
        "noteworthy", "opposite_edge_dots", "ortho_perpendicular", "orthocenter2d",
        "parse_tetrahedron", "pluecker_residual", "porism_family", "q_ijkl", "q_star",
        "quadric_mesh", "random_tetra", "rank", "regulus_of", "rhs", "section",
        "serialize_tetrahedron", "trace", "tripod_through_generator", "vec",
    ]


@pytest.mark.parametrize(
    "read",
    [
        lambda t: altitude(t, 0).base,
        lambda t: altitude(t, 0).dir,
        lambda t: midplane(t, 0, 1).normal,
        lambda t: t.vertices,
        lambda t: build(t).center,
        centroid,
    ],
    ids=[
        "Line3.base", "Line3.dir", "Plane3.normal", "Tetrahedron.vertices",
        "AltitudeQuadric.center", "centroid",
    ],
)
def test_public_arrays_of_the_records_are_read_only(read):
    # a write would make the array disagree with the floats the library reads
    with pytest.raises(ValueError, match="read-only"):
        read(random_tetra("generic", 3))[:] = [1.0, 0.0, 0.0]


@pytest.mark.parametrize("name", ["base", "dir", "normal", "offset", "extra"])
def test_line_and_plane_refuse_every_assignment(name):
    # the records hold only their float slots; the public names are read-only
    for record in (Line3(vec(1, 2, 3), vec(0, 0, 2)), Plane3(vec(0, 3, 4), 10.0)):
        with pytest.raises(AttributeError):
            setattr(record, name, vec(1.0, 0.0, 0.0))


def test_each_read_of_a_record_array_is_a_fresh_copy():
    line, plane = Line3(vec(1, 2, 3), vec(0, 0, 2)), Plane3(vec(0, 3, 4), 10.0)
    first, second = line.base, line.base
    assert first is not second and first.tobytes() == second.tobytes()
    assert not first.flags.writeable and not second.flags.writeable
    assert repr(line) == "Line3(base=[1.0, 2.0, 3.0], dir=[0.0, 0.0, 1.0])"
    assert repr(plane) == "Plane3(normal=[0.0, 0.6, 0.8], offset=2.0)"


def test_dot_examples():
    assert dot(vec(1, 0, 0), vec(0, 1, 0)) == 0
    assert dot(vec(-4, 0, 0), vec(0, 2, -2)) == 0  # b01.b23 of the orthocentric fixture
    assert dot(vec(-4, 0, 0), vec(-1, 2, -2)) == 4  # b01.b23 of the generic fixture


def _det(u, v, w):
    """det(u, v, w) by `Tetrahedron`'s compensated volume sum, the rows exact."""
    rows = [x.tolist() for x in (u, v, w)]
    n = [_cross(rows[1], rows[2]), _cross(rows[2], rows[0]), _cross(rows[0], rows[1])]
    return _volume(rows, [[0.0] * 3] * 3, n)


def test_volume_examples():
    assert _det(vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)) == pytest.approx(1)
    assert _det(vec(1, 0, 0), vec(2, 0, 0), vec(0, 1, 0)) == pytest.approx(0)
    assert _det(vec(-4, 0, 0), vec(-1, -3, 0), vec(-2, -1, -2)) == pytest.approx(-24)


@given(vectors, vectors, vectors)
def test_volume_is_alternating(u, v, w):
    slack = 1e-12 * max(
        1.0, np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(w)
    )
    assert _det(u, v, w) == pytest.approx(-_det(v, u, w), abs=slack)
    assert _det(u, v, w) == pytest.approx(-_det(u, w, v), abs=slack)


def test_solve3_axis_aligned():
    p = solve3(
        Plane3(vec(1, 0, 0), 1.0), Plane3(vec(0, 1, 0), 2.0), Plane3(vec(0, 0, 1), 3.0)
    )
    np.testing.assert_allclose(p, [1, 2, 3])


def test_solve3_midplanes_of_generic_fixture():
    # midplanes of the generic fixture perpendicular to edges 01, 02, 03
    p1 = Plane3.from_point_normal(vec(1.5, 2, 1), vec(-4, 0, 0))
    p2 = Plane3.from_point_normal(vec(3, 0.5, 1), vec(-1, -3, 0))
    p3 = Plane3.from_point_normal(vec(2.5, 1.5, 0), vec(-2, -1, -2))
    np.testing.assert_allclose(solve3(p1, p2, p3), [1.5, 1.0, 1.25], atol=1e-12)


def test_solve3_singular():
    with pytest.raises(SingularSystem):
        solve3(
            Plane3(vec(1, 0, 0), 0.0),
            Plane3(vec(0, 1, 0), 0.0),
            Plane3(vec(1, 1, 0), 1.0),
        )


def test_solve3_lies_on_random_planes():
    rng = np.random.default_rng(7)
    for _ in range(100):
        normals = rng.normal(size=(3, 3))
        if abs(np.linalg.det(normals / np.linalg.norm(normals, axis=1, keepdims=True))) < 1e-3:
            continue
        offsets = rng.normal(size=3) * 10
        planes = [Plane3(n, o) for n, o in zip(normals, offsets)]
        x = solve3(*planes)
        scale = max(1.0, float(np.linalg.norm(x)))
        for p in planes:
            assert p.residual(x) <= 1e-9 * scale


def test_line_from_two_planes_examples():
    line = line_from_two_planes(Plane3(vec(1, 0, 0), 0.0), Plane3(vec(0, 1, 0), 0.0))
    np.testing.assert_allclose(line.dir, [0, 0, 1])
    assert line.distance_to_point(vec(0, 0, 5)) < 1e-12

    # altitude planes of the trirectangular fixture for the apex vertex
    p1 = Plane3.from_point_normal(vec(0, 0, 1), vec(-1, 0, 0))
    p2 = Plane3.from_point_normal(vec(0, 0, 1), vec(1, -1, 0))
    line = line_from_two_planes(p1, p2)
    np.testing.assert_allclose(line.dir, [0, 0, 1])
    assert line.distance_to_point(vec(0, 0, 1)) < 1e-12

    with pytest.raises(ParallelPlanes):
        line_from_two_planes(Plane3(vec(1, 0, 0), 0.0), Plane3(vec(1, 0, 0), 1.0))


def test_line_from_two_planes_on_both():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p1 = Plane3(rng.normal(size=3), rng.normal() * 5)
        p2 = Plane3(rng.normal(size=3), rng.normal() * 5)
        if np.linalg.norm(np.cross(p1.normal, p2.normal)) < 1e-3:
            continue
        line = line_from_two_planes(p1, p2)
        for t in (0.0, 1.0):
            x = line.point_at(t)
            scale = max(1.0, float(np.linalg.norm(x)))
            assert p1.residual(x) <= 1e-9 * scale
            assert p2.residual(x) <= 1e-9 * scale


def test_line_line_meet_examples():
    x_axis = Line3(vec(0, 0, 0), vec(1, 0, 0))
    y_axis = Line3(vec(0, 0, 0), vec(0, 1, 0))
    m = line_line_meet(x_axis, y_axis)
    assert m.relation is LineRelation.MEETING
    np.testing.assert_allclose(m.point, [0, 0, 0], atol=1e-12)

    shifted = Line3(vec(0, 0, 1), vec(1, 0, 0))
    assert line_line_meet(x_axis, shifted).relation is LineRelation.PARALLEL
    assert line_line_meet(x_axis, x_axis).relation is LineRelation.IDENTICAL

    skew = Line3(vec(0, 0, 1), vec(0, 1, 0))
    assert line_line_meet(x_axis, skew).relation is LineRelation.SKEW


def test_line_line_meet_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(50):
        l1 = Line3(rng.normal(size=3) * 5, rng.normal(size=3))
        l2 = Line3(rng.normal(size=3) * 5, rng.normal(size=3))
        m12 = line_line_meet(l1, l2)
        m21 = line_line_meet(l2, l1)
        assert m12.relation is m21.relation
        if m12.point is not None:
            np.testing.assert_allclose(m12.point, m21.point, atol=1e-9)


def _line_pairs(rng, n):
    """n pairs of lines, a quarter each random, parallel or nearly so, identical,
    and meeting or near-meeting at an offset of 1e-11..1e-8 of their size, at
    scales 1e-6..1e6 and shifted up to 1e6 from the origin."""
    for k in range(n):
        size = 10 ** rng.uniform(-6, 6)
        shift = 10 ** rng.uniform(0, 6) * rng.normal(size=3) * (k % 8 < 4)
        d1, d2 = rng.normal(size=3), rng.normal(size=3)
        b1 = shift + size * rng.normal(size=3)
        b2 = shift + size * rng.normal(size=3)
        kind = k % 4
        if kind == 1:  # parallel, either orientation, or turned by 1e-12..1e-6
            tilt = 10 ** rng.uniform(-12, -6) * rng.normal(size=3) * (rng.random() < 0.5)
            d2 = d1 * rng.choice([-1.0, 1.0]) + tilt * np.linalg.norm(d1)
        elif kind == 2:  # identical: a second base point on the first line
            d2 = d1 * rng.choice([-1.0, 1.0])
            b2 = b1 + size * rng.normal() * d1 / np.linalg.norm(d1)
        elif kind == 3:  # through one point, then moved off it along the common normal
            if rng.random() < 0.25:  # at directions 1e-8..1e-3 apart
                d2 = d1 + 10 ** rng.uniform(-8, -3) * rng.normal(size=3) * np.linalg.norm(d1)
            n = np.cross(d1, d2)
            off = 10 ** rng.uniform(-11, -8) * size * n / np.linalg.norm(n)
            b2 = b1 + size * rng.normal() * d1 + size * rng.normal() * d2 + off
        yield Line3(b1, d1), Line3(b2, d2)


def assert_meeting_point_is_exact(m, l1, l2):
    """The meeting point is within 4 eps * size / |c| of the midpoint of the closest
    points, exact in `Fraction` from the float bases and directions, with size the
    larger base point and c = d1 x d2: the conditioning of the point itself."""
    b1, d1, b2, d2 = ([Fraction(x) for x in a.tolist()] for a in (l1.base, l1.dir, l2.base, l2.dir))
    c, w = _cross(d1, d2), _sub(b2, b1)
    cc = _dot(c, c)
    t1, t2 = _dot(_cross(w, d2), c) / cc, _dot(_cross(w, d1), c) / cc
    exact = [(p + t1 * u + q + t2 * v) / 2 for p, u, q, v in zip(b1, d1, b2, d2)]
    err = math.hypot(*(float(Fraction(g) - e) for g, e in zip(m.point.tolist(), exact)))
    assert err * math.sqrt(cc) <= 4 * EPS * max(math.hypot(*l1.base), math.hypot(*l2.base))


def test_line_line_meet_matches_the_scalar_reference():
    # the meet rule on one pair against the scalar reference, for the
    # relation and the gap; the meeting point against the exact closest point
    rng = np.random.default_rng(2024)
    seen = set()
    for l1, l2 in _line_pairs(rng, 10_000):
        got = line_line_meet(l1, l2)
        relation, gap = reference_line_meet(l1, l2)
        assert got.relation is relation
        assert abs(got.gap - gap) <= 1e-14 * max(math.hypot(*(l2.base - l1.base)), 1.0)
        assert (got.point is None) == (relation is not LineRelation.MEETING)
        if got.point is not None:
            assert_meeting_point_is_exact(got, l1, l2)
        seen.add(got.relation)
    assert seen == set(LineRelation)


def test_near_parallel_lines_are_decided():
    # directions 3e-9 and 1e-7 apart, above the parallel gate: 1 - (d1 . d2)^2
    # cancels there and rounds to 0 at 3e-9, so the meeting point is read from
    # c = d1 x d2, which keeps its digits
    x_axis = Line3(vec(0, 0, 0), vec(1, 0, 0))
    for tilt in (3e-9, 1e-7):
        m = line_line_meet(x_axis, Line3(vec(5, 0, 0), vec(1, tilt, 0)))
        assert m.relation is LineRelation.MEETING
        assert math.hypot(*(m.point - vec(5, 0, 0))) <= 1e-12 * 5
        skew = line_line_meet(x_axis, Line3(vec(5, 0, 1), vec(1, tilt, 0)))
        assert skew.relation is LineRelation.SKEW


def test_tolerance_validation():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Tolerance(rel_eps=bad)
    assert Tolerance().gate(2.0, 3.0) == pytest.approx(6e-9, rel=1e-3)


@pytest.mark.parametrize("mag", [1e200, 1e-200])
def test_norm_free_of_overflow_and_underflow(mag):
    v = vec(mag, mag, 0)
    u, s = _unit(v.tolist())
    assert s == pytest.approx(mag * np.sqrt(2), rel=1e-15)
    np.testing.assert_allclose(u, [np.sqrt(0.5), np.sqrt(0.5), 0], rtol=1e-15)
    np.testing.assert_array_equal(Line3(vec(0, 0, 0), vec(-mag, 0, 0)).dir, [1, 0, 0])


def test_plane_matches_the_double_normalising_reference():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(3000):
        n = rng.normal(size=3) * 10.0 ** rng.uniform(-6, 6)
        cases.append((n, rng.normal() * 10.0 ** rng.uniform(-6, 6)))
    # leading components of about 1e-13 of the length, of either sign, so that
    # the sign comes from a later component; and offsets of both signs
    for lead in (1e-13, -1e-13, 3e-13, -7e-14, 2e-12, -2e-12):
        for rest in ([1.0, 2.0], [-1.0, 2.0], [0.0, -3.0], [-1e-13, 1.0]):
            for scale in (1e-6, 1.0, 1e6):
                n = scale * np.array([lead, *rest])
                cases += [(n, 2.5 * scale), (n, -2.5 * scale), (n, 0.0)]
    for n, off in cases:
        p = Plane3(n, off)
        u, o = reference_plane(n, off)
        assert p.normal.tobytes() == u.tobytes() and p.offset.hex() == o.hex()
    for make in (Plane3, reference_plane):
        with pytest.raises(ValueError):
            make(vec(0, 0, 0), 1.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "normal, offset",
    [
        ((0, 0, 1), NAN), ((0, 0, 1), INF), ((0, 0, 1), -INF), ((NAN, 0, 1), 0.0),
        ((INF, 0, 1), 0.0),
        # a finite offset whose unit-normal form overflows
        ((0, 0, 1e-300), 1e300),
    ],
)
def test_plane_rejects_a_non_finite_normal_or_offset(normal, offset):
    with pytest.raises(ValueError, match="finite"):
        Plane3(np.array(normal, dtype=float), offset)


def test_a_nan_plane_cuts_no_section_of_the_hyperboloid(t_gen):
    qd = build(t_gen)
    assert section(qd, Plane3(vec(0, 0, 1), 0.5)).kind is not ConicKind.OTHER
    with pytest.raises(ValueError, match="finite"):
        section(qd, Plane3(vec(0, 0, 1), NAN))


@pytest.mark.parametrize(
    "base, direction",
    [
        ((INF, 0, 0), (1, 0, 0)), ((NAN, 0, 0), (0, 1, 0)), ((0, -INF, 0), (0, 0, 1)),
        ((0, 0, 0), (INF, 1, 0)), ((0, 0, 0), (NAN, 1, 0)),
    ],
)
def test_line_rejects_a_non_finite_base_or_direction(base, direction):
    with pytest.raises(ValueError, match="finite"):
        Line3(np.array(base, dtype=float), np.array(direction, dtype=float))


def _unit_and_finite(u, v):
    """u is finite and unit to 2 ulps, also where |v| is subnormal."""
    return np.isfinite(u).all() and abs(math.hypot(*u) - 1.0) <= 2 * EPS


@pytest.mark.parametrize("c", [1e308, -1e308, 1e-320, -1e-320, NAN, INF, -INF])
def test_records_at_the_ends_of_the_double_range(c):
    # each is built with finite fields or refused with ValueError, never an
    # OverflowError, ZeroDivisionError or numpy warning
    finite, w = math.isfinite(c), vec(1.0, -2.0, 0.5)
    vectors = [vec(c, c, c), vec(0.0, c, 0.0)]
    for i in range(3):
        vectors.append(w.copy())
        vectors[-1][i] = c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in vectors:
            if not finite:
                for make, args in ((_unit, (v.tolist(),)), (Line3, (v, w)), (Line3, (w, v)),
                                   (Plane3, (v, 1.0)), (Plane3, (w, c))):
                    with pytest.raises(ValueError, match="finite"):
                        make(*args)
                continue
            assert _unit_and_finite(_unit(v.tolist())[0], v)
            assert Line3(v, w).base.tolist() == v.tolist()
            assert _unit_and_finite(Line3(w, v).dir, v)
            assert Plane3(w, c).offset == c / math.hypot(*w)
            if 1.0 / math.hypot(*v) < INF:
                p = Plane3(v, 1.0)
                assert _unit_and_finite(p.normal, v) and math.isfinite(p.offset)
            else:  # the unit offset 1 / |v| overflows
                with pytest.raises(ValueError, match="finite"):
                    Plane3(v, 1.0)


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_orthocenter2d_rejects_a_non_finite_vertex(bad):
    for i in range(3):
        tri = [vec(0, 0, 0), vec(4, 0, 0), vec(1, 3, 0)]
        tri[i] = vec(1, bad, 0)
        with pytest.raises(ValueError, match="triangle vertices must be finite"):
            orthocenter2d(tuple(tri))


@pytest.mark.parametrize(
    "tri",
    [
        [(0, 0, 0), (4, 0, 0), (1, 3, 0), (1, 1, 0)],
        [(0, 0, 0), (4, 0, 0)],
        [],
        [(0, 0, 0), (4, 0, 0), (1, 3)],
    ],
    ids=["four_points", "two_points", "no_point", "a_2_vector"],
)
def test_orthocenter2d_wants_three_3_vectors(tri):
    with pytest.raises(ValueError):
        orthocenter2d([np.array(p, dtype=float) for p in tri])
