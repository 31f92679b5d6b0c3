import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraquadric import (
    Line3,
    LineRelation,
    Plane3,
    Tolerance,
    dot,
    line_from_two_planes,
    line_line_meet,
    solve3,
    triple,
    vec,
)
from tetraquadric.core import norm, normalize
from tetraquadric.errors import ParallelPlanes, SingularSystem

coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
vectors = st.builds(vec, coord, coord, coord)


def test_dot_examples():
    assert dot(vec(1, 0, 0), vec(0, 1, 0)) == 0
    assert dot(vec(-4, 0, 0), vec(0, 2, -2)) == 0  # b01.b23 of the orthocentric fixture
    assert dot(vec(-4, 0, 0), vec(-1, 2, -2)) == 4  # b01.b23 of the generic fixture


def test_triple_examples():
    assert triple(vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)) == pytest.approx(1)
    assert triple(vec(1, 0, 0), vec(2, 0, 0), vec(0, 1, 0)) == pytest.approx(0)
    assert triple(vec(-4, 0, 0), vec(-1, -3, 0), vec(-2, -1, -2)) == pytest.approx(-24)


@given(vectors, vectors, vectors)
def test_triple_is_alternating(u, v, w):
    slack = 1e-12 * max(
        1.0, np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(w)
    )
    assert triple(u, v, w) == pytest.approx(-triple(v, u, w), abs=slack)
    assert triple(u, v, w) == pytest.approx(-triple(u, w, v), abs=slack)


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


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel_eps=0.0)
    assert Tolerance().gate(2.0, 3.0) == pytest.approx(6e-9, rel=1e-3)


@pytest.mark.parametrize("mag", [1e200, 1e-200])
def test_norm_free_of_overflow_and_underflow(mag):
    v = vec(mag, mag, 0)
    assert norm(v) == pytest.approx(mag * np.sqrt(2), rel=1e-15)
    np.testing.assert_allclose(normalize(v), [np.sqrt(0.5), np.sqrt(0.5), 0], rtol=1e-15)
    np.testing.assert_array_equal(Line3(vec(0, 0, 0), vec(-mag, 0, 0)).dir, [1, 0, 0])
