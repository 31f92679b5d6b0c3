import math

import numpy as np
import pytest

from tetraquadric import (
    Plane3,
    QuadForm3,
    TracelessKind,
    classify_traceless,
    evaluate,
    outer_sym,
    polar,
    rank,
    restrict_to_plane,
    trace,
    tripod_through_generator,
    vec,
)
from tetraquadric.core import canonical_dir
from tetraquadric.errors import DegenerateForm, NotOnCone, NotTraceless
from tetraquadric.forms import _tripods

D = QuadForm3.diagonal


def random_form(rng):
    return QuadForm3.from_matrix(rng.normal(size=(3, 3)))


def test_evaluate_examples():
    q = D(1, 1, -2)
    assert evaluate(q, vec(1, 1, 1)) == pytest.approx(0)
    assert evaluate(q, vec(1, 0, 0)) == pytest.approx(1)


def test_polar_examples():
    q = D(1, 1, -2)
    assert polar(q, vec(1, 0, 0), vec(0, 0, 1)) == pytest.approx(0)
    assert polar(q, vec(1, 0, 1), vec(1, 0, -1)) == pytest.approx(3)


def test_polarization_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = random_form(rng)
        v, w = rng.normal(size=3), rng.normal(size=3)
        lhs = polar(q, v, w)
        rhs = 0.5 * (evaluate(q, v + w) - evaluate(q, v) - evaluate(q, w))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))
        assert polar(q, v, v) == pytest.approx(evaluate(q, v))


def test_outer_sym_examples():
    assert outer_sym(vec(1, 0, 0), vec(1, 0, 0)) == D(1, 0, 0)
    q = outer_sym(vec(1, 0, 0), vec(0, 1, 0))
    assert q.s12 == pytest.approx(0.5)
    assert trace(q) == pytest.approx(0)
    # opposite edges 01 and 23 of the generic fixture
    q = outer_sym(vec(-4, 0, 0), vec(-1, 2, -2))
    assert trace(q) == pytest.approx(4)


def test_outer_sym_trace_is_dot():
    rng = np.random.default_rng(6)
    for _ in range(100):
        c, d = rng.normal(size=3) * 10, rng.normal(size=3) * 10
        assert trace(outer_sym(c, d)) == pytest.approx(
            float(np.dot(c, d)), rel=1e-12, abs=1e-12
        )


def test_trace_invariant_under_rotation():
    rng = np.random.default_rng(8)
    for _ in range(50):
        q = random_form(rng)
        omega, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = QuadForm3.from_matrix(omega.T @ q.matrix @ omega)
        assert trace(rotated) == pytest.approx(trace(q), rel=1e-10, abs=1e-12)


def test_eigendecompose_diagonal():
    frame = D(3, 2, 1).frame
    np.testing.assert_allclose(frame.values, [3, 2, 1])
    np.testing.assert_allclose(np.abs(frame.axes), np.eye(3), atol=1e-12)


def test_eigendecompose_zero_form():
    frame = QuadForm3.zero().frame
    np.testing.assert_allclose(frame.values, [0, 0, 0])
    np.testing.assert_allclose(frame.axes @ frame.axes.T, np.eye(3), atol=1e-12)


def test_matrix_and_frame_are_computed_once_and_frozen():
    q = QuadForm3(2.0, 1.0, -3.0, 0.5, -0.25, 0.75)
    for a in (q.matrix, q.frame.values, q.frame.axes):
        with pytest.raises(ValueError):
            a[0] += 1.0
    assert q.matrix is q.matrix and q.frame is q.frame
    np.testing.assert_allclose(q.frame.reconstruct(), q.matrix, atol=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_form_is_degenerate(bad):
    q = QuadForm3(1.0, bad, -1.0)
    for f in (lambda q: q.frame, rank, classify_traceless):
        with pytest.raises(DegenerateForm):
            f(q)


def test_eigendecompose_reconstruction():
    rng = np.random.default_rng(9)
    for _ in range(100):
        q = random_form(rng)
        frame = q.frame
        scale = max(1e-30, float(np.max(np.abs(frame.values))))
        assert np.max(np.abs(frame.reconstruct() - q.matrix)) <= 1e-9 * scale
        np.testing.assert_allclose(frame.axes @ frame.axes.T, np.eye(3), atol=1e-12)
        assert frame.values[0] >= frame.values[1] >= frame.values[2]


def test_rank_examples():
    assert rank(QuadForm3.zero()) == 0
    assert rank(D(1, -1, 0)) == 2
    assert rank(D(1, 1, -2)) == 3


def test_classify_traceless_examples():
    assert classify_traceless(QuadForm3.zero()).kind is TracelessKind.ZERO_FORM
    cls = classify_traceless(D(1, -1, 0))
    assert cls.kind is TracelessKind.ORTHOGONAL_PLANE_PAIR
    n1, n2 = cls.planes[0].normal, cls.planes[1].normal
    s = 1 / math.sqrt(2)
    got = {tuple(np.round(n1, 9)), tuple(np.round(n2, 9))}
    want = {tuple(np.round([s, s, 0], 9)), tuple(np.round([s, -s, 0], 9))}
    assert got == want
    assert abs(np.dot(n1, n2)) < 1e-12
    assert classify_traceless(D(1, 1, -2)).kind is TracelessKind.EQUILATERAL_CONE


def test_classify_traceless_rejects_nonzero_trace():
    with pytest.raises(NotTraceless):
        classify_traceless(D(1, 1, 1))


def test_tripod_examples():
    q = D(1, 1, -2)
    g = vec(1, 1, 1) / math.sqrt(3)
    tp = tripod_through_generator(q, g)
    for leg in tp.legs:
        assert abs(evaluate(q, leg)) < 1e-9
        assert np.linalg.norm(leg) == pytest.approx(1)
    for a in range(3):
        for b in range(a + 1, 3):
            assert abs(np.dot(tp.legs[a], tp.legs[b])) < 1e-9

    with pytest.raises(NotOnCone):
        tripod_through_generator(q, vec(1, 0, 0))
    with pytest.raises(DegenerateForm):
        tripod_through_generator(D(1, -1, 0), vec(1, 1, 0))


def test_tripod_property_random():
    rng = np.random.default_rng(10)
    for _ in range(50):
        m = rng.normal(size=(3, 3))
        q = QuadForm3.from_matrix(m + m.T)
        q = q - trace(q) / 3.0 * D(1, 1, 1)
        if rank(q) < 3:
            continue
        frame = q.frame
        v1, v2, v3 = frame.values
        phi = rng.uniform(0, 2 * math.pi)
        # explicit generator in the principal frame
        if (frame.values > 0).sum() == 2:
            g = (
                math.cos(phi) / math.sqrt(v1) * frame.axes[0]
                + math.sin(phi) / math.sqrt(v2) * frame.axes[1]
                + 1.0 / math.sqrt(-v3) * frame.axes[2]
            )
        else:
            g = (
                1.0 / math.sqrt(v1) * frame.axes[0]
                + math.cos(phi) / math.sqrt(-v2) * frame.axes[1]
                + math.sin(phi) / math.sqrt(-v3) * frame.axes[2]
            )
        tp = tripod_through_generator(q, g)
        qn = q.max_abs()
        for leg in tp.legs:
            assert abs(evaluate(q, leg)) <= 1e-9 * qn
        for a in range(3):
            for b in range(a + 1, 3):
                assert abs(np.dot(tp.legs[a], tp.legs[b])) <= 1e-9


def _cone_generators(rng, count):
    """A random rank-3 traceless form with two positive eigenvalues and
    `count` generators of its cone."""
    while True:
        m = rng.normal(size=(3, 3))
        q = QuadForm3.from_matrix(m + m.T)
        q = q - trace(q) / 3.0 * D(1, 1, 1)
        if rank(q) == 3:
            break
    if (q.frame.values > 0).sum() == 1:
        q = -q
    frame = q.frame
    (v1, v2, v3), (e1, e2, e3) = frame.values, frame.axes
    phi = rng.uniform(0, 2 * math.pi, size=count)
    g = (
        (np.cos(phi) / math.sqrt(v1))[:, None] * e1
        + (np.sin(phi) / math.sqrt(v2))[:, None] * e2
        + 1.0 / math.sqrt(-v3) * e3
    )
    return q, g * rng.uniform(0.1, 10.0, size=(count, 1))


def test_tripod_is_the_batched_kernel():
    rng = np.random.default_rng(31)
    for _ in range(20):
        q, g = _cone_generators(rng, 9)
        legs = _tripods(q, g)
        assert legs.shape == (9, 3, 3)
        for row, gi in zip(legs, g):
            scalar = tripod_through_generator(q, gi)
            np.testing.assert_array_equal(np.array(scalar.legs), row)
            # leg 0 is the generator; every leg is a sign-canonical unit vector
            assert np.linalg.norm(np.cross(row[0], gi)) <= 1e-12 * np.linalg.norm(gi)
            for leg in row:
                np.testing.assert_allclose(leg, canonical_dir(leg), rtol=0, atol=1e-15)


def test_batched_tripod_keeps_every_check():
    rng = np.random.default_rng(32)
    q, g = _cone_generators(rng, 5)
    zero = g.copy()
    zero[3] = 0.0
    with pytest.raises(NotOnCone, match="zero vector"):
        _tripods(q, zero)
    off = g.copy()
    off[2] += np.array([0.3, -0.2, 0.1])
    with pytest.raises(NotOnCone, match="is not zero"):
        _tripods(q, off)
    with pytest.raises(DegenerateForm):
        _tripods(D(1, -1, 0), np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]))


def test_restrict_to_plane_examples():
    q = D(1, 1, -2)
    m2, _ = restrict_to_plane(q, Plane3(vec(0, 0, 1), 0.0))
    np.testing.assert_allclose(np.sort(np.diag(m2)), [1, 1], atol=1e-12)
    np.testing.assert_allclose(m2[0, 1], 0, atol=1e-12)

    n = vec(1, 1, 1) / math.sqrt(3)
    m2, _ = restrict_to_plane(q, Plane3(n, 0.0))
    assert np.trace(m2) == pytest.approx(0, abs=1e-12)

    m2, _ = restrict_to_plane(QuadForm3.zero(), Plane3(vec(0, 1, 0), 2.0))
    np.testing.assert_allclose(m2, 0, atol=1e-15)


def test_restriction_trace_identity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        q = random_form(rng)
        n = rng.normal(size=3)
        nhat = n / np.linalg.norm(n)
        m2, _ = restrict_to_plane(q, Plane3(n, rng.normal()))
        lhs = float(np.trace(m2)) + evaluate(q, nhat)
        assert lhs == pytest.approx(trace(q), rel=1e-10, abs=1e-12)
