import math
import warnings

import numpy as np
import pytest

from tetraquadric import (
    Plane3,
    QuadForm3,
    TracelessKind,
    classify_traceless,
    evaluate,
    rank,
    trace,
    tripod_through_generator,
    vec,
)
from tetraquadric.core import _unit
from tetraquadric.errors import DegenerateForm, NotOnCone, NotTraceless

from test_porism import _near_rank_two_forms
from tripod_oracle import plane_bases, tripods

D = QuadForm3


def random_form(rng):
    return QuadForm3.from_matrix(rng.normal(size=(3, 3)))


def test_evaluate_examples():
    q = D(1, 1, -2)
    assert evaluate(q, vec(1, 1, 1)) == pytest.approx(0)
    assert evaluate(q, vec(1, 0, 0)) == pytest.approx(1)


def test_trace_invariant_under_rotation():
    rng = np.random.default_rng(8)
    for _ in range(50):
        q = random_form(rng)
        omega, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = QuadForm3.from_matrix(omega.T @ q.matrix @ omega)
        assert trace(rotated) == pytest.approx(trace(q), rel=1e-10, abs=1e-12)


def test_frame_diagonal():
    frame = D(3, 2, 1).frame
    np.testing.assert_allclose(frame.values, [3, 2, 1])
    np.testing.assert_allclose(np.abs(frame.axes), np.eye(3), atol=1e-12)


def test_frame_zero_form():
    frame = D(0.0, 0.0, 0.0).frame
    np.testing.assert_allclose(frame.values, [0, 0, 0])
    np.testing.assert_allclose(frame.axes @ frame.axes.T, np.eye(3), atol=1e-12)


def test_matrix_and_frame_are_computed_once_and_frozen():
    q = QuadForm3(2.0, 1.0, -3.0, 0.5, -0.25, 0.75)
    for a in (q.matrix, q.frame.values, q.frame.axes):
        with pytest.raises(ValueError):
            a[0] += 1.0
    assert q.matrix is q.matrix and q.frame is q.frame
    f = q.frame
    np.testing.assert_allclose((f.axes.T * f.values) @ f.axes, q.matrix, atol=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_form_is_degenerate(bad):
    q = QuadForm3(1.0, bad, -1.0)
    for f in (lambda q: q.frame, rank, classify_traceless):
        with pytest.raises(DegenerateForm):
            f(q)


def test_frame_reconstruction():
    rng = np.random.default_rng(9)
    for _ in range(100):
        q = random_form(rng)
        frame = q.frame
        scale = max(1e-30, float(np.max(np.abs(frame.values))))
        recon = (frame.axes.T * frame.values) @ frame.axes
        assert np.max(np.abs(recon - q.matrix)) <= 1e-9 * scale
        np.testing.assert_allclose(frame.axes @ frame.axes.T, np.eye(3), atol=1e-12)
        assert frame.values[0] >= frame.values[1] >= frame.values[2]


def test_rank_examples():
    assert rank(D(0.0, 0.0, 0.0)) == 0
    assert rank(D(1, -1, 0)) == 2
    assert rank(D(1, 1, -2)) == 3


def test_classify_traceless_examples():
    assert classify_traceless(D(0.0, 0.0, 0.0)).kind is TracelessKind.ZERO_FORM
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
        q = QuadForm3.from_matrix(q.matrix - trace(q) / 3.0 * np.eye(3))
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
    """A random rank-3 traceless form and `count` generators of its cone."""
    while True:
        m = rng.normal(size=(3, 3))
        q = QuadForm3.from_matrix(m + m.T)
        q = QuadForm3.from_matrix(q.matrix - trace(q) / 3.0 * np.eye(3))
        if rank(q) == 3:
            return q, _generators(q, rng, count)


def _generators(q, rng, count):
    """`count` generators of the cone of the rank-3 traceless form q, at random
    angles and at random lengths in 0.1..10."""
    # the cone of -q is the cone of q; read it where two eigenvalues are positive
    if (q.frame.values > 0).sum() == 1:
        q = QuadForm3.from_matrix(-q.matrix)
    frame = q.frame
    (v1, v2, v3), (e1, e2, e3) = frame.values, frame.axes
    phi = rng.uniform(0, 2 * math.pi, size=count)
    g = (
        (np.cos(phi) / math.sqrt(v1))[:, None] * e1
        + (np.sin(phi) / math.sqrt(v2))[:, None] * e2
        + 1.0 / math.sqrt(-v3) * e3
    )
    return g * rng.uniform(0.1, 10.0, size=(count, 1))


def _random_and_near_rank_two_cones():
    """(q, generators): 100 random cones with 9 generators each, then the near-rank-two
    cones of `test_porism` (eigenvalue ratio 1e-8..1e-1, and negated) with 20 each."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        yield _cone_generators(rng, 9)
    for q in _near_rank_two_forms():
        yield q, _generators(q, rng, 20)


def test_tripod_is_the_restriction_construction():
    # the closed form on the section ellipse and the oracle's diagonalized
    # restriction find the same lines; legs 1 and 2 may come in either order
    eps = np.finfo(float).eps
    for q, g in _random_and_near_rank_two_cones():
        ref = tripods(q, g)
        for gi, row in zip(g, ref):
            legs = np.array(tripod_through_generator(q, gi).legs)
            assert np.max(np.abs(legs[0] - row[0])) <= 2 * eps
            assert np.linalg.norm(np.cross(legs[0], gi)) <= 1e-12 * np.linalg.norm(gi)
            off = [np.max(np.abs(legs[1:] - row[order])) for order in ([1, 2], [2, 1])]
            assert min(off) <= 1e-13
            for i, j in ((0, 1), (0, 2), (1, 2)):
                assert abs(legs[i] @ legs[j]) <= 4 * eps
            for leg in legs:
                assert abs(leg @ q.matrix @ leg) <= 32 * eps * q.max_abs()
                np.testing.assert_allclose(leg, _unit(leg.tolist())[0], rtol=0, atol=1e-15)


def test_tripod_keeps_every_check():
    rng = np.random.default_rng(32)
    q, g = _cone_generators(rng, 1)
    g = g[0]
    with pytest.raises(NotOnCone, match="nonzero"):
        tripod_through_generator(q, vec(0, 0, 0))
    with pytest.raises(NotOnCone, match="is not zero"):
        tripod_through_generator(q, g + np.array([0.3, -0.2, 0.1]))
    # a zero generator is refused before the form is read
    with pytest.raises(NotOnCone, match="nonzero"):
        tripod_through_generator(D(1, -1, 0), vec(0, 0, 0))
    with pytest.raises(DegenerateForm):
        tripod_through_generator(D(1, -1, 0), vec(1, 1, 0))
    # rank 3 but not traceless: (1, 0, 1) is on its cone, the companion legs are not
    with pytest.raises(DegenerateForm):
        tripod_through_generator(D(1, 1, -1), vec(1, 0, 1))
    # the form is checked before the generator is gated on its cone
    with pytest.raises(DegenerateForm):
        tripod_through_generator(D(1, 1, -1), vec(1, 0, 0))
    with pytest.raises(ValueError):
        tripod_through_generator(q, np.ones(4))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_generator_is_not_on_cone(bad):
    q = D(2, 1, -3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (vec(bad, 1, 1), vec(1, bad, 1), vec(1, 1, bad)):
            with pytest.raises(NotOnCone, match="finite"):
                tripod_through_generator(q, g)
        # the generator is checked before the form
        with pytest.raises(NotOnCone, match="finite"):
            tripod_through_generator(D(1, 1, 1), vec(1, bad, 1))


@pytest.mark.parametrize("exp", [-664, -532, 532, 664])
def test_tripod_at_extreme_generator_lengths(exp):
    # the generator is brought to unit size by a power of two, so its length
    # neither overflows nor underflows in the squares: 2^exp g has the legs of
    # g to the bit, and 1e200 or 1e-200 times g has them to roundoff
    rng = np.random.default_rng(33)
    q, g = _cone_generators(rng, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gi in g:
            np.testing.assert_array_equal(
                tripod_through_generator(q, math.ldexp(1.0, exp) * gi).legs,
                tripod_through_generator(q, gi).legs,
            )
        q, g = D(2, 1, -3), vec(1, 1, 1)
        legs = np.array(tripod_through_generator(q, g).legs)
        tp = tripod_through_generator(q, 10.0 ** math.copysign(200, exp) * g)
    np.testing.assert_allclose(np.array(tp.legs), legs, rtol=0, atol=1e-15)


def _restriction(q, p):
    """2x2 matrix B M B^T of q on the plane p, with B the in-plane basis of the
    oracle's `plane_bases`: the restriction that `section` computes."""
    b = plane_bases(p.normal[None])[0]
    return b @ q.matrix @ b.T


def test_restrict_to_plane_examples():
    q = D(1, 1, -2)
    m2 = _restriction(q, Plane3(vec(0, 0, 1), 0.0))
    np.testing.assert_allclose(np.sort(np.diag(m2)), [1, 1], atol=1e-12)
    np.testing.assert_allclose(m2[0, 1], 0, atol=1e-12)

    n = vec(1, 1, 1) / math.sqrt(3)
    m2 = _restriction(q, Plane3(n, 0.0))
    assert np.trace(m2) == pytest.approx(0, abs=1e-12)

    m2 = _restriction(D(0.0, 0.0, 0.0), Plane3(vec(0, 1, 0), 2.0))
    np.testing.assert_allclose(m2, 0, atol=1e-15)


def test_restriction_trace_identity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        q = random_form(rng)
        n = rng.normal(size=3)
        nhat = n / np.linalg.norm(n)
        m2 = _restriction(q, Plane3(n, rng.normal()))
        lhs = float(np.trace(m2)) + evaluate(q, nhat)
        assert lhs == pytest.approx(trace(q), rel=1e-10, abs=1e-12)
