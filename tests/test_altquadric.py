import warnings

import numpy as np
import pytest

from tetraquadric import (
    ConicKind,
    Line3,
    LineRelation,
    Plane3,
    QuadricKind,
    RegulusTag,
    TetraKind,
    Tetrahedron,
    TracelessKind,
    altitude,
    altitudes_meet,
    analyze,
    asymptotic_cone,
    build,
    classify,
    classify_traceless,
    contains_line,
    evaluate,
    line_line_meet,
    monge_point,
    noteworthy,
    ortho_perpendicular,
    orthocenter2d,
    q_ijkl,
    q_star,
    random_tetra,
    rank,
    regulus_of,
    rhs,
    section,
    trace,
)
from tetraquadric.altquadric import q_star_two_term
from tetraquadric.errors import (
    AmbiguousRegulus,
    BadPermutation,
    InternalInvariantError,
    NotHyperboloid,
    TrivialQuadric,
)
from tetraquadric.reporting import altitude_level_residual

ALL_KINDS = [TetraKind.GENERIC, TetraKind.SEMI_ORTHOCENTRIC, TetraKind.ORTHOCENTRIC]
QUADRIC_OF_CLASS = {
    TetraKind.GENERIC: QuadricKind.HYPERBOLOID,
    TetraKind.SEMI_ORTHOCENTRIC: QuadricKind.PLANE_PAIR,
    TetraKind.ORTHOCENTRIC: QuadricKind.TRIVIAL,
}


def random_mixed(n, seed0=0):
    return [random_tetra(ALL_KINDS[s % 3], seed0 + s) for s in range(n)]


def test_q_ijkl_examples(t_gen, t_orth):
    assert trace(q_ijkl(t_gen, (0, 1, 2, 3))) == pytest.approx(4)
    total = (
        q_ijkl(t_gen, (0, 1, 2, 3))
        + q_ijkl(t_gen, (0, 2, 3, 1))
        + q_ijkl(t_gen, (0, 3, 1, 2))
    )
    assert total.max_abs() < 1e-12
    for perm in ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)):
        assert trace(q_ijkl(t_orth, perm)) == pytest.approx(0, abs=1e-12)
    with pytest.raises(BadPermutation):
        q_ijkl(t_gen, (0, 1, 2, 2))


def test_q_ijkl_antisymmetry(t_gen):
    a = q_ijkl(t_gen, (0, 1, 2, 3))
    b = q_ijkl(t_gen, (2, 3, 0, 1))
    c = q_ijkl(t_gen, (1, 0, 2, 3))
    assert (a - b).max_abs() < 1e-12
    assert (a + c).max_abs() < 1e-12


def test_q_star_examples(t_gen, t_orth, t_semi):
    qs = q_star(t_gen)
    m = monge_point(t_gen)
    assert evaluate(qs, t_gen.vertex(3) - m) == pytest.approx(1.5)
    assert q_star(t_orth).max_abs() < 1e-9
    # semi-orthocentric: single surviving term, rank 2
    assert rank(q_star(t_semi)) == 2


def test_q_star_traceless_random():
    for t in random_mixed(30, seed0=10):
        qs = q_star(t)
        assert abs(trace(qs)) <= 1e-9 * max(1.0, qs.max_abs())


def test_q_star_two_term_equivalent():
    for t in random_mixed(30, seed0=40):
        a = q_star(t)
        b = q_star_two_term(t)
        scale = max(1.0, a.max_abs())
        assert (a - b).max_abs() <= 1e-10 * scale


def test_q_star_two_term_is_the_quad_form_arithmetic_to_the_bit():
    # the cross-check reads the basic forms that Q* weights; it must keep every
    # bit of the expression written in QuadForm3 arithmetic
    for t in random_mixed(60, seed0=200):
        for s in (1e-6, 1.0, 1e6):
            u = Tetrahedron(t.vertices * s)
            l01, l02, l03 = u.lambdas.tolist()
            ref = -(l03 - l01) * q_ijkl(u, (0, 1, 2, 3)) + (l02 - l03) * q_ijkl(u, (0, 2, 3, 1))
            two = q_star_two_term(u)
            assert np.array(two.coefficients).tobytes() == np.array(ref.coefficients).tobytes()


def test_rhs_examples(t_gen, t_semi, t_orth):
    assert rhs(t_gen) == pytest.approx(1.5)
    assert rhs(t_semi) == pytest.approx(0, abs=1e-9)
    assert rhs(t_orth) == pytest.approx(0, abs=1e-9)


def test_build_examples(t_gen, t_semi, t_orth):
    qd = build(t_gen)
    assert qd.kind is QuadricKind.HYPERBOLOID
    np.testing.assert_allclose(qd.center, [1.5, 1, 1.25], atol=1e-12)
    assert qd.rhs == pytest.approx(1.5)

    qd = build(t_semi)
    assert qd.kind is QuadricKind.PLANE_PAIR
    n1, n2 = qd.planes[0].normal, qd.planes[1].normal
    assert abs(np.dot(n1, n2)) < 1e-12
    b01 = t_semi.vertex(0) - t_semi.vertex(1)
    b23 = t_semi.vertex(2) - t_semi.vertex(3)
    assert min(
        np.linalg.norm(np.cross(n1, b01)), np.linalg.norm(np.cross(n2, b01))
    ) < 1e-12
    assert min(
        np.linalg.norm(np.cross(n1, b23)), np.linalg.norm(np.cross(n2, b23))
    ) < 1e-12

    assert build(t_orth).kind is QuadricKind.TRIVIAL


@pytest.mark.parametrize(
    "kind, expected", [(TetraKind.GENERIC, 3), (TetraKind.SEMI_ORTHOCENTRIC, 2)]
)
def test_rank_of_q_star_is_fixed_by_the_class(kind, expected):
    # a theorem in exact arithmetic; `build` takes the kind from the class alone,
    # so away from the gate the rank of Q* is checked here instead
    for seed in range(1000):
        assert rank(q_star(random_tetra(kind, seed))) == expected


def test_quadric_kind_is_the_class_kind_near_the_gate():
    # semi- and orthocentric tetrahedra with vertex 3 moved by c edge lengths, c
    # on both sides of the 1e-9 gate: a second, rank-based decision of the kind
    # disagreed with the class on 61 of these 360 inputs
    rng = np.random.default_rng(1)
    for seed in range(1000, 1030):
        for kind in (TetraKind.SEMI_ORTHOCENTRIC, TetraKind.ORTHOCENTRIC):
            t0 = random_tetra(kind, seed)
            for c in (1e-11, 1e-10, 3e-10, 9e-10, 3e-9, 1e-8):
                v = t0.vertices.copy()
                v[3] += c * t0.edge_scale() * rng.normal(size=3)
                t = Tetrahedron(v)
                analyze(t)
                assert build(t).kind is QUADRIC_OF_CLASS[classify(t).kind]


def test_contains_line_examples(t_gen):
    qd = build(t_gen)
    for l in range(4):
        assert contains_line(qd, altitude(t_gen, l))
        assert contains_line(qd, ortho_perpendicular(t_gen, l))
    assert not contains_line(qd, noteworthy(t_gen).euler)


def test_contains_line_trivial_raises(t_orth):
    with pytest.raises(TrivialQuadric):
        contains_line(build(t_orth), altitude(t_orth, 0))


def test_altitude_incidence_all_classes():
    for t in random_mixed(60, seed0=70):
        assert altitude_level_residual(t) <= 1e-8


def test_asymptotic_cone(t_gen, t_semi):
    qd = build(t_gen)
    cone = asymptotic_cone(qd)
    assert abs(trace(cone)) <= 1e-9 * cone.max_abs()
    assert classify_traceless(cone).kind is TracelessKind.EQUILATERAL_CONE
    with pytest.raises(NotHyperboloid):
        asymptotic_cone(build(t_semi))


def test_regulus_examples(t_gen):
    qd = build(t_gen)
    assert regulus_of(qd, altitude(t_gen, 2), t_gen) is RegulusTag.ALTITUDE_REGULUS
    assert (
        regulus_of(qd, ortho_perpendicular(t_gen, 3), t_gen)
        is RegulusTag.PERPENDICULAR_REGULUS
    )
    assert regulus_of(qd, noteworthy(t_gen).euler, t_gen) is RegulusTag.NOT_ON_QUADRIC


def reference_regulus(qd, t, line):
    """The regulus vote as one scalar `line_line_meet` per altitude."""
    if not contains_line(qd, line):
        return RegulusTag.NOT_ON_QUADRIC
    meets = sum(
        line_line_meet(line, altitude(t, l)).relation is LineRelation.MEETING
        for l in range(4)
    )
    if meets >= 3:
        return RegulusTag.PERPENDICULAR_REGULUS
    assert meets <= 1
    return RegulusTag.ALTITUDE_REGULUS


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_regulus_vote_matches_line_by_line_meets(scale):
    # an altitude against itself has parallel directions, where the array vote
    # divides 0 by 0; that must not surface as a numpy warning
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(40):
            t = Tetrahedron(random_tetra(TetraKind.GENERIC, seed).vertices * scale)
            qd = build(t)
            h0 = altitude(t, 0)
            lines = [altitude(t, l) for l in range(4)]
            lines += [ortho_perpendicular(t, l) for l in range(4)]
            lines.append(Line3(t.vertex(0), t.vertex(1) - t.vertex(2)))  # off the quadric
            lines.append(Line3(h0.point_at(1.7 * t.edge_scale()), -h0.dir))  # h0 again
            for line in lines:
                tag = regulus_of(qd, line, t)
                assert tag is reference_regulus(qd, t, line)
                seen.add(tag)
            assert regulus_of(qd, lines[-1], t) is RegulusTag.ALTITUDE_REGULUS
    assert seen == set(RegulusTag)


def test_trace_link_to_meeting():
    # the trace of the basic two-plane form vanishes exactly when the
    # corresponding altitude pair meets
    for t in random_mixed(30, seed0=110):
        for perm in ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)):
            i, j, k, l = perm
            tr = trace(q_ijkl(t, perm))
            bij = t.vertex(i) - t.vertex(j)
            bkl = t.vertex(k) - t.vertex(l)
            gate = 1e-9 * np.linalg.norm(bij) * np.linalg.norm(bkl) + 1e-12
            assert (abs(tr) <= gate) == altitudes_meet(t, i, j)
            assert tr == pytest.approx(float(np.dot(bij, bkl)), abs=1e-10)


def test_form_span_dimensions():
    # the three basic forms span a plane of forms; its traceless part is a
    # line except in the orthocentric case, where the whole plane is traceless
    for s in range(15):
        kind = ALL_KINDS[s % 3]
        t = random_tetra(kind, 140 + s)
        vecs = np.array(
            [
                q_ijkl(t, perm).coefficients
                for perm in ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
            ]
        )
        scale = max(1.0, float(np.max(np.abs(vecs))))
        svals = np.linalg.svd(vecs / scale, compute_uv=False)
        assert int(np.sum(svals > 1e-9)) == 2
        traces = vecs[:, 0] + vecs[:, 1] + vecs[:, 2]
        # dim of traceless subspace of the span
        if kind is TetraKind.ORTHOCENTRIC:
            assert np.max(np.abs(traces)) <= 1e-9 * scale
        else:
            assert np.max(np.abs(traces)) > 1e-6 * scale


def test_plane_pair_midpoint_property():
    # the quadric center is the midpoint of the two pairwise altitude meets
    from tetraquadric import line_line_meet as meet

    for s in range(10):
        t = random_tetra(TetraKind.SEMI_ORTHOCENTRIC, 170 + s)
        qd = build(t)
        # exactly two altitude pairs meet; collect their intersection points
        pts = []
        for (a, b) in ((0, 1), (2, 3), (0, 2), (3, 1), (0, 3), (1, 2)):
            mm = meet(altitude(t, a), altitude(t, b))
            if mm.relation.name == "MEETING":
                pts.append(mm.point)
        assert len(pts) == 2
        mid = 0.5 * (pts[0] + pts[1])
        assert np.linalg.norm(qd.center - mid) <= 1e-8 * t.edge_scale()


def test_section_face_plane(t_gen):
    qd = build(t_gen)
    sec = section(qd, Plane3(np.array([0, 0, 1.0]), 0.0))
    assert sec.kind is ConicKind.EQUILATERAL_HYPERBOLA
    base_oc = orthocenter2d(
        (t_gen.vertex(0), t_gen.vertex(1), t_gen.vertex(2))
    )
    np.testing.assert_allclose(base_oc, [1, 1, 0], atol=1e-12)
    for p in (t_gen.vertex(0), t_gen.vertex(1), t_gen.vertex(2), base_oc):
        assert abs(sec.value(p)) <= 1e-9 * sec.value_scale(p)


def test_section_perpendicular_to_generator(t_gen):
    qd = build(t_gen)
    d = altitude(t_gen, 3).dir
    plane = Plane3(d, float(np.dot(d, qd.center)) + 1.0)
    sec = section(qd, plane)
    assert sec.kind is ConicKind.EQUILATERAL_HYPERBOLA
    assert abs(np.trace(sec.quad)) <= 1e-9 * np.max(np.abs(sec.quad))


def test_section_oblique_not_equilateral(t_gen):
    qd = build(t_gen)
    sec = section(qd, Plane3(np.array([1.0, 2.0, 0.5]), 1.0))
    assert sec.kind in (ConicKind.ELLIPSE, ConicKind.HYPERBOLA)
    with pytest.raises(NotHyperboloid):
        section(build(random_tetra(TetraKind.ORTHOCENTRIC, 1)), Plane3(np.array([0, 0, 1.0]), 0.0))


@pytest.mark.parametrize(
    "verts, l",
    [
        # near-gate probe: orthocentric seed 1073 with vertex 3 moved by 3e-9 edge
        # lengths; altitude 1 meets two of the four altitudes
        ([[4.019232735949272, 3.6249479920939036, -7.781761155750114],
          [3.185235236095459, 3.763142237218897, -3.5187900904356706],
          [4.069892908082228, 5.66603362141181, -3.541258608933677],
          [0.45019036187702427, 5.326040944630692, -4.238386939506587]], 1),
    ],
)
def test_a_two_to_two_regulus_vote_is_bad_input_not_a_bug(verts, l):
    t = Tetrahedron(verts)
    qd = build(t)
    assert qd.kind is QuadricKind.HYPERBOLOID
    with pytest.raises(AmbiguousRegulus) as exc:
        regulus_of(qd, altitude(t, l), t)
    assert not isinstance(exc.value, InternalInvariantError)
