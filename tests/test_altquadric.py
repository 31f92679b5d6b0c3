import itertools
import warnings

import numpy as np
import pytest

from tetraquadric import (
    DEFAULT_TOL,
    ConicKind,
    Line3,
    LineRelation,
    Plane3,
    QuadForm3,
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
from tetraquadric.errors import (
    AmbiguousRegulus,
    BadPermutation,
    InternalInvariantError,
    NotHyperboloid,
    TrivialQuadric,
)
from tetraquadric.reporting import altitude_level_residual, quadric_mesh

from conic_oracle import conic_value, conic_value_scale, reference_conic_kind
from line_oracle import reference_line_meet

ALL_KINDS = [TetraKind.GENERIC, TetraKind.SEMI_ORTHOCENTRIC, TetraKind.ORTHOCENTRIC]
QUADRIC_OF_CLASS = {
    TetraKind.GENERIC: QuadricKind.HYPERBOLOID,
    TetraKind.SEMI_ORTHOCENTRIC: QuadricKind.PLANE_PAIR,
    TetraKind.ORTHOCENTRIC: QuadricKind.TRIVIAL,
}


def random_mixed(n, seed0=0):
    return [random_tetra(ALL_KINDS[s % 3], seed0 + s) for s in range(n)]


def outer_sym(c, d):
    """The form x -> (x.c)(x.d) written the long way, as the oracle of `q_ijkl`."""
    return QuadForm3.from_matrix(0.5 * (np.outer(c, d) + np.outer(d, c)))


def test_q_ijkl_examples(t_gen, t_orth):
    assert trace(q_ijkl(t_gen, (0, 1, 2, 3))) == pytest.approx(4)
    total = QuadForm3.from_matrix(
        q_ijkl(t_gen, (0, 1, 2, 3)).matrix
        + q_ijkl(t_gen, (0, 2, 3, 1)).matrix
        + q_ijkl(t_gen, (0, 3, 1, 2)).matrix
    )
    assert total.max_abs() < 1e-12
    for perm in ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)):
        assert trace(q_ijkl(t_orth, perm)) == pytest.approx(0, abs=1e-12)
    with pytest.raises(BadPermutation):
        q_ijkl(t_gen, (0, 1, 2, 2))


def test_q_ijkl_is_outer_sym_to_the_bit(t_gen):
    # the oracle itself: its trace is the dot product
    assert outer_sym(np.array([1.0, 0, 0]), np.array([1.0, 0, 0])) == QuadForm3(1, 0, 0)
    q = outer_sym(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    assert q.s12 == pytest.approx(0.5) and trace(q) == pytest.approx(0)
    assert trace(outer_sym(np.array([-4.0, 0, 0]), np.array([-1.0, 2, -2]))) == pytest.approx(4)
    # q_ijkl reads the signed basic form of the tetrahedron record, with the
    # same bits as the outer products of its two edges; where an edge has a
    # zero coordinate, as on the fixture, only the sign of a zero may differ
    for t in [t_gen, *random_mixed(12, seed0=300)]:
        for s in (1e-6, 1.0, 1e6):
            u = Tetrahedron(t.vertices * s)
            for i, j, k, l in itertools.permutations(range(4)):
                ref = outer_sym(u.vertices[i] - u.vertices[j], u.vertices[k] - u.vertices[l])
                got = q_ijkl(u, (i, j, k, l))
                assert got == ref
                if t is not t_gen:
                    assert np.array(got.coefficients).tobytes() == np.array(ref.coefficients).tobytes()


def test_q_ijkl_trace_is_dot():
    rng = np.random.default_rng(6)
    for _ in range(30):
        t = Tetrahedron(rng.normal(size=(4, 3)) * 10)
        for i, j, k, l in itertools.permutations(range(4)):
            dot = float(np.dot(t.vertices[i] - t.vertices[j], t.vertices[k] - t.vertices[l]))
            assert trace(q_ijkl(t, (i, j, k, l))) == pytest.approx(dot, rel=1e-12, abs=1e-12)


def test_q_ijkl_antisymmetry(t_gen):
    a = q_ijkl(t_gen, (0, 1, 2, 3))
    b = q_ijkl(t_gen, (2, 3, 0, 1))
    c = q_ijkl(t_gen, (1, 0, 2, 3))
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12
    assert np.max(np.abs(a.matrix + c.matrix)) < 1e-12


def test_q_star_examples(t_gen, t_orth, t_semi):
    qs = q_star(t_gen)
    m = monge_point(t_gen)
    assert evaluate(qs, t_gen.vertices[3] - m) == pytest.approx(1.5)
    assert q_star(t_orth).max_abs() < 1e-9
    # semi-orthocentric: single surviving term, rank 2
    assert rank(q_star(t_semi)) == 2


def test_forms_hold_python_floats(t_gen, t_semi):
    # as the CLI's forms do, so a coefficient reads 1.5, not np.float64(1.5)
    for t in (t_gen, t_semi):
        forms = [q_star(t), build(t).form]
        forms += [q_ijkl(t, p) for p in itertools.permutations(range(4))]
        for q in forms:
            assert all(type(c) is float for c in q.coefficients), q
            assert "np.float64" not in repr(q)


def test_q_star_traceless_random():
    for t in random_mixed(30, seed0=10):
        qs = q_star(t)
        assert abs(trace(qs)) <= 1e-9 * max(1.0, qs.max_abs())


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
    b01 = t_semi.vertices[0] - t_semi.vertices[1]
    b23 = t_semi.vertices[2] - t_semi.vertices[3]
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


def test_regulus_examples(t_gen, t_semi):
    qd = build(t_gen)
    assert regulus_of(qd, altitude(t_gen, 2), t_gen) is RegulusTag.ALTITUDE_REGULUS
    assert (
        regulus_of(qd, ortho_perpendicular(t_gen, 3), t_gen)
        is RegulusTag.PERPENDICULAR_REGULUS
    )
    assert regulus_of(qd, noteworthy(t_gen).euler, t_gen) is RegulusTag.NOT_ON_QUADRIC
    with pytest.raises(NotHyperboloid):
        regulus_of(build(t_semi), altitude(t_semi, 0), t_semi)


def test_face_perpendiculars_of_a_far_shifted_tetrahedron_vote_their_regulus():
    # shifted by 1e6 edge lengths, each face orthocenter keeps the digits of its
    # offset from a vertex, so its perpendicular stays on the quadric
    t = random_tetra(TetraKind.GENERIC, 1004)
    far = Tetrahedron(t.vertices + 1e6 * t.edge_scale())
    qd = build(far)
    for l in range(4):
        tag = regulus_of(qd, ortho_perpendicular(far, l), far)
        assert tag is RegulusTag.PERPENDICULAR_REGULUS, l


def reference_regulus(qd, t, line):
    """The regulus vote as one scalar `reference_line_meet` per altitude."""
    if not contains_line(qd, line):
        return RegulusTag.NOT_ON_QUADRIC
    meets = sum(
        reference_line_meet(line, altitude(t, l))[0] is LineRelation.MEETING
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
            lines.append(Line3(t.vertices[0], t.vertices[1] - t.vertices[2]))  # off the quadric
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
            bij = t.vertices[i] - t.vertices[j]
            bkl = t.vertices[k] - t.vertices[l]
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
        (t_gen.vertices[0], t_gen.vertices[1], t_gen.vertices[2])
    )
    np.testing.assert_allclose(base_oc, [1, 1, 0], atol=1e-12)
    for p in (t_gen.vertices[0], t_gen.vertices[1], t_gen.vertices[2], base_oc):
        assert abs(conic_value(sec, p)) <= 1e-9 * conic_value_scale(sec, p)


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


def _probe_planes(t, qd, rng):
    """Face planes (equilateral hyperbolas), random planes, planes through an
    altitude and a face perpendicular that meets it (line pairs), a plane
    orthogonal to each altitude, and the waist plane orthogonal to the
    hyperboloid's axis (an ellipse)."""
    v, s = t.vertices, t.edge_scale()
    planes = [Plane3.from_point_normal(v[f[0]], np.cross(v[f[1]] - v[f[0]], v[f[2]] - v[f[0]]))
              for f in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))]
    planes += [Plane3.from_point_normal(qd.center + 0.5 * s * rng.normal(size=3), rng.normal(size=3))
               for _ in range(6)]
    for l in range(4):
        h = altitude(t, l)
        for m in range(4):
            p = ortho_perpendicular(t, m)
            if m != l and line_line_meet(h, p).relation is LineRelation.MEETING:
                planes.append(Plane3.from_point_normal(h.base, np.cross(h.dir, p.dir)))
        planes.append(Plane3(h.dir, float(h.dir @ qd.center) + s))
    values, axes = qd.form.frame.values, qd.form.frame.axes
    axis = axes[int(np.argmax(np.sign(values) != np.sign(qd.rhs)))]
    planes.append(Plane3(axis, float(axis @ qd.center)))
    return planes


def test_section_kind_is_the_determinant_reference():
    # the closed-form invariants of the conic's 3x3 matrix decide as the
    # reference's numpy determinants and solve for the center do
    seen = set()
    for seed in range(1000, 1020):
        base = random_tetra(TetraKind.GENERIC, seed).vertices
        for scale in (1e-6, 1.0, 1e6):
            t = Tetrahedron(base * scale)
            qd = build(t)
            for p in _probe_planes(t, qd, np.random.default_rng(seed)):
                sec = section(qd, p)
                ref = reference_conic_kind(
                    sec.quad, sec.linear, sec.constant, qd.form.max_abs(), DEFAULT_TOL
                )
                assert sec.kind is ref
                seen.add(sec.kind)
    assert seen == set(ConicKind) - {ConicKind.OTHER}


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


#: Near-gate probe, orthocentric seed 1078 with vertex 3 moved by 3e-9 and by 1e-8
#: edge lengths: generic hyperboloids within roundoff of the orthocentric class.
#: Read from the Monge point's lambda, all eight lines of each voted
#: `not_on_quadric`, and the second mesh exited 3.
NEAR_ORTHOCENTRIC = [
    [[-4.269154600921527, -1.8114727924163012, -1.07748947134675],
     [1.8091543536808916, 2.8663318060866545, -3.7246179502946095],
     [-1.0690130706533905, 0.9395700437271848, -2.3268307066190084],
     [-15.860095295400038, 39.88565652940448, 32.53260791523425]],
    [[-4.269154600921527, -1.8114727924163012, -1.07748947134675],
     [1.8091543536808916, 2.8663318060866545, -3.7246179502946095],
     [-1.0690130706533905, 0.9395700437271848, -2.3268307066190084],
     [-15.860095947681483, 39.88565692091139, 32.53260764998243]],
]


@pytest.mark.parametrize("verts", NEAR_ORTHOCENTRIC)
def test_near_gate_altitudes_and_perpendiculars_lie_on_their_reguli(verts):
    t = Tetrahedron(verts)
    qd = build(t)
    assert qd.kind is QuadricKind.HYPERBOLOID
    for l in range(4):
        assert regulus_of(qd, altitude(t, l), t) is RegulusTag.ALTITUDE_REGULUS
        assert regulus_of(qd, ortho_perpendicular(t, l), t) is RegulusTag.PERPENDICULAR_REGULUS
    assert len(quadric_mesh(qd, 3.0, 16).vertices) == 17 * 16
