"""The Python-float kernels of the figure and analyze paths against their numpy oracles.

`core._meet_rule`, `core.orthocenter2d`, `altquadric.contains_line`,
`altquadric.regulus_of` and `altquadric.section`, the methods of `Line3` and
`Plane3`, and on the analyze path `Line3`, `Plane3`, the unit direction of
`core._unit`, `QuadForm3.from_matrix`, the class decision, the coplanarity
test, the centroid, the Euler line and the residuals of `analyze` must return
the values of the expressions in `kernel_oracle` to the bit, on random
tetrahedra of every class at scales 2**-20, 1 and 2**20, at the origin and
shifted by 1e6 edge lengths, and on the sliver of `test_tetra`.  `section`'s
conic also stays within 32 eps of the BLAS congruence it replaced.  Each
decision is also probed at tolerances or inputs within a few ulps of its gate,
so that a value off by one ulp changes it.  The only
freedom is the sign of the NaN gap of an exactly parallel pair.
"""

import math
import operator
import warnings

import numpy as np
import pytest

from tetraquadric import (
    DEFAULT_TOL,
    Line3,
    Plane3,
    QuadForm3,
    QuadricKind,
    TetraKind,
    Tetrahedron,
    Tolerance,
    altitude,
    altitudes_meet,
    analyze,
    build,
    centroid,
    circumcenter,
    contains_line,
    edge_vector,
    monge_point,
    noteworthy,
    opposite_edge_dots,
    ortho_perpendicular,
    orthocenter2d,
    q_star,
    random_tetra,
    regulus_of,
    section,
    vec,
)
from tetraquadric.core import _meet_rule, _unit, dot
from tetraquadric.errors import (
    AmbiguousRegulus,
    CollinearPoints,
    DegenerateTetrahedron,
    GeometryError,
)
from tetraquadric.reporting import altitude_level_residual
from tetraquadric.tetra import _FACES, OPPOSITE_EDGE_PAIRS, _classify

import kernel_oracle as oracle
from test_tetra import SLIVER

SEEDS = range(1000, 1006)
SCALES = (-20, 0, 20)
SHIFTS = (0.0, 1e6)


def _tetrahedra():
    for kind in TetraKind:
        for seed in SEEDS:
            v = random_tetra(kind, seed).vertices
            for k in SCALES:
                for shift in SHIFTS:
                    w = np.ldexp(v, k)
                    yield f"{kind.value}-{seed}-2^{k}-{shift:g}", w + shift * _edge(w)
    for k in SCALES:
        yield f"sliver-2^{k}", np.ldexp(np.array(SLIVER), k)


def _edge(v):
    return max(math.dist(p, q) for p in v.tolist() for q in v.tolist())


CASES = dict(_tetrahedra())


def _same(a, b):
    """Bit identity of floats or float arrays, NaNs of either sign alike."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a[~np.isnan(a)]), np.signbit(b[~np.isnan(b)])
    )


def _ulps(x, k):
    """The float k ulps above (k > 0) or below x."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def _either(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except (ValueError, GeometryError) as exc:
        return type(exc)


def _lines(t):
    lines = [altitude(t, l) for l in range(4)]
    for l in range(4):
        p = _either(ortho_perpendicular, t, l)
        if not isinstance(p, type):
            lines.append(p)
    return lines


@pytest.fixture(scope="module")
def figures():
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, v in CASES.items():
            t = Tetrahedron(v)
            out.append((name, t, build(t), _lines(t)))
    return out


def test_orthocenter2d_matches_its_oracle(figures):
    for name, t, _, _ in figures:
        for face in _FACES:
            tri = tuple(t.vertices[i] for i in face)
            got, want = _either(orthocenter2d, tri), _either(oracle.orthocenter2d, tri)
            if isinstance(want, type):
                assert got is want, name
            else:
                assert _same(got, want), name


def test_meet_rule_matches_its_oracle(figures):
    for name, t, _, lines in figures:
        every = (np.array([b.base for b in lines]), np.array([b.dir for b in lines]))
        for i, a in enumerate(lines):
            # the altitudes, as `regulus_of` reads them; every line, itself and its
            # parallel included; one other line, as `line_line_meet` reads it
            b = lines[(i + 1) % len(lines)]
            altitudes = (t.vertices, np.array(t._unit_normals))
            for bases, dirs in (altitudes, every, (b.base[None], b.dir[None])):
                rule = _meet_rule(a._base, a._dir, bases.tolist(), dirs.tolist(), DEFAULT_TOL)
                got = list(zip(*rule))
                want = oracle.meet_rule(a.base, a.dir, bases, dirs)
                assert list(got[0]) == want[0].tolist() and list(got[1]) == want[1].tolist(), name
                for g, w in zip(got[2:], want[2:]):
                    assert _same(np.array(g), w), name


def test_contains_line_and_regulus_of_match_their_oracles(figures):
    tags = 0
    for name, t, qd, lines in figures:
        if qd.kind is QuadricKind.TRIVIAL:
            continue
        for line in lines:
            assert contains_line(qd, line) is oracle.contains_line(qd, line), name
            # tolerances that put the gate on the largest residual, to the ulp,
            # so that a residual off by one ulp changes a decision
            res, scale = oracle.incidence(qd, line)
            rel = float(np.max(res)) / scale
            for k in range(-2, 3):
                tol = Tolerance(_ulps(rel, k)) if rel > 0 else DEFAULT_TOL
                assert contains_line(qd, line, tol) is oracle.contains_line(qd, line, tol), name
            if qd.kind is QuadricKind.HYPERBOLOID:
                want = oracle.regulus_of(qd, line, t)
                got = _either(regulus_of, qd, line, t)
                assert got is (AmbiguousRegulus if want is None else want), name
                tags += 1
    assert tags >= 8 * len(SEEDS) * len(SCALES) * len(SHIFTS)


def _section_planes(t):
    """The faces, and planes whose normals lie on or near a coordinate axis."""
    v = t.vertices
    normals = [np.cross(v[j] - v[i], v[k] - v[i]) for i, j, k in _FACES]
    planes = [Plane3.from_point_normal(v[face[0]], n) for face, n in zip(_FACES, normals)]
    return planes + [Plane3(vec(0, 0, 1), 0.5), Plane3(vec(1e-9, 1, 1e-9), -2.0)]


def test_section_matches_its_oracle(figures):
    for name, t, qd, _ in figures:
        if qd.kind is not QuadricKind.HYPERBOLOID:
            continue
        for p in _section_planes(t):
            got, want = section(qd, p), oracle.section(qd, p)
            assert got.kind is want.kind and got.plane is want.plane, name
            for f in ("quad", "linear", "constant", "origin"):
                assert _same(getattr(got, f), getattr(want, f)), (name, f)
            assert all(_same(g, w) for g, w in zip(got.basis, want.basis)), name


def test_section_stays_near_the_congruence(figures):
    # the kind is the reference's, and quad within 32 eps of its largest entry
    eps = np.finfo(float).eps
    for name, t, qd, _ in figures:
        if qd.kind is not QuadricKind.HYPERBOLOID:
            continue
        for p in _section_planes(t):
            got, ref = section(qd, p), oracle.section_by_congruence(qd, p)
            assert got.kind is ref.kind, name
            drift = np.max(np.abs(got.quad - ref.quad)) / np.max(np.abs(ref.quad)) / eps
            assert drift <= 32.0, (name, drift)


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_record_methods_match_their_numpy_forms(scale):
    # `section`'s origin is checked in `test_section_matches_its_oracle`
    rng = np.random.default_rng(34)
    for _ in range(100):
        base, direction, normal, point = scale * rng.standard_normal((4, 3))
        offset, t = scale * rng.standard_normal(2)
        on_line = base + 0.7 * direction
        for kind in (np.array, list, tuple):
            arg = lambda v: kind(v) if kind is np.array else kind(v.tolist())
            line, plane = Line3(arg(base), arg(direction)), Plane3(arg(normal), offset)
            for s in (t, float(t), 3):
                assert _same(line.point_at(s), oracle.point_at(line, s))
            for p in (arg(point), arg(on_line), arg(base)):
                assert _same(line.distance_to_point(p), oracle.distance_to_point(line, p))
                assert _same(plane.residual(p), oracle.residual(plane, p))


def test_collinear_triangle_raises_collinear_points():
    tri = (vec(0, 0, 0), vec(1, 1, 1), vec(3, 3, 3))
    with pytest.raises(CollinearPoints, match="collinear"):
        orthocenter2d(tri)


@pytest.mark.parametrize(
    "tri",
    [
        # obtuse and flat: the orthocenter is near (0, -1e316, 0)
        ((-1e308, 0, 0), (1e308, 0, 0), (0, 1e300, 0)),
    ],
)
def test_orthocenter_past_the_double_range_raises_collinear_points(tri):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CollinearPoints, match="double range"):
            orthocenter2d(tuple(np.array(p, float) for p in tri))


def test_orthocenter_of_a_right_triangle_with_edges_far_below_its_coordinates():
    # edges of 2**-1049 beside a unit coordinate: the right angle is the orthocenter
    tri = ((1, 0, 0), (1, 2.0**-1049, 0), (1, 0, 2.0**-1049))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = orthocenter2d(tuple(np.array(p, float) for p in tri))
    assert h.tolist() == [1.0, 0.0, 0.0]


# -- the analyze path ----------------------------------------------------------

#: vectors at the ends of the double range and next to the sign rule's 1e-12
EXTREME = [
    vec(*c)
    for c in (
        (1e308, -1e308, 1e308), (-1e308, 1e-320, 0.0), (1e-320, -1e-320, 1e-320),
        (0.0, 0.0, -1e-320), (-0.0, 0.0, -1.0), (1e-13, -1.0, 2.0), (-1e-13, 1.0, 2.0),
        (-3e-13, 1e-13, -1.0), (2e-12, -5.0, 1.0), (-2e-12, 5.0, 1.0), (0.0, 0.0, 0.0),
    )
]
OFFSETS = (0.0, -0.0, 1.5, -2.5e-7, 1e300, -1e-300)


def _same_record(got, want, fields):
    """A record and the oracle's tuple of its fields are equal to the bit, or
    both raised the same exception type."""
    if isinstance(want, type) or isinstance(got, type):
        return got is want
    return all(_same(getattr(got, f), w) for f, w in zip(fields, want))


def _vectors(t):
    """The records' inputs on the analyze path of t, each with the offset of its
    plane through m, and `EXTREME` with none."""
    m = monge_point(t)
    edges = [edge_vector(t, i, j) for i in range(4) for j in range(4) if i != j]
    own = [*np.array(t._normals), *edges, circumcenter(t) - m, *np.array(t._centered)]
    return [(v, (dot(v, m),)) for v in own] + [(v, ()) for v in EXTREME]


def test_line_plane_and_direction_match_their_oracles(figures):
    for name, t, _, _ in figures:
        for v, own_offset in _vectors(t):
            got = _either(lambda v: _unit(v.tolist())[0], v)
            want = _either(oracle.unit_direction, v)
            assert got is want if isinstance(want, type) else _same(got, want), name
            for base in (t.vertices[0], monge_point(t), v):
                line = _either(Line3, base, v)
                assert _same_record(line, _either(oracle.line3, base, v), ("base", "dir")), name
            for off in OFFSETS + own_offset:
                plane = _either(Plane3, v, off)
                assert _same_record(plane, _either(oracle.plane3, v, off), ("normal", "offset"))
                assert isinstance(plane, type) or type(plane.offset) is float


def test_from_matrix_matches_its_oracle(figures):
    rng = np.random.default_rng(5)
    for name, t, _, _ in figures:
        # the basic forms sym(b_ij (x) b_kl), written the long way
        pairs = [(edge_vector(t, *e), edge_vector(t, *g)) for e, g in OPPOSITE_EDGE_PAIRS]
        f = np.array([0.5 * (o + o.T) for o in (np.outer(b, c) for b, c in pairs)])
        d1, d2, _ = opposite_edge_dots(t)
        q = 0.5 * (d1 * f[1] - d2 * f[0])
        for m in (q, *f, *-f, t.edge_scale() ** 2 * rng.normal(size=(3, 3))):
            coefficients, sym = oracle.from_matrix(m)
            form = QuadForm3.from_matrix(m)
            assert all(type(c) is float for c in form.coefficients), name
            assert _same(form.coefficients, coefficients) and _same(form.matrix, sym), name
        assert _same(q_star(t).coefficients, oracle.from_matrix(q)[0]), name
    # sums past the double range, and a subnormal one
    m = np.array([[1e308, 1e308, -1e308], [1e308, -1e308, 2.0], [-1e308, 3.0, 1e-320]])
    coefficients, sym = oracle.from_matrix(m)
    assert _same(QuadForm3.from_matrix(m).coefficients, coefficients)


def test_class_decision_matches_its_oracle(figures):
    for name, t, _, _ in figures:
        dots = opposite_edge_dots(t)
        rel = [abs(d) / s for d, s in zip(dots.tolist(), t._scales)]
        # gates on each dot to the ulp, and at a tenth of it for two-zero patterns
        near = [_ulps(r / div, k) for r in rel if r > 0 for div in (1, 10) for k in range(-2, 3)]
        tols = [DEFAULT_TOL] + [Tolerance(x) for x in near]
        for tol in tols:
            c = _classify(t, tol)
            assert (c.kind, c.orthogonal_pair, c.warning) == oracle.classify(t, tol), name
            zero = np.abs(dots) <= tol.rel_eps * np.array(t._scales)
            for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (3, 1), (2, 3)):
                assert altitudes_meet(t, i, j, tol) is altitudes_meet(t, j, i, tol)
            met = [altitudes_meet(t, i, j, tol) for i, j in ((2, 3), (3, 1), (1, 2))]
            assert met == zero.tolist(), name


def test_coplanarity_decision_matches_its_oracle():
    coplanar = lambda x: operator.le(*oracle.coplanarity(x))
    for name, v in list(CASES.items())[::3]:
        c = v[:3].mean(axis=0)
        # v_3 moved toward the centroid c of its face, to the first vertex on the
        # path where the oracle's decision flips from coplanar
        w = lambda h: np.vstack([v[:3], c + h * (v[3] - c)])
        lo, hi = 0.0, 1.0
        assert coplanar(w(lo)) and not coplanar(w(hi)), name
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if coplanar(w(mid)) else (lo, mid)
        # then each of its coordinates stepped in its own ulps, one at a time, so
        # that every step is a distinct vertex; one ulp of each moves the volume
        # by a different amount, so the three sweeps land nearer the flip than one
        u, sides = w(hi), set()
        for k in range(3):
            for j in range(-16, 17):
                x = u.copy()
                x[3, k] = _ulps(u[3, k], j)
                got = _either(Tetrahedron, x)
                assert (got is DegenerateTetrahedron) == coplanar(x), (name, k, j)
                sides.add(got is DegenerateTetrahedron)
        assert sides == {True, False}, name


def test_noteworthy_and_analyze_residuals_match_their_oracles(figures):
    for name, t, _, _ in figures:
        assert _same(centroid(t), oracle.centroid(t)), name
        # gates on |c - m| to the ulp, so that a gap off by one ulp changes the Euler
        # line; `analyze` reads the points from the float helper that `noteworthy`
        # wraps into arrays and a `Line3`, and must report the same bits
        gap = math.hypot(*(circumcenter(t) - monge_point(t))) / t.edge_scale()
        for tol in [DEFAULT_TOL] + [Tolerance(_ulps(gap, k)) for k in range(-2, 3)]:
            want = oracle.euler_line(t, tol)
            points, report = noteworthy(t, tol), analyze(t, tol)
            euler = points.euler
            assert (euler is None) == (want is None) == (report.euler_direction is None), name
            assert euler is None or _same_record(euler, want, ("base", "dir")), name
            assert euler is None or _same(report.euler_direction, euler.dir), name
            ortho = _classify(t, tol).kind is TetraKind.ORTHOCENTRIC
            assert (points.orthocenter is None) == (report.orthocenter is None) == (not ortho)
            assert not ortho or _same(report.orthocenter, points.orthocenter), name
            for f in ("monge", "centroid", "circumcenter"):
                assert _same(getattr(report, f), getattr(points, f)), name
        points, report = noteworthy(t), analyze(t)
        euler_midpoint, spread = oracle.analyze_residuals(t, points)
        assert _same(report.residuals["euler_midpoint"], euler_midpoint), name
        assert _same(report.residuals["circumdistance_spread"], spread), name
        incidence, bound = oracle.altitude_level_residual(t)
        assert abs(altitude_level_residual(t) - incidence) <= bound, name
        assert _same(report.residuals["altitude_incidence"], altitude_level_residual(t)), name
        # the twelve ordered midplanes in the Monge frame, b_ij . x = b_ij . ((a_k - m)
        # + (a_l - m)) / 2, normalised by the oracle: m's largest |offset|, over L
        c, offsets = t._centered, []
        for i, j in ((i, j) for i in range(4) for j in range(4) if i != j):
            k, l = (x for x in range(4) if x not in (i, j))
            b = edge_vector(t, i, j)
            off = 0.5 * sum(u * (y + z) for u, y, z in zip(b.tolist(), c[k], c[l]))
            offsets.append(abs(oracle.plane3(b, off)[1]))
        assert _same(report.residuals["monge_midplanes"], max(offsets) / t.edge_scale()), name
