"""The figure path's Python-float kernels against their numpy oracles.

`core._meet_rule`, `core.orthocenter2d`, `altquadric.contains_line`,
`altquadric.regulus_of` and `altquadric.section` must return the values of the
numpy expressions in `kernel_oracle` to the bit, on random tetrahedra of every
class at scales 2**-20, 1 and 2**20, at the origin and shifted by 1e6 edge
lengths, and on the sliver of `test_tetra`.  The only freedom is the sign of the
NaN gap of an exactly parallel pair.
"""

import math
import warnings

import numpy as np
import pytest

from tetraquadric import (
    DEFAULT_TOL,
    Plane3,
    QuadricKind,
    TetraKind,
    Tetrahedron,
    Tolerance,
    altitude,
    build,
    contains_line,
    ortho_perpendicular,
    orthocenter2d,
    random_tetra,
    regulus_of,
    section,
    vec,
)
from tetraquadric.core import _meet_rule
from tetraquadric.errors import AmbiguousRegulus, CollinearPoints
from tetraquadric.tetra import _FACES

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
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


def _either(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except (CollinearPoints, AmbiguousRegulus) as exc:
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
            for bases, dirs in ((t.vertices, t.unit_normals), every, (b.base[None], b.dir[None])):
                got = list(zip(*_meet_rule(a.base, a.dir, bases, dirs, DEFAULT_TOL)))
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


def test_section_matches_its_oracle(figures):
    for name, t, qd, _ in figures:
        if qd.kind is not QuadricKind.HYPERBOLOID:
            continue
        v = t.vertices
        normals = [np.cross(v[j] - v[i], v[k] - v[i]) for i, j, k in _FACES]
        # the faces, and planes whose normals lie on or near a coordinate axis
        planes = [Plane3.from_point_normal(v[face[0]], n) for face, n in zip(_FACES, normals)]
        planes += [Plane3(vec(0, 0, 1), 0.5), Plane3(vec(1e-9, 1, 1e-9), -2.0)]
        for p in planes:
            got, want = section(qd, p), oracle.section(qd, p)
            assert got.kind is want.kind and got.plane is want.plane, name
            for f in ("quad", "linear", "constant", "origin"):
                assert _same(getattr(got, f), getattr(want, f)), (name, f)
            assert all(_same(g, w) for g, w in zip(got.basis, want.basis)), name


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
