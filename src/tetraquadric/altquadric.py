"""The quadric surface carrying the four altitudes.

All quadric data is Monge-centered: the stored form and right-hand side
describe the level set in coordinates with the Monge point as origin, and
`center` shifts back to world coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import math

import numpy as np

from .core import (
    DEFAULT_TOL,
    TINY,
    Line3,
    Plane3,
    Tolerance,
    Vec3,
    _cross,
    _meet_rule,
    dot,
)
from .errors import (
    AmbiguousRegulus,
    BadPermutation,
    DegenerateForm,
    NotHyperboloid,
    TrivialQuadric,
)
from .forms import QuadForm3
from .tetra import (
    OPPOSITE_EDGE_PAIRS,
    Tetrahedron,
    TetraKind,
    _basic_form,
    _pair_of,
    _sub,
    classify,
    monge_point,
)


def q_ijkl(t: Tetrahedron, perm: tuple[int, int, int, int]) -> QuadForm3:
    """The form x -> (x.b_ij)(x.b_kl) for a permutation (i, j, k, l) of (0,1,2,3).

    In Monge-centered coordinates its zero set is the union of the two
    midplanes orthogonal to the edges ij and kl.
    """
    if sorted(perm) != [0, 1, 2, 3]:
        raise BadPermutation(f"{perm} is not a permutation of (0, 1, 2, 3)")
    i, j, k, l = perm
    pair = _pair_of(i, j)
    edges, f = OPPOSITE_EDGE_PAIRS[pair], _basic_form(*t._pairs[pair])
    # the pair's basic form, negated when just one of ij, kl runs against its order
    return QuadForm3(*(f if ((i, j) in edges) == ((k, l) in edges) else [-x for x in f]))


def q_star(t: Tetrahedron) -> QuadForm3:
    """The traceless form (d_1 F_2 - d_2 F_1) / 2 on the opposite-edge dots d_p."""
    return t._q_star


def rhs(t: Tetrahedron) -> float:
    """Right-hand side d_1 d_2 d_3 / 8 of the altitude-quadric equation."""
    return t._rhs


class QuadricKind(Enum):
    HYPERBOLOID = "hyperboloid"
    PLANE_PAIR = "plane_pair"
    TRIVIAL = "trivial"


@dataclass(frozen=True, eq=False)
class AltitudeQuadric:
    """Q*(x - center) = rhs, its kind, and for the plane pair its Monge-centered midplanes."""

    center: Vec3
    form: QuadForm3
    rhs: float
    kind: QuadricKind
    planes: Optional[tuple[Plane3, Plane3]] = None


def build(t: Tetrahedron, tol: Tolerance = DEFAULT_TOL) -> AltitudeQuadric:
    """Assemble the altitude quadric; the tetrahedron class alone decides its kind.

    Generic -> one-sheet hyperboloid of rank 3; semi-orthocentric -> pair of
    orthogonal midplanes; orthocentric -> trivial (zero form).
    """
    cls = classify(t, tol)
    m = monge_point(t)
    form = q_star(t)
    r = rhs(t)
    if not all(map(math.isfinite, (*form.coefficients, r))):
        raise DegenerateForm("Q* or rhs overflows at this scale")
    if cls.kind is TetraKind.GENERIC and abs(r) < TINY:
        raise DegenerateForm("rhs underflows at this scale")
    if cls.kind is TetraKind.ORTHOCENTRIC:
        return AltitudeQuadric(m, form, r, QuadricKind.TRIVIAL)
    if cls.kind is TetraKind.SEMI_ORTHOCENTRIC:
        planes = tuple(Plane3(_sub(t._vertices[i], t._vertices[j]), 0.0)
                       for i, j in cls.orthogonal_pair)
        return AltitudeQuadric(m, form, r, QuadricKind.PLANE_PAIR, planes)
    return AltitudeQuadric(m, form, r, QuadricKind.HYPERBOLOID)


def contains_line(
    qd: AltitudeQuadric, line: Line3, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whole-line incidence with the quadric, decided at three distinct points.

    Three incidences of a line with a quadric force the whole line to lie on it.
    """
    if qd.kind is QuadricKind.TRIVIAL:
        raise TrivialQuadric("the zero form carries no incidence information")
    m = float(qd.form.max_abs())
    base, u, center = line._base, line._dir, qd.center.tolist()
    # at least the figure's own length |Q*|^(1/4), so that rhs roundoff cannot decide
    span = max(math.dist(base, center), m ** 0.25)
    # in the unit 2^-k just above span, rhs in its square: exact, and no product overflows
    k = -math.frexp(span)[1]
    d = [[math.ldexp(b + t * e - c, k) for b, e, c in zip(base, u, center)]
         for t in (-span, 0.0, span)]
    r = math.ldexp(qd.rhs, 2 * k)
    scale = max(abs(r), m * max(x * x + y * y + z * z for x, y, z in d))
    return all(abs(qd.form.bilinear(x, x) - r) <= tol.gate(scale) for x in d)


def asymptotic_cone(qd: AltitudeQuadric) -> QuadForm3:
    """Level-zero form of the hyperboloid; always an equilateral cone."""
    if qd.kind is not QuadricKind.HYPERBOLOID:
        raise NotHyperboloid("asymptotic cone exists only for the hyperboloid case")
    return qd.form


class RegulusTag(Enum):
    ALTITUDE_REGULUS = "altitude_regulus"
    PERPENDICULAR_REGULUS = "perpendicular_regulus"
    NOT_ON_QUADRIC = "not_on_quadric"


def regulus_of(
    qd: AltitudeQuadric,
    line: Line3,
    t: Tetrahedron,
    tol: Tolerance = DEFAULT_TOL,
) -> RegulusTag:
    """Which regulus of the hyperboloid a line belongs to.

    Decided by meet/skew votes against the four altitudes: lines of the same
    regulus are mutually skew, lines of the other regulus meet all but at most
    one altitude.  The four votes are one call of `core._meet_rule`, the rule
    that `line_line_meet` decides with.  A two-to-two vote, which only roundoff
    near a gate can give, raises `AmbiguousRegulus`.
    """
    if qd.kind is not QuadricKind.HYPERBOLOID:
        raise NotHyperboloid("reguli exist only for the hyperboloid case")
    if not contains_line(qd, line, tol):
        return RegulusTag.NOT_ON_QUADRIC
    votes = _meet_rule(line._base, line._dir, t._vertices, t._unit_normals, tol)
    meets = sum(row[1] for row in votes)
    if meets >= 3:
        return RegulusTag.PERPENDICULAR_REGULUS
    if 4 - meets >= 3:
        return RegulusTag.ALTITUDE_REGULUS
    raise AmbiguousRegulus("the line meets two of the four altitudes")


class ConicKind(Enum):
    ELLIPSE = "ellipse"
    HYPERBOLA = "hyperbola"
    EQUILATERAL_HYPERBOLA = "equilateral_hyperbola"
    LINE_PAIR = "line_pair"
    OTHER = "other"


@dataclass(frozen=True, eq=False)
class ConicSection:
    """Restriction of the quadric equation to a plane, in an in-plane frame.

    The conic is quad(s,t) + linear.(s,t) + constant = 0 where (s, t) are
    coordinates along `basis` with origin `origin` (the plane point closest to
    the quadric center).
    """

    plane: Plane3
    quad: np.ndarray
    linear: np.ndarray
    constant: float
    origin: Vec3
    basis: tuple[Vec3, Vec3]
    kind: ConicKind


def section(
    qd: AltitudeQuadric, p: Plane3, tol: Tolerance = DEFAULT_TOL
) -> ConicSection:
    """Planar section of the hyperboloid, classified as a conic.

    Planes perpendicular to a generator direction cut equilateral hyperbolas;
    in particular every face plane of the tetrahedron does.  The six entries
    of the conic are `QuadForm3.bilinear` values on the frame (u, v, w).
    """
    if qd.kind is not QuadricKind.HYPERBOLOID:
        raise NotHyperboloid("sections are computed for the hyperboloid case")
    # in-plane origin: plane point closest to the quadric center
    n, center = p._normal, qd.center.tolist()
    step = p._offset - dot(n, center)
    origin = [c + step * x for c, x in zip(center, n)]
    # in-plane basis (u, n x u), u the coordinate axis least aligned with n, projected
    i = min(range(3), key=lambda j: abs(n[j]))
    u = [float(j == i) - n[i] * x for j, x in enumerate(n)]
    length = math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    u = [x / length for x in u]
    v, w = _cross(n, u), [o - c for o, c in zip(origin, center)]
    q = qd.form.bilinear
    a, b, c, x, y, k = q(u, u), q(u, v), q(v, v), q(u, w), q(v, w), q(w, w) - qd.rhs
    if not all(map(math.isfinite, (a, b, c, x, y, k))):
        raise DegenerateForm("the section leaves the double range")
    kind = _classify_conic(a, b, c, x, y, k, qd.form.max_abs(), tol)
    return ConicSection(p, np.array([[a, b], [b, c]]), np.array([2.0 * x, 2.0 * y]), k,
                        np.array(origin), (np.array(u), np.array(v)), kind)


def _classify_conic(a: float, b: float, c: float, x: float, y: float, k: float,
                    form_scale: float, tol: Tolerance) -> ConicKind:
    """Kind of the conic a s^2 + 2b st + c t^2 + 2x s + 2y t + k = 0 from its
    invariants in closed form; `form_scale` is the largest coefficient of the
    form cut by the plane.  The tests read (s, t) in the conic's own unit 2^j
    and the entries in the power of two above max|quad|: exact, and each test
    is homogeneous in both."""
    a_norm = max(abs(a), abs(b), abs(c))
    if a_norm <= tol.gate(form_scale):
        return ConicKind.OTHER
    e = math.frexp(a_norm)[1]
    j = max(math.frexp(max(abs(x), abs(y)))[1] - e, (math.frexp(k)[1] - e + 1) // 2)
    a, b, c, a_norm = (math.ldexp(z, -e) for z in (a, b, c, a_norm))
    x, y, k = math.ldexp(x, -e - j), math.ldexp(y, -e - j), math.ldexp(k, -e - 2 * j)
    det2 = a * c - b * b
    tr2 = a + c
    # the 3x3 determinant: k det2 - (x, y) adj(quad) (x, y)^T
    det3 = k * det2 - (c * x * x - 2.0 * b * x * y + a * y * y)
    terms = abs(k) * a_norm + 4.0 * (x * x + y * y)
    degenerate = abs(det3) <= tol.gate(a_norm, terms)
    if det2 < -tol.gate(a_norm, a_norm):
        if degenerate:
            return ConicKind.LINE_PAIR
        if abs(tr2) <= tol.gate(10.0, a_norm):
            return ConicKind.EQUILATERAL_HYPERBOLA
        return ConicKind.HYPERBOLA
    if det2 > tol.gate(a_norm, a_norm):
        if degenerate:
            return ConicKind.OTHER  # single point
        # real ellipse iff the value at the center, det3 / det2, has sign
        # opposite the trace
        if tr2 * det3 < 0:
            return ConicKind.ELLIPSE
    return ConicKind.OTHER
