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
    classify,
    edge_vector,
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
        planes = tuple(Plane3(edge_vector(t, *e), 0.0) for e in cls.orthogonal_pair)
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
    base, u, center = (a.tolist() for a in (line.base, line.dir, qd.center))
    # at least the figure's own length |Q*|^(1/4), so that rhs roundoff cannot decide
    span = max(math.dist(base, center), m ** 0.25)
    d = [[b + t * e - c for b, e, c in zip(base, u, center)] for t in (-span, 0.0, span)]
    scale = max(abs(qd.rhs), m * max(x * x + y * y + z * z for x, y, z in d))
    return all(abs(qd.form.bilinear(x, x) - qd.rhs) <= tol.gate(scale) for x in d)


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
    votes = _meet_rule(line.base, line.dir, t.vertices, np.array(t._unit_normals), tol)
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
    in particular every face plane of the tetrahedron does.
    """
    if qd.kind is not QuadricKind.HYPERBOLOID:
        raise NotHyperboloid("sections are computed for the hyperboloid case")
    # in-plane origin: plane point closest to the quadric center
    origin = qd.center + (p.offset - dot(p.normal, qd.center)) * p.normal
    # in-plane basis (u, n x u), u the coordinate axis least aligned with n, projected
    n = p.normal.tolist()
    k = min(range(3), key=lambda i: abs(n[i]))
    u = [float(i == k) - n[k] * x for i, x in enumerate(n)]
    length = math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    u = [x / length for x in u]
    # the conic's symmetric 3x3 matrix in the frame (u, v, origin)
    frame = np.array([u, _cross(n, u), (origin - qd.center).tolist()])
    h = frame @ qd.form.matrix @ frame.T
    h[2, 2] -= qd.rhs
    kind = _classify_conic(h, qd.form.max_abs(), tol)
    linear = 2.0 * h[:2, 2]
    return ConicSection(p, h[:2, :2], linear, h[2, 2], origin, (frame[0], frame[1]), kind)


def _classify_conic(h: np.ndarray, form_scale: float, tol: Tolerance) -> ConicKind:
    """Kind of the conic (s, t, 1) h (s, t, 1)^T = 0 from its invariants in
    closed form; `form_scale` is the largest coefficient of the form cut by the
    plane."""
    (a, b, x), (_, c, y), (_, _, k) = h.tolist()
    a_norm = max(abs(a), abs(b), abs(c))
    if a_norm <= tol.gate(form_scale):
        return ConicKind.OTHER
    det2 = a * c - b * b
    tr2 = a + c
    # det h = k det2 - (x, y) adj(quad) (x, y)^T
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
