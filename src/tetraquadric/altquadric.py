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
    Line3,
    LineRelation,
    Plane3,
    Tolerance,
    Vec3,
    dot,
    line_line_meet,
    norm,
)
from .errors import (
    BadPermutation,
    DegenerateForm,
    InternalInvariantError,
    NotHyperboloid,
    TrivialQuadric,
)
from .forms import (
    QuadForm3,
    evaluate,
    outer_sym,
    polar,
    rank,
    restrict_to_plane,
)
from .tetra import (
    Tetrahedron,
    TetraKind,
    altitude,
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
    return outer_sym(edge_vector(t, i, j), edge_vector(t, k, l))


def q_star(t: Tetrahedron) -> QuadForm3:
    """The traceless lambda-weighted combination of the three basic forms."""
    return t.q_star


def q_star_two_term(t: Tetrahedron) -> QuadForm3:
    """Equivalent two-term expression for the same form; used as a cross-check."""
    l01, l02, l03 = t.lambdas.tolist()
    return -(l03 - l01) * q_ijkl(t, (0, 1, 2, 3)) + (l02 - l03) * q_ijkl(t, (0, 2, 3, 1))


def rhs(t: Tetrahedron) -> float:
    """Right-hand side (l01-l02)(l02-l03)(l03-l01) of the altitude-quadric equation."""
    return t.rhs


class QuadricKind(Enum):
    HYPERBOLOID = "hyperboloid"
    PLANE_PAIR = "plane_pair"
    TRIVIAL = "trivial"


@dataclass(frozen=True, eq=False)
class AltitudeQuadric:
    center: Vec3
    form: QuadForm3
    rhs: float
    kind: QuadricKind
    #: Monge-centered orthogonal midplanes, present only for the plane-pair case
    planes: Optional[tuple[Plane3, Plane3]] = None

    def level_residual(self, x_world: Vec3) -> float:
        return abs(evaluate(self.form, x_world - self.center) - self.rhs)


def build(t: Tetrahedron, tol: Tolerance = DEFAULT_TOL) -> AltitudeQuadric:
    """Assemble the altitude quadric; its kind mirrors the tetrahedron class.

    Generic -> one-sheet hyperboloid of rank 3; semi-orthocentric -> pair of
    orthogonal midplanes; orthocentric -> trivial (zero form).
    """
    cls = classify(t, tol)
    m = monge_point(t)
    form = q_star(t)
    r = rhs(t)
    if not (np.all(np.isfinite(form.matrix)) and math.isfinite(r)):
        raise DegenerateForm("Q* or rhs overflows at this scale")
    if cls.kind is TetraKind.ORTHOCENTRIC:
        return AltitudeQuadric(m, form, r, QuadricKind.TRIVIAL)
    if cls.kind is TetraKind.SEMI_ORTHOCENTRIC:
        (i, j), (k, l) = cls.orthogonal_pair
        p1 = Plane3(edge_vector(t, i, j), 0.0)
        p2 = Plane3(edge_vector(t, k, l), 0.0)
        if rank(form, tol) != 2:
            raise InternalInvariantError("semi-orthocentric form must have rank 2")
        return AltitudeQuadric(m, form, r, QuadricKind.PLANE_PAIR, (p1, p2))
    if rank(form, tol) != 3:
        raise InternalInvariantError("generic altitude form must have rank 3")
    return AltitudeQuadric(m, form, r, QuadricKind.HYPERBOLOID)


def _level_scale(qd: AltitudeQuadric, pts: list[Vec3]) -> float:
    d2 = max(max(1.0, float(np.dot(p - qd.center, p - qd.center))) for p in pts)
    return max(abs(qd.rhs), qd.form.max_abs() * d2)


def contains_line(
    qd: AltitudeQuadric, line: Line3, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whole-line incidence with the quadric, decided at three distinct points.

    Three incidences of a line with a quadric force the whole line to lie on it.
    """
    if qd.kind is QuadricKind.TRIVIAL:
        raise TrivialQuadric("the zero form carries no incidence information")
    span = max(1.0, norm(line.base - qd.center))
    pts = [line.point_at(s * span) for s in (-1.0, 0.0, 1.0)]
    scale = _level_scale(qd, pts)
    return all(qd.level_residual(p) <= tol.gate(scale) for p in pts)


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
    one altitude.
    """
    if qd.kind is not QuadricKind.HYPERBOLOID:
        raise NotHyperboloid("reguli exist only for the hyperboloid case")
    if not contains_line(qd, line, tol):
        return RegulusTag.NOT_ON_QUADRIC
    meets = 0
    for l in range(4):
        rel = line_line_meet(line, altitude(t, l), tol).relation
        if rel is LineRelation.MEETING:
            meets += 1
    if meets >= 3:
        return RegulusTag.PERPENDICULAR_REGULUS
    if 4 - meets >= 3:
        return RegulusTag.ALTITUDE_REGULUS
    raise InternalInvariantError("ambiguous regulus vote")


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

    def coords(self, p_world: Vec3) -> np.ndarray:
        d = p_world - self.origin
        return np.array([dot(d, self.basis[0]), dot(d, self.basis[1])])

    def value(self, p_world: Vec3) -> float:
        st = self.coords(p_world)
        return float(st @ self.quad @ st + self.linear @ st + self.constant)

    def value_scale(self, p_world: Vec3) -> float:
        st = self.coords(p_world)
        s2 = max(1.0, float(st @ st))
        return max(
            float(np.max(np.abs(self.quad))) * s2,
            float(np.max(np.abs(self.linear))) * math.sqrt(s2),
            abs(self.constant),
        )


def section(
    qd: AltitudeQuadric, p: Plane3, tol: Tolerance = DEFAULT_TOL
) -> ConicSection:
    """Planar section of the hyperboloid, classified as a conic.

    Planes perpendicular to a generator direction cut equilateral hyperbolas;
    in particular every face plane of the tetrahedron does.
    """
    if qd.kind is not QuadricKind.HYPERBOLOID:
        raise NotHyperboloid("sections are computed for the hyperboloid case")
    quad, (u, v) = restrict_to_plane(qd.form, p)
    # in-plane origin: plane point closest to the quadric center
    origin = qd.center + (p.offset - dot(p.normal, qd.center)) * p.normal
    o = origin - qd.center
    linear = 2.0 * np.array([polar(qd.form, u, o), polar(qd.form, v, o)])
    constant = evaluate(qd.form, o) - qd.rhs
    kind = _classify_conic(quad, linear, constant, tol)
    return ConicSection(p, quad, linear, constant, origin, (u, v), kind)


def _classify_conic(
    quad: np.ndarray, linear: np.ndarray, constant: float, tol: Tolerance
) -> ConicKind:
    a_norm = float(np.max(np.abs(quad)))
    if a_norm <= tol.gate(1.0):
        return ConicKind.OTHER
    det2 = float(np.linalg.det(quad))
    tr2 = float(np.trace(quad))
    m3 = np.zeros((3, 3))
    m3[:2, :2] = quad
    m3[:2, 2] = m3[2, :2] = 0.5 * linear
    m3[2, 2] = constant
    det3 = float(np.linalg.det(m3))
    lin_scale = max(a_norm, float(np.max(np.abs(linear))), abs(constant))
    degenerate = abs(det3) <= tol.gate(lin_scale, lin_scale, lin_scale)
    if det2 < -tol.gate(a_norm, a_norm):
        if degenerate:
            return ConicKind.LINE_PAIR
        if abs(tr2) <= tol.rel_eps * a_norm * 10.0 + tol.abs_eps:
            return ConicKind.EQUILATERAL_HYPERBOLA
        return ConicKind.HYPERBOLA
    if det2 > tol.gate(a_norm, a_norm):
        if degenerate:
            return ConicKind.OTHER  # single point
        # real ellipse iff the value at the center has sign opposite the trace
        center = np.linalg.solve(quad, -0.5 * linear)
        v0 = float(center @ quad @ center + linear @ center + constant)
        if tr2 * v0 < 0:
            return ConicKind.ELLIPSE
        return ConicKind.OTHER
    return ConicKind.OTHER
