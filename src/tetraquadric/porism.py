"""Ellipse sections of an equilateral cone, the orthogonal tripods of its
generators in closed form on the section at unit height, trirectangular
tetrahedra cut from them, and the closed family of acute triangles inscribed in
a section that all share its center as orthocenter."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Plane3, Tolerance, Vec3, _frozen, _unit, as_vec, dot
from .errors import DegenerateForm, NotOnCone, PlaneMissesLeg, ZeroOffset
from .forms import QuadForm3, evaluate, not_traceless, rank


@dataclass(frozen=True, eq=False)
class Ellipse3:
    """Ellipse in space: center + cos t a + sin t b, (a, b) the semi-axes, in its plane."""

    center: Vec3
    semi_axes: tuple[Vec3, Vec3]
    plane: Plane3


@dataclass(frozen=True, eq=False)
class Tripod:
    """Three mutually orthogonal unit directions, all on the cone Q = 0."""

    legs: tuple[Vec3, Vec3, Vec3]


@dataclass(frozen=True, eq=False)
class InscribedTriangle:
    """Porism triangle in the section ellipse: read-only (3, 3) vertex rows, and angles."""

    vertices: np.ndarray
    angles: tuple[float, float, float]


def _cut(legs: np.ndarray, cut: Plane3, tol: Tolerance) -> np.ndarray:
    """Points (N, 3, 3) where the tripod legs (N, 3, 3), each at least unit long,
    pierce the plane: with the apex at the cone vertex (the origin), N
    trirectangular tetrahedra."""
    denom = legs @ cut.normal
    if np.any(np.abs(denom) <= tol.gate(1.0)):
        raise PlaneMissesLeg("cutting plane is parallel to a tripod leg")
    # the cone is scale-free, so only a plane exactly through the apex misses
    if cut.offset == 0.0:
        raise PlaneMissesLeg("cutting plane passes through the apex")
    return (cut.offset / denom)[..., None] * legs


def _check_height(rho: float) -> None:
    """Reject a non-finite section height, or one through the cone vertex."""
    if not math.isfinite(rho):
        raise ValueError("rho must be finite")
    if rho == 0.0:
        raise ZeroOffset("section plane must not pass through the cone vertex")


def ellipse_section(
    q: QuadForm3, rho: float, tol: Tolerance = DEFAULT_TOL
) -> Ellipse3:
    """Ellipse cut from the cone by the plane at height rho along the cone axis.

    The cone axis is the principal axis of the odd-signed eigenvalue; the
    section plane is orthogonal to it at distance rho from the vertex.  The
    zero set is unchanged under negation, so a form with one positive
    eigenvalue is read in the frame of -q, which is its own frame with the
    eigenvalues negated and both eigenvalues and axes in reverse order.  A
    height whose semi-axes leave the double range raises `DegenerateForm`.
    """
    _check_height(rho)
    if not_traceless(q, tol) or rank(q, tol) < 3:
        raise DegenerateForm("cone sections need a traceless rank-3 form")
    (v1, v2, v3), (e1, e2, e3) = q.frame.values, q.frame.axes
    if v2 <= 0.0 < v1:
        (v1, v2, v3), (e1, e2, e3) = (-v3, -v2, -v1), (e3, e2, e1)
    center = rho * e3
    a = abs(rho) * math.sqrt(-v3 / v1)
    b = abs(rho) * math.sqrt(-v3 / v2)
    if max(a, b) == math.inf:
        raise DegenerateForm("the section leaves the double range at this height")
    plane = Plane3.from_point_normal(center, e3)
    return Ellipse3(center, (a * e1, b * e2), plane)


def _companion(e3, s1, s2, a, b):
    """Second legs e3 + X s1 + Y s2 of the tripods through the points w of the
    unit section, from arrays a = w . s1 and b = w . s2: orthogonal to w on the
    line a X + b Y = -1, which meets X^2 + Y^2 = 1 at (-(a, b) + r (-b, a)) / n2
    with n2 = a^2 + b^2 and r = sqrt(n2 - 1); n2 >= 1 for a traceless form, and
    the clamp absorbs a trace within the gate."""
    n2 = a * a + b * b
    r = np.sqrt(np.maximum(n2 - 1.0, 0.0))
    return e3 + ((-a - b * r) / n2)[..., None] * s1 + ((-b + a * r) / n2)[..., None] * s2


def tripod_through_generator(
    q: QuadForm3, g: Vec3, tol: Tolerance = DEFAULT_TOL
) -> Tripod:
    """Orthogonal tripod of cone generators containing the generator g, in the
    closed form of `porism_family`: on the unit section e3 + X s1 + Y s2 of
    `ellipse_section(q, 1)`, g is w = g / (g . e3), the second leg h is where the
    plane g . x = 0 meets the section, and the third leg is g x h.  Leg 0 is g;
    every leg is a sign-canonical unit vector."""
    g = as_vec(g)
    if not (np.isfinite(g).all() and g.any()):
        raise NotOnCone("a generator must be finite and nonzero")
    # in units of the power of two just above the largest component, as in
    # `orthocenter2d`: exact, so the squares neither overflow nor underflow
    g = np.ldexp(g, -np.frexp(np.max(np.abs(g)))[1])
    unit = ellipse_section(q, 1.0, tol)
    on_cone = evaluate(q, g / math.sqrt(dot(g, g)))
    if abs(on_cone) > tol.gate(q.max_abs()):
        raise NotOnCone(f"Q(g) = {on_cone} is not zero")
    (s1, s2), e3 = unit.semi_axes, unit.center
    w = g / dot(g, e3)
    h = _companion(e3, s1, s2, dot(w, s1), dot(w, s2))
    return Tripod(tuple(np.array(_unit(leg.tolist())[0]) for leg in (g, h, np.cross(g, h))))


def porism_family(
    q: QuadForm3,
    rho: float,
    count: int,
    tol: Tolerance = DEFAULT_TOL,
) -> list[InscribedTriangle]:
    """Acute triangles inscribed in the ellipse section, sharing its center as
    orthocenter, as read-only (3, 3) vertex arrays.

    Each sampled point (X, Y) = (cos phi, sin phi) of the unit section is a
    cone generator g, whose tripod, in the closed form of
    `tripod_through_generator`, is cut with the section plane.  A height whose
    vertices leave the double range raises `DegenerateForm`.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    _check_height(rho)
    # the family at height rho is |rho| times the family at height +-1; cutting
    # at unit height keeps every product below free of overflow and underflow
    unit = ellipse_section(q, 1.0, tol)
    (s1, s2), e3 = unit.semi_axes, unit.center
    cut = Plane3.from_point_normal(math.copysign(1.0, rho) * e3, e3)
    phi = 2.0 * math.pi * np.arange(count) / count
    c, s = np.cos(phi), np.sin(phi)
    legs = np.empty((count, 3, 3))
    legs[:, 0] = e3 + c[:, None] * s1 + s[:, None] * s2
    # g . s1 and g . s2 for g = e3 + c s1 + s s2
    legs[:, 1] = _companion(e3, s1, s2, dot(s1, s1) * c, dot(s2, s2) * s)
    # the cross product, not the circle's other root, keeps the third leg
    # orthogonal to both on a long ellipse
    legs[:, 2] = np.cross(legs[:, 0], legs[:, 1])
    pts = _cut(legs, cut, tol)
    # counter-clockwise in the frame of the semi-axes
    x, y, nxt = pts @ s1, pts @ s2, [1, 2, 0]
    area2 = np.sum(x * y[:, nxt] - x[:, nxt] * y, axis=1)
    pts[area2 < 0] = pts[area2 < 0][:, [0, 2, 1]]
    # unit edges i -> i+1: the angle at vertex i is between edge i and edge i-1 reversed
    d = pts[:, nxt] - pts
    d /= np.linalg.norm(d, axis=2, keepdims=True)
    angles = np.arccos(np.clip(-np.sum(d * d[:, [2, 0, 1]], axis=2), -1.0, 1.0))
    with np.errstate(over="ignore"):
        pts = abs(rho) * pts
    if not np.isfinite(pts).all():
        raise DegenerateForm("the family leaves the double range at this height")
    return list(map(InscribedTriangle, _frozen(pts), map(tuple, angles.tolist())))
