"""Trirectangular tetrahedra cut from cone tripods, ellipse sections of an
equilateral cone, and the closed family of acute triangles inscribed in such a
section that all share its center as orthocenter."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Plane3, Tolerance, Vec3
from .errors import DegenerateForm, PlaneMissesLeg, ZeroOffset
from .forms import QuadForm3, Tripod, _tripods, not_traceless, rank


@dataclass(frozen=True, eq=False)
class TrirectangularTetra:
    """Apex with three mutually orthogonal edges to the base vertices."""

    apex: Vec3
    legs: tuple[Vec3, Vec3, Vec3]


@dataclass(frozen=True, eq=False)
class Ellipse3:
    center: Vec3
    semi_axes: tuple[Vec3, Vec3]
    plane: Plane3

    def scale(self) -> float:
        return max(math.hypot(*self.semi_axes[0]), math.hypot(*self.semi_axes[1]))


@dataclass(frozen=True, eq=False)
class InscribedTriangle:
    vertices: tuple[Vec3, Vec3, Vec3]
    angles: tuple[float, float, float]


def trirect_from_tripod(
    tripod: Tripod, cut: Plane3, tol: Tolerance = DEFAULT_TOL
) -> TrirectangularTetra:
    """Intersect the tripod legs with a cutting plane.

    The apex stays at the cone vertex (the origin); the base vertices inherit
    mutual orthogonality from the tripod legs.
    """
    points = _cut(np.array(tripod.legs)[None], cut, tol)[0]
    return TrirectangularTetra(np.zeros(3), tuple(points))


def _cut(legs: np.ndarray, cut: Plane3, tol: Tolerance) -> np.ndarray:
    """Points (N, 3, 3) where the tripod legs (N, 3, 3) pierce the plane."""
    denom = legs @ cut.normal
    if np.any(np.abs(denom) <= tol.gate(1.0)):
        raise PlaneMissesLeg("cutting plane is parallel to a tripod leg")
    # the cone is scale-free, so only a plane exactly through the apex misses
    if cut.offset == 0.0:
        raise PlaneMissesLeg("cutting plane passes through the apex")
    return (cut.offset / denom)[..., None] * legs


def ellipse_section(
    q: QuadForm3, rho: float, tol: Tolerance = DEFAULT_TOL
) -> Ellipse3:
    """Ellipse cut from the cone by the plane at height rho along the cone axis.

    The cone axis is the principal axis of the odd-signed eigenvalue; the
    section plane is orthogonal to it at distance rho from the vertex.  The
    zero set is unchanged under negation, so a form with one positive
    eigenvalue is read in the frame of -q, which is its own frame with the
    eigenvalues negated and both eigenvalues and axes in reverse order.
    """
    if rho == 0.0:
        raise ZeroOffset("section plane must not pass through the cone vertex")
    if not_traceless(q, tol) or rank(q, tol) < 3:
        raise DegenerateForm("cone sections need a traceless rank-3 form")
    (v1, v2, v3), (e1, e2, e3) = q.frame.values, q.frame.axes
    if v2 <= 0.0 < v1:
        (v1, v2, v3), (e1, e2, e3) = (-v3, -v2, -v1), (e3, e2, e1)
    center = rho * e3
    a = abs(rho) * math.sqrt(-v3 / v1)
    b = abs(rho) * math.sqrt(-v3 / v2)
    plane = Plane3.from_point_normal(center, e3)
    return Ellipse3(center, (a * e1, b * e2), plane)


def porism_family(
    q: QuadForm3,
    rho: float,
    count: int,
    tol: Tolerance = DEFAULT_TOL,
) -> list[InscribedTriangle]:
    """Acute triangles inscribed in the ellipse section, sharing its center as
    orthocenter.

    Each point sampled on the ellipse section at unit height is a cone
    generator; it is lifted to an orthogonal tripod, and the tripod is cut with
    the section plane.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if rho == 0.0:
        raise ZeroOffset("section plane must not pass through the cone vertex")
    # the family at height rho is |rho| times the family at height +-1; cutting
    # at unit height keeps every product below free of overflow and underflow
    unit = ellipse_section(q, 1.0, tol)
    (s1, s2), e3 = unit.semi_axes, unit.center
    cut = Plane3.from_point_normal(math.copysign(1.0, rho) * e3, e3)
    phi = 2.0 * math.pi * np.arange(count) / count
    g = e3 + np.cos(phi)[:, None] * s1 + np.sin(phi)[:, None] * s2
    pts = _cut(_tripods(q, g, tol), cut, tol)
    # counter-clockwise in the frame of the semi-axes
    x, y, nxt = pts @ s1, pts @ s2, [1, 2, 0]
    area2 = np.sum(x * y[:, nxt] - x[:, nxt] * y, axis=1)
    pts[area2 < 0] = pts[area2 < 0][:, [0, 2, 1]]
    # unit edges i -> i+1: the angle at vertex i is between edge i and edge i-1 reversed
    d = pts[:, nxt] - pts
    d /= np.linalg.norm(d, axis=2, keepdims=True)
    angles = np.arccos(np.clip(-np.sum(d * d[:, [2, 0, 1]], axis=2), -1.0, 1.0))
    rows = list((abs(rho) * pts).reshape(-1, 3))
    vertices = zip(rows[0::3], rows[1::3], rows[2::3])
    return list(map(InscribedTriangle, vertices, map(tuple, angles.tolist())))
