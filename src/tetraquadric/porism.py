"""Trirectangular tetrahedra cut from cone tripods, ellipse sections of an
equilateral cone, and the closed family of acute triangles inscribed in such a
section that all share its center as orthocenter."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Plane3, Tolerance, Vec3
from .errors import DegenerateForm, PlaneMissesLeg, ZeroOffset
from .forms import EigenFrame, QuadForm3, Tripod, _tripods, eigendecompose, trace


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
    s = cut.offset / denom
    if np.any(np.abs(s) <= tol.gate(1.0)):
        raise PlaneMissesLeg("cutting plane passes through the apex")
    return s[..., None] * legs


def _cone_frame(q: QuadForm3, tol: Tolerance) -> tuple[QuadForm3, EigenFrame]:
    """Principal frame with two positive eigenvalues and one negative.

    The zero set is unchanged under negation, so a form with one positive and
    two negative eigenvalues is flipped first.
    """
    if abs(trace(q)) > tol.gate(max(1.0, q.max_abs())):
        raise DegenerateForm("cone sections need a traceless form")
    frame = eigendecompose(q)
    thresh = tol.gate(max(1.0, float(np.max(np.abs(frame.values)))))
    if int(np.sum(np.abs(frame.values) > thresh)) < 3:
        raise DegenerateForm("cone sections need a rank-3 form")
    if int(np.sum(frame.values > 0.0)) == 1:
        q = -q
        frame = eigendecompose(q)
    return q, frame


def ellipse_section(
    q: QuadForm3, rho: float, tol: Tolerance = DEFAULT_TOL
) -> Ellipse3:
    """Ellipse cut from the cone by the plane at height rho along the cone axis.

    The cone axis is the principal axis of the odd-signed eigenvalue; the
    section plane is orthogonal to it at distance rho from the vertex.
    """
    if rho == 0.0:
        raise ZeroOffset("section plane must not pass through the cone vertex")
    _, frame = _cone_frame(q, tol)
    v1, v2, v3 = frame.values
    e1, e2, e3 = frame.axes
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

    Seeds one generator per sample by rotating around the cone axis in the
    principal frame, lifts it to an orthogonal tripod, and cuts the tripod
    with the section plane.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if rho == 0.0:
        raise ZeroOffset("section plane must not pass through the cone vertex")
    qn, frame = _cone_frame(q, tol)
    v1, v2, v3 = frame.values
    e1, e2, e3 = frame.axes
    # the family at height rho is |rho| times the family at height +-1; cutting
    # at unit height keeps every product below free of overflow and underflow
    cut = Plane3.from_point_normal(math.copysign(1.0, rho) * e3, e3)
    phi = 2.0 * math.pi * np.arange(count) / count
    g = (
        (np.cos(phi) / math.sqrt(v1))[:, None] * e1
        + (np.sin(phi) / math.sqrt(v2))[:, None] * e2
        + 1.0 / math.sqrt(-v3) * e3
    )
    pts = _cut(_tripods(qn, g, tol), cut, tol)
    # counter-clockwise in the (e1, e2) frame
    x, y, nxt = pts @ e1, pts @ e2, [1, 2, 0]
    area2 = np.sum(x * y[:, nxt] - x[:, nxt] * y, axis=1)
    pts[area2 < 0] = pts[area2 < 0][:, [0, 2, 1]]
    # unit edges i -> i+1: the angle at vertex i is between edge i and edge i-1 reversed
    d = pts[:, nxt] - pts
    d /= np.linalg.norm(d, axis=2, keepdims=True)
    angles = np.arccos(np.clip(-np.sum(d * d[:, [2, 0, 1]], axis=2), -1.0, 1.0))
    rows = list((abs(rho) * pts).reshape(-1, 3))
    vertices = zip(rows[0::3], rows[1::3], rows[2::3])
    return list(map(InscribedTriangle, vertices, map(tuple, angles.tolist())))
