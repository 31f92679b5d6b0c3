"""Trirectangular tetrahedra cut from cone tripods, ellipse sections of an
equilateral cone, and the closed family of acute triangles inscribed in such a
section that all share its center as orthocenter."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Plane3,
    Tolerance,
    Vec3,
    dot,
    norm,
    normalize,
)
from .errors import (
    DegenerateForm,
    PlaneMissesLeg,
    ZeroOffset,
)
from .forms import (
    EigenFrame,
    QuadForm3,
    Tripod,
    eigendecompose,
    evaluate,
    trace,
    tripod_through_generator,
)


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
        return max(norm(self.semi_axes[0]), norm(self.semi_axes[1]))


@dataclass(frozen=True, eq=False)
class InscribedTriangle:
    vertices: tuple[Vec3, Vec3, Vec3]
    angles: tuple[float, float, float]


def trirect_from_tripod(
    q: QuadForm3, tripod: Tripod, cut: Plane3, tol: Tolerance = DEFAULT_TOL
) -> TrirectangularTetra:
    """Intersect the tripod legs with a cutting plane.

    The apex stays at the cone vertex (the origin); the base vertices inherit
    mutual orthogonality from the tripod legs.
    """
    points = []
    for g in tripod.legs:
        denom = dot(cut.normal, g)
        if abs(denom) <= tol.gate(1.0):
            raise PlaneMissesLeg("cutting plane is parallel to a tripod leg")
        s = cut.offset / denom
        if abs(s) <= tol.gate(1.0):
            raise PlaneMissesLeg("cutting plane passes through the apex")
        points.append(s * g)
    return TrirectangularTetra(np.zeros(3), tuple(points))


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
    a = math.sqrt(-v3 * rho * rho / v1)
    b = math.sqrt(-v3 * rho * rho / v2)
    plane = Plane3.from_point_normal(center, e3)
    return Ellipse3(center, (a * e1, b * e2), plane)


def _ccw_in_plane(points: list[Vec3], e1: Vec3, e2: Vec3) -> list[Vec3]:
    coords = [(dot(p, e1), dot(p, e2)) for p in points]
    area2 = sum(
        coords[i][0] * coords[(i + 1) % 3][1] - coords[(i + 1) % 3][0] * coords[i][1]
        for i in range(3)
    )
    if area2 < 0:
        return [points[0], points[2], points[1]]
    return points


def _angles(v0: Vec3, v1: Vec3, v2: Vec3) -> tuple[float, float, float]:
    out = []
    for a, b, c in ((v0, v1, v2), (v1, v2, v0), (v2, v0, v1)):
        u, w = normalize(b - a), normalize(c - a)
        out.append(math.acos(max(-1.0, min(1.0, dot(u, w)))))
    return tuple(out)


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
    cut = Plane3.from_point_normal(rho * e3, e3)
    out = []
    for idx in range(count):
        phi = 2.0 * math.pi * idx / count
        g = (
            math.cos(phi) / math.sqrt(v1) * e1
            + math.sin(phi) / math.sqrt(v2) * e2
            + 1.0 / math.sqrt(-v3) * e3
        )
        tripod = tripod_through_generator(qn, g, tol)
        tet = trirect_from_tripod(qn, tripod, cut, tol)
        verts = _ccw_in_plane(list(tet.legs), e1, e2)
        out.append(InscribedTriangle(tuple(verts), _angles(*verts)))
    return out
