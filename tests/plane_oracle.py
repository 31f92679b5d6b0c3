"""Plane-intersection constructions, kept as an independent oracle.

The library computes the Monge point, the circumcenter, the altitudes and the
face perpendiculars by closed forms.  These general solvers build the same
objects from intersecting planes, so the tests can check one construction
against the other.  `reference_plane` is the `Plane3` constructor written the
long way, to check the library's one-norm constructor against.
"""

import math

import numpy as np

from tetraquadric import DEFAULT_TOL, Line3, Plane3, Tetrahedron, Tolerance, edge_vector
from tetraquadric.core import Vec3
from tetraquadric.errors import GeometryError


class SingularSystem(GeometryError):
    """Three plane normals are linearly dependent within tolerance."""


class ParallelPlanes(GeometryError):
    """Two plane normals are parallel within tolerance."""


def solve3(p1: Plane3, p2: Plane3, p3: Plane3, tol: Tolerance = DEFAULT_TOL) -> Vec3:
    """Unique common point of three planes with independent normals."""
    a = np.array([p1.normal, p2.normal, p3.normal])
    det = float(np.linalg.det(a))
    # normals are unit vectors, so the natural scale of the determinant is 1
    if abs(det) <= tol.gate(1.0):
        raise SingularSystem("plane normals are linearly dependent")
    return np.linalg.solve(a, np.array([p1.offset, p2.offset, p3.offset]))


def line_from_two_planes(p1: Plane3, p2: Plane3, tol: Tolerance = DEFAULT_TOL) -> Line3:
    """Intersection line of two nonparallel planes."""
    d = np.cross(p1.normal, p2.normal)
    if math.hypot(*d) <= tol.gate(1.0):
        raise ParallelPlanes("plane normals are parallel")
    d = d / math.hypot(*d)
    a = np.array([p1.normal, p2.normal, d])
    base = np.linalg.solve(a, np.array([p1.offset, p2.offset, 0.0]))
    return Line3(base, d)


def perp_bisector(t: Tetrahedron, i: int, j: int) -> Plane3:
    """Perpendicular bisector plane of the edge ij."""
    mid = 0.5 * (t.vertices[i] + t.vertices[j])
    return Plane3.from_point_normal(mid, edge_vector(t, i, j))


def reference_plane(normal, offset: float) -> tuple[Vec3, float]:
    """(normal, offset) of `Plane3(normal, offset)`, normalising the normal twice:
    the unit normal with its first component above 1e-12 in magnitude made
    positive, and the offset with the sign of the dot product of that normal
    with the plainly normalised one."""
    n = np.asarray(normal, dtype=float)
    if not n.any():
        raise ValueError("zero normal")
    u = n / math.hypot(*n)
    for c in u:
        if abs(c) > 1e-12:
            u = -u if c < 0 else u
            break
    off = float(offset) / math.hypot(*n)
    if float(np.dot(u, n / math.hypot(*n))) < 0:
        off = -off
    return u, off
