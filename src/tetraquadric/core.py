"""Vector, line, and plane primitives.

Vectors are plain numpy arrays of shape (3,); lines and planes are small
immutable records.  Every zero test is one purely relative rule, `Tolerance`,
so each decision is the same for a figure and for any similar copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import CollinearPoints

Vec3 = np.ndarray

#: Smallest positive normal float; a scale below it has lost its digits.
TINY = np.finfo(float).tiny


def vec(x: float, y: float, z: float) -> Vec3:
    return np.array([x, y, z], dtype=float)


def as_vec(v) -> Vec3:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """Make a cached array read-only, so that no caller can change it."""
    a.flags.writeable = False
    return a


def dot(u: Vec3, v: Vec3) -> float:
    """Euclidean inner product."""
    return float(np.dot(u, v))


def cross(u: Vec3, v: Vec3) -> Vec3:
    """Cross product of two 3-vectors; the closed form, equal to `np.cross` to
    the bit and far cheaper per call."""
    return np.array(_cross(u.tolist(), v.tolist()))


def _cross(u: list, v: list) -> list:
    """The closed form of `cross` on coordinate lists."""
    (a, b, c), (d, e, f) = u, v
    return [b * f - c * e, c * d - a * f, a * e - b * d]


def cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross products along the last axis of broadcastable (..., 3) arrays; the
    same closed form as `cross`, so equal to `np.cross` to the bit."""
    return u[..., [1, 2, 0]] * v[..., [2, 0, 1]] - u[..., [2, 0, 1]] * v[..., [1, 2, 0]]


def norm(v: Vec3) -> float:
    """Euclidean length; free of overflow and underflow in the squares."""
    return math.hypot(*v.tolist())


def triple(u: Vec3, v: Vec3, w: Vec3) -> float:
    """Determinant of the 3x3 matrix with rows u, v, w, as u . (v x w)."""
    return dot(u, cross(v, w))


def normalize(v: Vec3) -> Vec3:
    n = norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def _leads_negative(u: Vec3) -> bool:
    """True when the first component of the unit vector u above 1e-12 in
    magnitude is negative: the sign rule of `canonical_dir` and `Plane3`."""
    for c in u.tolist():
        if abs(c) > 1e-12:
            return c < 0
    return False


def canonical_dir(v: Vec3) -> Vec3:
    """Unit vector with the first component of significant size made positive.

    Lines are sets, so a direction and its negative describe the same line;
    this picks one representative deterministically.
    """
    u = normalize(v)
    return -u if _leads_negative(u) else u


@dataclass(frozen=True)
class Tolerance:
    """Zero test |value| <= rel_eps * |scale_1 * ... * scale_n|, where the scales
    are the magnitudes of the value's own operands (1.0 for a dimensionless one)."""

    rel_eps: float = 1e-9

    def __post_init__(self):
        if self.rel_eps <= 0:
            raise ValueError("tolerance must be positive")

    def gate(self, *scales: float) -> float:
        s = 1.0
        for x in scales:
            s *= abs(x)
        return self.rel_eps * s


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class Line3:
    """Line given by a base point and a unit direction."""

    base: Vec3
    dir: Vec3

    def __post_init__(self):
        object.__setattr__(self, "base", as_vec(self.base))
        object.__setattr__(self, "dir", canonical_dir(as_vec(self.dir)))

    def point_at(self, t: float) -> Vec3:
        return self.base + t * self.dir

    def distance_to_point(self, p: Vec3) -> float:
        off = p - self.base
        return norm(off - dot(off, self.dir) * self.dir)


@dataclass(frozen=True, eq=False)
class Plane3:
    """Plane { x : normal . x = offset } with a unit, sign-canonical normal:
    normal and offset are divided by |normal|, then both negated when the unit
    normal fails the sign rule of `canonical_dir`."""

    normal: Vec3
    offset: float

    def __post_init__(self):
        n = as_vec(self.normal)
        s = norm(n)
        if s == 0.0:
            raise ValueError("cannot normalize the zero vector")
        u = n / s
        off = float(self.offset) / s
        if _leads_negative(u):
            u, off = -u, -off
        object.__setattr__(self, "normal", u)
        object.__setattr__(self, "offset", off)

    @classmethod
    def from_point_normal(cls, point: Vec3, normal: Vec3) -> "Plane3":
        n = as_vec(normal)
        return cls(n, dot(n, as_vec(point)))

    def residual(self, x: Vec3) -> float:
        return abs(dot(self.normal, x) - self.offset)


def plane_basis(normal: Vec3) -> tuple[Vec3, Vec3]:
    """Deterministic orthonormal in-plane basis (u, v) with u x v = normal-hat."""
    n = normalize(normal)
    k = np.zeros(3)
    k[int(np.argmin(np.abs(n)))] = 1.0
    u = normalize(cross(n, k))
    v = cross(n, u)
    return u, v


def orthocenter2d(tri: tuple[Vec3, Vec3, Vec3], tol: Tolerance = DEFAULT_TOL) -> Vec3:
    """Orthocenter of a triangle given by three coplanar 3D points.

    Solved in units of the power of two just above the longest edge.  The
    change of unit is exact, so no product overflows or underflows at any
    scale and results at ordinary scales keep every bit.
    """
    v = np.array([as_vec(p) for p in tri])
    longest = max(norm(v[i] - v[j]) for i, j in ((1, 0), (2, 0), (2, 1)))
    unit = math.ldexp(1.0, math.frexp(longest)[1])
    v0, v1, v2 = v / unit
    n = cross(v1 - v0, v2 - v0)
    if norm(n) <= tol.gate(longest / unit, longest / unit):
        raise CollinearPoints("triangle vertices are collinear")
    n_hat = n / norm(n)
    a = np.array([v1 - v2, v2 - v0, n_hat])
    b = np.array([dot(v0, v1 - v2), dot(v1, v2 - v0), dot(v0, n_hat)])
    return unit * np.linalg.solve(a, b)


class LineRelation(Enum):
    IDENTICAL = "identical"
    PARALLEL = "parallel"
    MEETING = "meeting"
    SKEW = "skew"


@dataclass(frozen=True, eq=False)
class LineMeet:
    relation: LineRelation
    point: Optional[Vec3]
    gap: float


def line_line_meet(l1: Line3, l2: Line3, tol: Tolerance = DEFAULT_TOL) -> LineMeet:
    """Classify the mutual position of two lines; Meeting carries the common point.

    The gap is gated relative to the larger base point, so lines far from the
    origin are not spuriously declared intersecting.
    """
    d1, d2 = l1.dir, l2.dir
    c = cross(d1, d2)
    scale = max(norm(l1.base), norm(l2.base))
    w = l2.base - l1.base
    if norm(c) <= tol.gate(1.0):
        gap = l1.distance_to_point(l2.base)
        if gap <= tol.gate(scale):
            return LineMeet(LineRelation.IDENTICAL, None, gap)
        return LineMeet(LineRelation.PARALLEL, None, gap)
    gap = abs(dot(w, c)) / norm(c)
    # closest points: minimize |l1(t1) - l2(t2)|
    a11 = 1.0
    a12 = -dot(d1, d2)
    a22 = 1.0
    b1 = dot(w, d1)
    b2 = -dot(w, d2)
    det = a11 * a22 - a12 * a12
    t1 = (b1 * a22 - a12 * b2) / det
    t2 = (a11 * b2 - a12 * b1) / det
    q1 = l1.point_at(t1)
    q2 = l2.point_at(t2)
    if gap <= tol.gate(scale):
        return LineMeet(LineRelation.MEETING, 0.5 * (q1 + q2), gap)
    return LineMeet(LineRelation.SKEW, None, gap)
