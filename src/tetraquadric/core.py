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


#: Index arrays of the cyclic shifts (y, z, x) and (z, x, y) of a 3-vector.
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross products along the last axis of broadcastable (..., 3) arrays; the
    same closed form as `cross`, so equal to `np.cross` to the bit."""
    return u[..., _NEXT] * v[..., _PREV] - u[..., _PREV] * v[..., _NEXT]


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


def orthocenter2d(tri: tuple[Vec3, Vec3, Vec3], tol: Tolerance = DEFAULT_TOL) -> Vec3:
    """Orthocenter of a triangle given by three coplanar 3D points.

    H = v0 + (e1 . e2) (n x (v1 - v2)) / |n|^2 with e1 = v1 - v0, e2 = v2 - v0
    and n = e1 x e2, relative to v0 so that a shifted copy keeps its digits; in
    units of the power of two just above the longest edge, whose exponent is
    read in units of the largest coordinate, where no edge overflows.  Both
    changes of unit are exact, so no product overflows or underflows at any
    scale and results at ordinary scales keep every bit; dividing by |n| twice,
    |n|^2 is never formed.  A triangle so flat that its orthocenter lies beyond
    the largest double raises `CollinearPoints`.
    """
    v = np.array([as_vec(p) for p in tri])
    v_exp = math.frexp(float(np.max(np.abs(v))))[1]
    w = np.ldexp(v, -v_exp)
    frac, exp = math.frexp(max(norm(w[i] - w[j]) for i, j in ((1, 0), (2, 0), (2, 1))))
    v0, v1, v2 = np.ldexp(w, -exp)
    e1, e2 = v1 - v0, v2 - v0
    n = cross(e1, e2)
    if norm(n) <= tol.gate(frac, frac):
        raise CollinearPoints("triangle vertices are collinear")
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.ldexp(v0 + dot(e1, e2) / norm(n) * (cross(n, v1 - v2) / norm(n)), v_exp + exp)
    if not np.isfinite(h).all():
        raise CollinearPoints("triangle too flat: its orthocenter leaves the double range")
    return h


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


def _meet_rule(
    base: Vec3, direction: Vec3, bases: np.ndarray, directions: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, ...]:
    """How the line (base, direction) lies against each line (bases, directions)
    (N, 3), directions unit, as arrays (parallel, meets, gap, scale, c), c (N, 3)
    the cross products of the directions: parallel is |c| <= gate(1.0); meets, not
    parallel and |(base_k - base) . c| / |c| within the gate of the larger base point."""
    c = cross_rows(direction, directions)
    c_norm = np.array([math.hypot(*r) for r in c.tolist()])
    scale = np.maximum(norm(base), [math.hypot(*v) for v in bases.tolist()])
    # a parallel pair has c = 0; its gap, 0 / 0, is masked
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(np.sum((bases - base) * c, axis=1)) / c_norm
    meets = (c_norm > tol.gate(1.0)) & (gap <= tol.gate(scale))
    return c_norm <= tol.gate(1.0), meets, gap, scale, c


def line_line_meet(l1: Line3, l2: Line3, tol: Tolerance = DEFAULT_TOL) -> LineMeet:
    """Classify the mutual position of two lines; Meeting carries the common point.

    `_meet_rule` decides, the one rule that `altquadric.regulus_of` votes with; a
    parallel pair is identical when l2's base point is within the gate of l1.  The
    meeting point is the midpoint of the closest points l1(t1), l2(t2), with
    t1 = ((w x d2) . c) / |c|^2, t2 = ((w x d1) . c) / |c|^2, w = l2.base - l1.base
    and c the rule's own cross product d1 x d2."""
    *rule, (c,) = _meet_rule(l1.base, l1.dir, l2.base[None], l2.dir[None], tol)
    parallel, meets, gap, scale = (x.item() for x in rule)
    if parallel:
        gap = l1.distance_to_point(l2.base)
        relation = LineRelation.IDENTICAL if gap <= tol.gate(scale) else LineRelation.PARALLEL
        return LineMeet(relation, None, gap)
    if not meets:
        return LineMeet(LineRelation.SKEW, None, gap)
    w, cc = l2.base - l1.base, dot(c, c)
    t1, t2 = dot(cross(w, l2.dir), c) / cc, dot(cross(w, l1.dir), c) / cc
    return LineMeet(LineRelation.MEETING, 0.5 * (l1.point_at(t1) + l2.point_at(t2)), gap)
