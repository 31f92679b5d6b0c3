"""Vector, line, and plane primitives.

The library computes on Python floats, three to a coordinate list; numpy
arrays appear only at the public boundary.  `Line3` and `Plane3` keep their
coordinates as float lists and build each public `(3,)` array, read-only, on
its first read.  Every zero test is one purely relative rule, `Tolerance`, so
each decision is the same for a figure and for any similar copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

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


def _coords(v) -> list:
    """The coordinates of a 3-vector as a list of Python floats: a list of
    three numbers as it is, anything else through `as_vec`."""
    x, y, z = v if type(v) is list else as_vec(v).tolist()
    return [float(x), float(y), float(z)]


def _frozen(a: np.ndarray) -> np.ndarray:
    """Make a cached array read-only, so that no caller can change it."""
    a.flags.writeable = False
    return a


def _array_on_read(record, name: str) -> Vec3:
    """`__getattr__` of the float records: the public array `name`, built on its
    first read, read-only, from the record's float list `_<name>`, and kept."""
    floats = vars(record).get("_" + name)
    if floats is None:
        raise AttributeError(name)
    a = vars(record)[name] = _frozen(np.array(floats))
    return a


def dot(u: Vec3, v: Vec3) -> float:
    """Euclidean inner product of two 3-vectors (lists, tuples or arrays),
    summed in coordinate order: the same bits on every CPU and BLAS kernel.
    Any other length raises `ValueError`."""
    (a, b, c), (d, e, f) = u, v
    return a * d + b * e + c * f


def _cross(u: list, v: list) -> list:
    """Cross product of two coordinate lists; the closed form, equal to
    `np.cross` to the bit."""
    (a, b, c), (d, e, f) = u, v
    return [b * f - c * e, c * d - a * f, a * e - b * d]


def _leads_negative(u: list) -> bool:
    """True when the first coordinate of the unit vector u above 1e-12 in
    magnitude is negative: the sign rule of `_unit`."""
    for c in u:
        if abs(c) > 1e-12:
            return c < 0
    return False


def _unit(v: list) -> tuple[list, float]:
    """(v / s, s) for the coordinate list v and s = +-|v|, the sign passing
    `_leads_negative`: lines and planes are sets, so this picks one of the two
    unit vectors that describe them.  A subnormal |v| has lost bits, so v is
    then divided by its length in the unit of the power of two just above it,
    as in `orthocenter2d`: exact, and u is unit to the last bits."""
    x, y, z = v
    s = math.hypot(x, y, z)
    if not 0.0 < s < math.inf:
        raise ValueError("cannot normalize a zero or non-finite vector")
    if s < TINY:
        x, y, z = (math.ldexp(c, -math.frexp(s)[1]) for c in v)
        h = math.hypot(x, y, z)
    else:
        h = s
    u = [x / h, y / h, z / h]
    return ([-x / h, -y / h, -z / h], -s) if _leads_negative(u) else (u, s)


@dataclass(frozen=True)
class Tolerance:
    """Zero test |value| <= rel_eps * |scale_1 * ... * scale_n|, where the scales
    are the magnitudes of the value's own operands (1.0 for a dimensionless one)."""

    rel_eps: float = 1e-9

    def __post_init__(self):
        if not 0 < self.rel_eps < math.inf:
            raise ValueError("tolerance must be positive and finite")

    def gate(self, *scales: float) -> float:
        s = 1.0
        for x in scales:
            s *= abs(x)
        return self.rel_eps * s


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class Line3:
    """Line given by a finite base point and a unit direction, made
    sign-canonical by `_unit`.  The record is the float lists `_base` and
    `_dir`; `base` and `dir` are read-only arrays of them."""

    base: Vec3
    dir: Vec3

    def __post_init__(self):
        base = _coords(vars(self).pop("base"))
        if not all(map(math.isfinite, base)):
            raise ValueError("a line needs a finite base point")
        vars(self).update(_base=base, _dir=_unit(_coords(vars(self).pop("dir")))[0])

    __getattr__ = _array_on_read

    def point_at(self, t: float) -> Vec3:
        return self.base + t * self.dir

    def distance_to_point(self, p: Vec3) -> float:
        off = p - self.base
        return math.hypot(*(off - dot(off, self.dir) * self.dir).tolist())


@dataclass(frozen=True, eq=False)
class Plane3:
    """Plane { x : normal . x = offset } with a unit, sign-canonical normal:
    normal and offset are divided by |normal|, then both negated when the unit
    normal fails the sign rule of `_unit`.  Both must be finite.  The record is
    the float list `_normal` and the float `offset`; `normal` is a read-only
    array of the first."""

    normal: Vec3
    offset: float

    def __post_init__(self):
        u, s = _unit(_coords(vars(self).pop("normal")))
        off = float(self.offset) / s
        if not math.isfinite(off):
            raise ValueError("a plane needs a finite offset")
        vars(self).update(_normal=u, offset=off)

    __getattr__ = _array_on_read

    @classmethod
    def from_point_normal(cls, point: Vec3, normal: Vec3) -> "Plane3":
        n = _coords(normal)
        return cls(n, dot(n, _coords(point)))

    def residual(self, x: Vec3) -> float:
        return abs(dot(self.normal, x) - self.offset)


def orthocenter2d(tri: tuple[Vec3, Vec3, Vec3], tol: Tolerance = DEFAULT_TOL) -> Vec3:
    """Orthocenter of a triangle given by three finite coplanar 3D points.

    H = v0 + (e1 . e2) (n x (v1 - v2)) / |n|^2 with e1 = v1 - v0, e2 = v2 - v0
    and n = e1 x e2, relative to v0 so that a shifted copy keeps its digits.  The
    vertices are read in units of the power of two just above the largest
    coordinate, and the edges, formed there, in units of the power of two just
    above the longest edge, where they lie below 2 however small the triangle.
    Both changes of unit are exact, so no product overflows or underflows at
    any scale and results at ordinary scales keep every bit; dividing by |n|
    twice, |n|^2 is never formed.  A triangle so flat that its orthocenter lies
    beyond the largest double raises `CollinearPoints`.
    """
    v = list(map(_coords, tri))
    if len(v) != 3 or not all(math.isfinite(x) for p in v for x in p):
        raise ValueError("triangle vertices must be finite, and exactly three")
    v_exp = math.frexp(max(abs(x) for p in v for x in p))[1]
    w = [[math.ldexp(x, -v_exp) for x in p] for p in v]
    frac, exp = math.frexp(max(math.dist(w[i], w[j]) for i, j in ((1, 0), (2, 0), (2, 1))))
    # a vertex in the unit of a tiny edge would overflow, so only edges go there
    pairs = ((1, 0), (2, 0), (1, 2))
    e1, e2, d = ([math.ldexp(a - b, -exp) for a, b in zip(w[i], w[j])] for i, j in pairs)
    n = _cross(e1, e2)
    n_norm = math.hypot(*n)
    if n_norm <= tol.gate(frac, frac):
        raise CollinearPoints("triangle vertices are collinear")
    s, k = dot(e1, e2) / n_norm, _cross(n, d)
    try:
        h = [math.ldexp(a + math.ldexp(s * (b / n_norm), exp), v_exp) for a, b in zip(w[0], k)]
        if all(map(math.isfinite, h)):
            return np.array(h)
    except OverflowError:  # from `math.ldexp`
        pass
    raise CollinearPoints("triangle too flat: its orthocenter leaves the double range")


class LineRelation(Enum):
    IDENTICAL = "identical"
    PARALLEL = "parallel"
    MEETING = "meeting"
    SKEW = "skew"


@dataclass(frozen=True, eq=False)
class LineMeet:
    """How two lines lie: their relation, the common point when they meet, and the gap."""

    relation: LineRelation
    point: Optional[Vec3]
    gap: float


def _meet_rule(
    base: list, direction: list, bases: list, directions: list, tol: Tolerance
) -> Iterator[tuple[bool, bool, float, float, list]]:
    """How the line (base, direction) lies against each line of the coordinate lists
    (bases, directions), directions unit: yields (parallel, meets, gap, scale, c),
    c the directions' cross product, gap |(base_k - base) . c| / |c| (NaN when c = 0) and
    scale the larger |base|; parallel is |c| <= gate(1), meets not parallel, gap <= gate(scale)."""
    s0, g1 = math.hypot(*base), tol.gate(1.0)
    for b, d in zip(bases, directions):
        c = _cross(direction, d)
        c_norm = math.hypot(*c)
        scale = max(s0, math.hypot(*b))
        w0, w1, w2 = (x - y for x, y in zip(b, base))
        gap = abs(w0 * c[0] + w1 * c[1] + w2 * c[2]) / c_norm if c_norm else math.nan
        yield c_norm <= g1, c_norm > g1 and gap <= tol.gate(scale), gap, scale, c


def line_line_meet(l1: Line3, l2: Line3, tol: Tolerance = DEFAULT_TOL) -> LineMeet:
    """Classify the mutual position of two lines; Meeting carries the common point.

    `_meet_rule` decides, the one rule that `altquadric.regulus_of` votes with; a
    parallel pair is identical when l2's base point is within the gate of l1.  The
    meeting point is the midpoint of the closest points l1(t1), l2(t2), with
    t1 = ((w x d2) . c) / |c|^2, t2 = ((w x d1) . c) / |c|^2, w = l2.base - l1.base
    and c the rule's own cross product d1 x d2."""
    (rule,) = _meet_rule(l1._base, l1._dir, [l2._base], [l2._dir], tol)
    parallel, meets, gap, scale, c = rule
    if parallel:
        gap = l1.distance_to_point(l2.base)
        relation = LineRelation.IDENTICAL if gap <= tol.gate(scale) else LineRelation.PARALLEL
        return LineMeet(relation, None, gap)
    if not meets:
        return LineMeet(LineRelation.SKEW, None, gap)
    w, cc = [x - y for x, y in zip(l2._base, l1._base)], dot(c, c)
    t1, t2 = dot(_cross(w, l2._dir), c) / cc, dot(_cross(w, l1._dir), c) / cc
    return LineMeet(LineRelation.MEETING, 0.5 * (l1.point_at(t1) + l2.point_at(t2)), gap)
