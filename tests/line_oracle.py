"""The scalar line-meet rule, kept as a test oracle.

The library decides how two lines lie with one array kernel, `core._meet_rule`,
which `line_line_meet` runs on a single pair and `regulus_of` on the four
altitudes at once.  `reference_line_meet` is the same decision written the
scalar way, one cross product and one dot product per pair, so the tests can
check the kernel against an independent implementation.

It is the scalar body `line_line_meet` had before the kernel, with one change:
where the determinant 1 - (d1 . d2)^2 of the closest-point equations rounds to
0, for directions within about 1e-8 of each other, it is |d1 x d2|^2, the same
value for unit directions.  The old body raised `ZeroDivisionError` there, on
lines that are neither parallel nor meeting.
"""

from tetraquadric import DEFAULT_TOL, Line3, LineMeet, LineRelation, Tolerance
from tetraquadric.core import cross, dot, norm


def reference_line_meet(l1: Line3, l2: Line3, tol: Tolerance = DEFAULT_TOL) -> LineMeet:
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
    det = (a11 * a22 - a12 * a12) or norm(c) * norm(c)
    t1 = (b1 * a22 - a12 * b2) / det
    t2 = (a11 * b2 - a12 * b1) / det
    q1 = l1.point_at(t1)
    q2 = l2.point_at(t2)
    if gap <= tol.gate(scale):
        return LineMeet(LineRelation.MEETING, 0.5 * (q1 + q2), gap)
    return LineMeet(LineRelation.SKEW, None, gap)
