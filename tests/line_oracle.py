"""The scalar line-meet rule, kept as a test oracle.

The library decides how two lines lie with one rule, `core._meet_rule`, which
`line_line_meet` runs on a single pair and `regulus_of` on the four altitudes.
`reference_line_meet` is the same decision written on numpy arrays, one
cross product and one dot product per pair, so the tests can
check the rule's relation and gap against an independent implementation.  It
locates no meeting point: the tests check that against the exact closest point.
"""

import math

import numpy as np

from tetraquadric import DEFAULT_TOL, Line3, LineRelation, Tolerance
from tetraquadric.core import dot


def reference_line_meet(
    l1: Line3, l2: Line3, tol: Tolerance = DEFAULT_TOL
) -> tuple[LineRelation, float]:
    """The mutual position of two lines and their gap, as (relation, gap).

    The gap is gated relative to the larger base point, so lines far from the
    origin are not spuriously declared intersecting.
    """
    c = np.cross(l1.dir, l2.dir)
    scale = max(math.hypot(*l1.base), math.hypot(*l2.base))
    if math.hypot(*c) <= tol.gate(1.0):
        gap = l1.distance_to_point(l2.base)
        if gap <= tol.gate(scale):
            return LineRelation.IDENTICAL, gap
        return LineRelation.PARALLEL, gap
    gap = abs(dot(l2.base - l1.base, c)) / math.hypot(*c)
    if gap <= tol.gate(scale):
        return LineRelation.MEETING, gap
    return LineRelation.SKEW, gap
