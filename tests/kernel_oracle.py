"""The figure path's numpy kernels, kept as test oracles.

The library runs the per-call primitives of the figure path on Python floats:
`core._meet_rule`, `core.orthocenter2d`, `altquadric.contains_line` and the
in-plane basis of `altquadric.section`.  Each was written before as the numpy
expression below, with the same operations in the same order, so the tests can
require the library's results to equal these bit for bit.  `dot` is the
library's own (BLAS) inner product in both forms.
"""

import math

import numpy as np

from tetraquadric import DEFAULT_TOL, ConicSection, QuadricKind, RegulusTag
from tetraquadric.altquadric import _classify_conic
from tetraquadric.core import as_vec, cross, cross_rows, dot, norm
from tetraquadric.errors import CollinearPoints

from tripod_oracle import plane_bases


def meet_rule(base, direction, bases, directions, tol=DEFAULT_TOL):
    """(parallel, meets, gap, scale, c) as arrays over the N lines (bases,
    directions), c (N, 3)."""
    c = cross_rows(direction, directions)
    c_norm = np.array([math.hypot(*r) for r in c.tolist()])
    scale = np.maximum(norm(base), [math.hypot(*v) for v in bases.tolist()])
    # a parallel pair has c = 0; its gap, 0 / 0, is masked
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(np.sum((bases - base) * c, axis=1)) / c_norm
    meets = (c_norm > tol.gate(1.0)) & (gap <= tol.gate(scale))
    return c_norm <= tol.gate(1.0), meets, gap, scale, c


def orthocenter2d(tri, tol=DEFAULT_TOL):
    """The face orthocenter in the scaled closed form, on numpy arrays."""
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


def incidence(qd, line):
    """Residuals |Q*(x - M) - rhs| at the line's three sample points, and their scale."""
    span = max(norm(line.base - qd.center), qd.form.max_abs() ** 0.25)
    d = line.base + np.array([[-span], [0.0], [span]]) * line.dir - qd.center
    scale = max(abs(qd.rhs), qd.form.max_abs() * float(np.max(np.sum(d * d, axis=1))))
    return np.abs(np.einsum("ki,ij,kj->k", d, qd.form.matrix, d) - qd.rhs), scale


def contains_line(qd, line, tol=DEFAULT_TOL):
    """Incidence of the line with the quadric at its three sample points."""
    res, scale = incidence(qd, line)
    return bool(np.all(res <= tol.gate(scale)))


def regulus_of(qd, line, t, tol=DEFAULT_TOL):
    """The regulus vote on the kernels above."""
    assert qd.kind is QuadricKind.HYPERBOLOID
    if not contains_line(qd, line, tol):
        return RegulusTag.NOT_ON_QUADRIC
    meets = int(np.sum(meet_rule(line.base, line.dir, t.vertices, t.unit_normals, tol)[1]))
    if meets >= 3:
        return RegulusTag.PERPENDICULAR_REGULUS
    if 4 - meets >= 3:
        return RegulusTag.ALTITUDE_REGULUS
    return None  # the library raises AmbiguousRegulus


def section(qd, p, tol=DEFAULT_TOL):
    """The planar section, its in-plane basis from the batched `plane_bases`."""
    origin = qd.center + (p.offset - dot(p.normal, qd.center)) * p.normal
    frame = np.vstack([plane_bases(p.normal[None])[0], origin - qd.center])
    h = frame @ qd.form.matrix @ frame.T
    h[2, 2] -= qd.rhs
    kind = _classify_conic(h, qd.form.max_abs(), tol)
    linear = 2.0 * h[:2, 2]
    return ConicSection(p, h[:2, :2], linear, h[2, 2], origin, (frame[0], frame[1]), kind)
