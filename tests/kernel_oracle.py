"""The numpy kernels of the figure and analyze paths, kept as test oracles.

The library runs the per-call primitives of the figure path on Python floats:
`core._meet_rule`, `core.orthocenter2d`, `altquadric.contains_line` and the
in-plane basis of `altquadric.section`.  So does the analyze path: the records
`Line3`, `Plane3` and `QuadForm3.from_matrix`, `canonical_dir`, the class
decision, the coplanarity test of `Tetrahedron`, the centroid and Euler line of
`noteworthy`, and the guards and residuals of `reporting`.  Each was written
before as the numpy expression below, with the same operations in the same
order, so the tests can require the library's results to equal these bit for
bit.  `dot` is the library's own (BLAS) inner product in both forms.
"""

import math

import numpy as np

from tetraquadric import DEFAULT_TOL, ConicSection, QuadricKind, RegulusTag, TetraKind
from tetraquadric.altquadric import _classify_conic
from tetraquadric.core import as_vec, cross, cross_rows, dot, norm, triple
from tetraquadric.errors import CollinearPoints, DegenerateForm
from tetraquadric.tetra import OPPOSITE_EDGE_PAIRS

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


# -- the analyze path ----------------------------------------------------------


def _leads_negative(u):
    for c in u.tolist():
        if abs(c) > 1e-12:
            return c < 0
    return False


def canonical_dir(v):
    n = norm(v)
    if not 0.0 < n < math.inf:
        raise ValueError("cannot normalize a zero or non-finite vector")
    u = v / n
    return -u if _leads_negative(u) else u


def line3(base, direction):
    """(base, dir) of `Line3(base, direction)`."""
    base = as_vec(base)
    if not all(map(math.isfinite, base.tolist())):
        raise ValueError("a line needs a finite base point")
    return base, canonical_dir(as_vec(direction))


def plane3(normal, offset):
    """(normal, offset) of `Plane3(normal, offset)`."""
    n = as_vec(normal)
    s = norm(n)
    if not 0.0 < s < math.inf:
        raise ValueError("cannot normalize a zero or non-finite vector")
    u = n / s
    off = float(offset) / s
    if not math.isfinite(off):
        raise ValueError("a plane needs a finite offset")
    if _leads_negative(u):
        u, off = -u, -off
    return u, off


def from_matrix(m):
    """(coefficients, matrix) of `QuadForm3.from_matrix(m)`."""
    m = np.asarray(m, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        sym = 0.5 * (m + m.T)
    return (sym[0, 0], sym[1, 1], sym[2, 2], sym[0, 1], sym[0, 2], sym[1, 2]), sym


def coplanarity(v):
    """(|triple| in the unit of the longest edge, its gate): `Tetrahedron` raises
    "coplanar" when the first is at most the second."""
    v = np.asarray(v, dtype=float)
    e = v[:, None] - v[None]
    s = float(np.hypot(np.hypot(e[..., 0], e[..., 1]), e[..., 2]).max())
    frac, exp = math.frexp(s)
    return abs(triple(*np.ldexp(e[0, 1:], -exp))), DEFAULT_TOL.gate(frac, frac, frac)


def classify(t, tol=DEFAULT_TOL):
    """(kind, orthogonal pair, warning) of `classify(t, tol)`."""
    gates = tol.rel_eps * t.opposite_scales
    zero = np.abs(t.opposite_dots) <= gates
    n_zero = int(zero.sum())
    if n_zero == 0:
        return TetraKind.GENERIC, None, None
    if n_zero == 1:
        return TetraKind.SEMI_ORTHOCENTRIC, OPPOSITE_EDGE_PAIRS[int(np.argmax(zero))], None
    if n_zero == 3:
        return TetraKind.ORTHOCENTRIC, None, None
    idx = int(np.argmin(zero))
    if abs(t.opposite_dots[idx]) <= 10.0 * gates[idx]:
        return TetraKind.ORTHOCENTRIC, None, None
    return TetraKind.GENERIC, None, "two opposite-edge dot products vanished but the third did not"


def centroid(t):
    return t.vertices.sum(axis=0) / 4.0


def euler_line(t, tol=DEFAULT_TOL):
    """(base, dir) of `noteworthy(t, tol).euler`, or None."""
    m, c = t.monge, t.circumcenter
    return line3(centroid(t), c - m) if norm(c - m) > tol.gate(t.edge_scale()) else None


def analyze_residuals(t, points):
    """`euler_midpoint` and `circumdistance_spread` of `analyze`."""
    s = t.edge_scale()
    circum_d = [math.hypot(*d) for d in (t.vertices - points.circumcenter).tolist()]
    euler = norm(points.centroid - 0.5 * (points.circumcenter + points.monge)) / s
    return euler, (max(circum_d) - min(circum_d)) / s


def altitude_level_residual(t):
    """`reporting.altitude_level_residual(t)`."""
    r = t.rhs
    steps = np.arange(-3.0, 4.0) * t.edge_scale()
    d = t.monge_centered[:, None] + steps[:, None] * t.unit_normals[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        denom = max(abs(r), float(np.max(np.abs(t.lambdas)) ** 3))
        devs = np.abs(np.einsum("lki,ij,lkj->lk", d, t.q_star.matrix, d) - r)
    if not math.isfinite(denom) or not np.isfinite(devs).all():
        raise DegenerateForm("the altitude residual overflows at this scale")
    if denom < np.finfo(float).tiny and t.lambdas.any():
        raise DegenerateForm("the altitude residual underflows at this scale")
    return float(devs.max()) / denom if denom else 0.0
