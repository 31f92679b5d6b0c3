"""The numpy kernels of the figure and analyze paths, kept as test oracles.

The library runs the per-call primitives of the figure path on Python floats:
`core._meet_rule`, `core.orthocenter2d`, `altquadric.contains_line` and the
in-plane basis of `altquadric.section`.  So does the analyze path: the records
`Line3`, `Plane3` and `QuadForm3.from_matrix`, `canonical_dir`, the class
decision, the centroid and Euler line of `noteworthy`, and the guards and
residuals of `reporting`.  Each was written before as the numpy expression
below, with the same operations in the same order, so the tests can require
the library's results to equal these bit for bit.  `dot` is the library's own
(BLAS) inner product in both forms.

Two are exact instead: the coplanarity test of `Tetrahedron`, which decides on
a compensated volume, reads the sign of the exact volume in `Fraction`; and
the altitude residual, a quadratic in the step along each altitude, is the
exact value of the samples' deviations with a bound on its rounding.
"""

import math
from fractions import Fraction

import numpy as np

from tetraquadric import (
    DEFAULT_TOL,
    ConicSection,
    QuadricKind,
    RegulusTag,
    TetraKind,
    circumcenter,
    monge_point,
    opposite_edge_dots,
    q_star,
    rhs,
)
from tetraquadric.altquadric import _classify_conic
from tetraquadric.core import as_vec, cross, cross_rows, dot, norm
from tetraquadric.errors import CollinearPoints
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
    _, votes, *_ = meet_rule(line.base, line.dir, t.vertices, np.array(t._unit_normals), tol)
    meets = int(np.sum(votes))
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


def _direction(v):
    """(v / |v|, |v|); a subnormal |v| is divided in the exact unit of the power
    of two above it."""
    n = norm(v)
    if not 0.0 < n < math.inf:
        raise ValueError("cannot normalize a zero or non-finite vector")
    if n < np.finfo(float).tiny:
        w = np.ldexp(v, -math.frexp(n)[1])
        return w / norm(w), n
    return v / n, n


def canonical_dir(v):
    u, _ = _direction(v)
    return -u if _leads_negative(u) else u


def line3(base, direction):
    """(base, dir) of `Line3(base, direction)`."""
    base = as_vec(base)
    if not all(map(math.isfinite, base.tolist())):
        raise ValueError("a line needs a finite base point")
    return base, canonical_dir(as_vec(direction))


def plane3(normal, offset):
    """(normal, offset) of `Plane3(normal, offset)`."""
    u, s = _direction(as_vec(normal))
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
    """(|V|, gate): the exact volume V = e_1 . (e_2 x e_3) of the binary input,
    e_j = a_j - a_0, in the unit of the power of two just above the longest
    edge, as a `Fraction`, and the gate; `Tetrahedron` raises "coplanar"
    exactly when the first is at most the second."""
    v = np.asarray(v, dtype=float)
    e = v[:, None] - v[None]
    s = float(np.hypot(np.hypot(e[..., 0], e[..., 1]), e[..., 2]).max())
    frac, exp = math.frexp(s)
    a = [[Fraction(x) / Fraction(2) ** exp for x in p] for p in v.tolist()]
    e1, e2, e3 = ([x - y for x, y in zip(p, a[0])] for p in a[1:])
    n = [e2[1] * e3[2] - e2[2] * e3[1], e2[2] * e3[0] - e2[0] * e3[2], e2[0] * e3[1] - e2[1] * e3[0]]
    return abs(sum(x * y for x, y in zip(e1, n))), DEFAULT_TOL.gate(frac, frac, frac)


def classify(t, tol=DEFAULT_TOL):
    """(kind, orthogonal pair, warning) of `classify(t, tol)`."""
    dots, gates = opposite_edge_dots(t), tol.rel_eps * np.array(t._scales)
    zero = np.abs(dots) <= gates
    n_zero = int(zero.sum())
    if n_zero == 0:
        return TetraKind.GENERIC, None, None
    if n_zero == 1:
        return TetraKind.SEMI_ORTHOCENTRIC, OPPOSITE_EDGE_PAIRS[int(np.argmax(zero))], None
    if n_zero == 3:
        return TetraKind.ORTHOCENTRIC, None, None
    idx = int(np.argmin(zero))
    if abs(dots[idx]) <= 10.0 * gates[idx]:
        return TetraKind.ORTHOCENTRIC, None, None
    return TetraKind.GENERIC, None, "two opposite-edge dot products vanished but the third did not"


def centroid(t):
    return t.vertices.sum(axis=0) / 4.0


def euler_line(t, tol=DEFAULT_TOL):
    """(base, dir) of `noteworthy(t, tol).euler`, or None."""
    m, c = monge_point(t), circumcenter(t)
    return line3(centroid(t), c - m) if norm(c - m) > tol.gate(t.edge_scale()) else None


def analyze_residuals(t, points):
    """`euler_midpoint` and `circumdistance_spread` of `analyze`."""
    s = t.edge_scale()
    circum_d = [math.hypot(*d) for d in (t.vertices - points.circumcenter).tolist()]
    euler = norm(points.centroid - 0.5 * (points.circumcenter + points.monge)) / s
    return euler, (max(circum_d) - min(circum_d)) / s


def altitude_level_residual(t):
    """(value, bound): `reporting.altitude_level_residual(t)` evaluated exactly
    in `Fraction` on the record's floats (a_l - M, the unit normals, Q*, rhs,
    the longest edge L and lambda), and a bound on the float evaluation's
    rounding: 32 eps of Q*'s absolute terms at |a_l - M| + 3 L |n_l| plus
    |rhs|, over the scale, and 4 eps of the value."""
    eps = np.finfo(float).eps
    r, s = Fraction(rhs(t)), Fraction(t.edge_scale())
    q = [[Fraction(x) for x in row] for row in q_star(t).matrix.tolist()]
    dev = size = Fraction(0)
    for c, n in zip(t._centered, t._unit_normals):
        c, n = [Fraction(x) for x in c], [Fraction(x) for x in n]
        for k in range(-3, 4):
            d = [x + k * s * y for x, y in zip(c, n)]
            dev = max(dev, abs(sum(q[i][j] * d[i] * d[j] for i in range(3) for j in range(3)) - r))
        w = [abs(x) + 3 * s * abs(y) for x, y in zip(c, n)]
        size = max(size, sum(abs(q[i][j]) * w[i] * w[j] for i in range(3) for j in range(3)) + abs(r))
    lam = max(abs(Fraction(x)) for x in t._lambdas)
    denom = max(abs(r), lam**3)
    if not denom:
        return 0.0, 0.0
    value = dev / denom
    return float(value), float(32 * eps * size / denom + 4 * eps * value)
