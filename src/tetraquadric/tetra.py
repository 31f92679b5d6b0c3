"""The tetrahedron model.

Edge vectors, altitudes and orthocentric perpendiculars, midplanes, the Monge
point, centroid, circumcenter, Euler line, and the generic /
semi-orthocentric / orthocentric classification.  A `Tetrahedron` computes
its tolerance-free record at construction, in one straight-line pass on Python
floats relative to a_0, and keeps it private; its `vertices` array is only
the public view of the vertex lists.  The Monge point and the circumcenter are
closed forms on the volume, which is summed with error-free transformations.
The public functions below read the record; one that returns an array builds a
fresh read-only one on each call.  `classify` keeps its decision per
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_TOL,
    TINY,
    Line3,
    Plane3,
    Tolerance,
    Vec3,
    _cross,
    _frozen,
    _unit,
    dot,
    orthocenter2d,
)
from .errors import BadIndex, DegenerateTetrahedron
from .forms import QuadForm3

#: The three ways of splitting {0,1,2,3} into two opposite edges.
OPPOSITE_EDGE_PAIRS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((0, 1), (2, 3)),
    ((0, 2), (3, 1)),
    ((0, 3), (1, 2)),
)
#: Vertices (i, j, k), i < j < k, of the face opposite each vertex l.
_FACES = tuple(tuple(i for i in range(4) if i != l) for l in range(4))
#: The six terms (a, b, c, sign) of det(u_1, u_2, u_3) = sum sign u_1[a] u_2[b] u_3[c].
_DET_TERMS = ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
              (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0))
#: Veltkamp's splitter 2^27 + 1.
_SPLITTER = 134217729.0


def _sub(u: list, v: list) -> list:
    return [u[0] - v[0], u[1] - v[1], u[2] - v[2]]


def _two_product(a: float, b: float) -> tuple[float, float]:
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker's TwoProduct on
    Veltkamp's split), for |a|, |b| <= 1 far from underflow."""
    p = a * b
    c, d = _SPLITTER * a, _SPLITTER * b
    a1, b1 = c - (c - a), d - (d - b)
    a2, b2 = a - a1, b - b1
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


def _volume(u: list, r: list, n: list) -> float:
    """det(u_1 + r_1, u_2 + r_2, u_3 + r_3), with n_j = u_k x u_l, (j, k, l) cyclic.

    `Dot2` of Ogita, Rump and Oishi ("Accurate Sum and Dot Product", SIAM J.
    Sci. Comput. 26(6), 2005) over the six triple products of det(u), each
    from two TwoProducts and added by Knuth's TwoSum, with the terms r_j . n_j
    of first order in the r_j added to the error sum: as accurate as the volume
    of the exact edges u + r summed in twice the working precision."""
    u1, u2, u3 = u
    p = e = 0.0
    for a, b, c, sign in _DET_TERMS:
        h, f = _two_product(u2[b], u3[c])
        g, k = _two_product(u1[a], h)
        x = sign * g
        q = p + x
        z = q - p
        e += ((p - (q - z)) + (x - z)) + sign * (k + u1[a] * f)
        p = q
    return p + (e + (dot(r[0], n[0]) + dot(r[1], n[1]) + dot(r[2], n[2])))


def _basic_form(b: list, c: list) -> list:
    """Coefficients, in `QuadForm3` order, of the basic form (x.b)(x.c), sym(b (x) c)."""
    (b1, b2, b3), (c1, c2, c3) = b, c
    return [0.5 * (b1 * c1 + b1 * c1), 0.5 * (b2 * c2 + b2 * c2), 0.5 * (b3 * c3 + b3 * c3),
            0.5 * (b1 * c2 + b2 * c1), 0.5 * (b1 * c3 + b3 * c1), 0.5 * (b2 * c3 + b3 * c2)]


@dataclass(frozen=True, eq=False)
class Tetrahedron:
    """Four position vectors; rejects at construction coplanar vertex sets,
    edges longer than the largest double, and figures whose opposite-edge
    products b_ij . b_kl or |b_ij| |b_kl| leave the normal double range, where
    `classify` could no longer read them.

    Construction computes the tolerance-free record in one straight-line pass
    on Python floats, with b_ij = a_i - a_j, e_j = a_j - a_0 and m the Monge
    point.  Its public surface is `vertices`, a read-only array, and
    `edge_scale`; the functions of this module and of `altquadric` read the
    record's private fields, Python floats and lists of them:

    - `_vertices`, the four a_i;
    - `_pairs`, the opposite edges (b_ij, b_kl), and `_dots` and `_scales`,
      b_ij . b_kl and |b_ij| |b_kl|, in OPPOSITE_EDGE_PAIRS order;
    - `_normals`, (a_j - a_i) x (a_k - a_i) for the face i < j < k opposite l,
      and `_unit_normals`, the same scaled to unit length: up to sign, the
      directions of the altitudes;
    - `_c_rel`, c - a_0 = (|e_1|^2 e_2 x e_3 + |e_2|^2 e_3 x e_1 +
      |e_3|^2 e_1 x e_2) / (2V) for the circumcenter c, with V = e_1 . (e_2 x e_3);
      `_m_rel`, m - a_0 = (e_1 + e_2 + e_3) / 2 - (c - a_0), as the centroid is
      the midpoint of m and c; `_centered`, the four a_i - m.  All three are
      formed relative to a_0, so that a translation far from the origin costs
      no digits, and in units of the power of two just above the longest edge,
      so that squares and cubes neither overflow nor underflow.  V is summed
      from the exact edges (`_volume`): on a sliver it is the one
      ill-conditioned quantity, and the same sum decides coplanarity;
    - `_lambdas`, l0j = (a_0 - m) . (a_j - m) for j = 1, 2, 3, summed in
      coordinate order as every (a_i - m) . (a_j - m) is;
    - `_centroid`, the mean of the four vertices, summed in vertex order;
    - `_q_star`, (d_1 F_2 - d_2 F_1) / 2, and `_rhs`, d_1 d_2 d_3 / 8, with d_p
      the `_dots` and F_p the basic form sym(b_ij (x) b_kl) of pair p: the
      paper's sum_j l0j F_j and (l01 - l02)(l02 - l03)(l03 - l01), as
      2 (l0i - l0j) is a d_p and sum F_p = 0.

    An overflow in `_unit_normals`, `_lambdas`, `_q_star` or `_rhs` leaves
    non-finite values, which `altquadric.build` rejects, instead of a numpy
    warning.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        a = v.tolist()
        if v.shape != (4, 3) or not all(map(math.isfinite, a[0] + a[1] + a[2] + a[3])):
            raise DegenerateTetrahedron("need four finite 3-vectors")
        (a0, a1, a2, a3), (x0, y0, z0) = a, a[0]
        b01, b23, b02, b31 = _sub(a0, a1), _sub(a2, a3), _sub(a0, a2), _sub(a3, a1)
        b03, b12 = _sub(a0, a3), _sub(a1, a2)
        x, y, z = zip(b01, b23, b02, b31, b03, b12)
        with np.errstate(over="ignore"):
            l01, l23, l02, l31, l03, l12 = np.hypot(np.hypot(x, y), z).tolist()
        s = max(l01, l23, l02, l31, l03, l12)
        if not math.isfinite(s):
            raise DegenerateTetrahedron("an edge leaves the double range")
        # e_j = a_j - a_0, rounded, and in units of the power of two just above the
        # longest edge, as in `orthocenter2d`, u_j and its TwoSum rounding error r_j
        # (so u_j + r_j is exact): no square or cube there overflows or underflows
        (frac, exp), e, u, r = math.frexp(s), [], [], []
        for x, y, z in (a1, a2, a3):
            hx, hy, hz = x - x0, y - y0, z - z0
            sx, sy, sz = hx - x, hy - y, hz - z
            e.append([hx, hy, hz])
            u.append([math.ldexp(hx, -exp), math.ldexp(hy, -exp), math.ldexp(hz, -exp)])
            r.append([math.ldexp((x - (hx - sx)) + (-x0 - sx), -exp),
                      math.ldexp((y - (hy - sy)) + (-y0 - sy), -exp),
                      math.ldexp((z - (hz - sz)) + (-z0 - sz), -exp)])
        (e1, e2, e3), (u1, u2, u3) = e, u
        n = n1, n2, n3 = _cross(u2, u3), _cross(u3, u1), _cross(u1, u2)
        vol = _volume(u, r, n)
        if abs(vol) <= DEFAULT_TOL.gate(frac, frac, frac):
            raise DegenerateTetrahedron("vertices are coplanar")
        scales = [l01 * l23, l02 * l31, l03 * l12]
        dots = d1, d2, d3 = [dot(b01, b23), dot(b02, b31), dot(b03, b12)]
        finite = math.isfinite(d1) and math.isfinite(d2) and math.isfinite(d3)
        if not (finite and TINY <= min(scales) and max(scales) < math.inf):
            raise DegenerateTetrahedron("opposite-edge products leave the double range")
        # c - a_0 and m - a_0 in closed form: |V| is above the gate, so they lie
        # within about 1e10 longest edges of a_0, and the change back to world
        # units neither overflows nor underflows
        q1, q2, q3, w = dot(u1, u1), dot(u2, u2), dot(u3, u3), 2.0 * vol
        c_rel, m_rel = [], []
        for i in range(3):
            c = (q1 * n1[i] + q2 * n2[i] + q3 * n3[i]) / w
            c_rel.append(math.ldexp(c, exp))
            m_rel.append(math.ldexp(0.5 * (u1[i] + u2[i] + u3[i]) - c, exp))
        c0, c1, c2, c3 = [-x for x in m_rel], _sub(e1, m_rel), _sub(e2, m_rel), _sub(e3, m_rel)
        normals = [_cross(_sub(a2, a1), _sub(a3, a1)), _cross(e2, e3), _cross(e1, e3),
                   _cross(e1, e2)]
        f1, f2 = _basic_form(b01, b23), _basic_form(b02, b31)
        vars(self).update(
            vertices=_frozen(v),
            _vertices=a,
            _q_star=QuadForm3(*[0.5 * (d1 * y - d2 * x) for x, y in zip(f1, f2)]),
            _rhs=0.125 * d1 * d2 * d3,
            _pairs=[(b01, b23), (b02, b31), (b03, b12)],
            _dots=dots,
            _scales=scales,
            _normals=normals,
            _unit_normals=[[x / h, y / h, z / h]
                           for x, y, z in normals for h in (math.hypot(x, y, z),)],
            _c_rel=c_rel,
            _m_rel=m_rel,
            _centroid=[(p0 + p1 + p2 + p3) / 4.0 for p0, p1, p2, p3 in zip(a0, a1, a2, a3)],
            _centered=[c0, c1, c2, c3],
            _lambdas=[dot(c0, c1), dot(c0, c2), dot(c0, c3)],
            _edge_scale=s,
            # `classify`'s decision for each tolerance asked so far
            _classes={},
        )

    def edge_scale(self) -> float:
        """Length of the longest edge."""
        return self._edge_scale


def _check_edge(i: int, j: int) -> None:
    if not (0 <= i <= 3 and 0 <= j <= 3) or i == j:
        raise BadIndex(f"({i}, {j}) is not an edge of a tetrahedron")


def edge_vector(t: Tetrahedron, i: int, j: int) -> Vec3:
    """Edge vector from vertex j to vertex i; antisymmetric in (i, j)."""
    _check_edge(i, j)
    return _frozen(t.vertices[i] - t.vertices[j])


def pluecker_residual(t: Tetrahedron) -> float:
    """b01.b23 + b02.b31 + b03.b12; vanishes identically for every tetrahedron."""
    d1, d2, d3 = t._dots
    return d1 + d2 + d3


def _pair_of(i: int, j: int) -> int:
    """Index in OPPOSITE_EDGE_PAIRS of the pair holding the edge ij."""
    return next(p for p, es in enumerate(OPPOSITE_EDGE_PAIRS) if {i, j} in map(set, es))


def _face_normal(t: Tetrahedron, l: int) -> list:
    """Normal (a_j - a_i) x (a_k - a_i) of the face opposite vertex l."""
    if not 0 <= l <= 3:
        raise BadIndex(f"vertex index {l} out of range")
    return t._normals[l]


def altitude(t: Tetrahedron, l: int) -> Line3:
    """Altitude through vertex l, orthogonal to the opposite face."""
    n = _face_normal(t, l)  # checks l before `_vertices` is indexed with it
    return Line3(t._vertices[l], n)


def ortho_perpendicular(t: Tetrahedron, l: int, tol: Tolerance = DEFAULT_TOL) -> Line3:
    """Line through the orthocenter of the face opposite l, orthogonal to that face.

    Parallel to the altitude through l, but in general a different line.
    """
    n = _face_normal(t, l)
    return Line3(orthocenter2d([t._vertices[i] for i in _FACES[l]], tol), n)


def midplane(t: Tetrahedron, i: int, j: int) -> Plane3:
    """Plane orthogonal to edge ij through the midpoint of the opposite edge."""
    _check_edge(i, j)
    k, l = (x for x in range(4) if x not in (i, j))
    v = t.vertices
    return Plane3.from_point_normal(0.5 * (v[k] + v[l]), v[i] - v[j])


def _midplanes(t: Tetrahedron) -> list[Plane3]:
    """The six distinct planes of `midplane` (midplane(t, i, j) and
    midplane(t, j, i) are one plane) in the Monge frame, where m is the origin:
    b_ij . x = b_ij . ((a_k - m) + (a_l - m)) / 2, so that each |offset| is m's
    distance from the plane, free of the rounding of world coordinates."""
    c = t._centered
    return [
        Plane3(b, 0.5 * dot(b, [x + y for x, y in zip(c[k], c[l])]))
        for pair, edges in zip(OPPOSITE_EDGE_PAIRS, t._pairs)
        for b, (k, l) in zip(edges, pair[::-1])
    ]


def monge_point(t: Tetrahedron) -> Vec3:
    """Common point of the six midplanes."""
    return _frozen(t.vertices[0] + t._m_rel)


def monge_identity_residual(t: Tetrahedron) -> float:
    """Max deviation of (a_i-m).(a_l-m) = (a_j-m).(a_k-m) over the index splits."""
    c = t._centered
    return max(abs(dot(c[i], c[j]) - dot(c[k], c[l])) for (i, j), (k, l) in OPPOSITE_EDGE_PAIRS)


def centroid(t: Tetrahedron) -> Vec3:
    """Mean of the four vertices, summed in vertex order."""
    return _frozen(np.array(t._centroid))


def circumcenter(t: Tetrahedron) -> Vec3:
    """Point equidistant from all four vertices."""
    return _frozen(t.vertices[0] + t._c_rel)


def opposite_edge_dots(t: Tetrahedron) -> np.ndarray:
    """Dot products of the three opposite-edge pairs, in OPPOSITE_EDGE_PAIRS order."""
    return _frozen(np.array(t._dots))


def _opposite_gates(t: Tetrahedron, tol: Tolerance) -> list:
    """Zero gate of each opposite-edge dot product, tol.gate(|b_ij|, |b_kl|)."""
    return [tol.rel_eps * s for s in t._scales]


def _orthogonal(t: Tetrahedron, tol: Tolerance) -> list:
    """Which opposite-edge pairs are orthogonal, in OPPOSITE_EDGE_PAIRS order; the
    one test behind both `classify` and `altitudes_meet`."""
    return [abs(d) <= g for d, g in zip(t._dots, _opposite_gates(t, tol))]


def altitudes_meet(t: Tetrahedron, i: int, j: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff altitudes h_i and h_j intersect, i.e. edge kl is orthogonal to edge ij."""
    _check_edge(i, j)
    return _orthogonal(t, tol)[_pair_of(i, j)]


class TetraKind(Enum):
    GENERIC = "generic"
    SEMI_ORTHOCENTRIC = "semi_orthocentric"
    ORTHOCENTRIC = "orthocentric"


@dataclass(frozen=True)
class TetraClass:
    """Class of a tetrahedron, with the orthogonal pair of a semi-orthocentric one."""

    kind: TetraKind
    #: for the semi-orthocentric case, the orthogonal opposite-edge pair
    orthogonal_pair: Optional[tuple[tuple[int, int], tuple[int, int]]] = None
    #: set when tolerance noise produced a theoretically impossible zero pattern
    warning: Optional[str] = None


def classify(t: Tetrahedron, tol: Tolerance = DEFAULT_TOL) -> TetraClass:
    """Generic / semi-orthocentric / orthocentric by the opposite-edge dot products.

    Two zero dot products are impossible exactly (the third is forced to zero
    with them); such inputs resolve to orthocentric when the remaining dot is
    within ten times the gate, otherwise to generic with a warning.

    The decision is made once per tetrahedron and tolerance: it is kept on the
    tetrahedron, keyed by the (frozen, hashable) `Tolerance`, and every later
    call with an equal tolerance returns the same `TetraClass`.
    """
    memo = t._classes
    cls = memo.get(tol)
    if cls is None:
        cls = memo[tol] = _classify(t, tol)
    return cls


def _classify(t: Tetrahedron, tol: Tolerance) -> TetraClass:
    """The decision behind `classify`, made afresh."""
    zero = _orthogonal(t, tol)
    n_zero = sum(zero)
    if n_zero == 0:
        return TetraClass(TetraKind.GENERIC)
    if n_zero == 1:
        return TetraClass(TetraKind.SEMI_ORTHOCENTRIC, OPPOSITE_EDGE_PAIRS[zero.index(True)])
    if n_zero == 3:
        return TetraClass(TetraKind.ORTHOCENTRIC)
    # exactly two zeros: numerically inconsistent
    idx = zero.index(False)
    if abs(t._dots[idx]) <= 10.0 * _opposite_gates(t, tol)[idx]:
        return TetraClass(TetraKind.ORTHOCENTRIC)
    return TetraClass(
        TetraKind.GENERIC,
        warning="two opposite-edge dot products vanished but the third did not",
    )


@dataclass(frozen=True, eq=False)
class NoteworthyPoints:
    """Monge point, centroid and circumcenter, with the orthocenter and Euler line if any."""

    monge: Vec3
    centroid: Vec3
    circumcenter: Vec3
    orthocenter: Optional[Vec3]
    euler: Optional[Line3]


def _points(t: Tetrahedron, kind: TetraKind, tol: Tolerance) -> tuple:
    """m, g, c, the orthocenter and the unit, canonical Euler direction as fresh
    lists, the last two None where absent: what `noteworthy` and `analyze` report."""
    m, c = ([x + y for x, y in zip(t._vertices[0], p)] for p in (t._m_rel, t._c_rel))
    cm = [y - x for x, y in zip(m, c)]
    euler = _unit(cm)[0] if math.hypot(*cm) > tol.gate(t.edge_scale()) else None
    h = list(m) if kind is TetraKind.ORTHOCENTRIC else None
    return m, list(t._centroid), c, h, euler


def noteworthy(t: Tetrahedron, tol: Tolerance = DEFAULT_TOL) -> NoteworthyPoints:
    """Monge point, centroid, circumcenter, optional orthocenter, optional Euler line.

    The centroid is the midpoint of the circumcenter and the Monge point; the
    Euler line is their join when they differ.  The orthocenter exists exactly
    in the orthocentric case and then coincides with the Monge point.
    """
    m, g, c, h, euler = _points(t, classify(t, tol).kind, tol)
    m, g, c = (_frozen(np.array(p)) for p in (m, g, c))
    euler = None if euler is None else Line3(g, c - m)
    return NoteworthyPoints(m, g, c, None if h is None else m, euler)
