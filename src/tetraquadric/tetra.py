"""The tetrahedron model.

Edge vectors, altitudes and orthocentric perpendiculars, midplanes, the Monge
point, centroid, circumcenter, Euler line, and the generic /
semi-orthocentric / orthocentric classification.  A `Tetrahedron` computes
every tolerance-free quantity at construction, in one pass, and keeps it
read-only; one factorization of the edge matrix serves the Monge point and the
circumcenter.  The public functions below read the record.  `classify` keeps
its decision per tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_TOL,
    Line3,
    Plane3,
    Tolerance,
    Vec3,
    _cross,
    _frozen,
    dot,
    norm,
    orthocenter2d,
    triple,
)
from .errors import BadIndex, DegenerateTetrahedron
from .forms import QuadForm3

#: The three ways of splitting {0,1,2,3} into two opposite edges.
OPPOSITE_EDGE_PAIRS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((0, 1), (2, 3)),
    ((0, 2), (3, 1)),
    ((0, 3), (1, 2)),
)
#: The edges kl of the pairs as index arrays (k, l); the edges 0j are 01, 02, 03.
_KL_INDEX = np.array([kl for _, kl in OPPOSITE_EDGE_PAIRS]).T
#: Edge ij and its opposite edge kl, k < l, of each pair in both orders, as
#: index arrays (i, j, k, l).
_MIDPLANE_INDEX = np.array(
    [(*e, *sorted(kl)) for pair in OPPOSITE_EDGE_PAIRS for e, kl in (pair, pair[::-1])]
).T
#: Vertices (i, j, k), i < j < k, of the face opposite each vertex l.
_FACES = tuple(tuple(i for i in range(4) if i != l) for l in range(4))


@dataclass(frozen=True, eq=False)
class Tetrahedron:
    """Four position vectors; rejects coplanar vertex sets at construction.

    Construction computes the whole tolerance-free record in one pass, with
    b_ij = a_i - a_j and m the Monge point, and keeps every array read-only:

    - `edges` (4, 4, 3), edges[i, j] = b_ij, and `edge_lengths` (4, 4), |b_ij|
      free of overflow in the squares;
    - `face_normals` (4, 3), (a_j - a_i) x (a_k - a_i) for the face i < j < k
      opposite l, and `unit_normals`, the same scaled to unit length: up to
      sign, the directions of the altitudes;
    - `opposite_dots` and `opposite_scales` (3,), b_ij . b_kl and |b_ij| |b_kl|
      in OPPOSITE_EDGE_PAIRS order;
    - `monge_centered` (4, 3), a_i - m; `monge`, m on the midplanes
      b_0j . m = b_0j . mid(opposite edge); `circumcenter`, on the planes
      b_0j . c = b_0j . mid(edge 0j).  Both are solved relative to a_0, so that
      a translation far from the origin costs no digits, with one factorization
      of B = (b_01, b_02, b_03);
    - `lambdas` (3,), (a_0 - m) . (a_j - m) for j = 1, 2, 3;
    - `basic_forms` (3, 3, 3), sym(b_0j (x) b_kl), the basic forms
      (x.b_0j)(x.b_kl), in OPPOSITE_EDGE_PAIRS order;
    - `q_star`, the traceless form sum_j lambda_0j (x.b_0j)(x.b_kl), and `rhs`,
      (l01 - l02)(l02 - l03)(l03 - l01).  An overflow leaves non-finite values,
      which `altquadric.build` rejects, instead of a numpy warning.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.shape != (4, 3) or not np.isfinite(v).all():
            raise DegenerateTetrahedron("need four finite 3-vectors")
        e = v[:, None] - v[None]
        lengths = np.hypot(np.hypot(e[..., 0], e[..., 1]), e[..., 2])
        s = float(lengths.max())
        b = e[0, 1:]
        if abs(triple(*b)) <= DEFAULT_TOL.gate(s, s, s):
            raise DegenerateTetrahedron("vertices are coplanar")
        el, nl = e.tolist(), lengths.tolist()
        normals = [_cross(el[j][i], el[k][i]) for i, j, k in _FACES]
        face_normals = np.array(normals)
        # midpoints less a_0: of the edge opposite 0j (Monge), of the edge 0j (circumcenter)
        r = e[:, 0]
        mids = 0.5 * np.array([[r[2] + r[3], r[3] + r[1], r[1] + r[2]], r[1:]])
        x = np.linalg.solve(b, np.sum(b * mids, axis=2).T)
        centered = r - x[:, 0]
        # the first row of the Gram matrix that `monge_identity_residual` reads
        lam = _frozen(centered @ centered.T)[0, 1:]
        b_kl = e[_KL_INDEX[0], _KL_INDEX[1]]
        with np.errstate(over="ignore", invalid="ignore"):
            o = b[:, :, None] * b_kl[:, None, :]
            forms = 0.5 * (o + o.transpose(0, 2, 1))
            w = lam[:, None, None] * forms
            q_star = QuadForm3.from_matrix(w[0] + w[1] + w[2])
        l01, l02, l03 = lam.tolist()
        pairs = OPPOSITE_EDGE_PAIRS
        vars(self).update(
            vertices=_frozen(v),
            edges=_frozen(e),
            edge_lengths=_frozen(lengths),
            face_normals=_frozen(face_normals),
            unit_normals=_frozen(
                face_normals / np.array([[math.hypot(*n)] for n in normals])
            ),
            opposite_dots=_frozen(np.array([dot(e[e1], e[e2]) for e1, e2 in pairs])),
            opposite_scales=_frozen(
                np.array([nl[i][j] * nl[k][l] for (i, j), (k, l) in pairs])
            ),
            monge_centered=_frozen(centered),
            monge=_frozen(v[0] - centered[0]),
            circumcenter=_frozen(v[0] + x[:, 1]),
            lambdas=lam,
            basic_forms=_frozen(forms),
            q_star=q_star,
            rhs=(l01 - l02) * (l02 - l03) * (l03 - l01),
            _edge_scale=s,
            # `classify`'s decision for each tolerance asked so far
            _classes={},
        )

    def vertex(self, i: int) -> Vec3:
        return self.vertices[i]

    def edge_scale(self) -> float:
        """Length of the longest edge."""
        return self._edge_scale

    def others(self, l: int) -> tuple[int, int, int]:
        return tuple(i for i in range(4) if i != l)


def _check_edge(i: int, j: int) -> None:
    if not (0 <= i <= 3 and 0 <= j <= 3) or i == j:
        raise BadIndex(f"({i}, {j}) is not an edge of a tetrahedron")


def edge_vector(t: Tetrahedron, i: int, j: int) -> Vec3:
    """Edge vector from vertex j to vertex i; antisymmetric in (i, j)."""
    _check_edge(i, j)
    return t.edges[i, j]


def pluecker_residual(t: Tetrahedron) -> float:
    """b01.b23 + b02.b31 + b03.b12; vanishes identically for every tetrahedron."""
    return float(t.opposite_dots.sum())


def _face_normal(t: Tetrahedron, l: int) -> Vec3:
    """Normal (a_j - a_i) x (a_k - a_i) of the face opposite vertex l."""
    if not 0 <= l <= 3:
        raise BadIndex(f"vertex index {l} out of range")
    return t.face_normals[l]


def altitude(t: Tetrahedron, l: int) -> Line3:
    """Altitude through vertex l, orthogonal to the opposite face."""
    return Line3(t.vertex(l), _face_normal(t, l))


def ortho_perpendicular(t: Tetrahedron, l: int, tol: Tolerance = DEFAULT_TOL) -> Line3:
    """Line through the orthocenter of the face opposite l, orthogonal to that face.

    Parallel to the altitude through l, but in general a different line.
    """
    n = _face_normal(t, l)
    return Line3(orthocenter2d(tuple(t.vertex(i) for i in t.others(l)), tol), n)


def midplane(t: Tetrahedron, i: int, j: int) -> Plane3:
    """Plane orthogonal to edge ij through the midpoint of the opposite edge."""
    _check_edge(i, j)
    k, l = (x for x in range(4) if x not in (i, j))
    mid = 0.5 * (t.vertex(k) + t.vertex(l))
    return Plane3.from_point_normal(mid, t.edges[i, j])


def _midplanes(t: Tetrahedron) -> list[Plane3]:
    """The six distinct planes of `midplane` (midplane(t, i, j) and
    midplane(t, j, i) are one plane), each built as `midplane` builds it, from
    one gather of normals and midpoints."""
    i, j, k, l = _MIDPLANE_INDEX
    mids = 0.5 * (t.vertices[k] + t.vertices[l])
    return [Plane3(n, dot(n, p)) for n, p in zip(t.edges[i, j], mids)]


def monge_point(t: Tetrahedron) -> Vec3:
    """Common point of the six midplanes."""
    return t.monge


def monge_identity_residual(t: Tetrahedron) -> float:
    """Max deviation of (a_i-m).(a_l-m) = (a_j-m).(a_k-m) over the index splits."""
    d = t.monge_centered
    # the Gram matrix whose (0, j) entries are `lambdas`
    g = (d @ d.T).tolist()
    return max(abs(g[i][j] - g[k][l]) for (i, j), (k, l) in OPPOSITE_EDGE_PAIRS)


def centroid(t: Tetrahedron) -> Vec3:
    return t.vertices.sum(axis=0) / 4.0


def circumcenter(t: Tetrahedron) -> Vec3:
    """Point equidistant from all four vertices."""
    return t.circumcenter


@dataclass(frozen=True)
class LambdaTriple:
    """Monge-centered pairwise vertex dot products lambda_0j."""

    l01: float
    l02: float
    l03: float

    def as_array(self) -> np.ndarray:
        return np.array([self.l01, self.l02, self.l03])


def lambdas(t: Tetrahedron) -> LambdaTriple:
    """The three scalars (a_0-m).(a_j-m) with m the Monge point.

    By the Monge identity these cover all six pairwise products.
    """
    return LambdaTriple(*t.lambdas.tolist())


def opposite_edge_dots(t: Tetrahedron) -> np.ndarray:
    """Dot products of the three opposite-edge pairs, in OPPOSITE_EDGE_PAIRS order."""
    return t.opposite_dots


def _opposite_gates(t: Tetrahedron, tol: Tolerance) -> np.ndarray:
    """Zero gate of each opposite-edge dot product, tol.gate(|b_ij|, |b_kl|)."""
    return tol.rel_eps * t.opposite_scales


def _orthogonal(t: Tetrahedron, tol: Tolerance) -> np.ndarray:
    """(3,) bool: which opposite-edge pairs are orthogonal, in OPPOSITE_EDGE_PAIRS
    order; the one test behind both `classify` and `altitudes_meet`."""
    return np.abs(t.opposite_dots) <= _opposite_gates(t, tol)


def altitudes_meet(t: Tetrahedron, i: int, j: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff altitudes h_i and h_j intersect, i.e. edge kl is orthogonal to edge ij."""
    _check_edge(i, j)
    pair = next(p for p, es in enumerate(OPPOSITE_EDGE_PAIRS) if {i, j} in map(set, es))
    return bool(_orthogonal(t, tol)[pair])


class TetraKind(Enum):
    GENERIC = "generic"
    SEMI_ORTHOCENTRIC = "semi_orthocentric"
    ORTHOCENTRIC = "orthocentric"


@dataclass(frozen=True)
class TetraClass:
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
    n_zero = int(zero.sum())
    if n_zero == 0:
        return TetraClass(TetraKind.GENERIC)
    if n_zero == 1:
        idx = int(np.argmax(zero))
        return TetraClass(TetraKind.SEMI_ORTHOCENTRIC, OPPOSITE_EDGE_PAIRS[idx])
    if n_zero == 3:
        return TetraClass(TetraKind.ORTHOCENTRIC)
    # exactly two zeros: numerically inconsistent
    idx = int(np.argmin(zero))
    if abs(t.opposite_dots[idx]) <= 10.0 * _opposite_gates(t, tol)[idx]:
        return TetraClass(TetraKind.ORTHOCENTRIC)
    return TetraClass(
        TetraKind.GENERIC,
        warning="two opposite-edge dot products vanished but the third did not",
    )


@dataclass(frozen=True, eq=False)
class NoteworthyPoints:
    monge: Vec3
    centroid: Vec3
    circumcenter: Vec3
    orthocenter: Optional[Vec3]
    euler: Optional[Line3]


def noteworthy(t: Tetrahedron, tol: Tolerance = DEFAULT_TOL) -> NoteworthyPoints:
    """Monge point, centroid, circumcenter, optional orthocenter, optional Euler line.

    The centroid is the midpoint of the circumcenter and the Monge point; the
    Euler line is their join when they differ.  The orthocenter exists exactly
    in the orthocentric case and then coincides with the Monge point.
    """
    m, g, c = t.monge, centroid(t), t.circumcenter
    h = m if classify(t, tol).kind is TetraKind.ORTHOCENTRIC else None
    euler = Line3(g, c - m) if norm(c - m) > tol.gate(t.edge_scale()) else None
    return NoteworthyPoints(m, g, c, h, euler)
