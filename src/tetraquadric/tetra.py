"""The tetrahedron model.

Edge vectors, altitudes and orthocentric perpendiculars, midplanes, the Monge
point, centroid, circumcenter, Euler line, and the generic /
semi-orthocentric / orthocentric classification.  A `Tetrahedron` computes
each tolerance-free quantity once, on first use, and keeps it read-only; the
public functions below read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_TOL,
    Line3,
    Plane3,
    Tolerance,
    Vec3,
    _frozen,
    cross_rows,
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
#: The same pairs as index arrays ((i, j), (k, l)), one entry per pair.
_PAIR_INDEX = np.array(OPPOSITE_EDGE_PAIRS).transpose(1, 2, 0)
#: Vertices (i, j, k), i < j < k, of the face opposite each vertex l, as index arrays.
_FACE_INDEX = np.array([[i for i in range(4) if i != l] for l in range(4)]).T


@dataclass(frozen=True, eq=False)
class Tetrahedron:
    """Four position vectors; rejects coplanar vertex sets at construction."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.shape != (4, 3) or not np.all(np.isfinite(v)):
            raise DegenerateTetrahedron("need four finite 3-vectors")
        object.__setattr__(self, "vertices", _frozen(v))
        s = self.edge_scale()
        if abs(triple(*self.edges[0, 1:])) <= DEFAULT_TOL.gate(s, s, s):
            raise DegenerateTetrahedron("vertices are coplanar")

    def vertex(self, i: int) -> Vec3:
        return self.vertices[i]

    def edge_scale(self) -> float:
        return float(self.edge_lengths.max())

    def others(self, l: int) -> tuple[int, int, int]:
        return tuple(i for i in range(4) if i != l)

    @cached_property
    def edges(self) -> np.ndarray:
        """(4, 4, 3): edges[i, j] = a_i - a_j."""
        v = self.vertices
        return _frozen(v[:, None] - v[None])

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """(4, 4): |a_i - a_j|, free of overflow in the squares."""
        e = self.edges
        return _frozen(np.hypot(np.hypot(e[..., 0], e[..., 1]), e[..., 2]))

    @cached_property
    def face_normals(self) -> np.ndarray:
        """(4, 3): (a_j - a_i) x (a_k - a_i) for the face i < j < k opposite l."""
        i, j, k = _FACE_INDEX
        return _frozen(cross_rows(self.edges[j, i], self.edges[k, i]))

    @cached_property
    def unit_normals(self) -> np.ndarray:
        """(4, 3): `face_normals` scaled to unit length, free of overflow and
        underflow in the squares; up to sign, the directions of the altitudes."""
        n = self.face_normals
        return _frozen(n / np.array([[norm(r)] for r in n.tolist()]))

    @cached_property
    def opposite_dots(self) -> np.ndarray:
        """(3,): b_ij . b_kl in OPPOSITE_EDGE_PAIRS order."""
        e = self.edges
        return _frozen(np.array([dot(e[e1], e[e2]) for e1, e2 in OPPOSITE_EDGE_PAIRS]))

    def _solve_edges(self, mids: np.ndarray) -> Vec3:
        """Point x with b_0j . x = b_0j . mids[j-1]; b_01, b_02, b_03 are independent."""
        b = self.edges[0, 1:]
        return _frozen(np.linalg.solve(b, np.sum(b * mids, axis=1)))

    @cached_property
    def monge(self) -> Vec3:
        """Common point of the six midplanes: b_0j . m = b_0j . mid(opposite edge)."""
        v = self.vertices
        return self._solve_edges(0.5 * np.array([v[2] + v[3], v[3] + v[1], v[1] + v[2]]))

    @cached_property
    def circumcenter(self) -> Vec3:
        """Point equidistant from all four vertices: b_0j . c = b_0j . mid(edge 0j)."""
        v = self.vertices
        return self._solve_edges(0.5 * (v[0] + v[1:]))

    @cached_property
    def lambdas(self) -> np.ndarray:
        """(3,): (a_0 - m) . (a_j - m) for j = 1, 2, 3, m the Monge point."""
        d = self.vertices - self.monge
        return _frozen(np.array([dot(d[0], d[j]) for j in (1, 2, 3)]))

    @cached_property
    def q_star(self) -> QuadForm3:
        """The traceless form sum_j lambda_0j (x.b_0j)(x.b_kl).

        An overflow leaves non-finite coefficients, which `altquadric.build`
        rejects, instead of a numpy warning.
        """
        (i, j), (k, l) = _PAIR_INDEX
        with np.errstate(over="ignore", invalid="ignore"):
            o = self.edges[i, j, :, None] * self.edges[k, l, None, :]
            w = self.lambdas[:, None, None] * (0.5 * (o + o.transpose(0, 2, 1)))
            return QuadForm3.from_matrix(w[0] + w[1] + w[2])

    @cached_property
    def rhs(self) -> float:
        """(l01 - l02)(l02 - l03)(l03 - l01)."""
        l01, l02, l03 = self.lambdas.tolist()
        return (l01 - l02) * (l02 - l03) * (l03 - l01)


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


def monge_point(t: Tetrahedron) -> Vec3:
    """Common point of the six midplanes."""
    return t.monge


def monge_identity_residual(t: Tetrahedron) -> float:
    """Max deviation of (a_i-m).(a_l-m) = (a_j-m).(a_k-m) over the index splits."""
    d = t.vertices - t.monge
    return max(
        abs(dot(d[i], d[j]) - dot(d[k], d[l])) for (i, j), (k, l) in OPPOSITE_EDGE_PAIRS
    )


def centroid(t: Tetrahedron) -> Vec3:
    return t.vertices.mean(axis=0)


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
    lengths = t.edge_lengths
    return np.array([tol.gate(lengths[e1], lengths[e2]) for e1, e2 in OPPOSITE_EDGE_PAIRS])


def altitudes_meet(t: Tetrahedron, i: int, j: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff altitudes h_i and h_j intersect, i.e. edge kl is orthogonal to edge ij."""
    _check_edge(i, j)
    k, l = (x for x in range(4) if x not in (i, j))
    lengths = t.edge_lengths
    return tol.is_zero(dot(t.edges[k, l], t.edges[i, j]), lengths[k, l], lengths[i, j])


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
    """
    dots = t.opposite_dots
    gates = _opposite_gates(t, tol)
    zero = np.abs(dots) <= gates
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
    if abs(dots[idx]) <= 10.0 * gates[idx]:
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
