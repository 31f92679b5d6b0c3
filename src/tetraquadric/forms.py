"""Quadratic forms on 3-space.

Covers evaluation, the basis-independent trace, principal axes from
numpy's symmetric eigensolver, the three-way classification of traceless
forms (zero form / orthogonal plane pair / equilateral cone), and the
orthogonal tripods carried by every equilateral cone.  A `QuadForm3` computes
its matrix and its principal frame once, on first use, and keeps them
read-only; the functions below read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_TOL,
    Plane3,
    Tolerance,
    Vec3,
    _frozen,
    as_vec,
    cross_rows,
)
from .errors import DegenerateForm, NotOnCone, NotTraceless

_SQRT2 = math.sqrt(2.0)
_AXES = _frozen(np.eye(3))


@dataclass(frozen=True)
class QuadForm3:
    """Symmetric quadratic form; off-diagonal coefficients stored once."""

    s11: float
    s22: float
    s33: float
    s12: float = 0.0
    s13: float = 0.0
    s23: float = 0.0

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "QuadForm3":
        m = np.asarray(m, dtype=float)
        sym = 0.5 * (m + m.T)
        q = cls(sym[0, 0], sym[1, 1], sym[2, 2], sym[0, 1], sym[0, 2], sym[1, 2])
        vars(q)["matrix"] = _frozen(sym)  # the same bits as `matrix` would build
        return q

    @cached_property
    def matrix(self) -> np.ndarray:
        s11, s22, s33, s12, s13, s23 = self.coefficients
        return _frozen(np.array([[s11, s12, s13], [s12, s22, s23], [s13, s23, s33]]))

    @cached_property
    def frame(self) -> "EigenFrame":
        """Principal frame from numpy's symmetric eigensolver.

        Output is deterministic: eigenvalues descending, eigenvector signs
        canonicalized on the largest-magnitude component.
        """
        if not np.all(np.isfinite(self.matrix)):
            raise DegenerateForm("form coefficients must be finite")
        values, vectors = np.linalg.eigh(self.matrix)
        axes = vectors.T[::-1]
        for r in range(3):
            lead = int(np.argmax(np.abs(axes[r])))
            if axes[r][lead] < 0:
                axes[r] = -axes[r]
        return EigenFrame(_frozen(values[::-1]), _frozen(axes))

    @property
    def coefficients(self) -> tuple[float, float, float, float, float, float]:
        return (self.s11, self.s22, self.s33, self.s12, self.s13, self.s23)

    def max_abs(self) -> float:
        return max(abs(c) for c in self.coefficients)


def evaluate(q: QuadForm3, x: Vec3) -> float:
    """Value x^T Sigma x of the form at x."""
    x = as_vec(x)
    return float(x @ q.matrix @ x)


def trace(q: QuadForm3) -> float:
    return q.s11 + q.s22 + q.s33


def not_traceless(q: QuadForm3, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when |trace(q)| is above the gate of the largest coefficient.  A
    non-finite form is left to `frame`, which raises `DegenerateForm`."""
    return abs(trace(q)) > tol.gate(q.max_abs())


@dataclass(frozen=True, eq=False)
class EigenFrame:
    """Principal axes (rows of `axes`) and eigenvalues sorted descending."""

    values: np.ndarray
    axes: np.ndarray


def rank(q: QuadForm3, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of eigenvalues significantly different from the largest one."""
    values = q.frame.values
    thresh = tol.gate(float(np.max(np.abs(values))))
    return int(np.sum(np.abs(values) > thresh))


class TracelessKind(Enum):
    ZERO_FORM = "zero_form"
    ORTHOGONAL_PLANE_PAIR = "orthogonal_plane_pair"
    EQUILATERAL_CONE = "equilateral_cone"


@dataclass(frozen=True, eq=False)
class TracelessClass:
    kind: TracelessKind
    planes: Optional[tuple[Plane3, Plane3]] = None


def classify_traceless(q: QuadForm3, tol: Tolerance = DEFAULT_TOL) -> TracelessClass:
    """Three-way classification of a traceless form by its rank.

    A traceless form cannot have rank 1 exactly; a measured rank of 1 is
    noise and is mapped to the zero form.
    """
    if not_traceless(q, tol):
        raise NotTraceless(f"trace is {trace(q)}, not zero")
    r = rank(q, tol)
    if r <= 1:
        return TracelessClass(TracelessKind.ZERO_FORM)
    if r == 2:
        # eigenvalues are (s, 0, -s); zero set is the plane pair xi1 = +-xi3
        e1, e3 = q.frame.axes[0], q.frame.axes[2]
        p1 = Plane3((e1 + e3) / _SQRT2, 0.0)
        p2 = Plane3((e1 - e3) / _SQRT2, 0.0)
        return TracelessClass(TracelessKind.ORTHOGONAL_PLANE_PAIR, (p1, p2))
    return TracelessClass(TracelessKind.EQUILATERAL_CONE)


@dataclass(frozen=True, eq=False)
class Tripod:
    """Three mutually orthogonal unit directions, all on the cone Q = 0."""

    legs: tuple[Vec3, Vec3, Vec3]


def tripod_through_generator(
    q: QuadForm3, g: Vec3, tol: Tolerance = DEFAULT_TOL
) -> Tripod:
    """Orthogonal tripod of cone generators containing the generator g.

    The two companion legs are found by diagonalizing the restriction of the
    form to the plane orthogonal to g; the restriction is traceless there, so
    its zero lines are the diagonals of its principal axes.
    """
    return Tripod(tuple(_tripods(q, as_vec(g)[None], tol)[0]))


def _canonical_rows(v: np.ndarray) -> np.ndarray:
    """`canonical_dir` along the last axis.  With weights 4, 2, 1 the first
    component above 1e-12 in magnitude decides the sign of `lead`."""
    u = v / np.linalg.norm(v, axis=-1, keepdims=True)
    lead = ((np.abs(u) > 1e-12) * np.sign(u)) @ [4.0, 2.0, 1.0]
    return np.where(lead[..., None] < 0, -u, u)


def _tripods(q: QuadForm3, g: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Legs (N, 3, 3) of the tripods through the generators g (N, 3), by the
    construction of `tripod_through_generator`; leg 0 is the generator."""
    if not np.isfinite(g).all():
        raise NotOnCone("a generator must be finite")
    # in units of the power of two just above each row's largest component, as
    # in `orthocenter2d`: exact, so the squares neither overflow nor underflow
    g = np.ldexp(g, -np.frexp(np.max(np.abs(g), axis=1))[1][:, None])
    lengths = np.linalg.norm(g, axis=1)
    if np.any(lengths == 0.0):
        raise NotOnCone("zero vector is not a generator")
    if not_traceless(q, tol) or rank(q, tol) < 3:
        raise DegenerateForm("cone requires a rank-3 traceless form")
    m = q.matrix
    ghat = g / lengths[:, None]
    on_cone = np.sum(ghat @ m * ghat, axis=1)
    bad = np.abs(on_cone) > tol.gate(q.max_abs())
    if np.any(bad):
        raise NotOnCone(f"Q(g) = {on_cone[np.argmax(bad)]} is not zero")
    n = _canonical_rows(ghat)
    basis = _plane_bases(n)
    m2 = basis @ m @ basis.transpose(0, 2, 1)
    # the restriction to the plane orthogonal to g is traceless; its zero lines
    # lie 45 degrees off its principal axes
    theta = 0.5 * np.arctan2(2.0 * m2[:, 0, 1], m2[:, 0, 0] - m2[:, 1, 1])
    phi = (theta[:, None] + [math.pi / 4, -math.pi / 4])[..., None]
    legs = np.cos(phi) * basis[:, None, 0] + np.sin(phi) * basis[:, None, 1]
    return np.concatenate([n[:, None], _canonical_rows(legs)], axis=1)


def _plane_bases(n: np.ndarray) -> np.ndarray:
    """Orthonormal in-plane bases (N, 2, 3) of the planes with unit normals n
    (N, 3): u is the coordinate axis least aligned with n, projected onto the
    plane, and v = n x u, so that u x v = n."""
    k = np.argmin(np.abs(n), axis=1)
    u = _AXES[k] - n[np.arange(len(n)), k, None] * n
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.stack([u, cross_rows(n, u)], axis=1)

