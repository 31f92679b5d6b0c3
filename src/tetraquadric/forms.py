"""Quadratic forms on 3-space.

Covers evaluation, the basis-independent trace, principal axes from
numpy's symmetric eigensolver, and the three-way classification of traceless
forms (zero form / orthogonal plane pair / equilateral cone).  The orthogonal
tripods of an equilateral cone are in `porism`.  A `QuadForm3` computes
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
    _coords,
    _frozen,
)
from .errors import DegenerateForm, NotTraceless

_SQRT2 = math.sqrt(2.0)


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
        """The form of (m + m^T) / 2 of a 3x3 matrix m, with Python-float coefficients."""
        (a, b, c), (d, e, f), (g, h, i) = np.asarray(m, dtype=float).tolist()
        return cls(
            0.5 * (a + a), 0.5 * (e + e), 0.5 * (i + i), 0.5 * (b + d), 0.5 * (c + g), 0.5 * (f + h)
        )

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

    def bilinear(self, x: list, y: list) -> float:
        """x^T Sigma y on coordinate lists, the terms x_i s_ij y_j summed over
        (i, j) in row order."""
        (x1, x2, x3), (y1, y2, y3) = x, y
        s11, s22, s33, s12, s13, s23 = self.s11, self.s22, self.s33, self.s12, self.s13, self.s23
        return (
            x1 * s11 * y1 + x1 * s12 * y2 + x1 * s13 * y3
            + x2 * s12 * y1 + x2 * s22 * y2 + x2 * s23 * y3
            + x3 * s13 * y1 + x3 * s23 * y2 + x3 * s33 * y3
        )


def evaluate(q: QuadForm3, x: Vec3) -> float:
    """Value x^T Sigma x of the form at x."""
    x = _coords(x)
    return q.bilinear(x, x)


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
    """Kind of a traceless form, with its two zero planes for the plane pair."""

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
