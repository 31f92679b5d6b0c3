"""Point evaluation and a reference classifier of a `ConicSection`, kept as
test oracles.

The library classifies a planar section of the altitude quadric from its
in-plane coefficients.  The first helpers evaluate that conic at a world
point, so the tests can check that points known to lie on the section (the
vertices of a face and its orthocenter) satisfy its equation.
`reference_conic_kind` is the classifier written the long way, with numpy
determinants and a solve for the center, to check the library's closed-form
invariants against.
"""

import math

import numpy as np

from tetraquadric import ConicKind, ConicSection, Tolerance
from tetraquadric.core import Vec3, dot


def conic_coords(sec: ConicSection, p_world: Vec3) -> np.ndarray:
    """In-plane coordinates (s, t) of a world point along `sec.basis`."""
    d = p_world - sec.origin
    return np.array([dot(d, sec.basis[0]), dot(d, sec.basis[1])])


def conic_value(sec: ConicSection, p_world: Vec3) -> float:
    """quad(s, t) + linear.(s, t) + constant at the point."""
    st = conic_coords(sec, p_world)
    return float(st @ sec.quad @ st + sec.linear @ st + sec.constant)


def conic_value_scale(sec: ConicSection, p_world: Vec3) -> float:
    """Magnitude of the largest term of `conic_value` at the point."""
    st = conic_coords(sec, p_world)
    s2 = float(st @ st)
    return max(
        float(np.max(np.abs(sec.quad))) * s2,
        float(np.max(np.abs(sec.linear))) * math.sqrt(s2),
        abs(sec.constant),
    )


def reference_conic_kind(
    quad: np.ndarray, linear: np.ndarray, constant: float, form_scale: float,
    tol: Tolerance,
) -> ConicKind:
    """Kind of the conic quad(s, t) + linear.(s, t) + constant = 0 from
    `np.linalg.det` of its 2x2 and 3x3 matrices and the value at its center;
    `form_scale` is the largest coefficient of the form cut by the plane."""
    a_norm = float(np.max(np.abs(quad)))
    if a_norm <= tol.gate(form_scale):
        return ConicKind.OTHER
    det2 = float(np.linalg.det(quad))
    tr2 = float(np.trace(quad))
    m3 = np.zeros((3, 3))
    m3[:2, :2] = quad
    m3[:2, 2] = m3[2, :2] = 0.5 * linear
    m3[2, 2] = constant
    det3 = float(np.linalg.det(m3))
    # det3 = constant det2 - linear^T adj(quad) linear / 4
    terms = abs(constant) * a_norm + float(linear @ linear)
    degenerate = abs(det3) <= tol.gate(a_norm, terms)
    if det2 < -tol.gate(a_norm, a_norm):
        if degenerate:
            return ConicKind.LINE_PAIR
        if abs(tr2) <= tol.gate(10.0, a_norm):
            return ConicKind.EQUILATERAL_HYPERBOLA
        return ConicKind.HYPERBOLA
    if det2 > tol.gate(a_norm, a_norm):
        if degenerate:
            return ConicKind.OTHER  # single point
        # real ellipse iff the value at the center has sign opposite the trace
        center = np.linalg.solve(quad, -0.5 * linear)
        v0 = float(center @ quad @ center + linear @ center + constant)
        if tr2 * v0 < 0:
            return ConicKind.ELLIPSE
        return ConicKind.OTHER
    return ConicKind.OTHER
