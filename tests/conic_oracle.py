"""Point evaluation of a `ConicSection`, kept as a test oracle.

The library classifies a planar section of the altitude quadric from its
in-plane coefficients.  These helpers evaluate that conic at a world point,
so the tests can check that points known to lie on the section (the vertices
of a face and its orthocenter) satisfy its equation.
"""

import math

import numpy as np

from tetraquadric import ConicSection
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
