"""The restriction construction of cone tripods, kept as a test oracle.

The library builds the tripod through a generator in closed form on the
section ellipse at unit height (`porism.tripod_through_generator`).  Before,
it found the companion legs by diagonalizing the restriction of the form to
the plane orthogonal to the generator: that restriction is traceless, so its
zero lines lie 45 degrees off its principal axes.  `tripods` is that
construction, batched over generators, so the tests can compare the closed
form against a different algorithm.  It assumes finite generators on the cone
of a traceless rank-3 form and checks none of it.
"""

import math

import numpy as np

AXES = np.eye(3)


def canonical_rows(v):
    """The unit direction of `core._unit` along the last axis.  With weights
    4, 2, 1 the first component above 1e-12 in magnitude decides the sign of
    `lead`."""
    u = v / np.linalg.norm(v, axis=-1, keepdims=True)
    lead = ((np.abs(u) > 1e-12) * np.sign(u)) @ [4.0, 2.0, 1.0]
    return np.where(lead[..., None] < 0, -u, u)


def plane_bases(n):
    """Orthonormal in-plane bases (N, 2, 3) of the planes with unit normals n
    (N, 3): u is the coordinate axis least aligned with n, projected onto the
    plane, and v = n x u, so that u x v = n."""
    k = np.argmin(np.abs(n), axis=1)
    u = AXES[k] - n[np.arange(len(n)), k, None] * n
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.stack([u, np.cross(n, u)], axis=1)


def tripods(q, g):
    """Legs (N, 3, 3) of the tripods through the generators g (N, 3) of the
    cone of q; leg 0 is the generator."""
    # in units of the power of two just above each row's largest component
    g = np.ldexp(g, -np.frexp(np.max(np.abs(g), axis=1))[1][:, None])
    n = canonical_rows(g)
    basis = plane_bases(n)
    m2 = basis @ q.matrix @ basis.transpose(0, 2, 1)
    theta = 0.5 * np.arctan2(2.0 * m2[:, 0, 1], m2[:, 0, 0] - m2[:, 1, 1])
    phi = (theta[:, None] + [math.pi / 4, -math.pi / 4])[..., None]
    legs = np.cos(phi) * basis[:, None, 0] + np.sin(phi) * basis[:, None, 1]
    return np.concatenate([n[:, None], canonical_rows(legs)], axis=1)
