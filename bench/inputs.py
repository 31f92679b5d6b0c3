"""Seeded benchmark inputs, built and labelled without the library under test.

Every tetrahedron is made by construction and labelled by this module's own
opposite-edge test, so a change to the program can change neither the inputs
nor their expected answers:

* generic: four random points whose three opposite-edge pairs are all far
  from orthogonal;
* semi-orthocentric: a base triangle with the apex above a point of one base
  altitude, which makes exactly one opposite-edge pair orthogonal;
* orthocentric: the apex above the base orthocenter, which makes all three
  pairs orthogonal.

Each shape then gets a random rotation, a shift of a few edge lengths and a
uniform scale.  The log-scales follow a golden-ratio sequence from a seeded
start, so that every prefix of the input stream covers its scale range evenly
and the share of inputs at any scale does not drift with the seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

KINDS = ("generic", "semi_orthocentric", "orthocentric")
QUADRIC_OF_CLASS = {
    "generic": "hyperboloid",
    "semi_orthocentric": "plane_pair",
    "orthocentric": "trivial",
}
OPPOSITE_EDGE_PAIRS = (((0, 1), (2, 3)), ((0, 2), (3, 1)), ((0, 3), (1, 2)))

#: relative opposite-edge dot below which a pair is orthogonal
ZERO_REL = 1e-8
#: relative opposite-edge dot a pair must exceed to count as clearly not orthogonal
FAR_REL = 0.05
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_TRIES = 1000


def relative_edge_dots(v: np.ndarray) -> np.ndarray:
    """|b_ij . b_kl| / (|b_ij| |b_kl|) for the three opposite-edge pairs."""
    out = []
    for (i, j), (k, l) in OPPOSITE_EDGE_PAIRS:
        a, b = v[i] - v[j], v[k] - v[l]
        out.append(abs(float(a @ b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b))))
    return np.array(out)


def label(v: np.ndarray) -> str:
    """Class of a tetrahedron from the count of orthogonal opposite-edge pairs."""
    zeros = int(np.sum(relative_edge_dots(v) <= ZERO_REL))
    if zeros == 0:
        return "generic"
    if zeros == 1:
        return "semi_orthocentric"
    if zeros == 3:
        return "orthocentric"
    raise ValueError("two orthogonal opposite-edge pairs cannot occur")


def _well_shaped(v: np.ndarray) -> bool:
    """Volume and face angles far from degenerate, relative to the edge length."""
    edges = [v[i] - v[j] for i in range(4) for j in range(i + 1, 4)]
    s = max(float(np.linalg.norm(e)) for e in edges)
    vol6 = abs(float(np.linalg.det(np.array([v[1] - v[0], v[2] - v[0], v[3] - v[0]]))))
    return vol6 > 0.05 * s**3 and min(float(np.linalg.norm(e)) for e in edges) > 0.2 * s


def _orthocenter2(p: np.ndarray) -> np.ndarray:
    """Orthocenter of a plane triangle: solve (h - p0).(p1 - p2) = 0, (h - p1).(p2 - p0) = 0."""
    a = np.array([p[1] - p[2], p[2] - p[0]])
    b = np.array([p[0] @ (p[1] - p[2]), p[1] @ (p[2] - p[0])])
    return np.linalg.solve(a, b)


def _shape(kind: str, rng: np.random.Generator) -> np.ndarray:
    """Unit-size vertices of the requested class, centred near the origin."""
    for _ in range(_MAX_TRIES):
        if kind == "generic":
            v = rng.uniform(-1.0, 1.0, size=(4, 3))
            if _well_shaped(v) and np.all(relative_edge_dots(v) > FAR_REL):
                return v
            continue
        base = rng.uniform(-1.0, 1.0, size=(3, 2))
        h = _orthocenter2(base)
        if kind == "orthocentric":
            foot = h
        else:
            corner = int(rng.integers(3))
            foot = h + rng.uniform(0.2, 0.8) * (base[corner] - h)
        v = np.zeros((4, 3))
        v[:3, :2] = base
        v[3, :2] = foot
        v[3, 2] = rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0))
        if not _well_shaped(v):
            continue
        far = relative_edge_dots(v) > FAR_REL
        if kind == "orthocentric" or int(far.sum()) == 2:
            return v
    raise RuntimeError(f"no well-shaped {kind} tetrahedron in {_MAX_TRIES} draws")


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def edge_scale(v: np.ndarray) -> float:
    return max(float(np.linalg.norm(v[i] - v[j])) for i in range(4) for j in range(i + 1, 4))


def tetrahedron(seed: int, stream: str, i: int, kinds=KINDS, log10_range=(-6.0, 6.0)) -> dict:
    """Input `i` of a stream: vertices, label, log10 scale and edge scale.

    Classes cycle through `kinds`.  Input i depends only on (seed, stream, i),
    so inputs can be made in any order and batch size; `stream` names an
    independent random stream, so each workload draws its own inputs.
    """
    sid = sum(map(ord, stream))
    rng = np.random.default_rng([seed % 2**63, sid, i])
    start = float(np.random.default_rng([seed % 2**63, sid]).uniform())
    kind = kinds[i % len(kinds)]
    v = _shape(kind, rng) @ _rotation(rng).T
    v = v + rng.uniform(-3.0, 3.0, size=3) * edge_scale(v)
    lo, hi = log10_range
    log10_scale = lo + (hi - lo) * ((start + i * _GOLDEN) % 1.0)
    v = v * 10.0**log10_scale
    got = label(v)
    if got != kind:
        raise RuntimeError(f"constructed {kind} input labelled {got}")
    return {"vertices": v, "label": kind, "log10_scale": log10_scale, "edge_scale": edge_scale(v)}


def to_json(vertices: np.ndarray) -> str:
    """The library's input document, with every float written exactly."""
    return json.dumps({"vertices": [[float(x) for x in row] for row in vertices]})


def traceless_form(seed: int, index: int) -> tuple[float, ...]:
    """Coefficients (s11, s22, s33, s12, s13, s23) of a random rank-3 traceless form
    with two positive eigenvalues, rotated into a random frame."""
    rng = np.random.default_rng([seed % 2**63, index, 7])
    d1, d2 = rng.uniform(0.5, 2.0, size=2)
    r = _rotation(rng)
    m = r @ np.diag([d1, d2, -(d1 + d2)]) @ r.T
    m = 0.5 * (m + m.T)
    return (m[0, 0], m[1, 1], -(m[0, 0] + m[1, 1]), m[0, 1], m[0, 2], m[1, 2])
