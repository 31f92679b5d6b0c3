"""Exact rational oracle on integer-lattice tetrahedra.

On a lattice every construction of the paper is rational, so `Fraction`
arithmetic gives the class, the Monge point, lambda, `Q*` and `rhs` exactly
(the exact-predicate idea of Shewchuk, "Adaptive Precision Floating-Point
Arithmetic and Fast Robust Geometric Predicates", 1997).  The library must
return the exact class and the Monge point and lambda within a few ulps of the
rational values, the ulps taken at each quantity's natural length power and
widened by the condition number of the edge system they are solved from.
`Q*` and `rhs` are products of the opposite-edge dots and the basic forms, so on
a lattice scaled by a power of two they must equal the rational values exactly;
in `Fraction` they equal the paper's lambda-weighted forms.  The oracle first proves itself:
`Q*(p - M) = rhs` holds exactly at rational points of the four altitudes and
the four face perpendiculars.

Scaling by a power of two is exact, so the same lattice checked at 2**-20 and
2**20 (about 1e-6 and 1e6) must give the same class and the same ulp errors.

Any float triangle is rational too, so the face orthocenter is also checked on
random triangles shifted far from the origin, against the same plane system
solved exactly.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from tetraquadric import (
    TetraKind,
    Tetrahedron,
    circumcenter,
    classify,
    monge_point,
    orthocenter2d,
    random_tetra,
)
from tetraquadric import altquadric
from tetraquadric.errors import DegenerateTetrahedron
from tetraquadric.tetra import OPPOSITE_EDGE_PAIRS

#: bound on every error, in ulps of the quantity's natural scale
ULPS = 4


def _sub(u, v):
    return [a - b for a, b in zip(u, v)]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _det(m):
    return _dot(m[0], _cross(m[1], m[2]))


def _solve(rows, rhs):
    """Exact solution of the 3x3 system rows . x = rhs, by Cramer's rule."""
    det = _det(rows)
    cols = list(zip(*rows))
    x = []
    for c in range(3):
        swapped = [rhs if k == c else cols[k] for k in range(3)]
        m = list(zip(*swapped))
        x.append(Fraction(_det(m)) / det)
    return x


def _form_value(q, x):
    return sum(q[r][s] * x[r] * x[s] for r in range(3) for s in range(3))


def exact_quadric(v):
    """Class, orthogonal pair, Monge point, lambda, Q* and rhs of the lattice
    tetrahedron v, in rational arithmetic."""
    dots = [_dot(_sub(v[i], v[j]), _sub(v[k], v[l])) for (i, j), (k, l) in OPPOSITE_EDGE_PAIRS]
    zero = [d == 0 for d in dots]
    assert sum(zero) != 2, "two orthogonal pairs force the third"
    kind = {0: TetraKind.GENERIC, 1: TetraKind.SEMI_ORTHOCENTRIC, 3: TetraKind.ORTHOCENTRIC}[sum(zero)]
    pair = OPPOSITE_EDGE_PAIRS[zero.index(True)] if sum(zero) == 1 else None

    b = [_sub(v[0], v[j]) for j in (1, 2, 3)]
    mids = [[(p + q) / 2 for p, q in zip(v[k], v[l])] for _, (k, l) in OPPOSITE_EDGE_PAIRS]
    m = _solve(b, [_dot(bj, mj) for bj, mj in zip(b, mids)])
    lam = [_dot(_sub(v[0], m), _sub(v[j], m)) for j in (1, 2, 3)]
    q = [[Fraction(0)] * 3 for _ in range(3)]
    for w, ((i, j), (k, l)) in zip(lam, OPPOSITE_EDGE_PAIRS):
        c, d = _sub(v[i], v[j]), _sub(v[k], v[l])
        for r in range(3):
            for s in range(3):
                q[r][s] += w * (c[r] * d[s] + c[s] * d[r]) / 2
    rhs = (lam[0] - lam[1]) * (lam[1] - lam[2]) * (lam[2] - lam[0])
    return kind, pair, m, lam, q, rhs


def dot_form_quadric(v):
    """Q* = (d_1 F_2 - d_2 F_1) / 2 and rhs = d_1 d_2 d_3 / 8 from the
    opposite-edge dots d_p and the basic forms F_p, in rational arithmetic."""
    dots, forms = [], []
    for (i, j), (k, l) in OPPOSITE_EDGE_PAIRS:
        c, d = _sub(v[i], v[j]), _sub(v[k], v[l])
        dots.append(_dot(c, d))
        forms.append([[(c[r] * d[s] + c[s] * d[r]) / 2 for s in range(3)] for r in range(3)])
    (d1, d2, d3), (f1, f2, _) = dots, forms
    q = [[(d1 * f2[r][s] - d2 * f1[r][s]) / 2 for s in range(3)] for r in range(3)]
    return q, d1 * d2 * d3 / 8


def exact_orthocenter(a_i, a_j, a_k):
    """Orthocenter h of the triangle a_i a_j a_k and its normal n, from the plane
    system (h - a_i).(a_j - a_k) = (h - a_j).(a_k - a_i) = n.(h - a_i) = 0."""
    n = _cross(_sub(a_j, a_i), _sub(a_k, a_i))
    rows = [_sub(a_j, a_k), _sub(a_k, a_i), n]
    return _solve(rows, [_dot(rows[0], a_i), _dot(rows[1], a_j), _dot(n, a_i)]), n


def _altitude_lines(v):
    """(point, direction) of the four altitudes and the four face perpendiculars."""
    lines = []
    for l in range(4):
        h, n = exact_orthocenter(*(v[x] for x in range(4) if x != l))
        lines += [(v[l], n), (h, n)]
    return lines


def lattice_tetrahedra(count=120, seed=11, bound=3):
    rng = np.random.default_rng(seed)
    out = [[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    while len(out) < count:
        v = rng.integers(-bound, bound + 1, size=(4, 3)).tolist()
        b = [_sub(v[0], v[j]) for j in (1, 2, 3)]
        if _det(b) != 0:
            out.append(v)
    return out


LATTICE = lattice_tetrahedra()


def test_lattice_covers_every_class():
    kinds = [exact_quadric([[Fraction(x) for x in p] for p in v])[0] for v in LATTICE]
    assert {k: kinds.count(k) > 0 for k in TetraKind} == {k: True for k in TetraKind}


@pytest.mark.parametrize("v", LATTICE[:40])
def test_oracle_altitudes_lie_on_the_quadric_exactly(v):
    v = [[Fraction(x) for x in p] for p in v]
    _, _, m, _, q, rhs = exact_quadric(v)
    for base, direction in _altitude_lines(v):
        for k in (-1, 0, Fraction(1, 3), 2):
            p = [b + k * d for b, d in zip(base, direction)]
            assert _form_value(q, _sub(p, m)) == rhs


def test_dot_form_equals_the_lambda_form_exactly():
    # lambda_01 - lambda_02 = d_3 / 2 (and cyclically) and F_1 + F_2 + F_3 = 0;
    # det Q* = -rhs V^2 / 4 with V = e_1 . (e_2 x e_3), e_j = a_j - a_0, so a
    # generic Q* has rank 3 and two eigenvalues of rhs's sign
    for v in LATTICE:
        v = [[Fraction(x) for x in p] for p in v]
        _, _, _, _, q, rhs = exact_quadric(v)
        assert dot_form_quadric(v) == (q, rhs), v
        volume = _det([_sub(v[j], v[0]) for j in (1, 2, 3)])
        assert _det(q) == -rhs * volume**2 / 4, v


def _ulps(got, exact, scale):
    exact = np.array([float(x) for x in np.ravel(exact)])
    return float(np.max(np.abs(np.ravel(got) - exact))) / float(np.spacing(scale))


@pytest.mark.parametrize("unit_exp", [-20, 0, 20])
def test_library_matches_oracle_on_lattice(unit_exp):
    unit = Fraction(2) ** unit_exp
    for v in LATTICE:
        v = [[unit * x for x in p] for p in v]
        kind, pair, m, lam, q, rhs = exact_quadric(v)
        t = Tetrahedron(np.array(v, dtype=float))
        cls = classify(t)
        assert (cls.kind, cls.orthogonal_pair) == (kind, pair), v

        # natural scales: L and R for lengths, then the length power of each value
        length = t.edge_scale()
        r = max(float(np.linalg.norm(np.array(p, float) - np.array(m, float))) for p in v)
        cond = float(np.linalg.cond(t.vertices[0] - t.vertices[1:]))
        checks = (
            (monge_point(t), m, max(length, r) * cond),
            (t._lambdas, lam, r * r * cond),
        )
        for got, exact, scale in checks:
            assert _ulps(got, exact, scale) <= ULPS, v
        # products of lattice dots and half-integers, times powers of two: exact
        assert altquadric.q_star(t).matrix.tolist() == [[float(x) for x in row] for row in q], v
        assert altquadric.rhs(t) == float(rhs), v


def sliver_probe(draws=1500):
    """The sliver probe: draw n is `random_tetra` of class n mod 3 and a random
    seed, with vertex 3 moved to the centroid of vertices 0-2 plus a random
    vector of length about 1e-10..1e-1, in that call order."""
    rng = np.random.default_rng(7)
    for n in range(draws):
        v = random_tetra(list(TetraKind)[n % 3], rng.integers(5000)).vertices.copy()
        v[3] = v[:3].mean(axis=0) + 10 ** rng.uniform(-10, -1) * rng.normal(size=3)
        yield v


def exact_centers(v):
    """Monge point and circumcenter of the binary input v, each solved exactly from
    its three planes b_0j . x = b_0j . mid (the edge opposite 0j, and 0j itself)."""
    a = [[Fraction(x) for x in p] for p in v.tolist()]
    b = [_sub(a[0], a[j]) for j in (1, 2, 3)]
    mid = lambda i, j: [(p + q) / 2 for p, q in zip(a[i], a[j])]
    m = _solve(b, [_dot(bj, mid(*kl)) for bj, (_, kl) in zip(b, OPPOSITE_EDGE_PAIRS)])
    c = _solve(b, [_dot(bj, mid(0, j)) for bj, j in zip(b, (1, 2, 3))])
    return a[0], m, c


def center_errors(t):
    """Errors of `monge_point(t)` and `circumcenter(t)` in eps of max(|m - a_0|, L) and of
    max(|c - a_0|, L), against the exact values."""
    eps, length = np.finfo(float).eps, t.edge_scale()
    a0, *exact = exact_centers(t.vertices)
    errors = []
    for got, x in zip((monge_point(t), circumcenter(t)), exact):
        scale = max(length, math.hypot(*(float(p - q) for p, q in zip(x, a0))))
        errors.append(float(max(abs(Fraction(g) - p) for g, p in zip(got.tolist(), x))) / (eps * scale))
    return errors


def test_monge_point_and_circumcenter_are_accurate_on_slivers():
    # m and c are closed forms on the volume V, which is summed from the exact
    # edges: V is the one ill-conditioned quantity, so m and c keep their digits
    # however flat the tetrahedron, here up to about 3e7 edge lengths from a_0
    built = 0
    for v in sliver_probe():
        try:
            t = Tetrahedron(v)
        except DegenerateTetrahedron:
            continue
        built += 1
        assert max(center_errors(t)) <= 32, v.tolist()
    assert built > 1000


@pytest.mark.parametrize("unit_exp", [-20, 0, 20])
def test_monge_point_and_circumcenter_are_accurate(unit_exp):
    for kind in TetraKind:
        for seed in range(300):
            t = Tetrahedron(np.ldexp(random_tetra(kind, seed).vertices, unit_exp))
            assert max(center_errors(t)) <= 32, (kind, seed)


@pytest.mark.parametrize("k", [0, 20, 40])
def test_orthocenter2d_matches_the_exact_orthocenter_far_from_the_origin(k):
    # read relative to a vertex, a shift by 2^k edge lengths costs only the
    # rounding of the result itself: one ulp of H plus 8 eps of the larger of
    # the edge length and the reach of H from v0
    rng = np.random.default_rng(2024)
    eps = float(np.finfo(float).eps)
    for tri in rng.uniform(-1.0, 1.0, size=(1000, 3, 3)):
        length = max(float(np.linalg.norm(tri[i] - tri[j])) for i, j in ((1, 0), (2, 0), (2, 1)))
        tri = tri + 2.0**k * length * np.array([1.0, -1.0, 1.0])
        got = orthocenter2d(tuple(tri))
        v = [[Fraction(x) for x in p] for p in tri.tolist()]
        h, _ = exact_orthocenter(*v)
        reach = math.hypot(*(float(x - y) for x, y in zip(h, v[0])))
        bound = math.ulp(max(abs(float(x)) for x in h)) + 8 * eps * max(length, reach)
        assert max(abs(Fraction(g) - x) for g, x in zip(got.tolist(), h)) <= bound, tri
