"""Exact rational oracle on integer-lattice tetrahedra.

On a lattice every construction of the paper is rational, so `Fraction`
arithmetic gives the class, the Monge point, lambda, `Q*` and `rhs` exactly
(the exact-predicate idea of Shewchuk, "Adaptive Precision Floating-Point
Arithmetic and Fast Robust Geometric Predicates", 1997).  The library must
return the exact class and floats within a few ulps of the rational values,
the ulps taken at each quantity's natural length power.  The Monge point and
lambda come out of a linear solve, so their ulps are widened by the condition
number of the edge system it solves.  The oracle first proves itself:
`Q*(p - M) = rhs` holds exactly at rational points of the four altitudes and
the four face perpendiculars.

Scaling by a power of two is exact, so the same lattice checked at 2**-20 and
2**20 (about 1e-6 and 1e6) must give the same class and the same ulp errors.
"""

from fractions import Fraction

import numpy as np
import pytest

from tetraquadric import TetraKind, Tetrahedron, classify
from tetraquadric.tetra import OPPOSITE_EDGE_PAIRS

#: bound on every error, in ulps of the quantity's natural scale
ULPS = 4


def _sub(u, v):
    return [a - b for a, b in zip(u, v)]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def _solve(rows, rhs):
    """Exact solution of the 3x3 system rows . x = rhs, by Cramer's rule."""
    det = _dot(rows[0], _cross(rows[1], rows[2]))
    cols = list(zip(*rows))
    x = []
    for c in range(3):
        swapped = [rhs if k == c else cols[k] for k in range(3)]
        m = list(zip(*swapped))
        x.append(Fraction(_dot(m[0], _cross(m[1], m[2]))) / det)
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


def _altitude_lines(v):
    """(point, direction) of the four altitudes and the four face perpendiculars."""
    lines = []
    for l in range(4):
        i, j, k = (x for x in range(4) if x != l)
        n = _cross(_sub(v[j], v[i]), _sub(v[k], v[i]))
        # face orthocenter h: (h - a_i).(a_j - a_k) = (h - a_j).(a_k - a_i) = n.(h - a_i) = 0
        rows = [_sub(v[j], v[k]), _sub(v[k], v[i]), n]
        h = _solve(rows, [_dot(rows[0], v[i]), _dot(rows[1], v[j]), _dot(n, v[i])])
        lines += [(v[l], n), (h, n)]
    return lines


def lattice_tetrahedra(count=120, seed=11, bound=3):
    rng = np.random.default_rng(seed)
    out = [[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    while len(out) < count:
        v = rng.integers(-bound, bound + 1, size=(4, 3)).tolist()
        b = [_sub(v[0], v[j]) for j in (1, 2, 3)]
        if _dot(b[0], _cross(b[1], b[2])) != 0:
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
        cond = float(np.linalg.cond(t.edges[0, 1:]))
        checks = (
            (t.monge, m, max(length, r) * cond),
            (t.lambdas, lam, r * r * cond),
            (t.q_star.matrix, q, r * r * length * length),
            (t.rhs, rhs, r**6),
        )
        for got, exact, scale in checks:
            assert _ulps(got, exact, scale) <= ULPS, v
