"""The one inner product: `dot` is the sum in coordinate order, so every output
built only from it has the same bits on every CPU and BLAS kernel."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tetraquadric
from tetraquadric import (
    Plane3,
    Tetrahedron,
    altitude,
    dot,
    line_line_meet,
    ortho_perpendicular,
)


def test_dot_is_the_coordinate_order_sum_to_the_bit():
    u, v = np.random.default_rng(32).standard_normal((2, 10_000, 3))
    want = [(a[0] * b[0] + a[1] * b[1] + a[2] * b[2]).hex() for a, b in zip(u.tolist(), v.tolist())]
    assert [dot(a, b).hex() for a, b in zip(u.tolist(), v.tolist())] == want
    assert [float(dot(a, b)).hex() for a, b in zip(u, v)] == want


@pytest.mark.parametrize(
    "u, v",
    [([1.0, 2.0], [3.0, 4.0]), ([1.0, 2.0, 3.0], [1.0, 2.0]), ([1.0] * 4, [1.0] * 4),
     (np.ones(2), np.ones(2)), (np.ones(4), np.ones(3))],
)
def test_dot_wants_two_3_vectors(u, v):
    with pytest.raises(ValueError):
        dot(u, v)


def dot_only_outputs() -> list:
    """`float.hex` of outputs that only `dot` sums: the bases of the four face
    perpendiculars, the offsets of the four face planes and the points where
    each altitude meets each face perpendicular, on the README tetrahedron and
    on seeded uniform ones."""
    figures = [[[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]]]
    figures += np.random.default_rng(7).uniform(-5.0, 5.0, (12, 4, 3)).tolist()
    out = []
    for v in figures:
        t, a = Tetrahedron(v), np.array(v, dtype=float)
        perps = [ortho_perpendicular(t, l) for l in range(4)]
        out += [x.hex() for p in perps for x in p.base.tolist()]
        for i, j, k in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
            out.append(Plane3.from_point_normal(a[i], np.cross(a[j] - a[i], a[k] - a[i])).offset.hex())
        for l in range(4):
            for p in perps:
                point = line_line_meet(altitude(t, l), p).point
                out.append(None if point is None else [x.hex() for x in point.tolist()])
    return out


def test_dot_only_outputs_are_the_same_under_another_blas_kernel():
    # OpenBLAS picks its kernel at start-up; Nehalem's has no fused multiply-add
    src = str(Path(tetraquadric.__file__).resolve().parent.parent)
    here = str(Path(__file__).resolve().parent)
    path = [src, here] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem", "PYTHONPATH": os.pathsep.join(path)}
    code = "import json, test_dot; print(json.dumps(test_dot.dot_only_outputs()))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert json.loads(run.stdout) == dot_only_outputs()
