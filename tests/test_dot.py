"""The one inner product: `dot` is the sum in coordinate order, as is
`QuadForm3.bilinear` in row order, so every output built only from them has
the same bits on every CPU and BLAS kernel."""

import ast
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
    QuadricKind,
    Tetrahedron,
    altitude,
    build,
    dot,
    line_line_meet,
    ortho_perpendicular,
    section,
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
    """`float.hex` of outputs that only `dot` and `QuadForm3.bilinear` sum:
    the bases of the four face perpendiculars, the offsets of the four face
    planes, the points where each altitude meets each face perpendicular, and
    the kind, quad, linear and constant of the section of each face plane, on
    the README tetrahedron and on seeded uniform ones."""
    figures = [[[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]]]
    figures += np.random.default_rng(7).uniform(-5.0, 5.0, (12, 4, 3)).tolist()
    out = []
    for v in figures:
        t, a = Tetrahedron(v), np.array(v, dtype=float)
        qd = build(t)
        assert qd.kind is QuadricKind.HYPERBOLOID
        perps = [ortho_perpendicular(t, l) for l in range(4)]
        out += [x.hex() for p in perps for x in p.base.tolist()]
        for i, j, k in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
            face = Plane3.from_point_normal(a[i], np.cross(a[j] - a[i], a[k] - a[i]))
            sec = section(qd, face)
            out += [face.offset.hex(), sec.kind.value, float(sec.constant).hex()]
            out += [x.hex() for x in sec.quad.ravel().tolist() + sec.linear.tolist()]
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


#: numpy's entry points into BLAS, besides everything under `np.linalg`
BLAS_CALLS = ("dot", "matmul", "einsum", "inner", "tensordot")


def blas_uses(source: str) -> list:
    """Line numbers of each `@` and of each call to a numpy BLAS entry point
    or to anything under `np.linalg` in the Python source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(node.lineno)
        elif isinstance(node, ast.Call):
            module, _, name = ast.unparse(node.func).partition(".")
            if module in ("np", "numpy") and (name in BLAS_CALLS or name.startswith("linalg.")):
                found.append(node.lineno)
    return sorted(found)


def test_blas_uses_finds_each_form():
    source = """
a @ b
a @= b
np.dot(a, b)
numpy.matmul(a, b)
np.einsum("i,i", a, b)
np.inner(a, b)
np.tensordot(a, b, 1)
np.linalg.eigh(m)
a.dot(b)
np.cross(a, b)
"""
    assert blas_uses(source) == list(range(2, 10))


@pytest.mark.parametrize("module", ["core.py", "tetra.py", "altquadric.py"])
def test_the_float_path_calls_no_blas(module):
    # their outputs must not depend on the BLAS kernel that numpy loads
    path = Path(tetraquadric.__file__).resolve().parent / module
    assert blas_uses(path.read_text()) == []
