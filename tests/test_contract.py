"""The CLI's exit-code contract under fuzzing: every command answers (exit 0)
or refuses the input (exit 2), never fails (exit 1) or breaks an invariant
(exit 3), and an answer carries only finite numbers.

Tetrahedra come from `random_tetra` as they are, as slivers, near a class
gate, far from the origin and scaled anywhere in 1e-300..1e300; extents and
heights anywhere in 1e-300..1e308.  Each command runs in-process with every
warning raised as an error, so a numpy overflow warning fails the test too.
The same draws that mesh are checked against the quadric computed exactly in
`Fraction` from the binary input.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetraquadric import TetraKind, Tetrahedron, build, q_star, quadric_mesh, random_tetra
from tetraquadric.cli import main
from tetraquadric.errors import DegenerateTetrahedron, GeometryError

from test_exact_oracle import exact_quadric, _form_value, _sub
from test_io_cli import NEAR_RANK_2_HYPERBOLOIDS

README_TETRA = np.array([[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]], float)
NON_FINITE_JSON = re.compile(r"NaN|Infinity")
NON_FINITE_TEXT = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
COMMANDS = ("analyze", "classify", "quadric", "porism")
EPS = Fraction(np.finfo(float).eps)


@st.composite
def vertices(draw) -> np.ndarray:
    """A `random_tetra`, then one of five moves, each with N(0, 1) noise drawn
    from a seeded generator."""
    v = random_tetra(draw(st.sampled_from(list(TetraKind))), draw(st.integers(0, 2999)))
    v = v.vertices.copy()
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=3)
    move = draw(st.sampled_from(["none", "sliver", "near_gate", "shift", "scale"]))
    if move == "sliver":  # vertex 3 next to the centroid of the face 012
        v[3] = v[:3].mean(axis=0) + 10 ** draw(st.floats(-10, -1)) * noise
    elif move == "near_gate":
        v[3] += 10 ** draw(st.floats(-11, -8)) * noise
    elif move == "shift":
        v += 10 ** draw(st.floats(0, 8)) * noise
    elif move == "scale":
        v *= 10 ** draw(st.floats(-300, 300))
    return v


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    return code, out.getvalue()


def _porism_form(v: np.ndarray) -> str:
    """The tetrahedron's own `Q*`, which is a cone for a generic one; `nan`
    coefficients when the vertices make no tetrahedron."""
    try:
        coeffs = q_star(Tetrahedron(v)).coefficients
    except DegenerateTetrahedron:
        coeffs = (float("nan"),) * 6
    return ",".join(map(repr, map(float, coeffs)))


def _argv(command: str, tetra: Path, v: np.ndarray, extent: str, rho: str):
    """The command line of `command`, and the figure file it writes, if any."""
    if command == "quadric":
        obj = tetra.with_name("q.obj")
        return [command, str(tetra), "--obj", str(obj), "--res", "8", "--extent", extent], obj
    if command == "porism":
        svg = tetra.with_name("p.svg")
        form = f"--form={_porism_form(v)}"
        return [command, form, "--rho", rho, "--count", "5", "--svg", str(svg)], svg
    return [command, str(tetra)], None


@settings(max_examples=175, deadline=None, derandomize=True)
@given(v=vertices(), log_extent=st.floats(-300.0, 308.0), log_rho=st.floats(-300.0, 308.0))
# the mesh and the porism figure overflow here, which once wrote NaN files with exit 0
@example(v=README_TETRA, log_extent=308.0, log_rho=308.0)
def test_cli_exits_0_with_finite_output_or_2(v, log_extent, log_rho):
    with tempfile.TemporaryDirectory() as tmp:
        tetra = Path(tmp) / "t.json"
        tetra.write_text(json.dumps({"vertices": v.tolist()}))
        for command in COMMANDS:
            argv, figure = _argv(command, tetra, v, repr(10**log_extent), repr(10**log_rho))
            code, stdout = _run(argv)
            assert code in (0, 2), argv
            if code == 0:
                assert not NON_FINITE_JSON.search(stdout), argv
                if figure is not None:
                    assert not NON_FINITE_TEXT.search(figure.read_text()), argv


@settings(max_examples=175, deadline=None, derandomize=True)
@given(v=vertices(), log_extent=st.floats(-300.0, 308.0))
# middle eigenvalues of 7.2e-17 and 1.4e-13 of the largest; `eigh` gets the first's sign wrong
@example(v=np.array(NEAR_RANK_2_HYPERBOLOIDS[0]), log_extent=0.0)
@example(v=np.array(NEAR_RANK_2_HYPERBOLOIDS[0]), log_extent=3.0)
@example(v=np.array(NEAR_RANK_2_HYPERBOLOIDS[1]), log_extent=0.0)
@example(v=np.array(NEAR_RANK_2_HYPERBOLOIDS[1]), log_extent=3.0)
def test_mesh_vertices_lie_on_the_exact_quadric(v, log_extent):
    # Q*(p - M) - rhs, exact at each float vertex p, with M, Q* and rhs exact
    # from the binary input, within 4 eps of its operands' scale: the vertex's
    # own rounding, eps |p| through the gradient, and the forward error of the
    # dots that Q* and rhs are made of, eps L^4 and eps L^6 for the longest edge L
    try:
        t = Tetrahedron(v)
        mesh = quadric_mesh(build(t), 10**log_extent, 8)
    except GeometryError:
        return
    _, _, m, _, q, rhs = exact_quadric([[Fraction(x) for x in p] for p in v.tolist()])
    length = Fraction(t.edge_scale())
    for p in mesh.vertices.tolist():
        p = [Fraction(x) for x in p]
        d, size = _sub(p, m), max(map(abs, p))
        reach = max(map(abs, d))
        bound = 4 * EPS * (length**4 * reach * (reach + size) + length**6)
        assert abs(_form_value(q, d) - rhs) <= bound, (v.tolist(), log_extent)
