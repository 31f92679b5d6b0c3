"""File formats, analysis reports, mesh and SVG emission, and class-targeted
random tetrahedron generators."""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import altquadric, tetra
from .altquadric import AltitudeQuadric, QuadricKind
from .core import DEFAULT_TOL, TINY, Tolerance, _frozen, norm, orthocenter2d
from .errors import (
    DegenerateForm,
    DegenerateTetrahedron,
    EmptyFamily,
    InternalInvariantError,
    NotHyperboloid,
    ParseError,
)
from .porism import Ellipse3, InscribedTriangle
from .tetra import TetraKind, Tetrahedron


def parse_tetrahedron(text: str) -> Tetrahedron:
    """Read a tetrahedron from a JSON document {"vertices": [[x,y,z] x4]}."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed, or an integer past Python's digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise ParseError('document must be an object with a "vertices" field')
    verts = doc["vertices"]
    if not isinstance(verts, list) or [isinstance(v, list) and len(v) for v in verts] != [3] * 4:
        raise ParseError("vertices must be four [x, y, z] triples")
    big, finite = sys.float_info.max, True
    for x in (*verts[0], *verts[1], *verts[2], *verts[3]):
        if type(x) is not float and type(x) is not int:  # no str, bool or null
            raise ParseError("vertex coordinates must be numbers")
        finite = finite and abs(x) <= big  # exact on big integers
    if not finite:
        raise ParseError("vertex coordinates must be finite")
    return Tetrahedron(verts)


def serialize_tetrahedron(t: Tetrahedron) -> str:
    return json.dumps({"vertices": [list(v) for v in t.vertices]})


@dataclass(frozen=True)
class AnalysisReport:
    """Every construction of `analyze` and its residuals, as JSON-ready fields."""

    vertices: list
    tetra_class: str
    orthogonal_pair: Optional[list]
    monge: list
    centroid: list
    circumcenter: list
    orthocenter: Optional[list]
    euler_direction: Optional[list]
    lambdas: list
    opposite_edge_dots: list
    q_star: list
    rhs: float
    quadric_kind: str
    residuals: dict
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The fields in declaration order, as a plain dict."""
        return dict(vars(self))


def class_fields(cls: tetra.TetraClass) -> dict:
    """The JSON fields `tetra_class` and `orthogonal_pair` (two [i, j] edges or
    None) that `analyze` reports and the `classify` command prints."""
    pair = cls.orthogonal_pair
    edges = [list(e) for e in pair] if pair else None
    return {"tetra_class": cls.kind.value, "orthogonal_pair": edges}


#: Sample steps along each altitude, in longest edges.
_ALTITUDE_STEPS = tuple(float(k) for k in range(-3, 4))


def altitude_level_residual(t: Tetrahedron) -> float:
    """Max relative deviation of altitude points from Q*(p - M) = rhs.

    Each altitude l is sampled at the seven points a_l + k s n_l, k = -3..3,
    with s the longest edge and n_l the unit normal of the opposite face.  With
    c_l = a_l - M, the deviation along the altitude is the quadratic in k
    (Q*(c_l) - rhs) + k 2s Q*(c_l, n_l) + k^2 s^2 Q*(n_l), so each altitude
    costs three form evaluations on Python floats.  Because k runs
    symmetrically these are the points `altitude(t, l).point_at(k s)`.
    The residual is normalized by max(|rhs|, max |lambda_0j|^3), the natural
    sixth-power length scale of the equation.  It is 0 when every lambda_0j is 0
    (a right-angled corner at a_0); a scale that underflows is raised.
    """
    r, s, form = t._rhs, t.edge_scale(), t._q_star.bilinear
    devs = []
    for c, n in zip(t._centered, t._unit_normals):
        level, slope, curve = form(c, c) - r, 2.0 * s * form(c, n), s * s * form(n, n)
        devs += [abs(level + k * slope + k * k * curve) for k in _ALTITUDE_STEPS]
    lam = max(map(abs, t._lambdas))
    denom = max(abs(r), lam * lam * lam)
    # an overflow shows up as a non-finite value, which max() alone could skip
    if not (math.isfinite(denom) and all(map(math.isfinite, devs))):
        raise DegenerateForm("the altitude residual overflows at this scale")
    if denom < TINY and any(t._lambdas):
        raise DegenerateForm("the altitude residual underflows at this scale")
    return max(devs) / denom if denom else 0.0


def analyze(t: Tetrahedron, tol: Tolerance = DEFAULT_TOL) -> AnalysisReport:
    """Aggregate every construction and its residuals into one report.

    One residual per computed quantity, over the power of the longest edge L that
    it carries: `pluecker` (sum of the opposite-edge dots, L^2), `monge_midplanes`
    (the Monge point m's largest midplane distance, L), `euler_midpoint` (centroid
    less the midpoint of m and the circumcenter c, L), `circumdistance_spread`
    (spread of c's vertex distances, L), `altitude_incidence` (dimensionless).
    """
    cls = tetra.classify(t, tol)
    # `build` first: it rejects the scales where the Euler line would overflow
    qd = altquadric.build(t, tol)
    m, g, c, h, euler = tetra._points(t, cls.kind, tol)
    s = t.edge_scale()

    # m is the origin of the Monge frame, so its distance from each plane is |offset|
    midplane_res = max(abs(p.offset) for p in tetra._midplanes(t))
    c0, c1, c2 = c
    circum_d = [math.hypot(x - c0, y - c1, z - c2) for x, y, z in t.vertices.tolist()]
    residuals = {
        "pluecker": abs(tetra.pluecker_residual(t)) / s / s,
        "monge_midplanes": midplane_res / s,
        "euler_midpoint": math.hypot(*[x - 0.5 * (y + z) for x, y, z in zip(g, c, m)]) / s,
        "circumdistance_spread": (max(circum_d) - min(circum_d)) / s,
        "altitude_incidence": altitude_level_residual(t),
    }
    warnings = []
    if cls.warning:
        warnings.append(cls.warning)
    if residuals["monge_midplanes"] > tol.gate(100.0):
        warnings.append("monge point residual above gate")

    return AnalysisReport(
        vertices=t.vertices.tolist(),
        **class_fields(cls),
        monge=m,
        centroid=g,
        circumcenter=c,
        orthocenter=h,
        euler_direction=euler,
        lambdas=list(t._lambdas),
        opposite_edge_dots=list(t._dots),
        q_star=list(qd.form.coefficients),
        rhs=qd.rhs,
        quadric_kind=qd.kind.value,
        residuals=residuals,
        warnings=warnings,
    )


@dataclass(frozen=True, eq=False)
class Mesh:
    """Vertices (n, 3) and zero-based vertex indices of the triangles (m, 3)."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        tris = np.asarray(self.triangles)
        if tris.size and tris.dtype.kind not in "iu":
            raise InternalInvariantError("triangle indices must be integers")
        tris = tris.astype(np.int64, copy=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        if verts.shape[1:] != (3,) or tris.shape[1:] != (3,):
            raise InternalInvariantError("a mesh needs (n, 3) vertices and (m, 3) triangles")
        if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
            raise InternalInvariantError("triangle index out of range")


def quadric_mesh(qd: AltitudeQuadric, extent: float, resolution: int) -> Mesh:
    """Parametric mesh of the one-sheet hyperboloid in its principal frame.

    `extent` bounds the coordinate along the hyperboloid axis.  Vertex
    `j * resolution + i` sits at angle 2 pi i / resolution on ring j.  The
    class and the sign of `rhs` choose the axes: Q* has trace 0 and det Q* =
    -rhs V^2 / 4, V = e_1 . (e_2 x e_3), so two eigenvalues share rhs's sign.
    Each vertex p meets Q*(p - M) = rhs within 4 eps (L^4 r (r + |p|) + L^6),
    r = |p - M| and L the longest edge, in max norm.  Vertices that leave the
    double range, as a zero eigenvalue's do, raise `DegenerateForm`.
    """
    if qd.kind is not QuadricKind.HYPERBOLOID:
        raise NotHyperboloid("meshes are generated for the hyperboloid case")
    if not 0.0 < extent < math.inf:
        raise ValueError("extent must be finite and positive")
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    frame = qd.form.frame
    # values descend: rows 0 and 1 share rhs's sign when rhs > 0, else rows 1 and 2
    rows = [0, 1, 2] if qd.rhs > 0 else [1, 2, 0]
    e_a, e_b, e_c = frame.axes[rows]

    n = resolution
    th = 2.0 * math.pi * np.arange(n) / n
    # 1-D samples through `math`, so that every vertex equals the pointwise
    # formula to the bit (numpy's cosh and sinh can differ in the last bit)
    cos_t, sin_t = (np.array(list(map(f, th.tolist()))) for f in (math.cos, math.sin))
    # an infinite semi-axis (a zero eigenvalue), an inf u_max or an overflowing
    # vertex shows up as a non-finite vertex
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a, b, c = 1.0 / np.sqrt(np.abs(frame.values[rows] / qd.rhs))
        u_max = math.asinh(extent / c)
        u = -u_max + 2.0 * u_max * np.arange(n + 1) / n
        cosh_u, sinh_u = (np.array(list(map(f, u.tolist()))) for f in (math.cosh, math.sinh))
        # coordinates (3, n + 1, n), the long ring axis innermost
        verts = (
            qd.center[:, None, None]
            + (a * cos_t) * cosh_u[:, None] * e_a[:, None, None]
            + (b * sin_t) * cosh_u[:, None] * e_b[:, None, None]
            + (c * sinh_u)[:, None] * e_c[:, None, None]
        )
    if not np.isfinite(verts).all():
        raise DegenerateForm("the mesh leaves the double range at this extent")
    tris = _grid(n) if n <= _GRID_CACHE_RES else _build_grid(n)
    return Mesh(np.ascontiguousarray(verts.reshape(3, -1).T), tris)


#: Largest resolution whose triangles and OBJ face text are kept between calls.
#: One grid is kept at a time, so at most about 3 MB of indices and 3 MB of text.
_GRID_CACHE_RES = 256


#: The array in `_grid`'s cache, known without calling `_grid`, which would
#: evict it for another resolution.
_cached_grid: Optional[np.ndarray] = None


@functools.lru_cache(maxsize=1)
def _grid(n: int) -> np.ndarray:
    """`_build_grid(n)`, shared by every mesh of that resolution."""
    global _cached_grid
    _cached_grid = _build_grid(n)
    return _cached_grid


def _build_grid(n: int) -> np.ndarray:
    """Read-only triangles (2 n^2, 3) of the `quadric_mesh` grid at resolution n."""
    i0 = np.arange(n * n, dtype=np.int64).reshape(n, n)
    i1 = i0 - np.arange(n) + (np.arange(n) + 1) % n
    return _frozen(np.stack([i0, i1, i1 + n, i0, i1 + n, i0 + n], axis=-1).reshape(-1, 3))


@functools.lru_cache(maxsize=1)
def _grid_faces(n: int) -> str:
    """OBJ face lines of `_grid(n)`; they depend on the resolution only."""
    return "".join(_face_blocks(_grid(n)))


def _face_blocks(tris: np.ndarray) -> Iterator[str]:
    # a block of rows at a time, so that no Python number or one-based index outlives it
    for b in np.split(tris, range(4096, len(tris), 4096)):
        yield ("f %d %d %d\n" * len(b)) % tuple((b + 1).ravel().tolist())


def obj_blocks(mesh: Mesh) -> Iterator[str]:
    """The text of `mesh_to_obj` in blocks of lines, vertex blocks first."""
    from ._objtext import BLOCK, block_lines  # compiled on first use: most processes write no mesh

    v, f = mesh.vertices, mesh.triangles
    for b in np.split(v, range(BLOCK, len(v), BLOCK)):
        yield block_lines(b).decode("ascii")
    if f is _cached_grid and not f.flags.writeable:
        yield _grid_faces(math.isqrt(len(f) // 2))
    else:
        yield from _face_blocks(f)


def mesh_to_obj(mesh: Mesh) -> str:
    """OBJ text: one `v` line per vertex, then one `f` line per triangle.

    The text is byte for byte `"v %.12g %.12g %.12g\\n"` of each vertex and
    `"f %d %d %d\\n"` of each triangle's one-based indices.
    """
    return "".join(obj_blocks(mesh))


#: Draws a rejection loop may make before it gives up; seeds 0..2999 need at most 5.
_MAX_DRAWS = 1000


def _random_rigid_motion(rng: np.random.Generator):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.uniform(-5.0, 5.0, size=3)
    return q, shift


def _random_base_triangle(rng: np.random.Generator) -> np.ndarray:
    for _ in range(_MAX_DRAWS):
        pts = rng.uniform(-5.0, 5.0, size=(3, 2))
        d1, d2 = pts[1] - pts[0], pts[2] - pts[0]
        area2 = abs(d1[0] * d2[1] - d1[1] * d2[0])
        if area2 > 2.0:
            return pts
    raise InternalInvariantError(f"no base triangle in {_MAX_DRAWS} draws")


def random_tetra(
    kind: TetraKind | str, seed: int, tol: Tolerance = DEFAULT_TOL
) -> Tetrahedron:
    """Deterministic per-seed generator of a tetrahedron of the requested class.

    Generic tetrahedra are rejection-sampled; the other classes place the apex
    above a point of the base plane chosen so that the wanted set of
    opposite-edge dot products vanishes exactly: a point on one base altitude
    (semi-orthocentric) or the base orthocenter itself (orthocentric).
    """
    kind = TetraKind(kind)
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        t = _draw_tetra(kind, rng)
        if t is not None and tetra.classify(t, tol).kind is kind:
            return t
    raise InternalInvariantError(f"no {kind.value} tetrahedron in {_MAX_DRAWS} draws")


def _draw_tetra(kind: TetraKind, rng: np.random.Generator) -> Optional[Tetrahedron]:
    if kind is TetraKind.GENERIC:
        verts = rng.uniform(-5.0, 5.0, size=(4, 3))
        b = verts[0] - verts[1:]
        if abs(np.linalg.det(b)) < 1e-2 * max(map(norm, b)) ** 3:
            return None
        t = Tetrahedron(verts)
        # generic with a margin: every opposite-edge dot above ten times its gate
        gates = tetra._opposite_gates(t, DEFAULT_TOL)
        return t if all(abs(d) > 10.0 * g for d, g in zip(t._dots, gates)) else None

    base = _random_base_triangle(rng)
    ortho = orthocenter2d(tuple(np.column_stack((base, np.zeros(3)))))[:2]
    if kind is TetraKind.ORTHOCENTRIC:
        foot = ortho
    else:
        # a point on exactly one base altitude, away from the orthocenter
        v = int(rng.integers(3))
        along = base[v] - ortho
        if norm(np.append(along, 0.0)) < 0.5:
            return None
        u = rng.uniform(0.2, 0.8)
        foot = ortho + u * along
    height = rng.uniform(1.0, 4.0) * (1.0 if rng.integers(2) else -1.0)
    verts = np.zeros((4, 3))
    verts[:3, :2] = base
    verts[3] = np.array([foot[0], foot[1], height])
    rot, shift = _random_rigid_motion(rng)
    verts = verts @ rot.T + shift
    try:
        return Tetrahedron(verts)
    except DegenerateTetrahedron:
        return None


def emit_svg_porism(family: list[InscribedTriangle], ellipse: Ellipse3) -> str:
    """SVG figure with the section ellipse, the triangle family, and the
    common orthocenter mark."""
    if not family:
        raise EmptyFamily("need at least one triangle")
    # lengths in units of the largest semi-axis coordinate, so that no square
    # overflows or underflows at extreme section heights
    s = float(np.max(np.abs(ellipse.semi_axes)))
    axes = np.array(ellipse.semi_axes) / s
    rx, ry = np.linalg.norm(axes, axis=1)
    pad = 1.15 * max(rx, ry)
    size = 480.0
    k = size / (2.0 * pad)
    d = (np.array([tri.vertices for tri in family]) - ellipse.center) / s
    # y flipped for SVG screen coordinates
    xy = np.stack(
        [size / 2 + k * (d @ axes[0]) / rx, size / 2 - k * (d @ axes[1]) / ry], axis=-1
    )
    polygon = (
        '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="none" '
        'stroke="steelblue" stroke-width="0.8"/>\n'
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">\n'
        f'<ellipse cx="{size / 2:.2f}" cy="{size / 2:.2f}" rx="{k * rx:.2f}" '
        f'ry="{k * ry:.2f}" fill="none" stroke="black" stroke-width="1.5"/>\n'
        + (polygon * len(family)) % tuple(xy.ravel().tolist())
        + f'<circle cx="{size / 2:.2f}" cy="{size / 2:.2f}" r="3" fill="crimson"/>\n'
        "</svg>\n"
    )
