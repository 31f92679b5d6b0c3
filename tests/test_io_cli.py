import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from tetraquadric import (
    Line3,
    Mesh,
    Plane3,
    QuadricKind,
    TetraKind,
    Tetrahedron,
    altitude,
    analyze,
    asymptotic_cone,
    build,
    classify,
    edge_vector,
    emit_svg_porism,
    ellipse_section,
    evaluate,
    mesh_to_obj,
    midplane,
    monge_point,
    noteworthy,
    parse_tetrahedron,
    porism_family,
    q_star,
    quadric_mesh,
    random_tetra,
    reporting,
    rhs,
    serialize_tetrahedron,
)
import tetraquadric
from tetraquadric import altquadric, tetra
from tetraquadric.cli import _build_parser, main
from tetraquadric.errors import (
    DegenerateForm,
    DegenerateTetrahedron,
    EmptyFamily,
    InternalInvariantError,
    NotHyperboloid,
    ParseError,
)
from tetraquadric.forms import QuadForm3


def test_parse_examples():
    t = parse_tetrahedron('{"vertices":[[0,0,0],[1,0,0],[0,1,0],[0,0,1]]}')
    np.testing.assert_array_equal(t.vertices[3], [0, 0, 1])
    with pytest.raises(DegenerateTetrahedron):
        parse_tetrahedron('{"vertices":[[0,0,0],[1,0,0],[2,0,0],[0,0,1]]}')
    t = parse_tetrahedron('{"vertices":[[0,0,0],[4,0,0],[1,3,0],[2,1,2]]}')
    assert classify(t).kind is TetraKind.GENERIC


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"vertices": [[0,0,0],[1,0,0],[0,1,0]]}',
        '{"vertices": [[0,0,0],[1,0,0],[0,1,0],[0,0,"x"]]}',
        '{"vertices": [[0,0,0],[1,0,0],[0,1,0],[0,0,null]]}',
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_tetrahedron(text)


@pytest.mark.parametrize(
    "vertices",
    [
        "5",
        "[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0]]",
        "[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]",
        '[[0, 0, 0], [1, 0, 0], [0, 1, 0], ["x", 0]]',
    ],
    ids=["number", "two_vector", "five_vertices", "string_in_a_two_vector"],
)
def test_parse_wants_four_triples_before_it_reads_a_coordinate(vertices):
    with pytest.raises(ParseError, match=r"four \[x, y, z\] triples"):
        parse_tetrahedron(f'{{"vertices": {vertices}}}')


@pytest.mark.parametrize("scale", [1, 10**6, 2**70 + 1], ids=["1", "1e6", "2^70+1"])
def test_integer_and_float_coordinates_give_one_record_and_one_report(scale):
    # the README tetrahedron written with integers and with the floats they round
    # to, "x.0" at the small scales; 2^70 + 1 is past int64 and rounds to 2^70
    corners = [[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]]
    ints = json.dumps({"vertices": [[scale * x for x in p] for p in corners]})
    floats = json.dumps({"vertices": [[float(scale * x) for x in p] for p in corners]})
    assert ints != floats
    a, b = parse_tetrahedron(ints), parse_tetrahedron(floats)
    assert a.vertices.dtype == b.vertices.dtype == np.float64
    assert a.vertices.tobytes() == b.vertices.tobytes()
    record = lambda t: repr({k: v for k, v in vars(t).items() if k not in ("vertices", "_classes")})
    assert record(a) == record(b)
    assert json.dumps(analyze(a).to_dict()) == json.dumps(analyze(b).to_dict())


def test_round_trip():
    for s in range(5):
        t = random_tetra(TetraKind.GENERIC, s)
        t2 = parse_tetrahedron(serialize_tetrahedron(t))
        np.testing.assert_array_equal(t.vertices, t2.vertices)


def test_analyze_fixtures(t_gen, t_orth, t_semi):
    rep = analyze(t_gen)
    assert rep.tetra_class == "generic"
    np.testing.assert_allclose(rep.monge, [1.5, 1, 1.25], atol=1e-12)
    assert rep.rhs == pytest.approx(1.5)
    assert rep.quadric_kind == "hyperboloid"
    assert rep.orthocenter is None

    rep = analyze(t_orth)
    assert rep.tetra_class == "orthocentric"
    np.testing.assert_allclose(rep.orthocenter, [1, 1, 1], atol=1e-12)
    assert rep.quadric_kind == "trivial"

    rep = analyze(t_semi)
    assert rep.tetra_class == "semi_orthocentric"
    assert rep.quadric_kind == "plane_pair"


def test_every_exported_record_has_a_docstring():
    # without one, a dataclass's __doc__ is its signature, built at every import
    exported = vars(tetraquadric).values()
    records = [o for o in exported if isinstance(o, type) and dataclasses.is_dataclass(o)]
    assert len(records) == 17
    for r in records:
        assert r.__doc__ and not r.__doc__.startswith(r.__name__ + "("), r.__name__


#: One residual per computed quantity: d, m, the centroid against m and c, c,
#: and Q* with rhs and m.
RESIDUAL_KEYS = [
    "pluecker",
    "monge_midplanes",
    "euler_midpoint",
    "circumdistance_spread",
    "altitude_incidence",
]


def test_analyze_residuals_below_gates(t_gen, t_orth, t_semi, t_tri):
    for t in (t_gen, t_orth, t_semi, t_tri):
        rep = analyze(t)
        assert list(rep.residuals) == RESIDUAL_KEYS
        assert rep.residuals["pluecker"] <= 1e-9
        assert rep.residuals["monge_midplanes"] <= 1e-9
        assert rep.residuals["euler_midpoint"] <= 1e-9
        assert rep.residuals["altitude_incidence"] <= 1e-8
        assert all(v >= 0 for v in rep.residuals.values())
        assert not rep.warnings
        # serializable
        json.dumps(rep.to_dict())


def planted(t: Tetrahedron, **stored) -> Tetrahedron:
    """A fresh record of t's vertices whose named stored quantities are replaced;
    every reader then reads the planted floats."""
    u = Tetrahedron(t.vertices)
    vars(u).update(stored)
    return u


def moved_monge(t: Tetrahedron, step) -> dict:
    """The float record of the Monge point moved by the vector step: m - a_0 and
    every a_i - m."""
    return dict(
        _m_rel=(np.array(t._m_rel) + step).tolist(),
        _centered=(np.array(t._centered) - step).tolist(),
    )


def faults(t: Tetrahedron) -> dict:
    """Stored quantities of t moved off their values by about 1e-10 of their size."""
    step = 1e-10 * t.edge_scale() * np.array([1.0, 2.0, 2.0]) / 3.0
    q = q_star(t).matrix
    off = np.zeros((3, 3))
    off[0, 1] = off[1, 0] = 1e-10 * np.max(np.abs(q))
    return {
        "m": moved_monge(t, step),
        "c": dict(_c_rel=(np.array(t._c_rel) + step).tolist()),
        "Q* scaled": dict(_q_star=QuadForm3.from_matrix(q * (1 + 1e-10))),
        "Q* (0,1)": dict(_q_star=QuadForm3.from_matrix(q + off)),
        "rhs": dict(_rhs=rhs(t) * (1 + 1e-10)),
        "d_1": dict(_dots=[t._dots[0] * (1 + 1e-10), *t._dots[1:]]),
    }


def test_each_residual_catches_a_planted_fault():
    # a residual reacts to a fault when it reads above 10x its clean maximum:
    # each fault is caught, and each key of the report catches some fault
    ts = [random_tetra("generic", seed) for seed in range(1000, 1200)]
    reads = [analyze(t).residuals for t in ts]
    clean = {k: max(r[k] for r in reads) for k in reads[0]}
    worst = {name: dict.fromkeys(clean, 0.0) for name in faults(ts[0])}
    for t in ts:
        for name, stored in faults(t).items():
            for k, v in analyze(planted(t, **stored)).residuals.items():
                worst[name][k] = max(worst[name][k], v)
    reacts = {name: [k for k in clean if w[k] > 10 * clean[k]] for name, w in worst.items()}
    assert {k for keys in reacts.values() for k in keys} == set(clean)
    assert reacts == {
        "m": ["monge_midplanes", "euler_midpoint", "altitude_incidence"],
        "c": ["euler_midpoint", "circumdistance_spread"],
        "Q* scaled": ["altitude_incidence"],
        "Q* (0,1)": ["altitude_incidence"],
        "rhs": ["altitude_incidence"],
        "d_1": ["pluecker"],
    }


@pytest.mark.parametrize("kind", list(TetraKind))
def test_monge_point_off_its_midplanes_warns(kind):
    # the warning's gate is 100 rel_eps of the longest edge
    for seed in range(1000, 1020):
        t = random_tetra(kind, seed)
        edges = t.vertices[:, None] - t.vertices[None]
        i, j = np.unravel_index(np.argmax(np.linalg.norm(edges, axis=-1)), (4, 4))
        for k, warns in ((1e-6, True), (1e-10, False)):
            step = k * edge_vector(t, i, j)
            u = planted(t, **moved_monge(t, step))
            assert ("monge point residual above gate" in analyze(u).warnings) is warns


def test_far_from_the_origin_the_monge_point_stays_on_its_midplanes():
    # the midplanes are read in the Monge frame, so the shift's rounding of
    # world coordinates does not enter the residual
    for kind in TetraKind:
        for seed in range(1000, 1150):
            t = random_tetra(kind, seed)
            report = analyze(Tetrahedron(t.vertices + 1e9 * t.edge_scale()))
            assert "monge point residual above gate" not in report.warnings, (kind, seed)
            assert report.residuals["monge_midplanes"] <= 1e-12, (kind, seed)


def test_generic_analyze_computes_each_point_once(t_gen, monkeypatch):
    targets = {
        "solve": [(np.linalg, "solve")],
        "eigh": [(np.linalg, "eigh")],
        "Plane3": [(Plane3, "__post_init__")],
        "Line3": [(Line3, "__post_init__")],
        # every binding the library calls them through
        "monge_point": [(tetra, "monge_point"), (altquadric, "monge_point")],
        "build": [(altquadric, "build")],
    }
    calls = dict.fromkeys(targets, 0)
    for key, bindings in targets.items():
        for owner, name in bindings:

            def counted(*args, _key=key, _fn=getattr(owner, name), **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
    assert analyze(Tetrahedron(t_gen.vertices)).tetra_class == "generic"
    # construction solves no system: the Monge point and the circumcenter are
    # closed forms; no eigh: the quadric kind is the class's kind; one plane per
    # distinct midplane, and the altitude residual builds no line, so the only
    # line is the Euler line; `build` reads the Monge point once, and
    # `noteworthy` reads it from the record
    assert calls["solve"] == 0 and calls["eigh"] == 0
    assert calls["Plane3"] == 6 and calls["Line3"] <= 1
    assert calls["monge_point"] == 1 and calls["build"] == 1


@pytest.mark.parametrize("positive", [2, 1])
def test_figure_path_decomposes_the_form_once(positive, monkeypatch):
    v = np.array([[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]], float)
    if positive == 1:
        v = v[[0, 2, 1, 3]]  # swapping two vertices flips the signs of Q* and rhs
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    qd = build(Tetrahedron(v))
    quadric_mesh(qd, 3.0, 16)
    cone = asymptotic_cone(qd)
    porism_family(cone, 1.0, 12)
    ellipse_section(cone, 1.0)
    assert len(calls) == 1
    assert int(np.sum(cone.frame.values > 0.0)) == positive
    # q and -q cut the same ellipse: one of them reads the other's frame off
    # its own, the other decomposes afresh
    mine = ellipse_section(cone, 1.0)
    fresh = ellipse_section(QuadForm3.from_matrix(-cone.matrix), 1.0)
    assert len(calls) == 2
    np.testing.assert_allclose(mine.center, fresh.center, rtol=0, atol=1e-15)
    np.testing.assert_allclose(mine.semi_axes, fresh.semi_axes, rtol=0, atol=1e-14)


def test_quadric_mesh(t_gen, t_semi):
    qd = build(t_gen)
    mesh = quadric_mesh(qd, 3.0, 32)
    for v in mesh.vertices:
        assert abs(evaluate(qd.form, v - qd.center) - qd.rhs) <= 1e-6 * abs(qd.rhs)
    obj = mesh_to_obj(mesh)
    assert obj.count("\nf ") + obj.startswith("f ") == len(mesh.triangles)
    assert obj.count("v ") >= len(mesh.vertices)

    with pytest.raises(ValueError):
        quadric_mesh(qd, 3.0, 4)
    with pytest.raises(ValueError):
        quadric_mesh(qd, -1.0, 32)
    for extent in (math.nan, math.inf, -math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and positive"):
                quadric_mesh(qd, extent, 8)
    with pytest.raises(NotHyperboloid):
        quadric_mesh(build(t_semi), 3.0, 32)


def _reference_mesh(qd, extent, n):
    """Point by point, ring by ring, in the principal frame."""
    frame = qd.form.frame
    ratios = frame.values / qd.rhs
    pos = [r for r in range(3) if ratios[r] > 0]
    (neg,) = [r for r in range(3) if ratios[r] <= 0]
    a, b = (1.0 / math.sqrt(ratios[r]) for r in pos)
    c = 1.0 / math.sqrt(-ratios[neg])
    e_a, e_b, e_c = frame.axes[pos[0]], frame.axes[pos[1]], frame.axes[neg]
    u_max = math.asinh(extent / c)
    verts = []
    for jj in range(n + 1):
        u = -u_max + 2.0 * u_max * jj / n
        for ii in range(n):
            th = 2.0 * math.pi * ii / n
            verts.append(
                qd.center
                + a * math.cos(th) * math.cosh(u) * e_a
                + b * math.sin(th) * math.cosh(u) * e_b
                + c * math.sinh(u) * e_c
            )
    tris = []
    for jj in range(n):
        for ii in range(n):
            i0, i1 = jj * n + ii, jj * n + (ii + 1) % n
            tris += [(i0, i1, i1 + n), (i0, i1 + n, i0 + n)]
    return np.array(verts), np.array(tris)


def test_quadric_mesh_matches_reference_loop(t_gen):
    qd = build(t_gen)
    # res 64 is the benchmark's resolution
    for extent, n in ((3.0, 16), (0.5, 9), (2.0, 64)):
        mesh = quadric_mesh(qd, extent, n)
        verts, tris = _reference_mesh(qd, extent, n)
        assert mesh.vertices.shape == ((n + 1) * n, 3)
        assert mesh.vertices.flags.c_contiguous
        assert mesh.triangles.shape == (2 * n * n, 3)
        np.testing.assert_array_equal(mesh.vertices, verts)
        np.testing.assert_array_equal(mesh.triangles, tris)


@pytest.mark.parametrize("kind", list(TetraKind))
@pytest.mark.parametrize("scale", [0.1, 1.0, 1e3, 1e6])
def test_analyze_residuals_match_reference_loop(kind, scale):
    eps = np.finfo(float).eps
    for seed in range(5):
        t = Tetrahedron(scale * random_tetra(kind, seed).vertices)
        m, q, r, s = monge_point(t), q_star(t), rhs(t), t.edge_scale()
        res = analyze(t).residuals["monge_midplanes"]
        # the twelve ordered midplanes in the Monge frame, where m is the origin:
        # b_ij . x = b_ij . ((a_k - m) + (a_l - m)) / 2, summed in coordinate order;
        # each plane appears twice, so six give the same max
        c = t._centered
        pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
        planes = []
        for i, j in pairs:
            k, l = (x for x in range(4) if x not in (i, j))
            b = edge_vector(t, i, j).tolist()
            planes.append(Plane3(b, 0.5 * sum(u * (y + z) for u, y, z in zip(b, c[k], c[l]))))
        assert max(abs(p.offset) for p in planes) / s == res
        # the world midplanes agree to the rounding of world coordinates
        ref = max(midplane(t, i, j).residual(m) for i, j in pairs)
        reach = max(math.hypot(*m), *(math.hypot(*p) for p in t.vertices))
        assert abs(res - ref / s) <= 16 * eps * reach / s
        # the 28 altitude samples, each its own evaluate
        pts = [altitude(t, l).point_at(k * s) for l in range(4) for k in range(-3, 4)]
        ref = max(abs(evaluate(q, p - m) - r) for p in pts)
        level = np.linalg.norm(q.matrix) * max(math.hypot(*(p - m)) for p in pts) ** 2 + abs(r)
        denom = max(abs(r), float(np.max(np.abs(t._lambdas)) ** 3))
        assert abs(reporting.altitude_level_residual(t) * denom - ref) <= 16 * eps * level


def obj_lines(mesh):
    """OBJ text as a list of lines, one f-string per vertex and per triangle;
    lists keep a failing comparison's report short."""
    lines = [f"v {v[0]:.12g} {v[1]:.12g} {v[2]:.12g}" for v in mesh.vertices]
    return lines + [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles]


def obj_of(mesh):
    text = mesh_to_obj(mesh)
    assert text.endswith("\n")
    return text[:-1].split("\n")


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e14])
def test_mesh_to_obj_matches_line_by_line_text(t_gen, scale):
    # fixed notation at 1 ("0.34" among it), e-XX at 1e-9 and e+XX at 1e14
    t = Tetrahedron(t_gen.vertices * scale)
    mesh = quadric_mesh(build(t), 3.0 * scale, 16)
    assert obj_of(mesh) == obj_lines(mesh)


def _percent_12g_sets():
    rng = np.random.default_rng(28)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64)
    bits[::50] &= np.uint64(0x800FFFFFFFFFFFFF)  # subnormals and zeros
    bits = bits.view(np.float64)
    powers = np.array([float(f"1e{j}") for j in range(-30, 41)])
    n = rng.integers(10**11, 10**12, 2000)
    return {
        "bit_patterns": bits[np.isfinite(bits)],
        "magnitudes": rng.choice([-1.0, 1.0], 200_000) * 10 ** rng.uniform(-20, 40, 200_000),
        "signed_zeros_inf_nan": np.array([0.0, -0.0, np.inf, -np.inf, np.nan]),
        "powers_of_ten": np.concatenate(
            [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers]
        ),
        "switch_points": np.array([1e-5, 9.99999999999995e-5, 1e-4, 999999999999.5, 1e12]),
        # exact ties, and 13-digit decimals ending in 5 whose double rounds to one
        "ties": np.array(
            [123456789012.5, 123456789013.5, -100000000000.5, 12345678901.25]
            + [float(f"{v}5e{e}") for v, e in zip(n, rng.integers(-23, 23, 2000))]
        ),
        "empty": np.zeros(0),
    }


PERCENT_12G_SETS = _percent_12g_sets()


@pytest.mark.parametrize("name", list(PERCENT_12G_SETS))
def test_obj_vertex_text_is_percent_12g_element_by_element(name):
    x = PERCENT_12G_SETS[name]
    fill = np.full_like(x, 1.5)
    # as given, and beside two in-range numbers in each row, so that the
    # kernel formats the block even when most of the set is out of its range
    cases = [np.resize(x, (len(x) + 2) // 3 * 3).reshape(-1, 3)]
    cases += [np.column_stack([x, fill, -fill]), np.column_stack([fill, fill, x])]
    for rows in cases:
        text = mesh_to_obj(Mesh(rows, np.zeros((0, 3), int)))
        assert text.endswith("\n") or not len(rows)
        lines = text.splitlines()
        assert all(line[:2] == "v " for line in lines) and len(lines) == len(rows)
        assert [f for line in lines for f in line.split(" ")[1:]] == [
            "%.12g" % v for v in rows.ravel().tolist()
        ]


@pytest.mark.parametrize("res", [8, 9, 64])
def test_mesh_to_obj_with_the_shared_face_text(t_gen, res):
    qd = build(t_gen)
    mesh = quadric_mesh(qd, 3.0, res)
    ref = obj_lines(mesh)
    for _ in range(2):  # the second call reads the face text kept by the first
        assert obj_of(mesh) == ref
    # equal triangles in a distinct array, and other read-only triangles of the same length
    assert obj_of(Mesh(mesh.vertices, mesh.triangles.copy())) == ref
    flipped = mesh.triangles[:, ::-1].copy()
    flipped.flags.writeable = False
    flipped_mesh = Mesh(mesh.vertices, flipped)
    assert obj_of(flipped_mesh) == obj_lines(flipped_mesh)
    # the mesh keeps its grid when a later mesh of another resolution evicts it
    other = quadric_mesh(qd, 2.0, res + 1)
    assert obj_of(other) == obj_lines(other)
    assert obj_of(mesh) == ref


def test_mesh_triangles_are_shared_read_only_and_the_cache_is_bounded(t_gen):
    qd = build(t_gen)
    a, b = quadric_mesh(qd, 3.0, 12), quadric_mesh(qd, 1.0, 12)
    assert a.triangles is b.triangles
    with pytest.raises(ValueError):
        a.triangles[0, 0] = 1
    for res in (8, 9, 10):
        mesh_to_obj(quadric_mesh(qd, 3.0, res))
    for cache in (reporting._grid, reporting._grid_faces):
        assert cache.cache_info().currsize <= 1
    # above the limit a grid is built for its mesh alone and is not kept
    before = reporting._grid.cache_info()
    big = quadric_mesh(qd, 3.0, reporting._GRID_CACHE_RES + 1)
    assert not big.triangles.flags.writeable
    assert reporting._grid.cache_info() == before
    assert mesh_to_obj(big).endswith("f %d %d %d\n" % tuple(big.triangles[-1] + 1))


def test_mesh_rejects_out_of_range_index():
    verts = np.zeros((4, 3))
    assert Mesh(verts, [(0, 1, 3)]).triangles.shape == (1, 3)
    for bad in ((0, 1, 4), (-1, 1, 2)):
        with pytest.raises(InternalInvariantError):
            Mesh(verts, [(0, 1, 2), bad])
    # indices that are not integers are refused, not truncated or parsed
    for bad in ([[0.5, 1.9, 2.7]], [[True, False, True]], [["0", "1", "2"]], [[math.nan, 1, 2]]):
        with pytest.raises(InternalInvariantError):
            Mesh(verts, bad)
    # an int64 array is kept as it is, so the cached grid's face text is found
    tris = np.array([(0, 1, 3)], dtype=np.int64)
    assert Mesh(verts, tris).triangles is tris
    assert Mesh(verts, tris.astype(np.uint8)).triangles.dtype == np.int64
    # vertices and triangles of the wrong shape
    for v, t in ((verts, [(0, 1, 2, 3)]), (np.zeros((4, 2)), [(0, 1, 2)]), (verts, (0, 1, 2))):
        with pytest.raises(InternalInvariantError):
            Mesh(v, t)


def test_mesh_scans_every_grid_and_leaves_the_cached_one(t_gen):
    grid = quadric_mesh(build(t_gen), 3.0, 8).triangles
    before = reporting._grid.cache_info()
    # hand-built triangles of another resolution (2 * 9^2 rows), writeable or
    # read-only, are scanned, and the cached grid is neither read nor evicted
    for writeable in (True, False):
        tris = np.zeros((162, 3), dtype=np.int64)
        tris[-1] = (0, 1, 90)
        tris.flags.writeable = writeable
        with pytest.raises(InternalInvariantError):
            Mesh(np.zeros((90, 3)), tris)
        assert len(mesh_to_obj(Mesh(np.zeros((91, 3)), tris))) > 0
    assert reporting._grid.cache_info() == before
    # the cached grid itself is checked against the vertex count
    with pytest.raises(InternalInvariantError):
        Mesh(np.zeros((8 * 9 - 1, 3)), grid)
    assert Mesh(np.zeros((8 * 9, 3)), grid).triangles is grid


def test_random_tetra_classes_and_determinism():
    for kind, gate_zeros in (
        (TetraKind.GENERIC, 0),
        (TetraKind.SEMI_ORTHOCENTRIC, 1),
        (TetraKind.ORTHOCENTRIC, 3),
    ):
        for seed in range(5):
            t = random_tetra(kind, seed)
            assert classify(t).kind is kind
            from tetraquadric.tetra import OPPOSITE_EDGE_PAIRS, edge_vector
            zeros = 0
            for e1, e2 in OPPOSITE_EDGE_PAIRS:
                b1, b2 = edge_vector(t, *e1), edge_vector(t, *e2)
                gate = 1e-9 * np.linalg.norm(b1) * np.linalg.norm(b2) + 1e-12
                if abs(np.dot(b1, b2)) <= gate:
                    zeros += 1
            assert zeros == gate_zeros
        a = random_tetra(kind, 123)
        b = random_tetra(kind, 123)
        np.testing.assert_array_equal(a.vertices, b.vertices)


def test_rejection_loops_are_bounded(monkeypatch):
    draws = []

    def count_draw():
        draws.append(None)
        if len(draws) > 10_000:
            raise RuntimeError("the rejection loop did not stop")

    def never(kind, rng):
        count_draw()

    class Collinear:
        def uniform(self, low, high, size):
            count_draw()
            return np.zeros(size)

    monkeypatch.setattr(reporting, "_draw_tetra", never)
    with pytest.raises(InternalInvariantError):
        random_tetra(TetraKind.GENERIC, 0)
    with pytest.raises(InternalInvariantError):
        reporting._random_base_triangle(Collinear())
    assert len(draws) == 2 * reporting._MAX_DRAWS


def svg_reference(family, ellipse):
    """`emit_svg_porism` written one f-string per point and per line."""
    s = float(np.max(np.abs(ellipse.semi_axes)))
    axes = np.array(ellipse.semi_axes) / s
    rx, ry = np.linalg.norm(axes, axis=1)
    size = 480.0
    k = size / (2.0 * 1.15 * max(rx, ry))
    d = (np.array([tri.vertices for tri in family]) - ellipse.center) / s
    xs = (size / 2 + k * (d @ axes[0]) / rx).tolist()
    ys = (size / 2 - k * (d @ axes[1]) / ry).tolist()
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<ellipse cx="{size / 2:.2f}" cy="{size / 2:.2f}" rx="{k * rx:.2f}" '
        f'ry="{k * ry:.2f}" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    for tx, ty in zip(xs, ys):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(tx, ty))
        lines.append(
            f'<polygon points="{pts}" fill="none" stroke="steelblue" stroke-width="0.8"/>'
        )
    lines.append(f'<circle cx="{size / 2:.2f}" cy="{size / 2:.2f}" r="3" fill="crimson"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rho", [1.0, -2.5e-7, 3e5])
def test_svg_matches_the_line_by_line_text(rho):
    q = QuadForm3(2.0, 1.0, -3.0, 0.4, -0.2, 0.1)
    family, e = porism_family(q, rho, 12), ellipse_section(q, rho)
    assert emit_svg_porism(family, e) == svg_reference(family, e)


def test_svg_emission():
    q = QuadForm3(1, 1, -2)
    fam = porism_family(q, 1.0, 12)
    e = ellipse_section(q, 1.0)
    svg = emit_svg_porism(fam, e)
    assert svg.count("<polygon") == 12
    assert svg.count("<ellipse") == 1
    assert svg.count("<circle") == 1

    svg1 = emit_svg_porism(fam[:1], e)
    assert svg1.count("<polygon") == 1
    with pytest.raises(EmptyFamily):
        emit_svg_porism([], e)


# --- CLI ---------------------------------------------------------------


def _write_tetra(tmp_path, verts, name="t.json"):
    p = tmp_path / name
    p.write_text(json.dumps({"vertices": verts}))
    return p


def test_cli_analyze(tmp_path, capsys):
    f = _write_tetra(tmp_path, [[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]])
    assert main(["analyze", str(f)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tetra_class"] == "generic"
    assert doc["rhs"] == pytest.approx(1.5)

    assert main(["--pretty", "analyze", str(f)]) == 0
    assert "\n  " in capsys.readouterr().out


def test_cli_near_the_gate_reads_the_class_once(tmp_path, capsys):
    # the README semi-orthocentric tetrahedron with its apex moved by 1e-9: the
    # class decides the quadric kind, and no second decision can contradict it
    f = _write_tetra(tmp_path, [[0, 0, 0], [4, 0, 0], [1, 3, 0], [1.000000001, 2, 2]])
    assert main(["analyze", str(f)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["tetra_class"], doc["quadric_kind"]) == ("semi_orthocentric", "plane_pair")
    assert main(["quadric", str(f), "--obj", str(tmp_path / "q.obj")]) == 2
    assert "hyperboloid" in capsys.readouterr().err


#: Hyperboloids whose Q* has rank 3 but a middle eigenvalue near 0, which the
#: mesh's former rank test at the default tolerance read as rank 2: exactly
#: 8.0e-15, 7.2e-17 of the largest (`eigh` reads -1.4e-15, the wrong sign), and
#: -6.3e-11, 1.4e-13 of the largest, the semi-orthocentric seed 1030 of the
#: near-gate probe with vertex 3 moved by 3e-9 edge lengths.
NEAR_RANK_2_HYPERBOLOIDS = [
    [[0.5317310368456285, -3.4268705688593277, -0.30259516355327376],
     [-6.750428061564884, -7.257682250264996, 2.8398659076985178],
     [-0.20408459828290226, -0.6979155688333947, 0.5235460758081802],
     [-2.140927250529929, -3.794155958560699, 1.0202723689537962]],
    [[3.5260329630114673, 1.4545797060628294, 0.05134971039852119],
     [0.5014006542235164, -5.504960918347727, -2.361355093411795],
     [-0.20837186715757472, -7.273570299708585, -3.3447212814399605],
     [-10.10700469686004, -15.60431241004949, 40.57223856634863]],
]


@pytest.mark.parametrize("verts", NEAR_RANK_2_HYPERBOLOIDS)
def test_mesh_of_a_near_rank_2_form_is_written(tmp_path, capsys, verts):
    # never exit 1 or 3: these once raised ZeroDivisionError and InternalInvariantError
    qd = build(Tetrahedron(verts))
    assert qd.kind is QuadricKind.HYPERBOLOID
    assert np.isfinite(quadric_mesh(qd, 3.0, 16).vertices).all()
    f, out = _write_tetra(tmp_path, verts), tmp_path / "q.obj"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["quadric", str(f), "--obj", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    text = out.read_text()
    assert "v " in text and "nan" not in text and "inf" not in text


#: Draw 3 of the sliver probe: vertex 3 sits 7e-7 edge lengths from the centroid
#: of the opposite face.  Read from the Monge point's lambda, its Q* had a middle
#: eigenvalue of 1e-2 against 57 where 1e-11 is due, and the mesh exited 3.
SLIVER = [[0.8830214670698506, -2.966139966746928, -2.6373454584063705],
          [2.1358418670650945, -4.805707282620814, -4.813895429766842],
          [4.766407323130462, -4.493992895058032, 2.792957883024995],
          [2.5950926351531423, -4.088618052400556, -1.5527625918558605]]


def test_sliver_mesh_is_a_result_or_bad_input(tmp_path, capsys):
    f, out = _write_tetra(tmp_path, SLIVER), tmp_path / "q.obj"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["quadric", str(f), "--obj", str(out)])
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_cli_classify(tmp_path, capsys):
    for apex, kind, pair in (
        ([2, 1, 2], "generic", None),
        ([1, 2, 2], "semi_orthocentric", [[0, 1], [2, 3]]),
        ([1, 1, 2], "orthocentric", None),
    ):
        f = _write_tetra(tmp_path, [[0, 0, 0], [4, 0, 0], [1, 3, 0], apex])
        assert main(["classify", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"tetra_class": kind, "orthogonal_pair": pair}
        # `analyze` reports the same two fields, in the same place after the vertices
        assert main(["analyze", str(f)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report)[1:3] == list(doc)
        assert {k: report[k] for k in doc} == doc


def test_cli_bad_input(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("nonsense")
    assert main(["analyze", str(f)]) == 2
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    g = _write_tetra(tmp_path, [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
    assert main(["classify", str(g)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "vertex, message",
    [
        ('["0", "0", "0"]', "must be numbers"),
        ("[true, 0, 0]", "must be numbers"),
        (f"[{'9' * 400}, 0, 0]", "must be finite"),
        (f"[{'9' * 5000}, 0, 0]", "invalid JSON"),
        ("[NaN, 0, 0]", "must be finite"),
        ("[0, Infinity, 0]", "must be finite"),
        ("[0, 0, -Infinity]", "must be finite"),
        ("[NaN, \"0\", 0]", "must be numbers"),
    ],
    ids=["string", "boolean", "400_digits", "5000_digits", "nan", "inf", "minus_inf", "nan_string"],
)
def test_cli_coordinates_must_be_finite_json_numbers(tmp_path, capsys, vertex, message):
    # strings once parsed as 0.0 and true as 1.0, both with exit 0; a 400-digit
    # integer overflowed the conversion to float, and a 5000-digit one Python's
    # digit limit, both with a traceback and exit 1
    f = tmp_path / "t.json"
    f.write_text(f'{{"vertices": [{vertex}, [4, 0, 0], [1, 3, 0], [2, 1, 2]]}}')
    with pytest.raises(ParseError, match=message):
        parse_tetrahedron(f.read_text())
    assert main(["classify", str(f)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_quadric(tmp_path, capsys):
    f = _write_tetra(tmp_path, [[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]])
    out = tmp_path / "q.obj"
    assert main(["quadric", str(f), "--obj", str(out), "--extent", "2", "--res", "16"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["triangles"] > 0
    text = out.read_text()
    assert text.startswith("v ")
    assert " f " in " " + text.split("\n")[doc["vertices"]]

    # plane-pair input cannot be meshed
    g = _write_tetra(tmp_path, [[0, 0, 0], [4, 0, 0], [1, 3, 0], [1, 2, 2]], "s.json")
    assert main(["quadric", str(g), "--obj", str(out)]) == 2
    capsys.readouterr()


def test_cli_porism(tmp_path, capsys):
    out = tmp_path / "p.svg"
    rc = main(
        ["porism", "--form", "1,1,-2,0,0,0", "--rho", "1", "--count", "9", "--svg", str(out)]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["triangles"] == 9
    assert out.read_text().count("<polygon") == 9

    # every gate is relative, so a form of tiny coefficients is a cone like any other
    assert main(["porism", "--form=2e-12,1e-12,-3e-12,0,0,0", "--rho", "1", "--svg", str(out)]) == 0
    assert main(["porism", "--form", "1,1,1,0,0,0", "--rho", "1", "--svg", str(out)]) == 2
    assert main(["porism", "--form", "1,1", "--rho", "1", "--svg", str(out)]) == 2
    capsys.readouterr()


def test_cli_random(capsys):
    assert main(["random", "--class", "ortho", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    t = parse_tetrahedron(json.dumps(doc))
    assert classify(t).kind is TetraKind.ORTHOCENTRIC



_PORISM = "porism --form 1,1,-2,0,0,0 --svg {out}"


@pytest.mark.parametrize(
    "cmd",
    [
        f"--tol 0 {_PORISM} --rho 1",
        f"--tol -1 {_PORISM} --rho 1",
        f"--tol nan {_PORISM} --rho 1",
        f"--tol inf {_PORISM} --rho 1",
        f"{_PORISM} --rho 1 --count 0",
        f"{_PORISM} --rho nan",
        f"{_PORISM} --rho inf",
        "quadric {tetra} --obj {out} --extent nan",
        "quadric {tetra} --obj {out} --extent inf",
        "quadric {tetra} --obj {out} --extent 0",
        "quadric {tetra} --obj {out} --extent -1",
    ],
)
def test_cli_rejects_bad_numbers(tmp_path, capsys, cmd):
    f = _write_tetra(tmp_path, [[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]])
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([a.format(tetra=f, out=out) for a in cmd.split()])
    assert exc.value.code == 2
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "cmd",
    [
        "quadric t.json --obj o.obj --res 7",
        "quadric t.json --obj o.obj --res 2049",
        "quadric t.json --obj o.obj --res 100000",
        "porism --form 1,1,-2,0,0,0 --rho 1 --svg o.svg --count 100001",
        "random --class generic --seed -1",
    ],
)
def test_cli_rejects_out_of_range_sizes(capsys, cmd):
    # parsing only, so that a missing bound cannot start the oversized run
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(cmd.split())
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_cli_accepts_the_ends_of_each_range():
    parse = _build_parser().parse_args
    for res in (8, 2048):
        assert parse(f"quadric t.json --obj o.obj --res {res}".split()).res == res
    for count in (1, 100000):
        cmd = f"porism --form 1,1,-2,0,0,0 --rho 1 --svg o.svg --count {count}"
        assert parse(cmd.split()).count == count
    assert parse("random --class generic --seed 0".split()).seed == 0


def test_cli_writes_the_obj_text_of_mesh_to_obj(tmp_path, capsys):
    # above the kept grid's resolution: several vertex and face blocks, each
    # face block with its own one-based indices
    f = _write_tetra(tmp_path, [[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]])
    out = tmp_path / "q.obj"
    res = reporting._GRID_CACHE_RES + 4
    assert main(["quadric", str(f), "--obj", str(out), "--res", str(res)]) == 0
    capsys.readouterr()
    mesh = quadric_mesh(build(parse_tetrahedron(f.read_text())), 3.0, res)
    blocks = list(reporting.obj_blocks(mesh))
    assert len(blocks) > 4 and all(b.endswith("\n") for b in blocks)
    faces = "".join(f"f {i + 1} {j + 1} {k + 1}\n" for i, j, k in mesh.triangles.tolist())
    text = out.read_text()
    assert text == "".join(blocks) == mesh_to_obj(mesh) and text.endswith(faces)


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    f = _write_tetra(tmp_path, [[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]])
    missing = tmp_path / "no" / "such"
    assert main(["quadric", str(f), "--obj", str(missing / "q.obj"), "--res", "8"]) == 2
    form = ["--form", "1,1,-2,0,0,0", "--rho", "1"]
    assert main(["porism", *form, "--svg", str(missing / "p.svg")]) == 2
    err = capsys.readouterr().err
    assert err.count("cannot write") == 2 and "Traceback" not in err


@pytest.mark.parametrize("rho", ["1e300", "-1e300", "1e-300", "-1e-300"])
def test_cli_porism_at_extreme_heights(tmp_path, capsys, rho):
    out, unit = tmp_path / "p.svg", tmp_path / "unit.svg"
    form = ["--form", "2,1,-3,0,0,0"]
    assert main(["porism", *form, f"--rho={rho}", "--svg", str(out)]) == 0
    unit_rho = "-1" if rho.startswith("-") else "1"
    assert main(["porism", *form, f"--rho={unit_rho}", "--svg", str(unit)]) == 0
    capsys.readouterr()
    svg = out.read_text()
    assert "nan" not in svg and "inf" not in svg
    assert svg == unit.read_text()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "cmd, base, scale, code",
    [(cmd, "readme", scale, code) for cmd in ("analyze", "quadric")
     for scale, code in [(1e-60, 2), (1e-52, 2), (1e-6, 0), (1e-4, 0),
                         (1e50, 0), (1e52, 2), (1e60, 2), (1e100, 2)]]
    + [("analyze", "orthocentric", scale, 2) for scale in (1e-60, 1e52, 1e60, 1e70)]
    + [("analyze", "semi_orthocentric", 1e-60, 2)],
)
def test_cli_at_overflowing_scales(tmp_path, capsys, cmd, base, scale, code):
    # Small scales succeed, because no gate has an absolute term.
    # rhs grows like scale**6 and overflows above about 1e51; Q* (scale**4) above 1e77.
    # An orthocentric tetrahedron has rhs ≈ 0, so Q* and rhs stay finite there and
    # only the altitude residual's lambda**3 scale overflows.
    # Below about 1e-51 rhs and lambda**3 are subnormal or 0, which is raised the same
    # way, instead of reading a cone with rhs = 0 and a residual never measured.
    if base == "readme":
        verts = np.array([[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]])
    else:
        verts = random_tetra(base, 3).vertices
    f = _write_tetra(tmp_path, (scale * verts).tolist())
    extra = ["--obj", str(tmp_path / "q.obj")] if cmd == "quadric" else []
    assert main([cmd, str(f), *extra]) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "scale, raises",
    [(1e-60, True), (1e-52, True), (1e-6, False), (1e-4, False),
     (1e50, False), (1e52, True), (1e60, True), (1e100, True)],
)
def test_construction_warns_nothing_at_overflowing_scales(scale, raises):
    # Construction computes Q* and rhs, which overflow above about 1e51 and underflow
    # below about 1e-51 (see test_cli_at_overflowing_scales); it leaves those values
    # to build and analyze, which raise, and emits no numpy warning on the way.
    verts = scale * np.array([[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]], float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = Tetrahedron(verts)
        assert classify(t).kind is TetraKind.GENERIC
        for step in (build, analyze):
            if raises:
                with pytest.raises((DegenerateForm, DegenerateTetrahedron)):
                    step(t)
            else:
                step(t)


@pytest.mark.parametrize("scale, message", [(1e52, "overflows"), (1e-60, "underflows")])
def test_noteworthy_and_analyze_raise_only_degenerate_form_at_extreme_scales(scale, message):
    # the orthocentric rhs is 0, so only the altitude residual's lambda**3 scale leaves
    # the double range; no OverflowError from Python-float arithmetic, no numpy warning
    t = Tetrahedron(scale * random_tetra("orthocentric", 3).vertices)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = noteworthy(t)
        assert points.orthocenter is not None and points.euler is not None
        for p in (points.monge, points.centroid, points.circumcenter, points.euler.dir):
            assert np.isfinite(p).all()
        with pytest.raises(DegenerateForm, match=message):
            analyze(t)


@pytest.mark.parametrize("cmd", ["classify", "analyze"])
def test_edge_beyond_the_largest_double_is_bad_input(tmp_path, capsys, cmd):
    # every coordinate is finite, but the edge from vertex 0 to vertex 1 is 2e308
    verts = [[-1e308, 0, 0], [1e308, 0, 0], [0, 1e308, 0], [0, 0, 1e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateTetrahedron, match="double range"):
            Tetrahedron(verts)
        assert main([cmd, str(_write_tetra(tmp_path, verts))]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_porism_non_finite_form_exits_2(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    assert main(["porism", "--form", "nan,nan,nan,nan,nan,nan", "--rho", "1", "--svg", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_porism_non_number_form_exits_2(tmp_path, capsys):
    out = tmp_path / "bad.svg"
    assert main(["porism", "--form=a,1,-1,0,0,0", "--rho", "1", "--svg", str(out)]) == 2
    err = capsys.readouterr().err
    assert "six comma-separated numbers" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_internal_invariant_violation_exits_3(tmp_path, capsys, monkeypatch):
    def broken(t, tol):
        raise InternalInvariantError("planted")

    monkeypatch.setattr(reporting, "analyze", broken)
    f = _write_tetra(tmp_path, [[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]])
    assert main(["analyze", str(f)]) == 3
    assert "internal invariant violation: planted" in capsys.readouterr().err


def test_cli_quadric_extent_beyond_the_double_range(tmp_path, capsys):
    # a finite extent whose mesh vertices overflow wrote `v nan nan nan` and exited 0
    verts = [[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateForm, match="double range"):
            quadric_mesh(build(Tetrahedron(verts)), 1e308, 8)
        out = tmp_path / "big.obj"
        cmd = ["quadric", str(_write_tetra(tmp_path, verts)), "--obj", str(out)]
        assert main([*cmd, "--extent", "1e308", "--res", "8"]) == 2
    assert "double range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "form, rhs", [((1.0, 0.0, -1.0), 1.0), ((1.0, 0.0, -1.0), -1.0), ((0.0, 0.0, 0.0), 1.0)]
)
def test_mesh_of_a_zero_eigenvalue_leaves_the_double_range(form, rhs):
    # a generic Q* has none, but a zero eigenvalue's infinite semi-axis is
    # refused as a non-finite vertex, not raised as ZeroDivisionError
    qd = altquadric.AltitudeQuadric(np.zeros(3), QuadForm3(*form), rhs, QuadricKind.HYPERBOLOID)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateForm, match="double range"):
            quadric_mesh(qd, 3.0, 8)


def test_cli_porism_height_beyond_the_double_range(tmp_path, capsys):
    # a finite height whose semi-axes and vertices overflow wrote nan into the SVG
    q = QuadForm3(1e-6, 1, -1.000001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (lambda: ellipse_section(q, 1e308), lambda: porism_family(q, 1e308, 3)):
            with pytest.raises(DegenerateForm, match="double range"):
                f()
        out = tmp_path / "big.svg"
        form = ["--form", "1e-6,1,-1.000001,0,0,0", "--rho", "1e308"]
        assert main(["porism", *form, "--svg", str(out)]) == 2
    assert "double range" in capsys.readouterr().err
    assert not out.exists()
