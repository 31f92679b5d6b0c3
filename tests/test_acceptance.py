"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line,
so the whole gate can be skimmed from the pytest -s output.
"""

import math

import numpy as np
import pytest

from tetraquadric import (
    ConicKind,
    Plane3,
    QuadForm3,
    QuadricKind,
    RegulusTag,
    TetraKind,
    TracelessKind,
    altitude,
    analyze,
    asymptotic_cone,
    build,
    centroid,
    circumcenter,
    classify,
    classify_traceless,
    ellipse_section,
    evaluate,
    line_line_meet,
    monge_identity_residual,
    monge_point,
    midplane,
    ortho_perpendicular,
    orthocenter2d,
    porism_family,
    q_ijkl,
    q_star,
    quadric_mesh,
    random_tetra,
    rank,
    regulus_of,
    section,
    trace,
    tripod_through_generator,
)
from tetraquadric.core import LineRelation
from tetraquadric.tetra import edge_vector, pluecker_residual
from tetraquadric.reporting import altitude_level_residual

ALL_KINDS = [TetraKind.GENERIC, TetraKind.SEMI_ORTHOCENTRIC, TetraKind.ORTHOCENTRIC]


@pytest.fixture(scope="module")
def mixed_200():
    return [random_tetra(ALL_KINDS[s % 3], 1000 + s) for s in range(200)]


def report(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {label}")
    assert ok, f"criterion {num}: {label}"


def test_01_fixture_exactness(t_gen):
    rep = analyze(t_gen)
    ok = (
        np.max(np.abs(np.asarray(rep.monge) - [1.5, 1, 1.25])) <= 1e-10
        and np.max(np.abs(np.asarray(rep.centroid) - [1.75, 1, 0.5])) <= 1e-10
        and np.max(np.abs(np.asarray(rep.circumcenter) - [2, 1, -0.25])) <= 1e-10
        and np.max(np.abs(np.asarray(rep.lambdas) - [-19 / 16, 5 / 16, -27 / 16])) <= 1e-10
        and abs(rep.rhs - 1.5) <= 1e-10
        and rep.tetra_class == "generic"
    )
    report(1, "reference tetrahedron invariants exact to 1e-10", ok)


def test_02_altitudes_on_quadric(mixed_200):
    worst = max(altitude_level_residual(t) for t in mixed_200)
    report(2, f"altitudes satisfy the level equation (worst rel {worst:.2e})", worst <= 1e-8)


def test_03_perpendiculars_meet_altitudes(mixed_200):
    worst = 0.0
    ok = True
    for t in mixed_200:
        s = t.edge_scale()
        for l in range(4):
            n = ortho_perpendicular(t, l)
            for i in range(4):
                if i == l:
                    continue
                mm = line_line_meet(n, altitude(t, i))
                if mm.relation is not LineRelation.MEETING:
                    ok = False
                worst = max(worst, mm.gap / s)
    ok = ok and worst <= 1e-8
    report(3, f"each face perpendicular meets the other altitudes (worst gap {worst:.2e})", ok)


def test_04_monge_point_and_identity(mixed_200):
    w_plane = w_id = 0.0
    for t in mixed_200:
        m = monge_point(t)
        s = t.edge_scale()
        for (i, j) in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            w_plane = max(w_plane, abs(midplane(t, i, j).residual(m)) / s)
        w_id = max(w_id, monge_identity_residual(t) / s**2)
    ok = w_plane <= 1e-9 and w_id <= 1e-9
    report(4, f"Monge point on all six midplanes (worst {w_plane:.2e}, {w_id:.2e})", ok)


def test_05_euler_midpoint(mixed_200):
    worst = max(
        np.linalg.norm(centroid(t) - 0.5 * (circumcenter(t) + monge_point(t)))
        / t.edge_scale()
        for t in mixed_200
    )
    report(5, f"centroid bisects circumcenter-Monge segment (worst {worst:.2e})", worst <= 1e-9)


def test_06_pluecker_and_trace(mixed_200):
    w_pl = w_tr = 0.0
    for t in mixed_200:
        s = t.edge_scale()
        w_pl = max(w_pl, pluecker_residual(t) / s**2)
        for perm in ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)):
            i, j, k, l = perm
            dot = float(np.dot(edge_vector(t, i, j), edge_vector(t, k, l)))
            w_tr = max(w_tr, abs(trace(q_ijkl(t, perm)) - dot))
    ok = w_pl <= 1e-9 and w_tr <= 1e-10
    report(6, f"edge-product identities hold (worst {w_pl:.2e}, {w_tr:.2e})", ok)


def test_07_classification_soundness():
    ok = True
    w_spread = 0.0
    for kind in ALL_KINDS:
        for s in range(50):
            t = random_tetra(kind, 2000 + s)
            if classify(t).kind is not kind:
                ok = False
            if kind is TetraKind.ORTHOCENTRIC:
                pts = []
                for a in range(4):
                    for b in range(a + 1, 4):
                        mm = line_line_meet(altitude(t, a), altitude(t, b))
                        if mm.relation is not LineRelation.MEETING:
                            ok = False
                        else:
                            pts.append(mm.point)
                spread = float(np.max(np.ptp(np.array(pts), axis=0))) / t.edge_scale()
                w_spread = max(w_spread, spread)
            elif kind is TetraKind.SEMI_ORTHOCENTRIC:
                qd = build(t)
                if qd.kind is not QuadricKind.PLANE_PAIR:
                    ok = False
                elif abs(np.dot(qd.planes[0].normal, qd.planes[1].normal)) > 1e-9:
                    ok = False
    ok = ok and w_spread <= 1e-8
    report(7, f"generated classes verify (worst concurrency spread {w_spread:.2e})", ok)


def test_08_hyperboloid_structure():
    ok = True
    for s in range(50):
        t = random_tetra(TetraKind.GENERIC, 3000 + s)
        qs = q_star(t)
        if abs(trace(qs)) > 1e-9 * qs.max_abs() or rank(qs) != 3:
            ok = False
        qd = build(t)
        if classify_traceless(asymptotic_cone(qd)).kind is not TracelessKind.EQUILATERAL_CONE:
            ok = False
        for l in range(4):
            if regulus_of(qd, altitude(t, l), t) is not RegulusTag.ALTITUDE_REGULUS:
                ok = False
            if regulus_of(qd, ortho_perpendicular(t, l), t) is not RegulusTag.PERPENDICULAR_REGULUS:
                ok = False
    report(8, "quadric is an equilateral hyperboloid with the two expected reguli", ok)


def test_09_face_sections():
    ok = True
    worst = 0.0
    for s in range(50):
        t = random_tetra(TetraKind.GENERIC, 4000 + s)
        qd = build(t)
        sc = t.edge_scale()
        for l in range(4):
            i, j, k = t.others(l)
            vi, vj, vk = t.vertex(i), t.vertex(j), t.vertex(k)
            n = np.cross(vj - vi, vk - vi)
            n = n / np.linalg.norm(n)
            sec = section(qd, Plane3(n, float(np.dot(n, vi))))
            if sec.kind is not ConicKind.EQUILATERAL_HYPERBOLA:
                ok = False
            for p in (vi, vj, vk, orthocenter2d((vi, vj, vk))):
                res = abs(sec.value(p)) / max(sec.value_scale(p), sc**2)
                worst = max(worst, res)
    ok = ok and worst <= 1e-7
    report(9, f"face sections are equilateral hyperbolas (worst res {worst:.2e})", ok)


def test_10_tripods_and_porism():
    ok = True
    rng = np.random.default_rng(77)
    made = 0
    while made < 50:
        m = rng.normal(size=(3, 3))
        q = QuadForm3.from_matrix(m + m.T)
        q = q - trace(q) / 3.0 * QuadForm3.diagonal(1, 1, 1)
        if rank(q) < 3:
            continue
        made += 1
        frame = q.frame
        v1, v2, v3 = frame.values
        phi = rng.uniform(0, 2 * math.pi)
        if (frame.values > 0).sum() == 2:
            g = (
                math.cos(phi) / math.sqrt(v1) * frame.axes[0]
                + math.sin(phi) / math.sqrt(v2) * frame.axes[1]
                + 1.0 / math.sqrt(-v3) * frame.axes[2]
            )
        else:
            g = (
                1.0 / math.sqrt(v1) * frame.axes[0]
                + math.cos(phi) / math.sqrt(-v2) * frame.axes[1]
                + math.sin(phi) / math.sqrt(-v3) * frame.axes[2]
            )
        tp = tripod_through_generator(q, g)
        qn = q.max_abs()
        for a in range(3):
            if abs(evaluate(q, tp.legs[a])) > 1e-9 * qn:
                ok = False
            for b in range(a + 1, 3):
                if abs(np.dot(tp.legs[a], tp.legs[b])) > 1e-9:
                    ok = False
        rho = rng.uniform(0.5, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        try:
            fam = porism_family(q, rho, 12)
        except Exception:
            ok = False
            continue
        if len(fam) != 12:
            ok = False
        e = ellipse_section(q, rho)
        for tri in fam:
            if any(a >= math.pi / 2 for a in tri.angles):
                ok = False
            oc = orthocenter2d(tri.vertices)
            if np.linalg.norm(oc - e.center) > 1e-8 * max(1.0, e.scale()):
                ok = False
    report(10, "orthogonal tripods and shared-orthocenter triangle family", ok)


def test_11_mesh_validity(t_gen):
    qd = build(t_gen)
    mesh = quadric_mesh(qd, 3.0, 48)
    worst = max(
        abs(evaluate(qd.form, np.asarray(v) - qd.center) - qd.rhs) for v in mesh.vertices
    ) / abs(qd.rhs)
    report(11, f"mesh vertices lie on the quadric (worst rel {worst:.2e})", worst <= 1e-6)
