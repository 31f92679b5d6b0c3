"""Tests of the benchmark itself: seeded inputs, repeatable call counts, and
failure counting.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import inputs  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

tq = run.load_library()


def _stream_bytes(seed: int, stream: str, n: int, kinds=inputs.KINDS) -> bytes:
    docs = []
    for i in range(n):
        x = inputs.tetrahedron(seed, stream, i, kinds)
        docs.append({"json": inputs.to_json(x["vertices"]), "label": x["label"], "log10": x["log10_scale"]})
    return json.dumps(docs).encode()


def test_same_seed_gives_byte_identical_inputs():
    assert _stream_bytes(5, "analyze_mixed", 30) == _stream_bytes(5, "analyze_mixed", 30)
    assert _stream_bytes(5, "analyze_mixed", 30) != _stream_bytes(6, "analyze_mixed", 30)
    # input i does not depend on the order in which inputs are made
    wl = ops.AnalyzeMixed(tq, 5, HERE / "out" / "unused")
    wl.setup()
    late = wl.items[wl.pool - 1]["json"]
    again = inputs.tetrahedron(5, "analyze_mixed", wl.pool - 1, wl.kinds, wl.log10_range)
    assert late == inputs.to_json(again["vertices"])


def test_inputs_carry_their_constructed_labels_and_scales():
    xs = [inputs.tetrahedron(9, "analyze_mixed", i) for i in range(60)]
    assert [x["label"] for x in xs] == [inputs.KINDS[i % 3] for i in range(60)]
    assert all(inputs.label(x["vertices"]) == x["label"] for x in xs)
    logs = np.array([x["log10_scale"] for x in xs])
    assert logs.min() >= -6 and logs.max() <= 6
    # the golden-ratio scales fill every decade of the range
    assert len(set(np.floor(logs).astype(int))) == 12


def _traced_counts(seed: int, n_ops: int) -> list[dict]:
    wl = ops.AnalyzeMixed(tq, seed, HERE / "out" / "unused")
    wl.log10_range = (-1.0, 1.0)  # unit scales, where every op succeeds
    wl.pool = n_ops
    wl.setup()
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = [run.run_op(wl, i, wl.items[i], tracer, op_id=i) for i in range(n_ops)]
    finally:
        tracer.uninstall()
    assert all(o.ok for o in outcomes)
    generic = [i for i, o in enumerate(outcomes) if o.label == "generic"]
    return [
        {k: v[0] for k, v in tracer.per_op_totals([i]).items() if v[0]} for i in generic
    ]


def test_call_counts_repeat_exactly():
    first = _traced_counts(1, 9)
    again = _traced_counts(1, 9)
    other_seed = _traced_counts(2, 9)
    assert first == again
    assert all(c == first[0] for c in first + other_seed)
    assert first[0]["tetra.monge_point"] > 0 and first[0]["core.Plane3"] > 0


def test_tracer_restores_every_binding():
    before = (tq.analyze, tq.altquadric.monge_point, tq.core.Plane3.__init__)
    tracer = Tracer()
    tracer.install()
    assert tq.altquadric.monge_point is not before[1]
    tracer.uninstall()
    assert (tq.analyze, tq.altquadric.monge_point, tq.core.Plane3.__init__) == before


def test_exception_is_attributed_to_innermost_wrapped_function():
    wl = ops.AnalyzeMixed(tq, 1, HERE / "out" / "unused")
    flat = wl.canaries()[0] | {"json": json.dumps({"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]})}
    tracer = Tracer()
    tracer.install()
    try:
        o = run.run_op(wl, 0, flat, tracer, op_id=0)
    finally:
        tracer.uninstall()
    assert o.error == "DegenerateTetrahedron"
    assert o.origin == "tetra.Tetrahedron"


def _planted(**overrides):
    """The library with some functions replaced, as the workloads see it."""
    return types.SimpleNamespace(**{**{k: getattr(tq, k) for k in dir(tq)}, **overrides})


def test_planted_wrong_class_is_counted_as_failed():
    def wrong_analyze(t, *a, **k):
        rep = tq.analyze(t, *a, **k)
        return type(rep)(**{**rep.__dict__, "tetra_class": "orthocentric"})

    wl = ops.AnalyzeMixed(_planted(analyze=wrong_analyze), 1, HERE / "out" / "unused")
    outcomes = [run.run_op(wl, -1, c) for c in wl.canaries()]
    assert [o.ok for o in outcomes] == [False, False, True]
    assert outcomes[0].reasons == ["check.class"]


@pytest.mark.parametrize(
    "override, reason",
    [
        ("section", "check.section_kind"),
        ("quadric_mesh", "check.mesh_residual"),
        ("regulus_of", "check.regulus_tag"),
        ("porism_family", "check.porism_orthocenter"),
    ],
)
def test_planted_wrong_figure_is_counted_as_failed(override, reason):
    def section(qd, p, *a, **k):
        s = tq.section(qd, p, *a, **k)
        return type(s)(**{**s.__dict__, "kind": tq.ConicKind.LINE_PAIR})

    def quadric_mesh(qd, extent, res):
        m = tq.quadric_mesh(qd, extent, res)
        return tq.Mesh([v * 1.001 for v in m.vertices], m.triangles)

    def regulus_of(qd, line, t, *a, **k):
        return tq.RegulusTag.ALTITUDE_REGULUS

    def porism_family(q, rho, count, *a, **k):
        fam = tq.porism_family(q, rho, count, *a, **k)
        v = fam[0].vertices
        return [type(fam[0])((v[0] + 0.1 * (v[1] - v[0]), v[1], v[2]), fam[0].angles)] + fam[1:]

    planted = {"section": section, "quadric_mesh": quadric_mesh,
               "regulus_of": regulus_of, "porism_family": porism_family}[override]
    wl = ops.QuadricFigures(_planted(**{override: planted}), 1, HERE / "out" / "unused")
    honest = ops.QuadricFigures(tq, 1, HERE / "out" / "unused")
    canary = wl.canaries()[0]
    assert run.run_op(honest, -1, canary).ok
    o = run.run_op(wl, -1, canary)
    assert not o.ok and o.reasons == [reason]


def test_planted_failures_reach_the_result_counts():
    outcomes = [run.Outcome(0, "generic", 0.001, []), run.Outcome(1, "generic", 0.002, ["check.class"]),
                run.Outcome(2, "generic", 0.001, [], "InternalInvariantError", "altquadric.build")]
    counts = run.failure_counts(outcomes)
    assert counts["check.class"] == 1 and counts["altquadric.build.raised"] == 1
    assert counts["altquadric.raised"] == 1


def test_sweep_counts_failures_by_reason():
    def wrong_analyze(t, *a, **k):
        rep = tq.analyze(t, *a, **k)
        return type(rep)(**{**rep.__dict__, "tetra_class": "orthocentric"})

    wl = ops.AnalyzeMixed(_planted(analyze=wrong_analyze), 1, HERE / "out" / "unused")
    wl.sweep_items = wl.canaries
    detail = {}
    metrics = run.sweep_metrics(wl, detail)
    assert metrics["sweep.fail_frac"] == pytest.approx(2 / 3)
    assert metrics["sweep.check.class"] == pytest.approx(2 / 3)
    assert metrics["sweep.tetra.Tetrahedron.raised"] == 0.0
    assert detail["sweep"]["inputs"] == 3
    assert set(metrics) == {k for k in run.per_layer_units() if k.startswith("sweep.")}
