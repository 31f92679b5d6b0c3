"""The three workloads: their inputs, the timed call into the program, and the
checks on its outputs.

Each workload gives `items` (its pool of seeded inputs, made by `setup`),
`call(item)` (the timed calls into tetraquadric, returning raw outputs) and
`check(item, out)` (names of the checks the outputs fail, empty when correct).
Checks use only this benchmark's own arithmetic, never the library.

A workload's pool spans only the scales on which every op succeeds on the
current library: the library's tolerances are not scale-homogeneous, so ops
raise below about x1e-2 and misclassify face sections outside about
x0.3..x130.  `sweep_items` are the same kind of inputs over the whole range
x1e-6..x1e6; they are run untimed and only to count those failures.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs

MESH_RES = 64
PORISM_COUNT = 100
CLI_RES = 32
CLI_COUNT = 12
#: log10 scales of the failure sweep
SWEEP_RANGE = (-6.0, 6.0)
#: dimensionless residual gates of the output checks
MESH_GATE = 1e-8
ORTHO_GATE = 1e-8

#: exact hand-checked inputs: vertices, class, Monge point, rhs
CANARIES = (
    ([[0, 0, 0], [4, 0, 0], [1, 3, 0], [2, 1, 2]], "generic", [1.5, 1.0, 1.25], 1.5),
    ([[0, 0, 0], [4, 0, 0], [1, 3, 0], [1, 2, 2]], "semi_orthocentric", None, None),
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "orthocentric", [0.0, 0.0, 0.0], 0.0),
)


# -- the benchmark's own geometry -------------------------------------------------


def own_quadric(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Monge point m, traceless form Q* and level rhs of the altitude quadric,
    from the midplane equations and the lambda-weighted edge forms."""
    pairs = inputs.OPPOSITE_EDGE_PAIRS
    a = np.array([v[i] - v[j] for (i, j), _ in pairs])
    b = np.array([a[r] @ (0.5 * (v[k] + v[l])) for r, (_, (k, l)) in enumerate(pairs)])
    m = np.linalg.solve(a, b)
    lam = [(v[0] - m) @ (v[j] - m) for j in (1, 2, 3)]
    q = np.zeros((3, 3))
    for w, ((i, j), (k, l)) in zip(lam, pairs):
        c, d = v[i] - v[j], v[k] - v[l]
        q += w * 0.5 * (np.outer(c, d) + np.outer(d, c))
    rhs = (lam[0] - lam[1]) * (lam[1] - lam[2]) * (lam[2] - lam[0])
    return m, q, rhs


def mesh_residual(points: np.ndarray, v: np.ndarray) -> float:
    """Worst |Q*(p - m) - rhs| / (|Q*| |p - m|^2 + |rhs|) over the points."""
    m, q, rhs = own_quadric(v)
    d = points - m
    val = np.einsum("ni,ij,nj->n", d, q, d) - rhs
    scale = np.max(np.abs(q)) * np.einsum("ni,ni->n", d, d) + abs(rhs)
    return float(np.max(np.abs(val) / scale))


def porism_defects(tris: np.ndarray, center: np.ndarray) -> tuple[bool, float]:
    """(all triangles acute, worst |orthocenter - center| / radius) for (n, 3, 3) vertices."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    dots = np.stack(
        [
            np.einsum("ni,ni->n", b - a, c - a),
            np.einsum("ni,ni->n", c - b, a - b),
            np.einsum("ni,ni->n", a - c, b - c),
        ]
    )
    n = np.cross(b - a, c - a)
    lhs = np.stack([b - c, c - a, n], axis=1)
    rhs = np.stack(
        [np.einsum("ni,ni->n", a, b - c), np.einsum("ni,ni->n", b, c - a), np.einsum("ni,ni->n", a, n)],
        axis=1,
    )
    h = np.linalg.solve(lhs, rhs[..., None])[..., 0]
    radius = np.max(np.linalg.norm(tris - center, axis=2))
    return bool(np.all(dots > 0.0)), float(np.max(np.linalg.norm(h - center, axis=1)) / radius)


# -- workloads --------------------------------------------------------------------


class Workload:
    """A pool of seeded inputs, shared by the timed and traced passes, and its op."""

    name = ""
    #: inputs cycled over in a run; each op time is the fastest of its repeats,
    #: so the pool is small enough for every input to repeat several times in a
    #: run and for the fastest repeat to miss the host's intermittent slowdowns
    pool = 0
    kinds = inputs.KINDS
    log10_range = (-6.0, 6.0)
    #: inputs of the failure sweep over SWEEP_RANGE
    sweep = 0
    #: the probe (run.PROBES) whose speed the op times follow
    probe_kind = "compute"

    def __init__(self, tq, seed: int, workdir: Path):
        self.tq = tq
        self.seed = seed
        self.workdir = workdir
        self.items: list[dict] = []

    def prepare(self, i: int, x: dict) -> dict:
        return x

    def canaries(self) -> list[dict]:
        return [
            {"vertices": np.array(v, dtype=float), "label": kind, "monge": m, "rhs": r,
             "edge_scale": inputs.edge_scale(np.array(v, dtype=float))}
            for v, kind, m, r in CANARIES
        ]

    def setup(self) -> None:
        self.items = [
            self.prepare(k, inputs.tetrahedron(self.seed, self.name, k, self.kinds, self.log10_range))
            for k in range(self.pool)
        ]

    def sweep_items(self) -> list[dict]:
        return [
            self.prepare(k, inputs.tetrahedron(self.seed, self.name + ".sweep", k, self.kinds, SWEEP_RANGE))
            for k in range(self.sweep)
        ]

    def close(self) -> None:
        pass


class AnalyzeMixed(Workload):
    """parse JSON -> analyze -> to_dict -> json.dumps, mixed classes and scales."""

    name = "analyze_mixed"
    pool = 256
    log10_range = (-1.0, 6.0)
    sweep = 96

    def prepare(self, i: int, x: dict) -> dict:
        return {**x, "json": inputs.to_json(x["vertices"])}

    def canaries(self) -> list[dict]:
        return [self.prepare(-1, c) for c in super().canaries()]

    def call(self, item: dict):
        t = self.tq.parse_tetrahedron(item["json"])
        return json.dumps(self.tq.analyze(t).to_dict())

    def check(self, item: dict, out) -> list[str]:
        doc = json.loads(out)
        if (
            doc["tetra_class"] != item["label"]
            or doc["quadric_kind"] != inputs.QUADRIC_OF_CLASS[item["label"]]
        ):
            return ["check.class"]
        if item.get("monge") is not None and not (
            np.allclose(doc["monge"], item["monge"], rtol=0, atol=1e-12)
            and abs(doc["rhs"] - item["rhs"]) <= 1e-12
        ):
            return ["check.class"]
        return []


def _face_planes(tq, v: np.ndarray):
    out = []
    for l in range(4):
        i, j, k = (x for x in range(4) if x != l)
        out.append(tq.Plane3.from_point_normal(v[i], np.cross(v[j] - v[i], v[k] - v[i])))
    return out


class QuadricFigures(Workload):
    """build once, then regulus votes, face sections, mesh + OBJ, porism + SVG."""

    name = "quadric_figures"
    pool = 64
    kinds = ("generic",)
    log10_range = (0.0, 1.5)
    sweep = 24

    def canaries(self) -> list[dict]:
        return super().canaries()[:1]

    def call(self, item: dict):
        tq = self.tq
        v = item["vertices"]
        t = tq.Tetrahedron(v)
        qd = tq.build(t)
        votes = [tq.regulus_of(qd, tq.altitude(t, l), t) for l in range(4)]
        votes += [tq.regulus_of(qd, tq.ortho_perpendicular(t, l), t) for l in range(4)]
        sections = [tq.section(qd, p).kind for p in _face_planes(tq, v)]
        mesh = tq.quadric_mesh(qd, 2.0 * item["edge_scale"], MESH_RES)
        obj = tq.mesh_to_obj(mesh)
        cone = tq.asymptotic_cone(qd)
        rho = item["edge_scale"]
        family = tq.porism_family(cone, rho, PORISM_COUNT)
        ellipse = tq.ellipse_section(cone, rho)
        svg = tq.emit_svg_porism(family, ellipse)
        return qd.kind, votes, sections, mesh, obj, family, ellipse, svg

    def check(self, item: dict, out) -> list[str]:
        kind, votes, sections, mesh, obj, family, ellipse, svg = out
        reasons = []
        if kind.value != "hyperboloid":
            reasons.append("check.class")
        tags = [x.value for x in votes]
        if tags != ["altitude_regulus"] * 4 + ["perpendicular_regulus"] * 4:
            reasons.append("check.regulus_tag")
        if any(s.value != "equilateral_hyperbola" for s in sections):
            reasons.append("check.section_kind")
        pts = np.array(mesh.vertices, dtype=float)
        n_v, n_f = (MESH_RES + 1) * MESH_RES, 2 * MESH_RES * MESH_RES
        if (
            pts.shape != (n_v, 3)
            or obj.count("v ") != n_v
            or obj.count("f ") != n_f
            or not mesh_residual(pts, item["vertices"]) <= MESH_GATE
        ):
            reasons.append("check.mesh_residual")
        tris = np.array([tri.vertices for tri in family], dtype=float)
        if len(family) != PORISM_COUNT or svg.count("<polygon") != PORISM_COUNT:
            reasons.append("check.porism_orthocenter")
        else:
            acute, off = porism_defects(tris, np.asarray(ellipse.center, dtype=float))
            if not (acute and off <= ORTHO_GATE):
                reasons.append("check.porism_orthocenter")
        return reasons


class CliCold(Workload):
    """One `python -m tetraquadric.cli` process per op, subcommands in a fixed rotation."""

    name = "cli_cold"
    pool = 30
    log10_range = (-1.0, 1.0)
    probe_kind = "spawn"
    COMMANDS = ("analyze", "classify", "random", "quadric", "porism")

    def __init__(self, tq, seed: int, workdir: Path):
        super().__init__(tq, seed, workdir)
        src = Path(tq.__file__).resolve().parent.parent
        self.env = {**os.environ, "PYTHONPATH": str(src)}

    def prepare(self, i: int, x: dict) -> dict:
        cmd = self.COMMANDS[i % len(self.COMMANDS)] if i >= 0 else "classify"
        if cmd == "quadric":  # meshes exist only for the hyperboloid
            x = inputs.tetrahedron(self.seed, "cli_quadric", i, ("generic",), self.log10_range)
        path = self.workdir / f"tetra{i}.json"
        path.write_text(inputs.to_json(x["vertices"]))
        item = {**x, "cmd": cmd, "file": path}
        if cmd in ("analyze", "classify"):
            item["argv"] = [cmd, str(path)]
        elif cmd == "random":
            item["klass"] = inputs.KINDS[(i // len(self.COMMANDS)) % 3]
            short = {"generic": "generic", "semi_orthocentric": "semi", "orthocentric": "ortho"}
            item["argv"] = ["random", "--class", short[item["klass"]], "--seed", str((self.seed % 2**31) * 1000 + i)]
        elif cmd == "quadric":
            item["out"] = self.workdir / f"mesh{i}.obj"
            item["argv"] = [
                "quadric", str(path), "--obj", str(item["out"]),
                "--extent", repr(2.0 * x["edge_scale"]), "--res", str(CLI_RES),
            ]
        else:
            item["out"] = self.workdir / f"porism{i}.svg"
            form = ",".join(repr(float(c)) for c in inputs.traceless_form(self.seed, i))
            item["argv"] = [
                "porism", f"--form={form}", "--rho", "1", "--count", str(CLI_COUNT), "--svg", str(item["out"]),
            ]
        return item

    def canaries(self) -> list[dict]:
        return [self.prepare(-1, super().canaries()[0])]

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        super().setup()

    def call(self, item: dict):
        return subprocess.run(
            [sys.executable, "-m", "tetraquadric.cli", *item["argv"]],
            env=self.env, capture_output=True, text=True, timeout=120, check=False,
        )

    def check(self, item: dict, out) -> list[str]:
        if out.returncode != 0:
            return ["check.exit_code"]
        cmd = item["cmd"]
        reason = {"quadric": "check.mesh_residual", "porism": "check.porism_orthocenter"}.get(cmd, "check.class")
        try:
            doc = json.loads(out.stdout)
            if cmd in ("analyze", "classify"):
                ok = doc["tetra_class"] == item["label"]
            elif cmd == "random":
                ok = inputs.label(np.array(doc["vertices"], dtype=float)) == item["klass"]
            elif cmd == "quadric":
                lines = item["out"].read_text().splitlines()
                pts = np.array([ln.split()[1:] for ln in lines if ln.startswith("v ")], dtype=float)
                n_v, n_f = (CLI_RES + 1) * CLI_RES, 2 * CLI_RES * CLI_RES
                ok = (
                    doc["vertices"] == n_v == len(pts)
                    and sum(ln.startswith("f ") for ln in lines) == n_f
                    and mesh_residual(pts, item["vertices"]) <= MESH_GATE
                )
            else:
                svg = item["out"].read_text()
                ok = doc["triangles"] == CLI_COUNT and svg.count("<polygon") == CLI_COUNT
        except (ValueError, KeyError, TypeError, OSError):
            ok = False
        return [] if ok else [reason]

    def close(self) -> None:
        for p in self.workdir.glob("*"):
            p.unlink()
        self.workdir.rmdir()


WORKLOADS = {w.name: w for w in (AnalyzeMixed, QuadricFigures, CliCold)}
