"""Layered benchmark of the tetraquadric library and CLI.

    python3 bench/run.py --workload analyze_mixed --seed 1 --seconds 35 --trace 0

One process runs one workload: a single caller in a closed loop, each op
starting when the last one ends.  The loop cycles over a fixed pool of inputs
made from --seed by bench/inputs.py, in a fresh seeded order each pass, until
--seconds have passed.  Every op's
outputs are checked (bench/ops.py); an op fails if it raises or if any check
fails, and the reasons are counted by name.

On a shared machine the speed of a core can drift by 2x over minutes.  Two
things keep that out of the figures: an op's time is the fastest of its
repeats in the run, and every time metric is scaled to reference speed by a
fixed probe timed between the ops (`PROBES`, `end_to_end`): a small
computation for the library workloads, and the start of a bare interpreter
for cli_cold, whose ops are process starts and file loads.  The raw figures
are kept in the detail record.

--trace 0 prints the end-to-end metrics of an untraced run.  --trace 1 runs
the pool in alternating untraced and traced slices (call tracer of
bench/tracer.py) and prints per-layer metrics: calls and self time per
successful generic op and the tracing overhead.  After the loop it runs the
workload's failure sweep (ops.py) untimed and reports the share of sweep
inputs that fail and their reasons as `sweep.*`.  On cli_cold the CLI time is
split with import-only processes instead; the library counters read 0 there
because the ops run in child processes.

The last line of stdout is the JSON result; a detailed record (machine,
versions, seed, sample counts, failure breakdown) goes to bench/out/.
`correct` is false when a hand-checked canary input or a workload op fails.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from time import perf_counter

import numpy as np

import ops
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
SPLIT_REPEATS = 7
TRACE_SLICES = 4
WARMUP_CANARY_ROUNDS = {"analyze_mixed": 10, "quadric_figures": 2, "cli_cold": 1}
SPAN_BUDGET = 500_000
CHECKS = (
    "check.class", "check.section_kind", "check.regulus_tag",
    "check.mesh_residual", "check.porism_orthocenter", "check.exit_code",
)

END_TO_END = {
    "ok_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}
CALLS = (
    "tetra.monge_point", "tetra.lambdas", "altquadric.build", "core.Plane3", "core.Line3",
    "core.solve3", "tetra.classify", "forms.eigendecompose", "forms.rank",
    "forms.tripod_through_generator", "tetra.altitude", "core.line_line_meet",
)
SELF_MS = (
    "forms.eigendecompose", "reporting.analyze", "altquadric.build", "reporting.quadric_mesh",
    "reporting.mesh_to_obj", "reporting.emit_svg_porism", "porism.porism_family",
    "altquadric.regulus_of", "altquadric.section",
)
RAISED = ("tetra.Tetrahedron", "altquadric.build", *LAYERS)
CLI_SPLIT = ("cli.interp_ms", "cli.numpy_import_ms", "cli.pkg_import_ms", "cli.command_ms")


def per_layer_units() -> dict[str, str]:
    units = {f"{n}.calls": "count/op" for n in CALLS}
    units.update({f"{n}.self_ms": "ms/op" for n in (*SELF_MS, *LAYERS)})
    units.update({f"sweep.{n}.raised": "count/op" for n in RAISED})
    units.update({f"sweep.{c}": "count/op" for c in CHECKS})
    units.update({c: "ms" for c in CLI_SPLIT})
    units.update({"sweep.fail_frac": "frac", "trace.overhead_frac": "frac"})
    return units


@dataclass
class Outcome:
    i: int
    label: str
    seconds: float
    reasons: list
    error: str | None = None
    origin: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.reasons


def load_library():
    if not (SRC / "tetraquadric" / "__init__.py").is_file():
        sys.exit(f"benchmark error: no tetraquadric sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tetraquadric

    if not Path(tetraquadric.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark error: imported tetraquadric from {tetraquadric.__file__}")
    return tetraquadric


def run_op(wl, i: int, item: dict, tracer: Tracer | None = None, op_id: int = -1) -> Outcome:
    """Time one op on input i and check its outputs; spans are tagged with op_id."""
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = perf_counter()
    try:
        out = wl.call(item)
    except Exception as exc:  # the program under test failed this op; count it
        dt = perf_counter() - t0
        return Outcome(i, item["label"], dt, [], type(exc).__name__, Tracer.origin(exc))
    finally:
        if tracer is not None:
            tracer.begin_op(-1)
    dt = perf_counter() - t0
    return Outcome(i, item["label"], dt, wl.check(item, out))


_PROBE_MATRIX = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])


def probe() -> float:
    """Seconds taken by a fixed mix of small numpy solves and Python arithmetic,
    like the program's own; it tracks how fast the shared machine runs now."""
    t0 = perf_counter()
    s = 0.0
    for k in range(60):
        b = np.array([float(k), 1.0, 2.0])
        x = np.linalg.solve(_PROBE_MATRIX, b)
        s += float(np.dot(x, np.cross(b, x))) + float(np.linalg.norm(x))
    return perf_counter() - t0


def spawn_probe() -> float:
    """Seconds taken to start and stop a bare interpreter; it tracks how fast
    the shared machine starts processes and loads files now."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=60)
    return perf_counter() - t0


#: per probe kind: (probe, probe seconds that define reference speed, least
#: seconds between probes).  Each reference is about half the fast probe on a
#: 2-vCPU Xeon host, so both kinds give that host the same slowness.
PROBES = {"compute": (probe, 1.6e-3, 0.1), "spawn": (spawn_probe, 3.0e-2, 0.5)}


@lru_cache(maxsize=4)
def pass_order(seed: int, pool: int, n: int) -> tuple[int, ...]:
    """Order of the inputs in pass n over the pool: a fresh seeded permutation
    each pass, so that no input's repeats keep one phase against a periodic
    slowdown of the host."""
    return tuple(int(k) for k in np.random.default_rng([seed % 2**63, n]).permutation(pool))


def closed_loop(
    wl, seconds: float, tracer: Tracer | None = None, probes: list | None = None, start: int = 0
) -> list[Outcome]:
    """Cycle over the workload's input pool from op `start`, one op at a time,
    in pass_order, for `seconds`; append a time of the workload's probe to
    `probes` at most as often as PROBES allows."""
    outcomes = []
    deadline = perf_counter() + seconds
    next_probe = 0.0
    speed_probe, _, every_s = PROBES[wl.probe_kind]
    i = start
    while perf_counter() < deadline and not (tracer is not None and tracer.full()):
        k = pass_order(wl.seed, wl.pool, i // wl.pool)[i % wl.pool]
        outcomes.append(run_op(wl, k, wl.items[k], tracer, op_id=i))
        i += 1
        if probes is not None and perf_counter() >= next_probe:
            probes.append(speed_probe())
            next_probe = perf_counter() + every_s
    return outcomes


def best_times(outcomes: list[Outcome]) -> dict[int, tuple[float, bool]]:
    """Per input: (fastest execution in seconds, every execution passed)."""
    best: dict[int, tuple[float, bool]] = {}
    for o in outcomes:
        t, ok = best.get(o.i, (float("inf"), True))
        best[o.i] = (min(t, o.seconds), ok and o.ok)
    return best


def set_up(name: str, seed: int):
    """Import, make the input pool, run the canaries and warm up."""
    tq = load_library()
    wl = ops.WORKLOADS[name](tq, seed, OUT / f"work-{os.getpid()}")
    wl.setup()
    canaries = wl.canaries()
    canaries_ok = all(run_op(wl, -1, c).ok for c in canaries)
    for _ in range(WARMUP_CANARY_ROUNDS[name] - 1):
        for c in canaries:
            run_op(wl, -1, c)
    return wl, canaries_ok


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile, at most the 90th, with at least 10 samples beyond it;
    the maximum when fewer than 20 samples leave no percentile above the median
    that qualifies.  The cap keeps the tail off the few inputs that a shared
    host slows in some of its states and not in others.

    Samples are per input, so the level is fixed by the pool, not by speed.
    """
    n = len(samples)
    level = min(90.0, 100.0 * (1.0 - 10.0 / n)) if n >= 20 else 100.0
    return level, float(np.percentile(samples, level))


def best_of_probes(probes: list[float], repeats: int) -> float:
    """Median, over groups of `repeats` probes spread across the whole run like
    an input's repeats are, of each group's fastest probe."""
    r = max(1, min(repeats, len(probes)))
    n = len(probes) // r
    return statistics.median(min(probes[s * n + j] for s in range(r)) for j in range(n))


def setup_seconds(name: str, seed: int) -> float:
    """Wall time of a fresh process that only sets up: start, import, inputs, warm-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    t0 = perf_counter()
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    return perf_counter() - t0


def import_walls(env: dict) -> dict[str, float]:
    """Wall seconds of one process each that starts the interpreter, imports
    numpy, and imports the CLI."""
    codes = {"interp": "pass", "numpy": "import numpy", "pkg": "import tetraquadric.cli"}
    out = {}
    for k, code in codes.items():
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, timeout=120)
        out[k] = perf_counter() - t0
    return out


def failure_counts(outcomes: list[Outcome]) -> Counter:
    c = Counter()
    for o in outcomes:
        c.update(o.reasons)
        if o.error:
            c[f"error.{o.error}"] += 1
            if o.origin:
                c[f"{o.origin}.raised"] += 1
                c[f"{o.origin.split('.')[0]}.raised"] += 1
    return c


def end_to_end(
    outcomes: list[Outcome], probes: list[float], reference_s: float, setups: list[float], rss_mb: float
) -> tuple[dict, dict]:
    """Throughput, latency and set-up time at reference speed; memory.

    Op times are the fastest of each input's repeats; the set-up processes
    ran spread over the run.  Every time is divided by the machine's slowness
    during the run: the probe time over `reference_s`, with the probe time
    taken as a best of as many repeats as each input had.  The raw figures go
    into the detail record.
    """
    best = best_times(outcomes)
    ok = [t for t, good in best.values() if good]
    timed = ok or [t for t, _ in best.values()]
    level, tail_s = tail(timed)
    slowness = best_of_probes(probes, round(len(outcomes) / len(best))) / reference_s
    raw = {
        "ok_per_s": len(ok) / sum(t for t, _ in best.values()),
        "op_p50_ms": 1e3 * statistics.median(timed),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "ok_per_s": raw["ok_per_s"] * slowness,
        "op_p50_ms": raw["op_p50_ms"] / slowness,
        "op_tail_ms": raw["op_tail_ms"] / slowness,
        "setup_s": raw["setup_s"] / slowness,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "raw": raw,
        "slowness": slowness,
        "probes_s": probes,
        "inputs": len(best),
        "passes": len(outcomes) / len(best),
        "latency_samples": len(timed),
        "tail_percentile": level,
        "setup_samples_s": setups,
    }
    return metrics, detail


def per_layer(wl, seconds: float) -> tuple[list[Outcome], dict, dict]:
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    if isinstance(wl, ops.CliCold):
        # import-only processes run between slices of the CLI loop, so both
        # meet the same machine conditions; each figure is a best of repeats
        plain, walls = [], []
        for _ in range(SPLIT_REPEATS):
            plain += closed_loop(wl, seconds / SPLIT_REPEATS, start=len(plain))
            walls.append(import_walls(wl.env))
        traced = []
        split = {k: 1e3 * min(w[k] for w in walls) for k in walls[0]}
        ok_ms = [1e3 * t for t, good in best_times(plain).values() if good]
        metrics.update(
            {
                "cli.interp_ms": split["interp"],
                "cli.numpy_import_ms": split["numpy"] - split["interp"],
                "cli.pkg_import_ms": split["pkg"] - split["numpy"],
                "cli.command_ms": statistics.median(ok_ms) - split["pkg"] if ok_ms else 0.0,
            }
        )
        detail = {"split_ms": split}
    else:
        # untraced and traced slices alternate, so the overhead compares like
        # with like; op ids in the spans are indices into `traced`
        plain, traced = [], []
        tracer = Tracer(max_spans=SPAN_BUDGET)
        for _ in range(TRACE_SLICES):
            plain += closed_loop(wl, seconds / (2 * TRACE_SLICES), start=len(plain))
            tracer.install()
            try:
                traced += closed_loop(wl, seconds / (2 * TRACE_SLICES), tracer=tracer, start=len(traced))
            finally:
                tracer.uninstall()
        ref = [n for n, o in enumerate(traced) if o.ok and o.label == "generic"]
        totals = tracer.per_op_totals(ref)
        for n in CALLS:
            metrics[f"{n}.calls"] = totals.get(n, (0.0, 0.0))[0]
        for n in SELF_MS:
            metrics[f"{n}.self_ms"] = totals.get(n, (0.0, 0.0))[1]
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = sum(v[1] for k, v in totals.items() if k.split(".")[0] == layer)
        fast, slow = best_times(plain), best_times(traced)
        metrics["trace.overhead_frac"] = (
            sum(slow[k][0] for k in slow) / sum(fast[k][0] for k in slow if k in fast) - 1.0
        )
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{wl.name}-seed{wl.seed}.npz"
        tracer.write(spans)
        detail = {
            "reference_ops": len(ref),
            "spans": len(tracer.span_name),
            "spans_file": str(spans.relative_to(HERE.parent)),
            "per_op": {k: {"calls": v[0], "self_ms": v[1]} for k, v in totals.items() if v[0]},
        }
    metrics.update(sweep_metrics(wl, detail))
    detail["traced_ops"] = len(traced)
    return plain + traced, metrics, detail


def sweep_metrics(wl, detail: dict) -> dict[str, float]:
    """Run the workload's failure sweep untimed, under a tracer of its own so
    that each exception is attributed; failures per sweep input by reason."""
    items = wl.sweep_items()
    if not items:
        return {}
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = [run_op(wl, k, item, tracer) for k, item in enumerate(items)]
    finally:
        tracer.uninstall()
    counts = failure_counts(outcomes)
    detail["sweep"] = {"inputs": len(items), "failures": dict(sorted(counts.items()))}
    out = {f"sweep.{k}": counts[k] / len(items) for k in (*(f"{n}.raised" for n in RAISED), *CHECKS)}
    out["sweep.fail_frac"] = sum(not o.ok for o in outcomes) / len(items)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    wl, canaries_ok = set_up(args.workload, args.seed)
    try:
        if args.setup_only:
            return 0
        if args.trace:
            outcomes, metrics, detail = per_layer(wl, args.seconds)
            units = per_layer_units()
        else:
            # set-up processes run between equal slices of the loop, so that
            # they meet the same machine conditions as the ops
            outcomes, probes, setups = [], [], []
            for _ in range(SETUP_REPEATS):
                outcomes += closed_loop(wl, args.seconds / SETUP_REPEATS, probes=probes, start=len(outcomes))
                if not setups:  # CLI processes only, before any set-up process ran
                    cli_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                setups.append(setup_seconds(args.workload, args.seed))
            rss = cli_rss if isinstance(wl, ops.CliCold) else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reference_s = PROBES[wl.probe_kind][1]
            metrics, detail = end_to_end(outcomes, probes, reference_s, setups, rss / 1024.0)
            units = END_TO_END
    finally:
        wl.close()

    failed = sum(not o.ok for o in outcomes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "canaries_ok": canaries_ok,
        "attempted": len(outcomes),
        "failed": failed,
        "failures": dict(sorted(failure_counts(outcomes).items())),
        "by_label": {
            k: {"attempted": sum(o.label == k for o in outcomes), "ok": sum(o.ok and o.label == k for o in outcomes)}
            for k in sorted({o.label for o in outcomes})
        },
        "metrics": metrics,
        **detail,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(
        f"{args.workload} seed={args.seed} nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} attempted={len(outcomes)} failed={failed}",
        file=sys.stderr,
    )
    result = {
        "correct": canaries_ok and failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
