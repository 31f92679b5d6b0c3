"""Command line interface.

Subcommands: analyze, classify, quadric, porism, random.  Reports go to
stdout as JSON; exit code 0 on success, 2 for malformed or degenerate input,
3 for an internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Iterable

from . import altquadric, porism, reporting, tetra
from .core import Tolerance
from .errors import GeometryError, InternalInvariantError, ParseError
from .forms import QuadForm3


def _checked(cast, ok, what: str):
    """argparse type: `cast` the text, then reject values failing `ok`."""

    def parse(text: str):
        x = cast(text)
        if not ok(x):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return x

    parse.__name__ = cast.__name__  # argparse names it in "invalid ... value"
    return parse


_finite = _checked(float, math.isfinite, "a finite number")
_positive = _checked(float, lambda x: math.isfinite(x) and x > 0, "finite and positive")
_res = _checked(int, lambda n: 8 <= n <= 2048, "between 8 and 2048")
_count = _checked(int, lambda n: 1 <= n <= 100_000, "between 1 and 100000")
_seed = _checked(int, lambda n: n >= 0, "at least 0")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetraquadric",
        description="Altitudes, Monge point, and the altitude quadric of a tetrahedron.",
    )
    parser.add_argument(
        "--tol", type=_positive, default=1e-9, metavar="REL_EPS",
        help="relative tolerance for zero tests (default 1e-9)",
    )
    parser.add_argument(
        "--pretty", action="store_true", help="indent JSON output for humans"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis report for a tetrahedron file")
    p.add_argument("file", type=Path)

    p = sub.add_parser("classify", help="class of the tetrahedron in a file")
    p.add_argument("file", type=Path)

    p = sub.add_parser("quadric", help="emit the altitude quadric as an OBJ mesh")
    p.add_argument("file", type=Path)
    p.add_argument("--obj", type=Path, required=True, help="output OBJ path")
    p.add_argument("--extent", type=_positive, default=3.0)
    p.add_argument("--res", type=_res, default=32)

    p = sub.add_parser("porism", help="inscribed-triangle family of a cone section")
    p.add_argument(
        "--form", required=True, metavar="s11,s22,s33,s12,s13,s23",
        help="coefficients of a traceless rank-3 form",
    )
    p.add_argument("--rho", type=_finite, required=True)
    p.add_argument("--count", type=_count, default=12)
    p.add_argument("--svg", type=Path, required=True, help="output SVG path")

    p = sub.add_parser("random", help="generate a tetrahedron of a requested class")
    p.add_argument(
        "--class", dest="klass", required=True,
        choices=["generic", "semi", "ortho"],
    )
    p.add_argument("--seed", type=_seed, required=True)
    return parser


def _load(path: Path) -> tetra.Tetrahedron:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return reporting.parse_tetrahedron(text)


def _write(path: Path, blocks: Iterable[str]) -> None:
    try:
        with path.open("w") as f:
            f.writelines(blocks)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _emit(doc: dict, pretty: bool) -> None:
    print(json.dumps(doc, indent=2 if pretty else None))


def _run(args: argparse.Namespace) -> int:
    tol = Tolerance(rel_eps=args.tol)
    if args.command == "analyze":
        report = reporting.analyze(_load(args.file), tol)
        _emit(report.to_dict(), args.pretty)
    elif args.command == "classify":
        cls = tetra.classify(_load(args.file), tol)
        _emit(reporting.class_fields(cls), args.pretty)
    elif args.command == "quadric":
        t = _load(args.file)
        qd = altquadric.build(t, tol)
        mesh = reporting.quadric_mesh(qd, args.extent, args.res)
        _write(args.obj, reporting.obj_blocks(mesh))
        _emit(
            {
                "obj": str(args.obj),
                "vertices": len(mesh.vertices),
                "triangles": len(mesh.triangles),
            },
            args.pretty,
        )
    elif args.command == "porism":
        try:
            coeffs = [float(x) for x in args.form.split(",")]
        except ValueError as exc:
            raise ParseError("--form expects six comma-separated numbers") from exc
        if len(coeffs) != 6:
            raise ParseError("--form expects six comma-separated numbers")
        q = QuadForm3(*coeffs)
        family = porism.porism_family(q, args.rho, args.count, tol)
        ellipse = porism.ellipse_section(q, args.rho, tol)
        _write(args.svg, [reporting.emit_svg_porism(family, ellipse)])
        _emit({"svg": str(args.svg), "triangles": len(family)}, args.pretty)
    elif args.command == "random":
        kind = {
            "generic": tetra.TetraKind.GENERIC,
            "semi": tetra.TetraKind.SEMI_ORTHOCENTRIC,
            "ortho": tetra.TetraKind.ORTHOCENTRIC,
        }[args.klass]
        t = reporting.random_tetra(kind, args.seed, tol)
        print(reporting.serialize_tetrahedron(t))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
