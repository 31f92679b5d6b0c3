"""Outside-in call tracing for the tetraquadric library.

`Tracer.install` replaces every public function of the six library modules
with a recording wrapper, at every module binding that holds it (`altquadric`
keeps its own `monge_point`, the package `__init__` re-exports everything),
and wraps `__init__` of the classes in `CONSTRUCTORS` so that their
constructions are counted.  The program itself is not edited.

Spans are kept in flat arrays (name, start, end, parent, op) and written out
once at the end.  An exception is attributed to the innermost wrapped function
it escaped from.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "tetraquadric"
LAYERS = ("core", "forms", "tetra", "altquadric", "porism", "reporting")
CONSTRUCTORS = (("core", "Plane3"), ("core", "Line3"), ("tetra", "Tetrahedron"))
_ORIGIN = "_trace_origin"


class Tracer:
    def __init__(self, max_spans: int = 2_000_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _modules(self) -> list:
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        """Wrap the library in place; `uninstall` restores every binding."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            init = cls.__dict__["__init__"]
            self._undo.append((cls, "__init__", init))
            cls.__init__ = self._wrap(f"{layer}.{cls_name}", init)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if _ORIGIN not in vars(exc):
                    setattr(exc, _ORIGIN, name)
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    # -- use ------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op

    def full(self) -> bool:
        return len(self.span_name) >= self.max_spans

    @staticmethod
    def origin(exc: BaseException) -> str | None:
        """Innermost wrapped function the exception escaped from, if any."""
        return vars(exc).get(_ORIGIN)

    # -- analysis ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns as numpy arrays, with self time = duration - child time."""
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        op = np.frombuffer(self.span_op, dtype=np.int32).copy()
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": name, "parent": parent, "op": op, "dur": dur, "self": dur - child}

    def per_op_totals(self, ops: list[int]) -> dict[str, tuple[float, float]]:
        """Mean (calls, self ms) per op over `ops`, keyed by function name."""
        if not ops:
            return {n: (0.0, 0.0) for n in self.names}
        a = self.arrays()
        sel = np.isin(a["op"], np.asarray(ops, dtype=np.int32))
        k = len(self.names)
        calls = np.bincount(a["name"][sel], minlength=k)
        self_ms = np.bincount(a["name"][sel], weights=a["self"][sel], minlength=k) * 1e3
        return {n: (calls[i] / len(ops), self_ms[i] / len(ops)) for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        """All spans as one .npz: name ids, start and end (s), parent span index, op id."""
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=a["name"],
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
            parent=a["parent"],
            op=a["op"],
        )
