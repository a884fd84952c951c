"""Span recorder for the traced benchmark run.

Every public function of every `reebedit` module is wrapped so that each
call records a span: name, start, end, parent span and the op it belongs
to.  A module that pulls a function in with `from .x import y` holds its
own reference, so the wrapper is rebound at every import site, the package
namespace included.  Same-module calls go through the module globals and
therefore hit the rebound name too.  `uninstall` restores the original
objects, so untraced passes run the unmodified program.

Self time is a span's duration minus the time its child spans cover.
Spans stay in memory and are written out once, at the end of the run.
"""
from __future__ import annotations

import inspect
import json
import math
import sys
import time
from functools import wraps

PACKAGE = "reebedit"


# Problem sizes recorded next to a span: before the call from its bound
# arguments, or after it from its result.  Each returns {size name: count}.
SIZES_BEFORE = {
    "reeb.compute_reeb": lambda a: {
        "simplices": len(a["complex"].simplices),
        "levels": len(set(a["f"].values.values()))},
    "maps.verify_reeb_quotient": lambda a: {
        "simplices": len(a["m"].source.simplices)},
    "editdist.zigzag_cost": lambda a: {"spaces": len(a["z"].maps)},
}
SIZES_AFTER = {
    "editdist.homotopy_breakpoints": lambda s: {"stages": len(s.lambdas) - 1},
    "category.pullback": lambda L: {"limit_cells": len(L.cells)},
    "category.triangulate_limit": lambda T: {"simplices": len(T.complex.simplices)},
}


class SpanRecorder:
    """In-memory spans: [name, start, end, parent index, op id, sizes]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def open(self, name: str, sizes=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op, sizes]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        before = SIZES_BEFORE.get(name)
        after = SIZES_AFTER.get(name)
        bind = inspect.signature(fn).bind if before else None

        @wraps(fn)
        def traced(*args, **kwargs):
            sizes = before(bind(*args, **kwargs).arguments) if before else None
            rec = self.open(name, sizes)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after:
                rec[5] = after(out)
            return out

        return traced

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def dump(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent, op, sizes."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]


def install(recorder: SpanRecorder) -> list[tuple]:
    """Wrap every public module-level function; returns the undo list."""
    wrapped = {}
    for mod in _modules():
        short = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = recorder.wrap(f"{short}.{name}", obj)
    undo = []
    for mod in _modules():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((mod, name, obj))
                setattr(mod, name, wrapped[obj])
    return undo


def uninstall(undo: list[tuple]) -> None:
    for mod, name, obj in undo:
        setattr(mod, name, obj)


def size_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 when fewer
    than two distinct sizes were seen."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_stats(recorder: SpanRecorder, passes: int) -> dict:
    """Per function: calls, self seconds and sizes, each per traced pass,
    plus per-call (simplices, duration) points for growth exponents; and
    the self seconds of each module."""
    funcs: dict[str, dict] = {}
    modules: dict[str, float] = {}
    for rec, own in zip(recorder.spans, recorder.self_times()):
        name, start, end, _, _, sizes = rec
        st = funcs.setdefault(name, {"calls": 0, "self_s": 0.0, "sizes": {},
                                     "points": []})
        st["calls"] += 1
        st["self_s"] += own
        for k, v in (sizes or {}).items():
            st["sizes"][k] = st["sizes"].get(k, 0) + v
        if sizes and "simplices" in sizes:
            st["points"].append((sizes["simplices"], end - start))
        mod = name.partition(".")[0]
        modules[mod] = modules.get(mod, 0.0) + own
    for st in funcs.values():
        st["calls"] /= passes
        st["self_s"] /= passes
        st["sizes"] = {k: v / passes for k, v in st["sizes"].items()}
    return {"functions": funcs,
            "modules": {k: v / passes for k, v in modules.items()}}
