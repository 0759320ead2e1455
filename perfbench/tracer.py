"""Layer trace recorded from outside the package.

``Tracer.install`` wraps the public functions of each ``movingframes``
module listed in ``SPANS`` and ``LEAVES``, replacing the name in every
package module that holds it, so intra- and inter-module calls are both
seen.  A span (name, start, end, parent, run id) is recorded per call of a
``SPANS`` entry and kept in memory until ``write``.  The expression
primitives in ``LEAVES`` run millions of times, so they get no span of their
own: their time, call count and ``eval_at`` memo growth are added to the
innermost open span.  ``layer_metrics`` derives the per-layer numbers,
including self time, from the written spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

# span name -> metrics reported for it
SPANS = {
    "expression.sample_points": ("s",),
    "exterior.ext_d": ("s", "calls"),
    "exterior.wedge": ("s", "calls"),
    "exterior.matrix_curvature": ("s", "calls"),
    "exterior.MatrixForm.eta_antisymmetry_residual": ("s",),
    "frames.build_coframe": ("s",),
    "frames.curvature_package": ("s",),
    "frames.torsion_residual": ("s",),
    "frames.reconstruction_residual": ("s",),
    "frames.classify_space": ("build_s", "eval_s"),
    "frames.FrameData.riemann_at": ("s", "calls"),
    "frames.FrameData.weyl_at": ("s", "calls"),
    "submersion.analyze_flow": ("build_s", "eval_s"),
    "submersion.constraint_residuals": ("build_s", "eval_s"),
    "submersion.covariant_derivative": ("s", "calls"),
    "herglotz.check_hypotheses": ("s",),
    "herglotz.reconstruct_lambda": ("build_s", "eval_s", "quad_points"),
    "herglotz.scaled_flow_killing_residual": ("s",),
    "herglotz.ricci_flat_check": ("build_s", "eval_s"),
    "cli.load_config": ("s",),
    "cli.run_pipeline": ("self_s",),
    "cli.serialize_report": ("s",),
}
LEAVES = {
    "expression.eval_at": ("s", "calls", "nodes"),
    "expression.diff": ("s", "calls"),
    "expression.simplify": ("s", "calls"),
}
# symbolic cache sizes, read with len() after the traced process ran every pass
CACHES = {
    "expression.intern_nodes": "_TABLE",
    "expression.diff_cache_entries": "_DIFF_CACHE",
    "expression.simplify_cache_entries": "_SIMPLIFY_CACHE",
}
# the span under which the distinct evaluation points are counted
POINT_SPAN = "herglotz.reconstruct_lambda"

UNITS = {"s": "s", "self_s": "s", "build_s": "s", "eval_s": "s",
         "calls": "count", "nodes": "count", "quad_points": "count"}


def metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for table in (LEAVES, SPANS):
        for span, kinds in table.items():
            short = _short(span)
            out.extend((f"{short}.{k}", UNITS[k]) for k in kinds)
    out.extend((name, "count") for name in CACHES)
    out.append(("trace.overhead_s", "s"))
    return out


def shares(metrics: dict, cold_s: float) -> str:
    """Where the traced cold pass spent its time, as shares of ``cold_s``."""
    parts = {
        "eval_at": metrics["expression.eval_at.s"],
        "diff+simplify": metrics["expression.diff.s"] + metrics["expression.simplify.s"],
        "covariant_derivative": metrics["submersion.covariant_derivative.s"],
        "reconstruct_lambda self": (metrics["herglotz.reconstruct_lambda.build_s"]
                                    + metrics["herglotz.reconstruct_lambda.eval_s"]),
        "riemann_at+weyl_at": metrics["frames.riemann_at.s"] + metrics["frames.weyl_at.s"],
    }
    return (f"traced cold pass {cold_s:.3g} s: "
            + ", ".join(f"{name} {100 * v / cold_s:.0f} %" for name, v in parts.items()))


def _short(span: str) -> str:
    """'frames.FrameData.riemann_at' -> 'frames.riemann_at'."""
    parts = span.split(".")
    return f"{parts[0]}.{parts[-1]}"


class _Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "leaf", "points")

    def __init__(self, sid, name, parent, run):
        self.id = sid
        self.name = name
        self.parent = parent
        self.run = run
        self.leaf = defaultdict(float)
        self.points = None
        self.start = time.perf_counter()
        self.end = None

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run, "leaf": dict(self.leaf),
                "points": None if self.points is None else len(self.points)}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.point_sink = None
        self.in_leaf = False

    # -- spans ---------------------------------------------------------------
    def open(self, name: str, run: str | None = None) -> _Span:
        parent = self.stack[-1] if self.stack else None
        span = _Span(len(self.spans), name, None if parent is None else parent.id,
                     run if run is not None else parent.run)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: _Span):
        span.end = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, run: str):
        """One top-level unit of work: a config load or a pass."""
        span = self.open("run", run)
        try:
            yield
        finally:
            self.close(span)

    # -- wrappers ------------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        collect = name == POINT_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            saved = self.point_sink
            if collect:
                span.points = self.point_sink = set()
            try:
                return fn(*args, **kwargs)
            finally:
                self.point_sink = saved
                self.close(span)

        return traced

    def _leaf_wrapper(self, name: str, fn):
        key = name.split(".")[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.in_leaf:        # no leaf calls another today; never count twice
                return fn(*args, **kwargs)
            self.in_leaf = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leaf = self.stack[-1].leaf
                leaf[key + ".s"] += time.perf_counter() - start
                leaf[key + ".calls"] += 1
                self.in_leaf = False

        if key != "eval_at":
            return traced

        @functools.wraps(fn)
        def traced_eval(e, point, memo=None):
            if memo is None:
                memo = {}
            before = len(memo)
            try:
                return traced(e, point, memo)
            finally:
                self.stack[-1].leaf["eval_at.nodes"] += len(memo) - before
                if self.point_sink is not None:
                    self.point_sink.add(tuple(sorted(point.items())))

        return traced_eval

    def install(self):
        """Wrap every SPANS/LEAVES entry in the namespaces that hold it."""
        import importlib
        package = importlib.import_module("movingframes")
        modules = [package] + [importlib.import_module(f"movingframes.{m}")
                               for m in ("expression", "exterior", "frames",
                                         "submersion", "herglotz", "cli")]
        for table, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
            for name in table:
                home, *path = name.split(".")
                owner = importlib.import_module(f"movingframes.{home}")
                if len(path) == 2:          # a method: patch the class
                    cls = getattr(owner, path[0])
                    setattr(cls, path[1], make(name, getattr(cls, path[1])))
                    continue
                original = getattr(owner, path[0])
                wrapped = make(name, original)
                for module in modules:
                    if module.__dict__.get(path[0]) is original:
                        setattr(module, path[0], wrapped)

    def write(self, path: str, extra: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.as_dict() for s in self.spans], "extra": extra}, fh)


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of the cold path (config loads and the first pass).

    For a span, ``self`` is its duration minus its child spans; ``eval_s``
    is the ``eval_at`` time directly under it and ``build_s`` the rest of
    its self time.
    """
    spans = [s for s in trace["spans"] if s["run"] in ("load", "pass0")]
    child_time: dict = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    acc: dict = defaultdict(float)
    for s in spans:
        short = _short(s["name"])
        total = s["end"] - s["start"]
        self_s = total - child_time[s["id"]]
        eval_s = s["leaf"].get("eval_at.s", 0.0)
        acc[f"{short}.s"] += total
        acc[f"{short}.calls"] += 1
        acc[f"{short}.self_s"] += self_s
        acc[f"{short}.eval_s"] += eval_s
        acc[f"{short}.build_s"] += self_s - eval_s
        if s["points"] is not None:
            acc[f"{short}.quad_points"] += s["points"]
        for key, value in s["leaf"].items():
            acc[f"expression.{key}"] += value
    acc.update(trace["extra"])
    return {name: acc.get(name, 0.0) for name, _ in metric_names()
            if name != "trace.overhead_s"}
