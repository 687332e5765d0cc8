"""Span tracer for the lab's layers, installed from outside the package.

``Tracer.install`` replaces the public functions and public class methods of
``loops``, ``manifolds``, ``charts``, ``geometry``, ``tubes`` and
``polarization``, the public module functions of ``suites`` (the 16
``SUITES`` entries among them) and ``cli.main`` with wrappers that record one
span per call.  Every module namespace of the package that holds a reference
to a wrapped function is rebound too, so calls made inside the package go
through the wrappers; ``Tracer.uninstall`` puts the originals back.
Nothing on disk is touched.

A span is (id, parent id, pass id, name, start, end).  Spans live in typed
arrays, which the garbage collector does not scan, and are written out once
at the end of the run.  A layer's self time is the sum over its spans of the
duration minus the durations of the direct child spans, so the self times of
all layers add up to the summed duration of the top-level spans; the rest of
a traced pass is ``trace.unattributed_s``.

Work counters are computed from the arguments of public calls (and, for the
SVD padding, from the result of the nested public ``active_bandwidth`` call);
they are labelled "computed" because no code inside the lab counts them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("loops", "manifolds", "charts", "geometry", "tubes", "polarization",
          "suites", "cli")
CLASS_LAYERS = LAYERS[:6]
BYTES_PER_PHASE_ENTRY = 16  # one complex128 entry of the evaluate phase matrix


def svd_flops(m: int, n: int) -> float:
    """Computed cost of a values-only complex SVD of an m x n matrix.

    Householder bidiagonalisation takes 4mn^2 - 4n^3/3 real flops for m >= n
    (Golub and Van Loan, Matrix Computations, 4th ed., section 8.6); complex
    arithmetic costs about four times that.
    """
    m, n = max(m, n), min(m, n)
    return 4.0 * (4.0 * m * n * n - 4.0 * n ** 3 / 3.0)


def _rows(points) -> int:
    return int(np.prod(np.shape(points)[:-1]))


# Each counter maps the bound arguments of one public call (and its result)
# to increments of the computed work counters.

def _flow(rows_of):
    def count(tracer, a, result):
        tracer.counts["tubes.flow_row_steps"] += rows_of(a) * a["steps"]
    return count


def _flow_diffeo(tracer, a, result):
    tracer.counts["tubes.flow_row_steps"] += _rows(a["u"]) * a["self"].steps


def _geodesic(tracer, a, result):
    tracer.counts["manifolds.rk4_steps"] += a["steps"]


def _transport(tracer, a, result):
    steps = a["steps"]
    if steps is None:
        steps = max(2 * (len(a["s_grid"]) - 1), 8)
    tracer.counts["manifolds.rk4_steps"] += steps


def _evaluate(tracer, a, result):
    entries = np.size(a["t"]) * (a["loop"].resolution + 1)
    tracer.counts["loops.evaluate_bytes"] += entries * BYTES_PER_PHASE_ENTRY


def _bandwidth(tracer, a, result):
    tracer.last_bandwidth = result


def _fredholm(tracer, a, result):
    blocks = a["blocks"]
    n, pad = blocks.n, max(1, tracer.last_bandwidth)
    step = sys.modules["loopspace_lab.polarization"].STABILITY_STEP
    for k in (blocks.truncation, blocks.truncation + step):
        # kernel and cokernel sections: (k + pad + 1) n rows, (k + 1) n columns
        _svds(tracer, [((k + pad + 1) * n, (k + 1) * n)] * 2)


def _profile(tracer, a, result):
    _svds(tracer, [a["blocks"].pm.shape, a["blocks"].mp.shape])


def _svds(tracer, shapes):
    for m, n in shapes:
        tracer.counts["polarization.svd_count"] += 1
        tracer.counts["polarization.svd_flops"] += svd_flops(m, n)


COUNTERS = {
    "tubes.FlowDiffeo.forward": _flow_diffeo,
    "tubes.FlowDiffeo.inverse": _flow_diffeo,
    "tubes.based_trivialize": _flow(lambda a: a["gamma"].resolution),
    "tubes.based_detrivialize": _flow(lambda a: a["omega"].resolution),
    "tubes.point_tube_forward": _flow(lambda a: a["alpha"].resolution),
    "tubes.point_tube_inverse": _flow(lambda a: a["beta"].resolution),
    "tubes.diagonal_tube_forward": _flow(lambda a: a["alpha_pair"][1].resolution),
    "tubes.diagonal_tube_inverse": _flow(lambda a: a["beta_pair"][1].resolution),
    "manifolds.integrate_geodesic": _geodesic,
    "manifolds.integrate_transport": _transport,
    "loops.evaluate": _evaluate,
    "polarization.active_bandwidth": _bandwidth,
    "polarization.fredholm_data": _fredholm,
    "polarization.compactness_profile": _profile,
}
COUNTER_METRICS = ("tubes.flow_row_steps", "manifolds.rk4_steps",
                   "loops.evaluate_bytes", "polarization.svd_count",
                   "polarization.svd_flops")


def _assign(target, name: str, value) -> None:
    if isinstance(target, dict):
        target[name] = value
    else:
        setattr(target, name, value)


class Tracer:
    """Records spans of wrapped lab calls while a pass is open."""

    def __init__(self):
        self.active = False
        self.pass_id = -1
        self.names: list[str] = []
        self.span_id = array("q")
        self.parent = array("q")
        self.pass_of = array("q")
        self.name_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self.last_bandwidth = 0
        self.suite_names: list[str] = []
        self._patches: list[tuple] = []  # (namespace, name, wrapper, original)
        self._reset_pass()

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place in every package namespace."""
        if not self._patches:
            self._plan()
        for target, name, traced, _ in self._patches:
            _assign(target, name, traced)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for target, name, _, original in self._patches:
            _assign(target, name, original)

    def _plan(self) -> None:
        """Build one wrapper per public entry point and list where it goes."""
        suites = importlib.import_module("loopspace_lab.suites")
        cli = importlib.import_module("loopspace_lab.cli")
        self.suite_names = list(suites.SUITES)
        suite_of = {fn: name for name, fn in suites.SUITES.items()}
        wrapped = {}
        for layer in CLASS_LAYERS:
            mod = importlib.import_module(f"loopspace_lab.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    self._plan_methods(layer, obj)
        for name, obj in list(vars(suites).items()):
            if not name.startswith("_") and inspect.isfunction(obj) \
                    and obj.__module__ == suites.__name__:
                wrapped[obj] = self._wrap("suites", name, obj, suite_of.get(obj))
        wrapped[cli.main] = self._wrap("cli", "main", cli.main)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "loopspace_lab" or mod_name.startswith("loopspace_lab."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._patches.append((mod, name, wrapped[obj], obj))
        for name, fn in suites.SUITES.items():
            self._patches.append((suites.SUITES, name, wrapped[fn], fn))

    def _plan_methods(self, layer: str, cls) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(member, (staticmethod, classmethod)):
                traced = type(member)(self._wrap(layer, qual, member.__func__))
            elif inspect.isfunction(member):
                traced = self._wrap(layer, qual, member)
            else:
                continue
            self._patches.append((cls, name, traced, member))

    def _wrap(self, layer: str, qual: str, fn, suite: str | None = None):
        name = f"{layer}.{qual}"
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer._close(frame, parent, name_id, layer, suite, t0, t1)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments, result)
            return result

        return traced

    def _close(self, frame, parent, name_id, layer, suite, t0, t1) -> None:
        duration = t1 - t0
        self.self_s[layer] += duration - frame[1]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if suite is not None:
            self.suite_s[suite] += duration
        self.span_id.append(frame[0])
        self.parent.append(parent)
        self.pass_of.append(self.pass_id)
        self.name_of.append(name_id)
        self.start.append(t0)
        self.end.append(t1)

    # -- passes --------------------------------------------------------------------

    def _reset_pass(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.suite_s = defaultdict(float)
        self._first_span = len(self.span_id)

    def begin_pass(self, pass_id: int) -> None:
        self._reset_pass()
        self.pass_id = pass_id
        self.active = True

    def end_pass(self, wall_s: float) -> dict:
        """Per-layer metrics of the pass that just ended, given its wall time."""
        self.active = False
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        for name in COUNTER_METRICS:
            out[name] = self.counts[name]
        for suite in self.suite_names:
            out[f"suites.{suite}_s"] = self.suite_s[suite]
        out["trace.spans"] = len(self.span_id) - self._first_span
        out["trace.pass_s"] = wall_s
        # the benchmark's own loop between top-level lab calls, and the
        # counter bookkeeping after them
        out["trace.unattributed_s"] = wall_s - sum(self.self_s.values())
        return out

    def write(self, path) -> None:
        """Write every span as CSV rows, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,parent,pass,name,start,end\n")
            names = self.names
            for row in zip(self.span_id, self.parent, self.pass_of, self.name_of,
                           self.start, self.end):
                fh.write(f"{row[0]},{row[1]},{row[2]},{names[row[3]]},"
                         f"{row[4]!r},{row[5]!r}\n")
