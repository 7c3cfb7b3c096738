"""Spans and work counts recorded around the package's public functions.

The tracer wraps each traced function at every binding its callers use
(``from .diagram import canonicalize`` copies the name into other
modules), so it changes no file of the package.  Spans stay in memory as
tuples ``(id, name, start, end, parent, request)`` and are written out
when the run ends.  Self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _points_in(tracer, bound, result):
    raw = bound.arguments["raw_points"]
    tracer.add("diagram.canonicalize.points_in", len(raw))
    tracer.add("diagram.canonicalize.kept", len(result.generators))


def _materialize_points(bound):
    # a one-shot iterator would be consumed by counting it
    raw = bound.arguments["raw_points"]
    if not isinstance(raw, (list, tuple, set, frozenset)):
        bound.arguments["raw_points"] = list(raw)


def _pairs_tested(tracer, bound, result):
    m = len(bound.arguments["g"].generators)
    tracer.add("diagram.compact_graph.pairs_tested", m * (m - 1) // 2)
    tracer.add("diagram.compact_graph.edges", len(result.edges))


def _subsets(tracer, bound, result):
    g = bound.arguments["g"]
    tracer.add("volume.diagram_facets.subsets", math.comb(len(g.generators) + g.dim, g.dim))
    tracer.add("volume.diagram_facets.facets", len(result))


def _tableau_cells(tracer, bound, result):
    a = bound.arguments
    rows = len(a["eq"]) + len(a["ub"])
    width = a["n"] if a["nonneg"] else 2 * a["n"]
    # phase-1 tableau: constraint rows plus the cost row; structural,
    # slack and artificial columns plus the right-hand side
    tracer.add("exactlp.solve_lp.tableau_cells", (rows + 1) * (width + len(a["ub"]) + rows + 1))


def _summand_vars(tracer, bound, result):
    tracer.add("decomposition.summand_system.vars", result.num_vertices * result.base.dim + result.num_edges)


def _terms_out(tracer, bound, result):
    tracer.add("polynomials.substitute_linear.terms_out", len(result.terms))


def _verified(tracer, bound, result):
    tracer.add("decomposition.verify_decomposition.true", int(bool(result)))


# (module, function, hook before the call, hook after it); call counts and
# self times are reported for every entry except summand_system, which is
# traced only for its variable count
TARGETS = (
    ("polynomials", "parse_polynomial", None, None),
    ("polynomials", "substitute_linear", None, _terms_out),
    ("diagram", "canonicalize", _materialize_points, _points_in),
    ("diagram", "member_of_hull", None, None),
    ("diagram", "compact_graph", None, _pairs_tested),
    ("diagram", "minkowski_sum", None, None),
    ("diagram", "is_homothetic_to", None, None),
    ("exactlp", "solve_lp", None, _tableau_cells),
    ("linalg", "rref", None, None),
    ("linalg", "rank", None, None),
    ("linalg", "det", None, None),
    ("linalg", "nullspace", None, None),
    ("linalg", "solve_unique", None, None),
    ("volume", "diagram_facets", None, _subsets),
    ("volume", "enumerate_vertices", None, None),
    ("volume", "polytope_volume", None, None),
    ("measures", "newton_number", None, None),
    ("decomposition", "summand_system", None, _summand_vars),
    ("decomposition", "decide_decomposability", None, None),
    ("decomposition", "verify_decomposition", None, _verified),
    ("cli", "execute", None, None),
    ("cli", "run_batch", None, None),
)
REPORTED = tuple(f"{mod}.{fn}" for mod, fn, _, _ in TARGETS if fn != "summand_system")

# computed work counts, and ratios of useful outcomes to attempts
WORK = (
    "exactlp.solve_lp.tableau_cells",
    "diagram.canonicalize.points_in",
    "diagram.compact_graph.pairs_tested",
    "volume.diagram_facets.subsets",
    "decomposition.summand_system.vars",
    "polynomials.substitute_linear.terms_out",
)
RATIOS = {
    "diagram.canonicalize.kept_ratio": ("diagram.canonicalize.kept", "diagram.canonicalize.points_in"),
    "diagram.compact_graph.edge_ratio": ("diagram.compact_graph.edges", "diagram.compact_graph.pairs_tested"),
    "volume.diagram_facets.facet_ratio": ("volume.diagram_facets.facets", "volume.diagram_facets.subsets"),
    "decomposition.verify_decomposition.true_ratio": (
        "decomposition.verify_decomposition.true",
        "decomposition.verify_decomposition.calls",
    ),
}


class Tracer:
    """Records spans and counts; one request is in flight at a time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: list[int] = []

    def add(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] += value

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, before=None, after=None):
        signature = inspect.signature(fn) if before or after else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if before:
                    before(bound)
                args, kwargs = bound.args, bound.kwargs
            stack = tracer._stack()
            # a pool thread's outermost call belongs to the client's open span
            parent = stack[-1] if stack else (tracer._client_stack[-1] if tracer._client_stack else None)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.request))
                tracer.add(name + ".calls", 1)
            if after:
                after(tracer, bound, result)
            return result

        return traced

    @contextmanager
    def installed(self, package: str = "pshdiag"):
        """Wrap every target at each module binding; restore them on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        patched = []
        for mod, fn_name, before, after in TARGETS:
            original = getattr(sys.modules[f"{package}.{mod}"], fn_name)
            wrapper = self.wrap(f"{mod}.{fn_name}", original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            # children of one span may overlap when they run on pool threads
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[name] += (end - start) - covered
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        self_s = self.self_times()
        metrics: dict[str, tuple[float, str]] = {}
        for name in REPORTED:
            metrics[f"{name}.calls"] = (self.counts.get(f"{name}.calls", 0), "count")
            metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        for name in WORK:
            metrics[name] = (self.counts.get(name, 0), "count")
        for name, (num, den) in RATIOS.items():
            base = self.counts.get(den, 0)
            metrics[name] = (self.counts.get(num, 0) / base if base else 0.0, "ratio")
        return metrics

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
