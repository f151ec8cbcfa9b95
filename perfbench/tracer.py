"""In-memory spans around the public calls of each varcert layer.

Spans are recorded from the benchmark's own files only: the benchmark opens
spans around the calls it makes, and in a traced op it temporarily replaces a
fixed list of module attributes (the names one layer uses to call another)
with timing wrappers, restoring them when the op ends. The recursive
``expr.diff`` and ``expr.simplify`` are never wrapped.

A layer's self time is a span's duration minus the time covered by its child
spans; calls in one thread nest, so that is the sum of the children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time

LAYERS = ("cli", "generator", "expr", "variational", "certify", "calculus", "jacobi")

def _points_from_grid(span, args, result):
    span.points = args[2].n + 1


def _points_from_abscissae(span, args, result):
    span.points = len(args[2])


def _steps(span, args, result):
    span.steps = args[2].n


def _one_call(span, args, result):
    span.calls = 1


# (module, attribute, span name, counter). A counter receives the span, the
# call's arguments and its result, and records work counts on the span.
WRAPS = (
    ("varcert.generator", "build", "generator.build", _one_call),
    ("varcert.generator", "certify", "certify.certify", None),
    ("varcert.cli", "build_with_info", "generator.build_spec", None),
    ("varcert.cli", "certify", "certify.certify", None),
    ("varcert.cli", "compare_criteria", "jacobi.compare", None),
    ("varcert.cli", "empirical_verify", "certify.ladder", None),
    ("varcert.certify", "el_residual_max", "variational.el_residual", _points_from_grid),
    ("varcert.certify", "legendre_profile", "variational.profile", _points_from_grid),
    ("varcert.certify", "classify", "certify.classify", None),
    ("varcert.certify", "quad_coefficient", "certify.quad_coefficient", None),
    ("varcert.certify", "functional_value", "certify.functional_value", _one_call),
    ("varcert.certify", "integrate", "calculus.integrate", None),
    ("varcert.certify", "h1_norm_sq", "calculus.integrate", None),
    ("varcert.jacobi", "legendre_profile", "variational.profile", _points_from_grid),
    ("varcert.jacobi", "solve_accessory", "jacobi.accessory", _steps),
    ("varcert.jacobi", "coefficient_samples", "jacobi.resample", _points_from_abscissae),
    ("varcert.jacobi", "first_conjugate_point", "jacobi.conjugate", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op",
                 "points", "steps", "calls", "instances", "tree", "dag")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.points = self.steps = self.calls = self.instances = 0
        self.tree = self.dag = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self, index) -> dict:
        out = {"id": index, "name": self.name, "start": self.start,
               "end": self.end, "parent": self.parent, "op": self.op}
        for key in ("points", "steps", "calls", "instances", "tree", "dag"):
            if getattr(self, key):
                out[key] = getattr(self, key)
        return out


class NullTracer:
    """Stands in for a tracer in untraced ops: opens no spans, wraps nothing."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext(Span(name, 0.0, None, None))

    def installed(self):
        return contextlib.nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, 0.0, parent, self.op)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Replace every attribute in WRAPS that exists; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, counter in WRAPS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(original, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, original, name, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if counter is not None:
                counter(record, args, result)
            return result
        return traced

    # ------------------------------------------------------------------
    # reduction

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def durations(self, *names) -> list:
        return [s.end - s.start for s in self.spans if s.name in names]

    def summed_by_parent(self, *names) -> list:
        """Per enclosing span, the summed duration of the named spans."""
        groups = {}
        for span in self.spans:
            if span.name in names:
                groups[span.parent] = groups.get(span.parent, 0.0) + span.end - span.start
        return list(groups.values())

    def layer_self_per_op(self, layer: str) -> list:
        """Per op that enters the layer, the layer's total self time in it."""
        per_op = {}
        for span, own in zip(self.spans, self.self_times()):
            if span.layer == layer:
                per_op[span.op] = per_op.get(span.op, 0.0) + own
        return list(per_op.values())

    def total(self, field: str, names: tuple, below_op: int) -> int:
        return sum(getattr(s, field) for s in self.spans
                   if s.name in names and s.op < below_op)

    def dump(self) -> list:
        return [span.as_dict(i) for i, span in enumerate(self.spans)]


def median(values) -> float:
    return statistics.median(values) if values else 0.0
