"""Per-layer tracing of the certifier, from outside the package.

``traced(tracer)`` replaces each public function listed in ``LAYERS`` with a
wrapper that records a span (name, parent span, start, end) in memory, and
puts every original back on exit.  The package binds most of these
functions with ``from .x import f``, so the wrapper goes into every
``cotangent_kahler`` module namespace that holds the original object;
``CotangentPoint.at`` is a classmethod and is wrapped on the class.

Two counters ride on the spans: ``fd.field_evals`` counts calls of the
callable handed to ``fd_partial`` (one per stencil point), and the frame
gradient rows computed (2n per ``frame_gradient`` call) give the share of
rows ``covariant_field_derivative`` actually uses.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "cotangent_kahler"

# Layer module -> public functions timed in that layer.
LAYERS = {
    "base": ("space_form_metric", "base_curvature"),
    "mtensor": ("CotangentPoint.at", "fiber_jets"),
    "structure": (
        "assemble_complex_structure",
        "nijenhuis_closed_form",
        "nijenhuis_numeric",
        "dform_residual",
    ),
    "connection": (
        "connection_coefficients",
        "kahler_connection_coefficients",
        "connection_fiber_derivatives",
        "covariant_field_derivative",
        "koszul_nabla",
        "torsion_residual",
        "metric_compatibility_residual",
    ),
    "curvature": (
        "curvature_blocks",
        "apply_curvature",
        "ricci_from_blocks",
        "ricci_closed_form",
        "pair_symmetry_residual",
        "holomorphic_sectional_curvature",
        "curvature_fd",
        "mixed_ricci_fd",
        "nabla_curvature_probe",
    ),
    "einstein": (
        "gamma_factor",
        "einstein_difference",
        "einstein_difference_closed_form",
        "einstein_residual",
    ),
    "fd": ("fd_partial", "frame_gradient"),
    "suites": ("sample_points",),
}

SUITE_NAMES = (
    "almost_kahler",
    "integrability",
    "connection",
    "curvature",
    "einstein",
    "witnesses",
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """In-memory spans ``[name, parent index, start, end]`` plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.field_evals = 0
        self.gradient_rows = 0

    def wrap(self, name_of, fn, adapt=None):
        """``fn`` with a span around each call; ``name_of(args)`` names it.

        ``adapt(args, kwargs)`` may rewrite the arguments before the call.
        """
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            span = [name_of(args), stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return wrapper

    def count_field_evals(self, args, kwargs):
        """Hand ``fd_partial`` a counting copy of its field callable."""
        args = list(args)
        field = args[0] if args else kwargs["f"]

        def counted(x):
            self.field_evals += 1
            return field(x)

        if args:
            args[0] = counted
        else:
            kwargs = dict(kwargs, f=counted)
        return tuple(args), kwargs

    def count_gradient_rows(self, args, kwargs):
        q = args[1] if len(args) > 1 else kwargs["q"]
        self.gradient_rows += 2 * len(q)
        return args, kwargs

    def metrics(self, pauses=()) -> dict[str, float]:
        """Calls and self time per span name, the counters and suite times.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on this single thread.  ``pauses``
        are sorted ``(start, end)`` intervals in which the run was stopped
        to do other work; they are taken out of every span around them.
        """
        starts = [start for start, _ in pauses]
        paused = list(itertools.accumulate((end - start for start, end in pauses), initial=0.0))
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        suite_s = {f"suites.{name}": 0.0 for name in SUITE_NAMES}
        for name, parent, start, end in self.spans:
            inside = paused[bisect.bisect_left(starts, end)] - paused[bisect.bisect_left(starts, start)]
            duration = end - start - inside
            if name in suite_s:
                suite_s[name] += duration
            else:
                calls[name] += 1
                self_s[name] += duration
            if parent >= 0:
                parent_name = self.spans[parent][0]
                if parent_name in self_s:
                    self_s[parent_name] -= duration
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["fd.field_evals"] = self.field_evals
        cfd_calls = calls["connection.covariant_field_derivative"]
        out["fd.gradient_rows_used"] = cfd_calls / self.gradient_rows if self.gradient_rows else 0.0
        for name, seconds in suite_s.items():
            out[f"{name}.s"] = seconds
        return out


def _rebind(original, replacement, undo: list) -> None:
    """Point every package module attribute bound to ``original`` at
    ``replacement``, remembering how to undo it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
                undo.append(functools.partial(namespace.__setitem__, attr, original))


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    adapters = {
        "fd.fd_partial": tracer.count_field_evals,
        "fd.frame_gradient": tracer.count_gradient_rows,
    }
    undo: list = []
    try:
        for mod, fns in LAYERS.items():
            module = importlib.import_module(f"{PACKAGE}.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                label = functools.partial(_constant, name)
                owner, _, attr = fn.rpartition(".")
                cls = getattr(module, owner, None) if owner else None
                original = vars(cls).get(attr) if cls is not None else getattr(module, fn, None)
                if original is None:
                    # A function a later version removed reports zero calls.
                    print(f"tracing: {name} not found, not traced", file=sys.stderr)
                    continue
                if cls is not None:
                    setattr(cls, attr, classmethod(tracer.wrap(label, original.__func__)))
                    undo.append(functools.partial(setattr, cls, attr, original))
                    continue
                _rebind(original, tracer.wrap(label, original, adapters.get(name)), undo)
        run_suite = importlib.import_module(f"{PACKAGE}.suites").run_suite
        _rebind(run_suite, tracer.wrap(_suite_label, run_suite), undo)
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


def _constant(name: str, args) -> str:
    return name


def _suite_label(args) -> str:
    return f"suites.{args[0]}"


def unit_of(name: str) -> str:
    """Unit of a per-layer metric reported by ``Tracer.metrics`` or run.py."""
    if name.endswith(".calls") or name == "fd.field_evals":
        return "count"
    if name == "fd.gradient_rows_used":
        return "ratio"
    return "s"
