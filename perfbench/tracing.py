"""Span tracing of plapopt from outside the package.

The public functions of each layer are wrapped by rebinding module
attributes, so plapopt itself is not edited. Every plapopt module that
imported one of those functions by name (``plapopt.optimizer.solve``,
``plapopt.perturbation.solve``, ...) is rebound too, and ``uninstall``
puts every original back. Private helpers such as
``solver._continuation`` are left alone: finite-difference solves appear
as ``deriv_finite_difference`` with the ``fem`` calls beneath it.

Spans are kept in memory: name, start, end, the index of the parent span
and the id of the benchmark op that caused them. Use one tracer per
traced pass, so that parent indices stay local to its span list.
"""

import contextlib
import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    start: float
    end: float = 0.0
    info: tuple = ()

    @property
    def seconds(self):
        return self.end - self.start


def _solve_info(result):
    _, report = result
    iters = report.iterations_per_stage
    return (sum(iters), iters[0], report.gradient_fallbacks)


def _maximize_info(result):
    _, _, history = result
    fixed = [fp for _, _, fp in history.restart_results]
    return (len(fixed), sum(fixed))


# (span name, module, attribute path, extractor of counts from the result)
TARGETS = (
    ("geometry.build_mesh", "plapopt.geometry", "build_disk_mesh", None),
    ("geometry.build_mesh", "plapopt.geometry", "build_square_mesh", None),
    ("fem.space", "plapopt.fem", "P1Space.__init__", None),
    ("fem.energy", "plapopt.fem", "P1Space.energy", None),
    ("fem.residual", "plapopt.fem", "P1Space.residual", None),
    ("fem.hessian", "plapopt.fem", "P1Space.hessian", None),
    ("fem.load_vector_from_function", "plapopt.fem",
     "P1Space.load_vector_from_function", None),
    ("solver.solve", "plapopt.solver", "solve", _solve_info),
    ("solver.spsolve", "plapopt.solver", "spsolve", None),
    ("rearrangement.best_response", "plapopt.rearrangement", "best_response", None),
    ("rearrangement.comonotonicity_defect", "plapopt.rearrangement",
     "comonotonicity_defect", None),
    ("optimizer.maximize", "plapopt.optimizer", "maximize_over_rearrangements",
     _maximize_info),
    ("perturbation.transport_load", "plapopt.perturbation", "transport_load", None),
    ("perturbation.deriv_volume_formula", "plapopt.perturbation",
     "deriv_volume_formula", None),
    ("perturbation.deriv_surfdiv_formula", "plapopt.perturbation",
     "deriv_surfdiv_formula", None),
    ("perturbation.deriv_bvjump_formula", "plapopt.perturbation",
     "deriv_bvjump_formula", None),
    ("perturbation.deriv_finite_difference", "plapopt.perturbation",
     "deriv_finite_difference", None),
    ("perturbation.derivative_report", "plapopt.perturbation",
     "derivative_report", None),
)


class Tracer:
    """Records nested spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []  # (owner, attribute, original) to restore

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, parent, self.op, time.perf_counter())
        self.spans.append(span)
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, op):
        """A span opened by the benchmark itself, around one op."""
        self.op = op
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)
            self.op = -1

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if info is not None:
                span.info = info(result)
            return result

        return traced

    def install(self):
        """Wrap every target in TARGETS, and every plapopt module's own
        binding of the same function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "plapopt" or k.startswith("plapopt."))]
        for name, module, path, info in TARGETS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, info)
            self._rebind(owner, attr, original, wrapper)
            if owner is sys.modules[module]:
                # other modules' imported bindings of the same function
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and not (mod is owner and key == attr):
                            self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Install, and restore every binding on exit."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans):
    """Per span, its duration minus the durations of its direct children.

    Calls are nested on one thread, so children never overlap and their
    durations sum to the part of the parent's interval they cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


def span_totals(spans):
    """{name: [calls, seconds, self seconds]} over one tracer's spans."""
    totals = {}
    for s, own in zip(spans, self_times(spans)):
        t = totals.setdefault(s.name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += s.seconds
        t[2] += own
    return totals
