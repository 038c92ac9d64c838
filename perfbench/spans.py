"""Span recording from outside the program.

The benchmark wraps the public functions of charbound's modules (and the
LAPACK entry ``numpy.linalg.svd``) while a traced pass runs, and restores
them afterwards.  Each call records a span (name, start, end, parent);
calls, inclusive and self time per function are derived from the spans.

A function is replaced in every module namespace that binds it, because
``tangent`` and ``certify`` import names with ``from ... import``.  The
package attribute ``charbound.certify`` is the function, not the module,
so modules are reached through ``importlib``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

#: (module, function) pairs to wrap; the span name is "<short module>.<function>".
TRACED = (
    ("charbound.certify", ("document_from_dict", "certify", "survey",
                           "goldman_check")),
    ("charbound.tangent", ("newton_refine", "tangent_report",
                           "relator_jacobian", "fox_matrix")),
    ("charbound.structure", ("analyze_structure", "is_irreducible_burnside",
                             "centralizer_dim")),
    ("charbound.grouprep", ("evaluate_word", "relator_residual",
                            "adjoint_operator")),
    ("charbound.cxla", ("inverse", "rank_and_margin", "least_squares_step")),
    ("numpy.linalg", ("svd",)),
)

#: Namespaces searched for bindings of a traced function.
NAMESPACE_PREFIXES = ("charbound", "numpy.linalg")


def span_name(module: str, function: str) -> str:
    short = module if module.startswith("numpy") else module.split(".")[-1]
    return f"{short}.{function}"


NAMES = tuple(span_name(m, f) for m, fs in TRACED for f in fs)


class Tracer:
    """Collects spans and folds them into per-function totals."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []
        self.calls = dict.fromkeys(NAMES, 0)
        self.inclusive = dict.fromkeys(NAMES, 0.0)
        self.self_time = dict.fromkeys(NAMES, 0.0)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def fold(self, scale: float = 1.0) -> None:
        """Add the recorded spans, times multiplied by ``scale``, to the
        totals and clear them.

        Self time is a span's duration minus that of its direct child
        spans; inclusive time counts only spans with no ancestor of the
        same name, so recursion is not counted twice.
        """
        if self._stack:
            raise RuntimeError("fold() called while spans are open")
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            self.calls[name] += 1
            self.self_time[name] += (duration - children[i]) * scale
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                self.inclusive[name] += duration * scale
        self.spans.clear()

    @contextmanager
    def installed(self):
        """Wrap every traced function in every namespace binding it."""
        patched = []
        namespaces = [m for key, m in list(sys.modules.items())
                      if any(key == p or key.startswith(p + ".")
                             for p in NAMESPACE_PREFIXES)]
        try:
            for module_name, functions in TRACED:
                module = importlib.import_module(module_name)
                for function in functions:
                    original = getattr(module, function)
                    wrapper = self.wrap(span_name(module_name, function), original)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                setattr(ns, attr, wrapper)
                                patched.append((ns, attr, original))
            yield
        finally:
            for ns, attr, original in reversed(patched):
                setattr(ns, attr, original)
