"""In-memory span tracing for the traced benchmark run (``--trace 1``).

The library is measured from outside. The traced run rebinds module-level
names such as ``certificate.binom`` or ``numeric_search._ascend`` to
wrappers that open a span, call the original and close the span; the
untraced run installs nothing. Each span has a name, a start, an end,
the span that caused it and the benchmark operation it belongs to.

Hot leaf functions (``binom`` alone is called about 70k times per
ladder) would fill memory with span records, so a span is always folded
into per-name totals (calls, total and self nanoseconds, calls per
parent name) and only spans opened with ``keep=True`` (operations and
hunt stages) are kept whole. Self time is the span's duration minus the
durations of its direct children, computed as the spans close.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, op_id)
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.parent_calls: dict[tuple, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: dict[str, str] = {}  # rebound name -> why it is missing
        self.op_id = 0
        self._stack: list[list] = []  # [span id, name, start_ns, child_ns]
        self._next_id = 0
        self._rebound: list[tuple] = []

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def end(self, keep: bool = False) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_ns
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.parent_calls[(parent[1] if parent else None, name)] += 1
        if keep:
            self.spans.append((span_id, name, start, end, parent and parent[0], self.op_id))

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end(keep=True)

    def next_op(self) -> None:
        self.op_id += 1

    def wrap(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(keep)

        return traced

    def rebind(self, module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` by ``make(original)`` until ``restore``.

        A name the library no longer has is recorded in ``missing`` and
        left alone, so the metrics built on it are reported as missing.
        """
        original = getattr(module, attr, None)
        if original is None:
            where = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self.missing[where] = f"{module.__name__} has no attribute {attr!r} to rebind"
            return
        setattr(module, attr, make(original))
        self._rebound.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def snapshot(self) -> dict[str, float]:
        """Flat view of every total and counter, for per-round differences."""
        flat: dict[str, float] = dict(self.counters)
        for name, (calls, total_ns, self_ns) in self.totals.items():
            flat[f"{name}.calls"] = calls
            flat[f"{name}.total_ns"] = total_ns
            flat[f"{name}.self_ns"] = self_ns
        for (parent, name), calls in self.parent_calls.items():
            flat[f"{parent}>{name}.calls"] = calls
        return flat

    def reset(self) -> None:
        self.spans.clear()
        self.totals.clear()
        self.parent_calls.clear()
        self.counters.clear()
        self.op_id = 0


class NullTracer:
    """Stands in for ``Tracer`` in the untraced run: records nothing."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def next_op(self) -> None:
        pass


# Where each per-layer metric is measured: metric name prefix -> the
# library names the traced run rebinds for it. A metric whose source
# cannot be rebound is reported as missing, with the reason.
SOURCES = {
    "exactmath.binom.": ("certificate.binom", "expansion.binom", "numeric_search.binom"),
    "exactmath.majorizes.": ("certificate.majorizes",),
    "expansion.shadow.": ("expansion.shadow", "certificate.shadow", "numeric_search.shadow"),
    "expansion.orbit_exponents.": ("certificate.orbit_exponents",),
    "expansion.lhs_orbits.": ("certificate.lhs_orbits",),
    "certificate.check_line.": ("certificate.check_line",),
    "certificate.search.edge_yield": ("certificate.check_line",),
    "numeric_search.scan.": ("numeric_search._scan_block",),
    "numeric_search.ascent.": ("numeric_search._ascend",),
    "numeric_search.other_s": ("numeric_search._scan_block", "numeric_search._ascend"),
    "numeric_search.batch_defects.": ("numeric_search._batch_defects",),
    "numeric_search.kernel_ns_per_row.": ("numeric_search._batch_defects",),
    "numeric_search.nonfinite_rows": ("numeric_search._batch_defects",),
    "graded_space.scalar_profile.": ("graded_space.scalar_profile",),
    "graded_space.scalar_norm.": ("graded_space.scalar_norm",),
    "graded_space.vectors_built_per_call": ("GradedVector.__post_init__",),
}


def missing_reason(tracer: Tracer, metric: str) -> str | None:
    for prefix, sources in SOURCES.items():
        if metric.startswith(prefix):
            reasons = [tracer.missing[s] for s in sources if s in tracer.missing]
            if reasons:
                return "; ".join(reasons)
    return None


def _count_batch_defects(tracer: Tracer, fn: Callable) -> Callable:
    """Counts calls, rows and non-finite rows; times multi-row calls.

    Single-row calls (the ascent) cost mostly call overhead, so the
    kernel's ns per row is taken from the multi-row blocks only. No span
    is opened: the scan's self time is meant to include its kernel.
    """
    counters = tracer.counters

    @functools.wraps(fn)
    def counted(exponents, a, b):
        start = time.perf_counter_ns()
        defect, rel = fn(exponents, a, b)
        elapsed = time.perf_counter_ns() - start
        rows = rel.shape[0]
        counters["numeric_search.batch_defects.calls"] += 1
        counters["numeric_search.batch_defects.rows"] += rows
        counters["numeric_search.nonfinite_rows"] += rows - int(np.count_nonzero(np.isfinite(rel)))
        if rows > 1:
            r = exponents.shape[0]
            counters[f"kernel_ns.r{r}"] += elapsed
            counters[f"kernel_rows.r{r}"] += rows
        return defect, rel

    return counted


def _count_calls(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(*args: Any, **kwargs: Any) -> Any:
        tracer.counters[name] += 1
        return fn(*args, **kwargs)

    return counted


def instrument(tracer: Tracer, lib: Any) -> None:
    """Rebind the library names that the per-layer metrics are measured at."""
    cert, exp, ns, gs = lib.certificate, lib.expansion, lib.numeric_search, lib.graded_space

    def spans(name: str, keep: bool = False) -> Callable[[Callable], Callable]:
        return lambda fn: tracer.wrap(name, fn, keep)

    for module in (cert, exp, ns):
        tracer.rebind(module, "binom", spans("exactmath.binom"))
    tracer.rebind(cert, "majorizes", spans("exactmath.majorizes"))
    for module in (exp, cert, ns):
        tracer.rebind(module, "shadow", spans("expansion.shadow"))
    tracer.rebind(cert, "orbit_exponents", spans("expansion.orbit_exponents"))
    tracer.rebind(cert, "lhs_orbits", spans("expansion.lhs_orbits"))
    tracer.rebind(cert, "check_line", spans("certificate.check_line"))
    tracer.rebind(ns, "_scan_block", spans("numeric_search.scan", keep=True))
    tracer.rebind(ns, "_ascend", spans("numeric_search.ascent", keep=True))
    tracer.rebind(ns, "_batch_defects", lambda fn: _count_batch_defects(tracer, fn))
    tracer.rebind(gs, "scalar_profile", spans("graded_space.scalar_profile"))
    tracer.rebind(gs, "scalar_norm", spans("graded_space.scalar_norm"))
    tracer.rebind(
        gs.GradedVector,
        "__post_init__",
        lambda fn: _count_calls(tracer, "graded_space.vectors_built", fn),
    )
