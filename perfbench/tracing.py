"""Spans around su4rabi's public functions, recorded from outside the package.

``Tracer.installed`` replaces every binding of each traced function in the
loaded ``su4rabi`` modules with a recording wrapper and puts the originals
back on exit. Every binding matters: ``from .spectral import jacobi_eigh``
gives ``dynamics`` and ``cli`` their own names for the same function, and a
caller looks up only its own.

Spans are kept in memory as ``[name, start, end, parent]`` lists, ``parent``
being the index of the enclosing span or -1. Wrappers record only while
``active`` is true, so the benchmark's own correctness checks, which call
the same functions, leave no spans.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

Counter = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """One traced function: the module that defines it, its name there,
    the span name, and an optional hook that adds to the work counters."""

    module: str
    attr: str
    span: str
    count: Counter | None = None


def _count_rk4(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    t_grid = args[3] if len(args) > 3 else kwargs["t_grid"]
    tracer.counters["dynamics.rk4_solve.steps"] += len(t_grid) - 1


def _count_spectral(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["dynamics.trace_via_spectral.points"] += len(result.times)


def _count_csv(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    path, trace = args[0], args[1]
    tracer.counters["cli.write_trace_csv.rows"] += len(trace.times)
    tracer.counters["cli.write_trace_csv.bytes"] += os.path.getsize(path)


def _keep_eigensystem(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    # the residual is computed after the pass, outside every timed region
    tracer.eigensystems.append((args[0], result))


TARGETS = (
    Target("su4rabi.algebra", "build_generators", "algebra.build_generators"),
    Target("su4rabi.algebra", "structure_constants", "algebra.structure_constants"),
    Target("su4rabi.algebra", "verify_algebra", "algebra.verify_algebra"),
    Target("su4rabi.models", "hamiltonian_t", "models.hamiltonian_t"),
    Target("su4rabi.frame", "rotate", "frame.rotate"),
    Target("su4rabi.frame", "check_time_independence", "frame.check_time_independence"),
    Target("su4rabi.spectral", "jacobi_eigh", "spectral.jacobi_eigh", _keep_eigensystem),
    Target("su4rabi.dynamics", "rk4_solve", "dynamics.rk4_solve", _count_rk4),
    Target("su4rabi.dynamics", "trace_via_spectral", "dynamics.trace_via_spectral",
           _count_spectral),
    Target("su4rabi.symmetry", "check_inversion", "symmetry.check_inversion"),
    Target("su4rabi.symmetry", "spin32_reduction", "symmetry.spin32_reduction"),
    Target("su4rabi.cli", "write_trace_csv", "cli.write_trace_csv", _count_csv),
    Target("su4rabi.cli", "main", "cli.main"),
)


def rk4_core_target() -> Target | None:
    """The RK4 inner loop that ``su4rabi._backend`` selected, if the package
    still has one; ``dynamics.kernels`` may be the compiled or the NumPy
    module, and a package without the backend switch has neither."""
    dynamics = sys.modules.get("su4rabi.dynamics")
    kernels = getattr(dynamics, "kernels", None)
    if kernels is None or not hasattr(kernels, "rk4_trace"):
        return None
    return Target(kernels.__name__, "rk4_trace", "dynamics.rk4_core")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so children of one span
    never overlap and their durations can simply be subtracted.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, busy time and self time."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry["calls"] += 1
        entry["busy_s"] += span[2] - span[1]
        entry["self_s"] += own
    return dict(totals)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.eigensystems: list[tuple] = []
        self.active = False
        self._stack: list[int] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [target.span, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if target.count is not None:
                target.count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every binding of each target in the loaded su4rabi modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "su4rabi" or n.startswith("su4rabi."))]
        patched = []
        try:
            for target in targets:
                original = getattr(sys.modules[target.module], target.attr)
                wrapper = self.wrap(target, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            patched.append((module, name, original))
            yield self
        finally:
            for module, name, original in reversed(patched):
                setattr(module, name, original)

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False
