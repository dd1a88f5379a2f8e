"""Span tracer that times slqr's layers from outside the package.

Each traced function is replaced, at the module attribute where its callers
look it up, by a wrapper that records one span per call: name, start, end,
the enclosing span and the benchmark phase. Spans stay in memory; the
benchmark turns them into per-layer metrics when the run ends. Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field


class TracerError(RuntimeError):
    """The tracer cannot observe what the workload is meant to exercise."""


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at top level
    phase: str
    start: float = 0.0
    end: float = 0.0
    raised: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install wrappers with :meth:`wrap`, remove them with :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.measure_s: Counter[str] = Counter()   # time in measure(), by phase
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module_name: str, attr: str, span_name: str, measure=None,
             before=None, after=None):
        """Time every call made through ``module_name.attr`` as ``span_name``.

        ``measure(args, kwargs, result)`` may return a dict of counts stored
        on the span; it runs after the span has ended. ``before()`` and
        ``after()`` run outside the span, before it and after a normal
        return. A missing attribute raises TracerError, so a renamed
        function cannot leave a layer silently empty.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            raise TracerError(f"{module_name}.{attr} is missing or not callable; "
                              f"span {span_name!r} cannot be traced")
        if any(m is module and a == attr for m, a, _ in self._patches):
            raise TracerError(f"{module_name}.{attr} is wrapped twice")
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            span = Span(span_name, stack[-1] if stack else -1, self.phase)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.info = measure(args, kwargs, result)
                self.measure_s[span.phase] += time.perf_counter() - span.end
            if after is not None:
                after()
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def select(self, name: str, phases=("setup", "run")) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.phase in phases]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def require_calls(self, names):
        """Raise TracerError naming every span in ``names`` that never ran."""
        missing = sorted(n for n in names if not self.select(n))
        if missing:
            raise TracerError(f"spans recorded zero calls: {', '.join(missing)}")


def _noop():
    pass


def span_cost() -> float:
    """Seconds one wrapper adds to a call, timed on a wrapped no-op."""
    calls = 20000
    bare_fn = _noop
    probe = Tracer()
    probe.wrap(__name__, "_noop", "calibration")
    try:
        wrapped_fn = _noop   # the module attribute is now the wrapper
        timings = []
        for fn in (bare_fn, wrapped_fn):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            timings.append(time.perf_counter() - start)
    finally:
        probe.uninstall()
    return max(timings[1] - timings[0], 0.0) / calls
