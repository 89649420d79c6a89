"""Hierarchical span tracing for pipeline hot paths.

The paper's contribution is *measurement*: per-stage runtime and power
of compression and NFS writing. This module gives the reproduction the
same visibility into itself — every pipeline stage opens a
:class:`Span` (``with tracer.span("sz.quantize", bytes_in=...)``) and
the finished spans form a tree mirroring the call structure:

    campaign.run
      chunk.compress
        chunk.slab ...
      campaign.snapshot
        dump
          dump.ratio
          dump.compress
          dump.write

Spans carry wall time (``time.perf_counter`` based, relative to the
tracer's epoch), arbitrary attributes (byte counts, modeled energy,
frequencies) and an ``ok``/``error`` status; a span closed by an
exception is still recorded, marked failed, and the exception
propagates unchanged.

The process-wide default is a :class:`NullTracer` whose ``span()``
returns a shared no-op context manager — instrumented code pays one
method call per stage when tracing is off, so the hot paths stay within
noise of their uninstrumented cost. :func:`set_tracer` (or the
:func:`use_tracer` context manager, handy in tests) swaps in a real
:class:`Tracer`.

Per-thread span stacks make the tracer safe under the thread executor:
spans opened on different threads never corrupt each other's nesting;
spans opened on a worker thread with an empty stack become roots.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


@dataclass
class Span:
    """One timed stage of a run, possibly with child stages.

    Times are seconds relative to the owning tracer's epoch so a span
    dump is self-consistent without wall-clock anchoring.
    """

    name: str
    start_s: float
    end_s: float = 0.0
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return max(self.end_s - self.start_s, 0.0)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to an open (or finished) span; chainable."""
        self.attrs.update(attrs)
        return self

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Pre-order traversal yielding ``(span, depth)`` pairs."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)


class _NullSpan:
    """Shared do-nothing span/context-manager for the disabled tracer."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead default: every span is the same no-op object."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name: str, duration_s: float, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    @property
    def spans(self) -> Tuple[Span, ...]:
        return ()

    def reset(self) -> None:
        pass


class Tracer:
    """Collects a tree of :class:`Span` records per thread of execution."""

    enabled = True

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: List[Span] = []

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _attach(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span of whatever span is active on this thread.

        The yielded :class:`Span` accepts late attributes via
        :meth:`Span.set`. An exception inside the block marks the span
        ``error`` (recording the exception type and message) and
        re-raises.
        """
        sp = Span(name=name, start_s=self._now(), attrs=dict(attrs))
        stack = self._stack()
        stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.status = "error"
            sp.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            sp.end_s = self._now()
            stack.pop()
            self._attach(sp)

    def record_span(self, name: str, duration_s: float, **attrs: Any) -> Span:
        """Record an already-measured stage (e.g. an executor task whose
        wall time was clocked inside a worker) ending now.

        The duration is preserved exactly; the start is back-dated from
        "now", so it is layout-approximate and may precede the parent's
        start when workers overlapped.
        """
        end = self._now()
        sp = Span(
            name=name,
            start_s=end - max(float(duration_s), 0.0),
            end_s=end,
            attrs=dict(attrs),
        )
        self._attach(sp)
        return sp

    @property
    def spans(self) -> Tuple[Span, ...]:
        """Finished root spans, in completion order."""
        with self._lock:
            return tuple(self._roots)

    def reset(self) -> None:
        """Drop all recorded roots (open spans are unaffected)."""
        with self._lock:
            self._roots.clear()


_TRACER: "Tracer | NullTracer" = NullTracer()


def get_tracer() -> "Tracer | NullTracer":
    """The process-wide tracer (a :class:`NullTracer` unless enabled)."""
    return _TRACER


def set_tracer(tracer: "Tracer | NullTracer") -> "Tracer | NullTracer":
    """Install *tracer* as the process-wide tracer; returns the old one."""
    global _TRACER
    old = _TRACER
    _TRACER = tracer
    return old


@contextmanager
def use_tracer(tracer: "Tracer | NullTracer") -> Iterator["Tracer | NullTracer"]:
    """Temporarily install *tracer* (restores the previous on exit)."""
    old = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(old)
