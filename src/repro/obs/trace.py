"""Hierarchical span tracing with JSON-lines output.

A *span* is one timed region of the pipeline (``index_build``,
``search``, ``parallel.run_workload`` ...).  Spans nest: entering a span
pushes it on the tracer's stack, so events record their parent and depth
and a trace viewer (or ``jq``) can reconstruct the tree.  One JSON
object per line::

    {"name": "pkwise.search", "span_id": 3, "parent_id": 2, "depth": 1,
     "start": 1754400000.123, "duration": 0.0042, "attrs": {"results": 17}}

Design constraints, in priority order:

1. **Near-zero disabled cost.**  The default tracer is disabled;
   ``span()`` then performs one attribute check and returns a shared
   no-op context manager — no allocation, no clock read.  Hot inner
   loops must never call ``span()`` per window regardless; spans sit at
   query/phase/chunk granularity.
2. **Fork safety.**  Worker processes inherit the parent's tracer under
   the ``fork`` start method.  Events are only written by the process
   that opened the sink (the pid is recorded at open), so workers never
   interleave partial lines into the parent's file; parallel workers
   report through their metrics registries instead.
3. **Crash legibility.**  A span closed by an exception still emits its
   event, with an ``error`` field naming the exception type.
"""

from __future__ import annotations

import json
import os
import time


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> "_NullSpan":
        """No-op; matches :meth:`Span.annotate`."""
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One timed region; use as a context manager via :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "depth",
                 "_started", "_wall")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: int | None = None
        self.depth = 0

    def annotate(self, **attrs) -> "Span":
        """Attach result attributes to the span (emitted on close)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        tracer._next_id += 1
        self.span_id = tracer._next_id
        stack = tracer._stack
        self.parent_id = stack[-1] if stack else None
        self.depth = len(stack)
        stack.append(self.span_id)
        self._wall = time.time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._started
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] == self.span_id:
            tracer._stack.pop()
        tracer._emit(self, duration, exc_type)
        return False


class Tracer:
    """Span factory bound to one JSON-lines sink (or disabled)."""

    def __init__(self, path: str | None = None) -> None:
        self._path: str | None = None
        self._handle = None
        self._owner_pid: int | None = None
        self._next_id = 0
        self._stack: list[int] = []
        if path is not None:
            self.configure(path)

    @property
    def enabled(self) -> bool:
        """True when spans are being recorded to a sink."""
        return self._path is not None

    # ------------------------------------------------------------------
    def configure(self, path: str) -> None:
        """Start (or redirect) tracing to ``path`` (append; written out by
        :meth:`disable`)."""
        self.disable()
        self._path = str(path)
        self._handle = open(self._path, "a", encoding="utf-8")
        self._owner_pid = os.getpid()

    def disable(self) -> None:
        """Stop tracing and close the sink; ``span()`` becomes a no-op."""
        handle, self._handle = self._handle, None
        self._path = None
        self._owner_pid = None
        if handle is not None and not handle.closed:
            handle.close()

    close = disable

    def forget(self) -> None:
        """Let go of a sink inherited across ``fork()`` and start a fresh
        span count, as a new process would.

        The parent still owns the file and whatever its buffer held when
        the process forked, so the handle is pointed at ``/dev/null``
        before it is closed: nothing is written twice.
        """
        handle, self._handle = self._handle, None
        self._path = None
        self._owner_pid = None
        self._next_id = 0
        self._stack = []
        if handle is not None and not handle.closed:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, handle.fileno())
            finally:
                os.close(devnull)
            handle.close()

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span | _NullSpan:
        """A context-managed span named ``name`` with static attributes."""
        if self._path is None:
            return _NULL_SPAN
        return Span(self, name, attrs)

    def _emit(self, span: Span, duration: float, exc_type) -> None:
        handle = self._handle
        if handle is None or handle.closed or os.getpid() != self._owner_pid:
            return
        event = {
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "depth": span.depth,
            "pid": self._owner_pid,
            "start": span._wall,
            "duration": duration,
        }
        if exc_type is not None:
            event["error"] = exc_type.__name__
        if span.attrs:
            event["attrs"] = span.attrs
        handle.write(json.dumps(event, default=str) + "\n")


#: Process-wide default tracer; disabled until :func:`configure_tracing`.
_DEFAULT_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer used by the library's spans."""
    return _DEFAULT_TRACER


def configure_tracing(path: str) -> Tracer:
    """Route the default tracer's events to ``path`` (JSON lines)."""
    _DEFAULT_TRACER.configure(path)
    return _DEFAULT_TRACER


def disable_tracing() -> None:
    """Turn the default tracer off and close its sink."""
    _DEFAULT_TRACER.disable()
