"""Typed metrics registry: counters, timers, and gauges.

The registry is the single aggregation surface for every execution path
in the library.  Searchers accumulate into
:class:`~repro.core.base.SearchStats` on the hot path (plain attribute adds),
and that dataclass converts losslessly to and from a registry; parallel workers
ship registry
*snapshots* (plain nested dicts) back to the executor, which merges them
deterministically.  Three metric types with fixed merge semantics:

``Counter``
    Monotone integer count of abstract operations (postings entries,
    hash operations, results).  Merges by summation — a parallel run's
    merged counters are field-for-field identical to the serial run's.
``Timer``
    Accumulated wall-clock seconds of a phase.  Merges by summation;
    in a parallel run this is *busy* time summed over workers, which is
    why timers (unlike counters) legitimately differ from serial runs.
``Gauge``
    A point-in-time level (worker skew, pool size).  Merges by maximum,
    the only order-independent choice that keeps "worst observed"
    meaningful across workers.

Snapshots are canonical: keys are emitted in sorted order so two equal
registries serialize to identical JSON, so the records two runs of one
workload write (``--metrics-out``, ``/metrics``) diff counter for counter.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ..errors import ReproError


class ObservabilityError(ReproError):
    """A metric was redefined with a different type, or a snapshot is malformed."""


class Counter:
    """Monotone integer counter; merges by sum."""

    __slots__ = ("name", "value")
    kind = "counters"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Timer:
    """Accumulated wall-clock seconds; merges by sum (busy time)."""

    __slots__ = ("name", "seconds")
    kind = "timers"

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0

    def add(self, seconds: float) -> None:
        """Accumulate ``seconds`` of busy time."""
        self.seconds += seconds

    @contextmanager
    def time(self):
        """Context manager: accumulate the elapsed wall clock of the block."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.seconds += time.perf_counter() - started

    def __repr__(self) -> str:
        return f"Timer({self.name}={self.seconds:.6f}s)"


class Gauge:
    """Point-in-time level; merges by max (worst observed)."""

    __slots__ = ("name", "value")
    kind = "gauges"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


_KINDS = {cls.kind: cls for cls in (Counter, Timer, Gauge)}


class MetricsRegistry:
    """A named collection of typed metrics with deterministic merge.

    Metrics are created on first access (``registry.counter("hash_ops")``)
    and type-checked on every subsequent access: reusing a name with a
    different type raises :class:`ObservabilityError` instead of silently
    aliasing a timer onto a counter.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Timer | Gauge] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise ObservabilityError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)

    def timer(self, name: str) -> Timer:
        """Get or create the timer ``name``."""
        return self._get(name, Timer)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Canonical JSON-ready snapshot: ``{kind: {name: value}}``.

        Keys are sorted, so equal registries produce byte-identical
        JSON — the property the regression guard diffs against.
        """
        out: dict[str, dict] = {"counters": {}, "timers": {}, "gauges": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Timer):
                out["timers"][name] = metric.seconds
            else:
                out["gauges"][name] = metric.value
        return out

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict."""
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one (in place); returns self."""
        return self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, snapshot: dict) -> "MetricsRegistry":
        """Fold a snapshot dict into this registry (in place); returns self.

        Counters and timers add; gauges keep the maximum.  Unknown kinds
        or non-dict sections raise :class:`ObservabilityError`.
        """
        if not isinstance(snapshot, dict):
            raise ObservabilityError(
                f"snapshot must be a dict, got {type(snapshot).__name__}"
            )
        for kind, values in snapshot.items():
            if kind not in _KINDS:
                raise ObservabilityError(f"unknown metric kind {kind!r} in snapshot")
            if not isinstance(values, dict):
                raise ObservabilityError(f"snapshot section {kind!r} is not a dict")
            for name in sorted(values):
                value = values[name]
                if kind == "counters":
                    self.counter(name).inc(int(value))
                elif kind == "timers":
                    self.timer(name).add(float(value))
                else:
                    gauge = self.gauge(name)
                    gauge.set(max(gauge.value, float(value)))
        return self

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"
