"""repro.obs: the observability layer (phase tracing + metrics registry).

Two orthogonal primitives:

* :class:`MetricsRegistry` — typed counters / timers / gauges with
  deterministic merge semantics.  :class:`~repro.core.base.SearchStats` sits
  on top of it: searchers accumulate plain attributes on the hot path
  and convert to registries at reporting boundaries; parallel workers
  ship registry snapshots back with each chunk and the executor merges
  them, so serial and ``--jobs N`` runs of one workload produce
  identical merged counters.
* :class:`~repro.obs.trace.Tracer` — hierarchical span timing emitting
  JSON-lines events; disabled by default at near-zero cost.  Enabled by
  the CLI's ``--trace FILE`` flag or :func:`configure_tracing`.

See ``docs/architecture.md`` (span model, merge semantics) and
``docs/tuning.md`` (reading trace output) for the operator view.
"""

from .registry import MetricsRegistry
from .trace import configure_tracing, disable_tracing, get_tracer

__all__ = [
    "MetricsRegistry",
    "get_tracer",
    "configure_tracing",
    "disable_tracing",
]
