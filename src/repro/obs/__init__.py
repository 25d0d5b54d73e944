"""Unified telemetry for the ClickINC control plane.

Three primitives and one hub:

* :class:`~repro.obs.metrics.MetricsRegistry` — labelled counters,
  gauges and fixed-bucket latency histograms, plus render-time
  collectors over the live :class:`~repro.core.stats.CounterMixin`
  bags.  Prometheus text exposition via ``render()``.
* :class:`~repro.obs.trace.Tracer` — per-submission span trees with a
  :class:`~repro.obs.trace.TraceContext` that propagates through the
  asyncio admission queue and through the cross-shard 2PC; bounded completed-trace ring with Chrome
  trace-event export.
* :class:`~repro.obs.events.EventLog` — a structured JSONL log of
  operational events (migrations, sheds, deadline aborts, device
  failures).

:class:`Observability` bundles the three.  Control-plane components take
an ``obs=`` keyword defaulting to the process-wide
:meth:`Observability.default` hub, so an ordinary deployment needs zero
configuration, tests can hand each fixture a private hub, and the
overhead benchmark can compare a fully-disabled hub against a live one.

``python -m repro.obs`` runs a small end-to-end deployment against a
fresh hub and dumps metrics, traces and events.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import EventLog, get_event_log
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    Sample,
    get_registry,
)
from repro.obs.profiling import (
    PlacementCounters,
    PlacementProfile,
    StageTimers,
    install_placement_collector,
)
from repro.obs.trace import (
    SpanRecord,
    TraceContext,
    Tracer,
    get_tracer,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "EventLog",
    "MetricsRegistry",
    "Observability",
    "PlacementCounters",
    "PlacementProfile",
    "Sample",
    "SpanRecord",
    "StageTimers",
    "TraceContext",
    "Tracer",
    "get_event_log",
    "get_registry",
    "get_tracer",
    "install_placement_collector",
]


class Observability:
    """Registry + tracer + event log, wired together.

    ``Observability()`` builds private live instances (what benchmarks
    and tests use); ``Observability(enabled=False)`` builds fully inert
    ones; :meth:`default` returns the shared process-wide hub over the
    module-level singletons that ``get_registry()`` / ``get_tracer()`` /
    ``get_event_log()`` also hand out.
    """

    _default: Optional["Observability"] = None

    def __init__(self, *, enabled: bool = True,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 events: Optional[EventLog] = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry(enabled=enabled)
        self.tracer = tracer if tracer is not None else Tracer(enabled=enabled)
        self.events = events if events is not None else EventLog(enabled=enabled)
        install_placement_collector(self.registry)

    @property
    def enabled(self) -> bool:
        return self.registry.enabled or self.tracer.enabled

    @classmethod
    def default(cls) -> "Observability":
        if cls._default is None:
            cls._default = cls(registry=get_registry(), tracer=get_tracer(),
                               events=get_event_log())
        return cls._default

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(enabled=False)
