"""Health monitoring: device/link state diffing and overload detection.

The :class:`HealthMonitor` is the sensing half of the runtime layer.  It
keeps the last-known operational state of every device and link of a
:class:`~repro.topology.network.NetworkTopology` and turns changes into
typed :class:`~repro.runtime.events.TopologyEvent`\\ s, via two inputs:

* :meth:`poll` — diff the topology's current device/link statuses against
  the last snapshot (covering changes made by other actors — an operator
  CLI, a failure injector, a test — directly on the topology);
* :meth:`observe_run` — consume the per-device counters of an emulator
  :class:`~repro.emulator.metrics.RunMetrics` and flag devices whose share
  of the run's packets exceeds the overload threshold.  Attach it to a
  :class:`~repro.emulator.network.NetworkEmulator` with :meth:`attach` and
  every ``run()`` feeds the monitor automatically.

Subscribers receive events synchronously, in emission order.  The monitor
never mutates the topology — reacting (migrating, draining) is the
:class:`~repro.runtime.manager.RuntimeManager`'s job.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Tuple

from repro.emulator.metrics import RunMetrics
from repro.obs.metrics import Sample
from repro.runtime.events import (
    DEVICE_DOWN,
    DEVICE_DRAIN,
    DEVICE_OVERLOAD,
    DEVICE_UP,
    LINK_DOWN,
    LINK_REMOVED,
    LINK_UP,
    TopologyEvent,
)
from repro.topology.network import NetworkTopology

__all__ = ["HealthMonitor"]

#: Map device status strings to the event kind announcing the transition.
_STATUS_EVENT = {"down": DEVICE_DOWN, "drain": DEVICE_DRAIN, "up": DEVICE_UP}


class HealthMonitor:
    """Watches a topology's operational state and emits typed events.

    Parameters
    ----------
    topology:
        The network to watch.
    overload_packet_share:
        A device is flagged overloaded when it processes more than this
        fraction of a run's packets (and at least ``overload_min_packets``
        of them) — a coarse hot-spot detector over the emulator's
        per-device counters.
    overload_min_packets:
        Absolute floor below which a run is too small to judge overload.
    """

    def __init__(self, topology: NetworkTopology, *,
                 overload_packet_share: float = 0.5,
                 overload_min_packets: int = 100) -> None:
        self.topology = topology
        self.overload_packet_share = float(overload_packet_share)
        self.overload_min_packets = int(overload_min_packets)
        self._subscribers: List[Callable[[TopologyEvent], None]] = []
        self._device_status: Dict[str, str] = {}
        self._link_status: Dict[Tuple[str, str], str] = {}
        #: recent events, bounded — a long-lived service emits without end
        #: (e.g. one overload event per hot traffic run); lifetime totals
        #: live in the incremental counters behind :meth:`event_counts`
        self.events: "deque[TopologyEvent]" = deque(maxlen=256)
        self._event_counts: Dict[str, int] = {}
        self._obs = None
        self.refresh()

    # ------------------------------------------------------------------ #
    # subscriptions
    # ------------------------------------------------------------------ #
    def subscribe(self, callback: Callable[[TopologyEvent], None]) -> None:
        if callback not in self._subscribers:
            self._subscribers.append(callback)

    def emit(self, event: TopologyEvent) -> TopologyEvent:
        """Record *event* and deliver it to every subscriber, in order."""
        self.events.append(event)
        self._event_counts[event.kind] = (
            self._event_counts.get(event.kind, 0) + 1
        )
        if self._obs is not None:
            self._obs.events.emit(
                "topology_event", kind=event.kind, device=event.device,
                link=list(event.link) if event.link else None,
            )
        for callback in list(self._subscribers):
            callback(event)
        return event

    # ------------------------------------------------------------------ #
    # state diffing
    # ------------------------------------------------------------------ #
    def _current_links(self) -> Dict[Tuple[str, str], str]:
        links: Dict[Tuple[str, str], str] = {}
        for a, b, data in self.topology.graph.edges(data=True):
            key = (a, b) if a <= b else (b, a)
            links[key] = data["link"].status
        return links

    def refresh(self) -> None:
        """Adopt the topology's current state without emitting events.

        Used at construction and by actors that already announced their
        change through another channel (e.g. the runtime manager failing a
        device synchronously), so a later :meth:`poll` does not re-report
        it.
        """
        self._device_status = {
            name: device.status
            for name, device in self.topology.devices.items()
        }
        self._link_status = self._current_links()

    def poll(self) -> List[TopologyEvent]:
        """Diff the live topology against the last snapshot; emit changes."""
        emitted: List[TopologyEvent] = []
        for name, device in self.topology.devices.items():
            previous = self._device_status.get(name, "up")
            if device.status != previous:
                emitted.append(self.emit(TopologyEvent(
                    kind=_STATUS_EVENT[device.status],
                    device=name,
                    detail={"previous": previous},
                )))
        live_links = self._current_links()
        for key, status in live_links.items():
            previous = self._link_status.get(key, "up")
            if status != previous:
                emitted.append(self.emit(TopologyEvent(
                    kind=LINK_DOWN if status == "down" else LINK_UP,
                    device=key[0],
                    link=key,
                    detail={"previous": previous},
                )))
        for key in self._link_status:
            if key not in live_links:
                emitted.append(self.emit(TopologyEvent(
                    kind=LINK_REMOVED,
                    device=key[0],
                    link=key,
                )))
        self.refresh()
        return emitted

    # ------------------------------------------------------------------ #
    # overload detection (emulator hook)
    # ------------------------------------------------------------------ #
    def attach(self, emulator) -> None:
        """Register :meth:`observe_run` as a run observer on *emulator*."""
        emulator.add_observer(self.observe_run)

    def observe_run(self, metrics: RunMetrics) -> List[TopologyEvent]:
        """Flag devices that carried an outsized share of a run's packets."""
        if metrics.packets_sent <= 0:
            return []
        emitted: List[TopologyEvent] = []
        for name, packets in metrics.per_device_packets.items():
            if packets < self.overload_min_packets:
                continue
            share = packets / metrics.packets_sent
            if share > self.overload_packet_share:
                emitted.append(self.emit(TopologyEvent(
                    kind=DEVICE_OVERLOAD,
                    device=name,
                    detail={
                        "packets": packets,
                        "share": round(share, 4),
                        "instructions": metrics.per_device_instructions.get(
                            name, 0),
                    },
                )))
        return emitted

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def event_counts(self) -> Dict[str, int]:
        """Lifetime event totals per kind (not bounded by the event ring)."""
        return dict(self._event_counts)

    def bind_metrics(self, obs) -> None:
        """Expose this monitor on an :class:`~repro.obs.Observability` hub.

        Registers a render-time collector (lifetime event counts per kind
        plus an unavailable-device gauge) and mirrors every emitted
        :class:`TopologyEvent` into the hub's structured event log.
        Idempotent per (monitor, registry) pair.
        """
        self._obs = obs

        def _samples():
            samples = [
                Sample("clickinc_health_events_total", {"kind": kind}, count,
                       "counter", "Lifetime topology events per kind")
                for kind, count in sorted(self._event_counts.items())
            ]
            samples.append(Sample(
                "clickinc_unavailable_devices",
                {}, float(len(self.topology.unavailable_devices())),
                "gauge", "Devices currently failed or drained"))
            return samples

        obs.registry.register_collector(_samples, key=("health", id(self)))
