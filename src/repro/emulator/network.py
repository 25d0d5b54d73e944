"""Network-level emulation: run placed programs over a topology.

The :class:`NetworkEmulator` binds placement plans to device runtimes, routes
packets along the topology's paths, applies the INC step protocol, and
collects :class:`~repro.emulator.metrics.RunMetrics`.  It is a flow-accurate
(not cycle-accurate) model: latency is the sum of link and device processing
latencies, and goodput is derived from the traffic reduction the INC programs
achieve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.stats import DataplaneStats
from repro.emulator.interpreter import (
    DeviceRuntime,
    ExecutionResult,
    StateStore,
)
from repro.emulator.metrics import RunMetrics
from repro.emulator.packet import Packet
from repro.exceptions import EmulationError
from repro.ir.program import IRProgram
from repro.placement.plan import PlacementPlan
from repro.topology.network import NetworkTopology


@dataclass
class DeploymentContext:
    """A deployed program: its plan plus routing information."""

    plan: PlacementPlan
    source_groups: List[str]
    destination_group: str
    user_id: int


class NetworkEmulator:
    """Packet-level emulation of INC programs deployed on a topology."""

    def __init__(self, topology: NetworkTopology) -> None:
        self.topology = topology
        #: Vectorized data-plane activity (:meth:`run_batch`) and register
        #: backing conversions; exposed on ``/v1/metrics`` via
        #: ``TrafficEngine.bind_metrics``.
        self.dataplane_stats = DataplaneStats()
        self.runtimes: Dict[str, DeviceRuntime] = {
            name: DeviceRuntime(device, self.dataplane_stats)
            for name, device in topology.devices.items()
        }
        self.deployments: Dict[str, DeploymentContext] = {}
        self._next_user_id = 1
        #: Run observers: callables invoked with the :class:`RunMetrics` of
        #: every completed :meth:`run` — the hook a
        #: :class:`~repro.runtime.health.HealthMonitor` uses to surface
        #: per-device overload without the emulator knowing about it.
        self.observers: List = []
        #: Per-owner breakdown of the last :meth:`run_batch`
        #: (:class:`~repro.emulator.engine.BatchReport`), for rate counters.
        self.last_batch = None

    def add_observer(self, callback) -> None:
        """Register a callable invoked with each :meth:`run`'s metrics."""
        if callback not in self.observers:
            self.observers.append(callback)

    # ------------------------------------------------------------------ #
    # deployment
    # ------------------------------------------------------------------ #
    def deploy(self, plan: PlacementPlan, source_groups: Sequence[str],
               destination_group: str, *,
               snippets: Optional[Dict[str, IRProgram]] = None
               ) -> DeploymentContext:
        """Install *plan*'s snippets on the device runtimes.

        *snippets* is ``plan.device_snippets()`` when the caller already
        holds it (the runtimes keep and only ever read them); derived
        otherwise.
        """
        owner = plan.program_name
        if owner in self.deployments:
            raise EmulationError(f"program {owner!r} is already deployed")
        if snippets is None:
            snippets = plan.device_snippets()
        steps = plan.step_table()
        for device_name, snippet in snippets.items():
            runtime = self.runtimes.get(device_name)
            if runtime is None:
                raise EmulationError(f"no runtime for device {device_name!r}")
            runtime.install_snippet(owner, snippet, steps)
        context = DeploymentContext(
            plan=plan,
            source_groups=list(source_groups),
            destination_group=destination_group,
            user_id=self._next_user_id,
        )
        self._next_user_id += 1
        self.deployments[owner] = context
        return context

    def undeploy(self, owner: str) -> None:
        context = self.deployments.pop(owner, None)
        if context is None:
            raise EmulationError(f"program {owner!r} is not deployed")
        for device_name in context.plan.devices_used():
            runtime = self.runtimes.get(device_name)
            if runtime is not None:
                runtime.remove_snippet(owner)

    def rollback_deploy(self, owner: str) -> List[str]:
        """Undo a (possibly partial) :meth:`deploy` of *owner*.

        Used by the deployment pipeline when an install fails part-way: some
        runtimes may already hold the snippet while no deployment context was
        registered yet.  Every runtime is scrubbed; returns the devices that
        were cleaned.
        """
        self.deployments.pop(owner, None)
        cleaned: List[str] = []
        for device_name, runtime in self.runtimes.items():
            if owner in runtime.installed_owners():
                runtime.remove_snippet(owner)
                cleaned.append(device_name)
        return cleaned

    # ------------------------------------------------------------------ #
    # packet processing
    # ------------------------------------------------------------------ #
    def run(self, packets: Sequence[Packet], link_latency_ns: float = 1000.0,
            end_host_latency_ns: float = 5000.0) -> RunMetrics:
        """Send *packets* through the network and return run metrics."""
        metrics = RunMetrics()
        for packet in packets:
            self._route_packet(packet, metrics, link_latency_ns, end_host_latency_ns)
        for observer in list(self.observers):
            observer(metrics)
        return metrics

    def run_batch(self, packets: Sequence[Packet],
                  link_latency_ns: float = 1000.0,
                  end_host_latency_ns: float = 5000.0) -> RunMetrics:
        """Vectorized :meth:`run`: same packets, same metrics, batched.

        Routes the batch through the compiled kernels of
        :mod:`repro.emulator.kernels` via a
        :class:`~repro.emulator.engine.BatchRunner`.  The result is
        bit-identical to :meth:`run` — final device state, per-packet
        outcomes and the returned metrics all match the scalar interpreter
        (``tests/test_dataplane_differential.py`` is the proof); owner
        groups the vectorizer cannot handle fall back to the scalar path
        transparently.  Observers fire exactly as in :meth:`run`.
        """
        from repro.emulator.engine import BatchRunner

        runner = BatchRunner(self)
        metrics = runner.run(packets, link_latency_ns, end_host_latency_ns)
        for observer in list(self.observers):
            observer(metrics)
        return metrics

    def _route_packet(self, packet: Packet, metrics: RunMetrics,
                      link_latency_ns: float, end_host_latency_ns: float) -> None:
        metrics.packets_sent += 1
        metrics.bytes_sent += packet.size_bytes()
        context = self.deployments.get(packet.owner)
        devices_with_snippet: set = set()
        if context is not None:
            packet.inc.user_id = context.user_id
            devices_with_snippet = set(context.plan.devices_used())
        path = self._choose_path(packet)

        for hop_index, device_name in enumerate(path):
            if hop_index > 0:
                packet.latency_ns += link_latency_ns
            runtime = self.runtimes[device_name]
            # the switch may offload work to its bypass accelerator
            targets = [device_name]
            bypass = self.topology.bypass.get(device_name)
            if bypass is not None and bypass in devices_with_snippet:
                targets.append(bypass)
            # smartNICs attached to the source rack process the packet first
            result = ExecutionResult()
            for target in targets:
                target_runtime = self.runtimes[target]
                if packet.owner in target_runtime.installed_owners():
                    result = target_runtime.process_packet(packet)
                    metrics.record_device(target, result.executed_instructions)
                    if result.dropped or result.reflected:
                        break
                else:
                    packet.latency_ns += target_runtime.device.processing_latency_ns * 0.25
                    packet.hops.append(target)
            if result.dropped:
                packet.finished_at_device = device_name
                metrics.packets_dropped_innetwork += 1
                metrics.total_latency_ns += packet.latency_ns
                metrics.bump("served_in_network")
                return
            if result.reflected:
                packet.finished_at_device = device_name
                metrics.packets_reflected += 1
                # the reply travels back to the source; the reflected result
                # is useful application data, so its bytes count as delivered
                packet.latency_ns += hop_index * link_latency_ns
                metrics.total_latency_ns += packet.latency_ns
                packet.inc.params.clear()
                metrics.bytes_reflected += packet.size_bytes()
                metrics.bump("served_in_network")
                return
            if result.mirrored:
                metrics.packets_mirrored += 1
            if result.copied_to_cpu:
                metrics.packets_to_cpu += 1

        # delivered to the destination host group: the last network device
        # strips the INC header (paper §6), so delivered bytes exclude it
        packet.latency_ns += end_host_latency_ns
        packet.inc.params.clear()
        metrics.packets_delivered += 1
        metrics.bytes_delivered += packet.size_bytes()
        metrics.total_latency_ns += packet.latency_ns

    def _choose_path(self, packet: Packet) -> List[str]:
        paths = self.topology.paths_between_groups(packet.src_group, packet.dst_group)
        if not paths:
            raise EmulationError(
                f"no path from {packet.src_group!r} to {packet.dst_group!r}"
            )
        # Flow-consistent ECMP: packets belonging to the same application flow
        # (same aggregation job / same key / same query value) must traverse
        # the same devices so they meet the same in-network state.  The flow
        # key mirrors what the INC layer would hash on.
        flow_key = (
            packet.owner,
            packet.get_field("seq", None),
            packet.get_field("key", None),
            packet.get_field("value", None),
        )
        index = hash(flow_key) % len(paths)
        path = list(paths[index])
        # a smartNIC on the source rack is the first processing hop
        group = self.topology.host_group(packet.src_group)
        if group.nic_type is not None:
            for name, layer in self.topology.layers.items():
                if layer == "nic" and self.topology.pods.get(name) == \
                        self.topology.pods.get(group.tor) and \
                        group.tor in self.topology.neighbors(name):
                    path.insert(0, name)
                    break
        return path

    # ------------------------------------------------------------------ #
    # state carry (live migration)
    # ------------------------------------------------------------------ #
    def snapshot_owner_state(self, owner: str,
                             skip_devices: Sequence[str] = ()
                             ) -> Dict[str, Dict[str, Dict]]:
        """Collect *owner*'s persistent state across its device runtimes.

        Returns ``state_name -> {"registers": {...}, "tables": {...}}``,
        merged across the devices hosting the owner's snippets (first
        writer wins on key collisions between replicated shards; partial
        per-path state is a property of the application, not of the
        emulator).  Devices in *skip_devices* — e.g. a failed switch whose
        memory is gone — contribute nothing.  The snapshot is what a live
        migration carries to the runtimes the re-placed plan lands on.
        """
        context = self.deployments.get(owner)
        if context is None:
            raise EmulationError(f"program {owner!r} is not deployed")
        skip = set(skip_devices)
        snippets = context.plan.device_snippets()
        snapshot: Dict[str, Dict[str, Dict]] = {}
        for device_name in context.plan.devices_used():
            if device_name in skip:
                continue
            runtime = self.runtimes.get(device_name)
            snippet = snippets.get(device_name)
            if runtime is None or snippet is None:
                continue
            for state_name in snippet.states:
                entry = snapshot.setdefault(
                    state_name, {"registers": {}, "tables": {}}
                )
                for key, value in runtime.state.registers.get(
                        state_name, {}).items():
                    entry["registers"].setdefault(key, value)
                for key, value in runtime.state.tables.get(
                        state_name, {}).items():
                    entry["tables"].setdefault(key, value)
        return snapshot

    def restore_owner_state(self, owner: str,
                            snapshot: Dict[str, Dict[str, Dict]]) -> None:
        """Write a :meth:`snapshot_owner_state` back into *owner*'s runtimes.

        Every device hosting one of the owner's snippets receives the
        snapshot entries for the states that snippet declares; states the
        new program version no longer declares are silently dropped, so the
        same call serves migrations and rolling updates.
        """
        context = self.deployments.get(owner)
        if context is None:
            raise EmulationError(f"program {owner!r} is not deployed")
        snippets = context.plan.device_snippets()
        for device_name, snippet in snippets.items():
            runtime = self.runtimes.get(device_name)
            if runtime is None:
                continue
            for state_name in snippet.states:
                entry = snapshot.get(state_name)
                if entry is None:
                    continue
                if entry["registers"]:
                    runtime.state.register_file(state_name).update(
                        entry["registers"])
                if entry["tables"]:
                    runtime.state.tables.setdefault(
                        state_name, {}).update(entry["tables"])

    # ------------------------------------------------------------------ #
    # inspection helpers
    # ------------------------------------------------------------------ #
    def runtime(self, device_name: str) -> DeviceRuntime:
        try:
            return self.runtimes[device_name]
        except KeyError as exc:
            raise EmulationError(f"unknown device {device_name!r}") from exc

    def reset_state(self) -> None:
        """Wipe every runtime's persistent state, keeping registered installs.

        Snippets of registered deployments are re-installed with fresh
        (empty) state; snippets without a deployment context — the residue
        of a partial deploy that was never committed — are scrubbed rather
        than left behind with their state declarations gone.
        """
        for runtime in self.runtimes.values():
            owners = list(runtime.installed_owners())
            runtime.state = StateStore(self.dataplane_stats)
            for owner in owners:
                context = self.deployments.get(owner)
                if context is None:
                    runtime.remove_snippet(owner)
                    continue
                snippets = context.plan.device_snippets()
                snippet = snippets.get(runtime.device.name)
                if snippet is not None:
                    runtime.install_snippet(owner, snippet, context.plan.step_table())
