"""Network topology container.

A :class:`NetworkTopology` is a graph of :class:`~repro.devices.base.Device`
nodes plus host groups (racks of servers / trainers) attached to ToR switches.
It provides path enumeration between host groups, which the placement layer
uses to find the devices INC programs can occupy.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import networkx as nx

from repro.devices.base import Device
from repro.exceptions import TopologyError


@dataclass
class Link:
    """A bidirectional link between two nodes with a capacity in Gbps."""

    a: str
    b: str
    capacity_gbps: float = 100.0
    latency_ns: float = 1000.0
    status: str = "up"             # "up" or "down"

    def is_up(self) -> bool:
        return self.status == "up"


@dataclass
class HostGroup:
    """A group of end hosts (servers or ML trainers) under one ToR switch.

    ``name`` examples: ``"pod0(a)"``, ``"pod2(b)"`` as in the paper's Fig. 11.
    """

    name: str
    tor: str
    num_hosts: int = 16
    role: str = "client"          # "client" or "server"
    nic_type: Optional[str] = None  # e.g. "nfp" or "fpga_nic" for smartNIC racks


class NetworkTopology:
    """A data-center network of programmable devices.

    Attributes
    ----------
    graph:
        The underlying :class:`networkx.Graph`; node attributes carry the
        :class:`Device` objects, edge attributes carry :class:`Link` objects.
    layers:
        Mapping from device name to its layer label
        (``"tor"``, ``"agg"``, ``"core"``, ``"nic"``, ``"accel"``).
    """

    def __init__(self, name: str = "dcn") -> None:
        self.name = name
        self.graph = nx.Graph()
        self.devices: Dict[str, Device] = {}
        self.layers: Dict[str, str] = {}
        self.pods: Dict[str, int] = {}
        self.host_groups: Dict[str, HostGroup] = {}
        self.bypass: Dict[str, str] = {}   # switch name -> attached accelerator name
        # the forwarding graph and the (src_group, dst_group, max_paths) ->
        # path list memo, both valid for one forwarding epoch; routing
        # consults the latter once per emulated packet
        self._forwarding_cache: tuple = (None, None, {})
        # bumped by add_device / add_link, the structural changes no
        # device's forwarding version records
        self._structure_version = 0
        # shard-view bookkeeping: views share Device/Link objects with the
        # root topology, but each instance owns its graph structure, so
        # structural removals must propagate (see remove_link / subview)
        self._view_root = None                      # weakref to the root
        self._subviews: List = []                   # weakrefs to views

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_device(self, device: Device, layer: str, pod: int = -1) -> Device:
        if device.name in self.devices:
            raise TopologyError(f"duplicate device name {device.name!r}")
        self.devices[device.name] = device
        self.layers[device.name] = layer
        self.pods[device.name] = pod
        self.graph.add_node(device.name, device=device, layer=layer, pod=pod)
        self._structure_version += 1
        return device

    def add_link(self, a: str, b: str, capacity_gbps: float = 100.0,
                 latency_ns: float = 1000.0) -> Link:
        for node in (a, b):
            if node not in self.devices:
                raise TopologyError(f"link endpoint {node!r} is not a device")
        link = Link(a=a, b=b, capacity_gbps=capacity_gbps, latency_ns=latency_ns)
        self.graph.add_edge(a, b, link=link)
        self._structure_version += 1
        return link

    def attach_bypass(self, switch: str, accelerator: Device) -> None:
        """Attach a bypass accelerator card (e.g. FPGA) to *switch*.

        The accelerator enhances the switch's memory/compute capacity
        (paper §4.1: "a switch ASIC can be equipped with a bypass accelerator
        card"); placement treats the pair as co-located.
        """
        if switch not in self.devices:
            raise TopologyError(f"unknown switch {switch!r}")
        self.add_device(accelerator, layer="accel", pod=self.pods.get(switch, -1))
        self.add_link(switch, accelerator.name, capacity_gbps=100.0, latency_ns=500.0)
        self.bypass[switch] = accelerator.name

    def add_host_group(self, group: HostGroup) -> HostGroup:
        if group.tor not in self.devices:
            raise TopologyError(f"host group {group.name!r}: unknown ToR {group.tor!r}")
        if group.name in self.host_groups:
            raise TopologyError(f"duplicate host group {group.name!r}")
        self.host_groups[group.name] = group
        return group

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def device(self, name: str) -> Device:
        try:
            return self.devices[name]
        except KeyError as exc:
            raise TopologyError(f"unknown device {name!r}") from exc

    def neighbors(self, name: str) -> List[str]:
        return list(self.graph.neighbors(name))

    def host_group(self, name: str) -> HostGroup:
        try:
            return self.host_groups[name]
        except KeyError as exc:
            raise TopologyError(f"unknown host group {name!r}") from exc

    def link(self, a: str, b: str) -> Link:
        data = self.graph.get_edge_data(a, b)
        if data is None:
            raise TopologyError(f"no link between {a!r} and {b!r}")
        return data["link"]

    # ------------------------------------------------------------------ #
    # operational status (device failures, drains, link flaps)
    # ------------------------------------------------------------------ #
    def set_device_status(self, name: str, status: str) -> bool:
        """Mark a device ``"up"``, ``"drain"`` or ``"down"``.

        Non-up devices are excluded from forwarding paths and from placement
        candidates.  The status is part of the device's allocation state, so
        speculative plans placed before the change fail validation and
        stale plan-cache entries stop hitting.  Returns True when the status
        actually changed.
        """
        return self.device(name).set_status(status)

    def set_link_status(self, a: str, b: str, status: str) -> bool:
        """Mark the link between *a* and *b* ``"up"`` or ``"down"``.

        A link flip bumps both endpoints' topology versions (part of their
        allocation states), so placements computed when the link was in the
        old state no longer validate.  Returns True when the status
        actually changed.
        """
        if status not in ("up", "down"):
            raise TopologyError(f"unknown link status {status!r}")
        link = self.link(a, b)
        if link.status == status:
            return False
        link.status = status
        self.device(a).bump_topology_version()
        self.device(b).bump_topology_version()
        return True

    def remove_link(self, a: str, b: str) -> Link:
        """Permanently remove the link between *a* and *b*.

        Both endpoints' topology versions are bumped (the removal changes
        what placement and routing can rely on), so both get a new
        allocation state.  Returns the removed :class:`Link`.

        Status flips stay consistent across shard views automatically (the
        :class:`Link` object is shared), but each view owns its *graph*
        structure — so the removal is propagated to the root topology and
        every registered view that contains the edge, keeping routing and
        placement consistent no matter which instance the operator called.
        """
        link = self.link(a, b)
        for topo in self._view_family():
            if topo.graph.has_edge(a, b):
                topo.graph.remove_edge(a, b)
        self.device(a).bump_topology_version()
        self.device(b).bump_topology_version()
        return link

    def _view_family(self) -> List["NetworkTopology"]:
        """This topology's root plus every live registered shard view."""
        root = self
        if self._view_root is not None:
            resolved = self._view_root()
            if resolved is not None:
                root = resolved
        family = [root]
        family.extend(
            view for ref in root._subviews
            if (view := ref()) is not None
        )
        return family

    def down_devices(self) -> List[str]:
        """Names of devices currently failed (status ``"down"``)."""
        return sorted(
            name for name, device in self.devices.items()
            if device.status == "down"
        )

    def unavailable_devices(self) -> Dict[str, str]:
        """``name -> status`` of every device not serving (down or drain)."""
        return {
            name: device.status
            for name, device in sorted(self.devices.items())
            if not device.is_available()
        }

    # ------------------------------------------------------------------ #
    # path enumeration
    # ------------------------------------------------------------------ #
    def paths_between_groups(self, src_group: str, dst_group: str,
                             max_paths: int = 64) -> List[List[str]]:
        """All simple shortest paths (device name sequences) between two groups.

        Bypass accelerators are excluded from the forwarding path — they hang
        off a switch rather than sitting inline — but remain available to
        placement via :attr:`bypass`.
        """
        src_tor = self.host_group(src_group).tor
        dst_tor = self.host_group(dst_group).tor
        for tor, group in ((src_tor, src_group), (dst_tor, dst_group)):
            if not self.devices[tor].is_available():
                raise TopologyError(
                    f"host group {group!r} is unreachable: its ToR {tor!r} "
                    f"is {self.devices[tor].status}"
                )
        if src_tor == dst_tor:
            return [[src_tor]]
        # memoised per forwarding epoch: routing asks once per emulated
        # packet, and shortest-path enumeration dominates packet cost
        forwarding, paths_cache = self._forwarding()
        key = (src_group, dst_group, max_paths)
        cached = paths_cache.get(key)
        if cached is not None:
            return list(cached)
        try:
            paths = list(
                nx.all_shortest_paths(forwarding, source=src_tor, target=dst_tor)
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise TopologyError(
                f"no path between {src_group!r} and {dst_group!r}"
            ) from exc
        paths = paths[:max_paths]
        paths_cache[key] = paths
        return list(paths)

    def forwarding_epoch(self) -> tuple:
        """Moves exactly when routing can: never on an allocation.

        The sum of the per-device forwarding versions covers device status
        flips, link flips and link removals (made through this topology or
        any view sharing its devices: a removal bumps both endpoints); a
        structure counter covers ``add_device`` and ``add_link``.  Both are
        read in O(devices), without walking the graph.
        """
        return (
            sum(device.forwarding_version for device in self.devices.values()),
            self._structure_version,
        )

    def _forwarding(self) -> tuple:
        """``(forwarding graph, paths memo)`` of the live forwarding epoch.

        Both are replaced once per :meth:`forwarding_epoch` — commits and
        releases leave them alone — so routing (which runs per emulated
        packet) and tree reduction (once per placement) pay the graph
        construction once per topology change.
        """
        epoch = self.forwarding_epoch()
        cached_epoch, forwarding, paths_cache = self._forwarding_cache
        if cached_epoch != epoch:
            forwarding, paths_cache = self._build_forwarding_graph(), {}
            self._forwarding_cache = (epoch, forwarding, paths_cache)
        return forwarding, paths_cache

    def _build_forwarding_graph(self) -> "nx.Graph":
        """The live forwarding graph: no accelerators, no down devices/links."""
        usable = [
            n for n in self.graph.nodes
            if self.layers[n] != "accel" and self.devices[n].is_available()
        ]
        forwarding = nx.Graph()
        forwarding.add_nodes_from(usable)
        usable_set = set(usable)
        for a, b, data in self.graph.edges(data=True):
            if a in usable_set and b in usable_set and data["link"].is_up():
                forwarding.add_edge(a, b)
        return forwarding

    def paths_for_traffic(self, sources: Sequence[str], destination: str,
                          max_paths: int = 64) -> Dict[str, List[List[str]]]:
        """Paths from each source host group to the destination group."""
        return {
            src: self.paths_between_groups(src, destination, max_paths=max_paths)
            for src in sources
        }

    # ------------------------------------------------------------------ #
    # shard-local views (controller sharding)
    # ------------------------------------------------------------------ #
    def subview(self, name: str, device_names: Iterable[str],
                host_groups: Optional[Iterable[str]] = None
                ) -> "NetworkTopology":
        """A shard-local view over a subset of this topology's devices.

        The view is a real :class:`NetworkTopology` — path enumeration,
        placement and fingerprints all work on it — but it *shares* the
        underlying :class:`Device` and :class:`Link` objects with the parent
        (and with sibling views that include the same border devices).
        Allocations, status flips and version bumps are therefore globally
        consistent: a commit on a shared core device is seen by every view
        containing it, while commits on devices outside the view change
        nothing it reads.  That scoping is what lets one controller shard
        per view run without a global lock.

        *host_groups* defaults to every group whose ToR is in the view.
        """
        selected = set(device_names)
        unknown = selected - set(self.devices)
        if unknown:
            raise TopologyError(
                f"subview {name!r}: unknown devices {sorted(unknown)}"
            )
        view = NetworkTopology(name=name)
        for dev_name, device in self.devices.items():
            if dev_name not in selected:
                continue
            view.devices[dev_name] = device
            view.layers[dev_name] = self.layers[dev_name]
            view.pods[dev_name] = self.pods[dev_name]
            view.graph.add_node(dev_name, device=device,
                                layer=self.layers[dev_name],
                                pod=self.pods[dev_name])
        for a, b, data in self.graph.edges(data=True):
            if a in selected and b in selected:
                view.graph.add_edge(a, b, link=data["link"])
        for switch, accel in self.bypass.items():
            if switch in selected and accel in selected:
                view.bypass[switch] = accel
        if host_groups is None:
            groups = [g for g in self.host_groups.values()
                      if g.tor in selected]
        else:
            groups = []
            for group_name in host_groups:
                group = self.host_group(group_name)
                if group.tor not in selected:
                    raise TopologyError(
                        f"subview {name!r}: host group {group_name!r} hangs "
                        f"off {group.tor!r}, which is not in the view"
                    )
                groups.append(group)
        for group in groups:
            view.host_groups[group.name] = group
        # register the view with the family root so structural removals
        # (remove_link) propagate to every instance sharing the devices
        root = self._view_family()[0]
        view._view_root = weakref.ref(root)
        root._subviews = [ref for ref in root._subviews if ref() is not None]
        root._subviews.append(weakref.ref(view))
        return view

    def total_utilisation(self) -> float:
        if not self.devices:
            return 0.0
        return sum(d.utilisation() for d in self.devices.values()) / len(self.devices)

    def __repr__(self) -> str:
        notes = ""
        down = self.down_devices()
        if down:
            notes += f", down={down}"
        draining = [name for name, status in self.unavailable_devices().items()
                    if status == "drain"]
        if draining:
            notes += f", draining={draining}"
        return (
            f"NetworkTopology(name={self.name!r}, devices={len(self.devices)}, "
            f"links={self.graph.number_of_edges()}, "
            f"groups={len(self.host_groups)}{notes})"
        )
