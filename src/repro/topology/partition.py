"""Topology partitioning for controller sharding.

A :class:`PartitionMap` splits a :class:`~repro.topology.network
.NetworkTopology` into named **regions** (one controller shard each) plus a
set of **border devices** shared by every region — in a fat-tree, the pods
are the regions and the core layer is the border.  Each region materialises
as a shard-local view (:meth:`NetworkTopology.subview`) containing the
region's devices *plus* the border, so intra-region traffic and placement
work entirely inside the view while the shared border keeps cross-region
paths reachable from every shard.

Views share ``Device``/``Link`` objects with the parent topology, so
allocation accounting stays globally consistent without any cross-shard
synchronisation: a border commit is seen by every sharing view, a
region-local commit only by its own.

:func:`partition_by_pod` derives the canonical partition from the pod
labels every builder in :mod:`repro.topology` assigns (``pod >= 0`` →
region ``pod<N>``, ``pod == -1`` → border); explicit maps describe
operator-defined regions on arbitrary topologies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.exceptions import TopologyError
from repro.topology.network import NetworkTopology

__all__ = ["PartitionMap", "partition_by_pod", "whole_fabric_partition"]


@dataclass
class PartitionMap:
    """Named disjoint device regions plus the border shared by all of them.

    Attributes
    ----------
    regions:
        ``region name -> device names``; regions must be pairwise disjoint.
    border:
        Devices shared by every region's view (e.g. the fat-tree core
        layer).  A border device belongs to no region.
    """

    regions: Dict[str, Set[str]] = field(default_factory=dict)
    border: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.regions = {name: set(devices)
                        for name, devices in self.regions.items()}
        self.border = set(self.border)
        if not self.regions:
            raise TopologyError("a partition map needs at least one region")
        owner: Dict[str, str] = {}
        for region, devices in self.regions.items():
            for device in devices:
                if device in self.border:
                    raise TopologyError(
                        f"device {device!r} is both in region {region!r} "
                        f"and on the border"
                    )
                if device in owner:
                    raise TopologyError(
                        f"device {device!r} is in regions {owner[device]!r} "
                        f"and {region!r}; regions must be disjoint"
                    )
                owner[device] = region
        self._region_of = owner

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def region_names(self) -> List[str]:
        return sorted(self.regions)

    def region_of_device(self, name: str) -> Optional[str]:
        """The region owning *name*, or None for border/unknown devices."""
        return self._region_of.get(name)

    def is_border(self, name: str) -> bool:
        return name in self.border

    def regions_of_device(self, name: str) -> List[str]:
        """Regions whose shard view contains *name* (all of them for border
        devices, which every view shares)."""
        if name in self.border:
            return self.region_names()
        region = self._region_of.get(name)
        return [region] if region is not None else []

    def region_of_group(self, topology: NetworkTopology, group: str) -> str:
        """The region owning a host group (via its ToR)."""
        tor = topology.host_group(group).tor
        region = self._region_of.get(tor)
        if region is None:
            raise TopologyError(
                f"host group {group!r} hangs off {tor!r}, which belongs to "
                f"no region (border devices cannot own host groups)"
            )
        return region

    def regions_of_groups(self, topology: NetworkTopology,
                          groups: Sequence[str]) -> List[str]:
        """Sorted distinct regions the given host groups live in."""
        return sorted({self.region_of_group(topology, g) for g in groups})

    # ------------------------------------------------------------------ #
    # validation + view construction
    # ------------------------------------------------------------------ #
    def validate(self, topology: NetworkTopology) -> None:
        """Check the map covers *topology* exactly (every device once)."""
        covered = set(self.border)
        for devices in self.regions.values():
            covered.update(devices)
        missing = set(topology.devices) - covered
        if missing:
            raise TopologyError(
                f"partition does not cover devices {sorted(missing)}"
            )
        unknown = covered - set(topology.devices)
        if unknown:
            raise TopologyError(
                f"partition names unknown devices {sorted(unknown)}"
            )

    def shard_views(self, topology: NetworkTopology
                    ) -> Dict[str, NetworkTopology]:
        """One shard-local view per region: region devices + the border.

        A partition with one region and no border is the fabric itself: its
        only "view" is *topology*, not a subview of it.
        """
        self.validate(topology)
        if len(self.regions) == 1 and not self.border:
            return dict.fromkeys(self.regions, topology)
        return {
            region: topology.subview(
                f"{topology.name}/{region}", devices | self.border
            )
            for region, devices in self.regions.items()
        }

    def __repr__(self) -> str:
        sizes = {region: len(devices)
                 for region, devices in sorted(self.regions.items())}
        return f"PartitionMap(regions={sizes}, border={len(self.border)})"


def partition_by_pod(topology: NetworkTopology) -> PartitionMap:
    """The canonical partition of a pod-labelled data-center topology.

    Devices with ``pod >= 0`` form one region per pod (``"pod0"``,
    ``"pod1"``, …); devices with ``pod == -1`` (the core layer, plus
    anything deliberately unassigned) become the shared border.  Falls back
    to a single whole-fabric region when the topology carries no pod labels
    at all — the degenerate partition under which sharding is a no-op.
    """
    regions: Dict[str, Set[str]] = {}
    border: Set[str] = set()
    for name, pod in topology.pods.items():
        if pod is None or pod < 0:
            border.add(name)
        else:
            regions.setdefault(f"pod{pod}", set()).add(name)
    if not regions:
        return whole_fabric_partition(topology)
    return PartitionMap(regions=regions, border=border)


def whole_fabric_partition(topology: NetworkTopology,
                           region: str = "fabric") -> PartitionMap:
    """A single region holding every device: the degenerate single shard,
    whose view is the fabric itself."""
    return PartitionMap(regions={region: set(topology.devices)}, border=set())
