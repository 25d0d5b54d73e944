"""Equivalence classes and topology simplification (paper §5.3, Appendix B.2).

Devices at the same layer of a pod that share the same wiring (and the same
type and resources) can be treated as one virtual node for placement: blocks
placed on the class are replicated on every member so traffic on every path
sees the same program.  The simplification turns a fat-tree into a small
tree, which the placement DP then splits into a client-side sub-tree and a
server-side sub-tree around the root (core) node.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro.devices.base import AllocState
from repro.exceptions import TopologyError
from repro.topology.network import NetworkTopology


@dataclass
class EquivalenceClass:
    """A set of devices that are interchangeable for placement.

    Members share the same layer, pod, device type and neighbour signature
    (the set of equivalence classes they connect to), so a block placed on
    the class is replicated on every member (paper Appendix B.2).
    """

    ec_id: str
    members: List[str]
    layer: str
    pod: int
    dev_type: str

    @property
    def size(self) -> int:
        return len(self.members)


def compute_equivalence_classes(topo: NetworkTopology,
                                devices: Optional[Iterable[str]] = None
                                ) -> List[EquivalenceClass]:
    """Group *devices* (default: all forwarding devices) into equivalence classes.

    The grouping is computed bottom-up: ToR switches connecting the same host
    groups fall into per-ToR classes (each ToR usually has its own racks, so
    most ToR classes are singletons); aggregation switches in the same pod
    with the same type form one class; core switches with the same type form
    one class.  Device type and per-device resource totals must match for two
    devices to share a class.
    """
    names = list(devices) if devices is not None else [
        name for name in topo.devices if topo.layers[name] not in ("accel",)
    ]
    # down / draining devices can never host placements
    names = [name for name in names if topo.device(name).is_available()]
    signature_to_members: Dict[Tuple, List[str]] = {}
    for name in names:
        device = topo.device(name)
        layer = topo.layers[name]
        pod = topo.pods[name]
        # "same physical wiring with the other classes" (paper §5.3): two
        # devices are equivalent only if they connect to the same forwarding
        # neighbours.  Bypass accelerators and NICs are excluded from the
        # wiring signature (each switch may have its own), but whether a
        # bypass exists is part of the signature because it changes capacity.
        wiring = frozenset(
            n for n in topo.neighbors(name) if topo.layers.get(n) not in ("accel", "nic")
        )
        if layer == "tor":
            # ToRs are additionally distinguished by the host groups they serve
            groups = tuple(
                sorted(g.name for g in topo.host_groups.values() if g.tor == name)
            )
            signature = ("tor", pod, device.dev_type, wiring, groups)
        elif layer == "agg":
            signature = (
                "agg", pod, device.dev_type, wiring, topo.bypass.get(name) is not None
            )
        elif layer == "core":
            signature = ("core", -1, device.dev_type, wiring, None)
        else:  # NICs and other leaves are singleton classes
            signature = (layer, pod, device.dev_type, wiring, name)
        signature_to_members.setdefault(signature, []).append(name)

    classes: List[EquivalenceClass] = []
    for index, (signature, members) in enumerate(sorted(signature_to_members.items(),
                                                        key=lambda kv: str(kv[0]))):
        layer, pod, dev_type = signature[0], signature[1], signature[2]
        classes.append(
            EquivalenceClass(
                ec_id=f"EC{index}_{layer}{'' if pod in (-1, None) else pod}",
                members=sorted(members),
                layer=layer,
                pod=pod if isinstance(pod, int) else -1,
                dev_type=dev_type,
            )
        )
    return classes


@dataclass
class ReducedNode:
    """A node of the reduced placement tree: one equivalence class.

    ``children`` point away from the root (the core layer).  ``side`` is
    ``"client"`` or ``"server"`` depending on which sub-tree the node belongs
    to (paper Fig. 9), and ``traffic_share`` is the fraction of the INC
    traffic that traverses this node.
    """

    ec: EquivalenceClass
    children: List["ReducedNode"] = field(default_factory=list)
    side: str = "client"
    traffic_share: float = 1.0
    bypass: List[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.ec.ec_id

    def iter_nodes(self) -> Iterable["ReducedNode"]:
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def leaves(self) -> List["ReducedNode"]:
        if not self.children:
            return [self]
        result: List[ReducedNode] = []
        for child in self.children:
            result.extend(child.leaves())
        return result


@dataclass
class ReducedTree:
    """The simplified placement structure: client and server sub-trees + root.

    The root is the equivalence class shared by both sides (the core layer in
    a fat-tree, or the aggregation layer when traffic stays inside one pod).
    """

    root: ReducedNode
    client_leaves: List[str]
    server_leaves: List[str]

    def all_nodes(self) -> List[ReducedNode]:
        return list(self.root.iter_nodes())



def node_content_key(node: ReducedNode, topo: NetworkTopology,
                     states: Optional[Mapping[str, AllocState]] = None
                     ) -> Tuple:
    """Name-blind content of one reduced node (ignoring its children).

    Two nodes with equal content keys host any block interval with the same
    feasibility and the same Eq. 1 gain: the key pins the traffic share, the
    replica count, and — through each member's and bypass's device type and
    allocation-state digest — the capacities, current allocations and
    status of every device the interval evaluation consults.  The states
    are read from *states* (a search's snapshot) when given, else live.
    Device *names* are deliberately excluded so symmetric devices in
    different pods compare equal (the digest is itself name-blind).
    """
    def content(name: str) -> Tuple[str, str]:
        state = states[name] if states is not None else topo.device(name).state
        return topo.device(name).dev_type, state.digest

    return (
        node.side,
        repr(float(node.traffic_share)),
        node.ec.layer,
        node.ec.dev_type,
        tuple(content(m) for m in node.ec.members),
        tuple(content(b) for b in node.bypass),
    )


def subtree_signature(node: ReducedNode, topo: NetworkTopology,
                      _cache: Optional[Dict[int, str]] = None,
                      states: Optional[Mapping[str, AllocState]] = None
                      ) -> str:
    """Recursive content digest of the sub-tree rooted at *node*.

    Two sub-trees with equal signatures are isomorphic by construction:
    their roots have equal :func:`node_content_key` and their children —
    *in order* — have equal signatures.  The DP placer uses this to solve
    one symmetric pod and replay the resulting table on every sibling with
    the same signature (see :func:`subtree_correspondence`).  Like the
    node keys, signatures are name-blind and change whenever any member's
    allocation state changes, so memoised tables are content-addressed.
    """
    cache = _cache if _cache is not None else {}
    node_key = id(node)
    cached = cache.get(node_key)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    hasher.update(repr(node_content_key(node, topo, states)).encode("utf-8"))
    for child in node.children:
        hasher.update(b"|")
        hasher.update(
            subtree_signature(child, topo, cache, states).encode("ascii"))
    digest = hasher.hexdigest()
    cache[node_key] = digest
    return digest


def subtree_class_ids(node: ReducedNode) -> List[str]:
    """Equivalence-class ids of the sub-tree in DFS pre-order."""
    return [n.ec.ec_id for n in node.iter_nodes()]


def subtree_correspondence(stored_ids: Sequence[str],
                           node: ReducedNode) -> Optional[Dict[str, str]]:
    """Bijective ec-id mapping from a stored sub-tree onto *node*'s.

    Both sides are DFS pre-order id lists of sub-trees with the same
    signature, so positions correspond one-to-one.  Group-wired fabrics can
    hang one node under several parents; the resulting repeated visits must
    map consistently, and the mapping must be a bijection — on any conflict
    the function returns ``None`` and the caller falls back to solving the
    sub-tree from scratch (correctness over reuse).
    """
    live_ids = subtree_class_ids(node)
    if len(stored_ids) != len(live_ids):
        return None
    mapping: Dict[str, str] = {}
    reverse: Dict[str, str] = {}
    for stored, live in zip(stored_ids, live_ids):
        seen = mapping.get(stored)
        if seen is None:
            if live in reverse:
                return None
            mapping[stored] = live
            reverse[live] = stored
        elif seen != live:
            return None
    return mapping


def _cyclic_nodes(nodes: Dict[str, ReducedNode]) -> List[str]:
    """Ids of the nodes on or below a parent→child cycle (Kahn's
    algorithm); empty when the graph is acyclic."""
    indegree = dict.fromkeys(nodes, 0)
    for node in nodes.values():
        for child in node.children:
            indegree[child.name] += 1
    ready = [ec_id for ec_id, degree in indegree.items() if degree == 0]
    while ready:
        for child in nodes[ready.pop()].children:
            indegree[child.name] -= 1
            if indegree[child.name] == 0:
                ready.append(child.name)
    return sorted(ec_id for ec_id, degree in indegree.items() if degree)


def build_reduced_tree(
    topo: NetworkTopology,
    source_groups: Sequence[str],
    destination_group: str,
    traffic_rates: Optional[Dict[str, float]] = None,
) -> ReducedTree:
    """Reduce the devices on the src→dst paths to a placement tree.

    The paths from every source group to the destination are enumerated, the
    devices on them are grouped into equivalence classes, and the classes are
    arranged as a tree rooted at the top-most shared layer.  Traffic shares
    are attached per node from *traffic_rates* (per source group, defaulting
    to uniform).

    Raises :class:`TopologyError` when the classes do not arrange into an
    acyclic graph — in a fat-tree, exactly when the sources include a group
    in the destination's pod and a group in another pod.
    """
    if not source_groups:
        raise TopologyError("at least one source host group is required")
    paths_by_source = topo.paths_for_traffic(source_groups, destination_group)
    all_paths = [p for paths in paths_by_source.values() for p in paths]
    involved = {name for path in all_paths for name in path}
    classes = compute_equivalence_classes(topo, involved)
    class_of: Dict[str, EquivalenceClass] = {}
    for cls in classes:
        for member in cls.members:
            class_of[member] = cls

    rates = dict(traffic_rates or {})
    total_rate = sum(rates.get(g, 1.0) for g in source_groups) or 1.0

    # translate device paths into EC paths (deduplicating repeated classes)
    ec_paths: List[Tuple[Tuple[str, ...], float]] = []
    for group in source_groups:
        share = rates.get(group, 1.0) / total_rate
        for path in paths_by_source[group]:
            ec_path = []
            for device_name in path:
                ec = class_of[device_name]
                if not ec_path or ec_path[-1] != ec.ec_id:
                    ec_path.append(ec.ec_id)
            ec_paths.append((tuple(ec_path), share / max(1, len(paths_by_source[group]))))

    ec_by_id = {cls.ec_id: cls for cls in classes}

    # the root is the highest layer present on every path (core if any path
    # crosses pods, otherwise the destination-side top of the single pod)
    longest = max(ec_paths, key=lambda item: len(item[0]))[0]
    root_candidates = [ec for ec in longest if ec_by_id[ec].layer == "core"]
    if root_candidates:
        root_id = root_candidates[0]
    else:
        root_id = longest[len(longest) // 2]

    root_ec = ec_by_id[root_id]
    root = ReducedNode(ec=root_ec, side="root", traffic_share=1.0)
    nodes: Dict[str, ReducedNode] = {root_id: root}

    def get_node(ec_id: str, side: str) -> ReducedNode:
        if ec_id not in nodes:
            ec = ec_by_id[ec_id]
            bypass = [
                topo.bypass[m] for m in ec.members
                if m in topo.bypass and topo.device(topo.bypass[m]).is_available()
            ]
            nodes[ec_id] = ReducedNode(ec=ec, side=side, traffic_share=0.0,
                                       bypass=bypass)
        return nodes[ec_id]

    client_leaves: Set[str] = set()
    server_leaves: Set[str] = set()

    for ec_path, share in ec_paths:
        if root_id in ec_path:
            pivot = ec_path.index(root_id)
        else:
            pivot = len(ec_path) - 1
        client_part = list(ec_path[: pivot + 1])         # source ToR ... root
        server_part = list(ec_path[pivot:])               # root ... dest ToR
        # client side: children point from root towards the source leaves
        for parent_id, child_id in zip(client_part[::-1], client_part[::-1][1:]):
            parent = nodes[parent_id] if parent_id == root_id else get_node(parent_id, "client")
            child = get_node(child_id, "client")
            if child not in parent.children:
                parent.children.append(child)
        if client_part:
            leaf = client_part[0]
            client_leaves.add(leaf)
            get_node(leaf, "client") if leaf != root_id else None
        # server side: children point from root towards the destination leaf
        for parent_id, child_id in zip(server_part, server_part[1:]):
            parent = nodes[parent_id] if parent_id == root_id else get_node(parent_id, "server")
            child = get_node(child_id, "server")
            if child not in parent.children:
                parent.children.append(child)
        if server_part:
            server_leaves.add(server_part[-1])
        # accumulate traffic shares along the path
        for ec_id in ec_path:
            if ec_id == root_id:
                continue
            get_node(ec_id, "client" if ec_id in client_part else "server").traffic_share += share

    for node in nodes.values():
        node.traffic_share = min(1.0, node.traffic_share) if node.side != "root" else 1.0
        # attach bypass accelerators discovered after node creation
        if not node.bypass:
            node.bypass = [topo.bypass[m] for m in node.ec.members if m in topo.bypass]

    cyclic = _cyclic_nodes(nodes)
    if cyclic:
        # e.g. sources in the destination's own pod *and* in another one:
        # the intra-pod path misses the core root, so the destination ToR
        # becomes a client parent of the pod's Agg class while the
        # cross-pod path makes that Agg its server parent
        raise TopologyError(
            f"traffic from {list(source_groups)} to {destination_group!r} "
            f"reduces to a cyclic placement graph (through {cyclic}); "
            f"this source/destination shape cannot be placed"
        )
    return ReducedTree(
        root=root,
        client_leaves=sorted(client_leaves),
        server_leaves=sorted(server_leaves),
    )
