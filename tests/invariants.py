"""Global invariants the scenario tests check at their end.

Helpers here are plain functions (pytest collects nothing from this
module); tests import them by name.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Tuple


def device_fingerprints(topology, names: Optional[Iterable[str]] = None
                        ) -> Dict[str, str]:
    """Per-device allocation-state digests (all devices by default)."""
    selected = sorted(names) if names is not None else sorted(topology.devices)
    return {name: topology.device(name).state.digest for name in selected}


def plan_fingerprints(plan) -> Dict[str, str]:
    """The digests of the states *plan* was placed against."""
    return {name: state.digest for name, state in plan.device_states.items()}


def allocation_fingerprint(topology,
                           names: Optional[Iterable[str]] = None) -> str:
    """Hash of the allocation states of *names* (default: every device).

    Committing a plan changes it; releasing the same plan restores it, so
    "the fabric is back where it started" (after a removal, a rollback or
    a failed deploy) is one comparison.
    """
    payload = "|".join(
        f"{name}:{fp}"
        for name, fp in device_fingerprints(topology, names).items())
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def assert_resources_conserved(owner) -> None:
    """Every device's allocation is exactly what the deployed plans hold.

    *owner* is a ``ClickINC`` controller or a ``ShardCoordinator`` (whose
    full-fabric controller and every shard's controller are read).  For
    each device of the owner's topology, the usage of every stage and
    resource equals the sum of the stage demands of every plan in those
    controllers' ``deployed`` registries, and the occupancy — the block
    ids each program holds there — matches the device's.  Demands are
    multiples of 1/8192 KB or counts, so the sums are compared exactly.
    """
    shards = getattr(owner, "shards", None)
    controllers = ([owner] if shards is None else
                   [owner.inter] + [s.controller for s in shards.values()])
    usage: Dict[Tuple[str, int, str], float] = {}
    blocks: Dict[str, Dict[str, List[int]]] = {}
    seen = set()
    for controller in controllers:
        if id(controller) in seen:      # a one-region partition's shard
            continue                    # controller is the inter one
        seen.add(id(controller))
        for program, deployed in controller.deployed.items():
            for assignment in deployed.plan.assignments:
                for device, placed in assignment.stage_assignments.items():
                    blocks.setdefault(device, {}).setdefault(
                        program, []).append(assignment.block_id)
                    for stage, demand in placed.stage_demands.items():
                        for key, amount in demand.items():
                            if amount > 0:
                                cell = (device, stage, key)
                                usage[cell] = usage.get(cell, 0.0) + amount
    for name, device in owner.topology.devices.items():
        for stage, resources in enumerate(device.stages):
            for key, used in resources.used.items():
                assert used == usage.get((name, stage, key), 0.0), (
                    f"{name} stage {stage} {key}: {used} used, deployed "
                    f"plans hold {usage.get((name, stage, key), 0.0)}")
        held = blocks.get(name, {})
        assert sorted(device.deployed_programs) == sorted(held), name
        assert device.state.occupancy == tuple(
            sorted(tuple(sorted(ids)) for ids in held.values())), name
