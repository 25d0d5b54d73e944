"""Naïve placement baselines (paper §5.1 "Naïve methods").

Two strawman strategies the paper contrasts with the DP algorithm:

* :class:`GreedySinglePathPlacer` — greedily fill devices along a *single*
  chosen path; traffic on other paths is not served (limits h_t).
* :class:`ReplicateAllPlacer` — replicate the whole program on the first
  device of every path; simple but wastes resources and overloads devices
  when the program does not fit on one device.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from repro.devices.base import Device
from repro.exceptions import PlacementError
from repro.ir.program import IRProgram
from repro.placement.blocks import build_block_dag
from repro.placement.intra import IntraDeviceAllocator
from repro.placement.plan import BlockAssignment, PlacementPlan
from repro.topology.network import NetworkTopology


class GreedySinglePathPlacer:
    """Fill devices greedily along the first shortest path only."""

    def __init__(self, topology: NetworkTopology) -> None:
        self.topology = topology

    def place(self, program: IRProgram, source_group: str,
              destination_group: str, max_block_size: int = 16) -> PlacementPlan:
        start_time = time.perf_counter()
        paths = self.topology.paths_between_groups(source_group, destination_group)
        path = paths[0]
        block_dag = build_block_dag(program, max_block_size=max_block_size)
        ordered = block_dag.topological_order()
        plan = PlacementPlan(
            program_name=program.name, block_dag=block_dag, algorithm="greedy",
        )
        position = 0
        remaining = list(ordered)
        for device_name in path:
            if not remaining:
                break
            device = self.topology.device(device_name)
            allocator = IntraDeviceAllocator(device)
            placed_here = []
            # place as many consecutive blocks as fit on this device
            while remaining:
                candidate_blocks = placed_here + [remaining[0]]
                instructions = [
                    i
                    for b in candidate_blocks
                    for i in b.instructions(program)
                ]
                assignment = allocator.allocate(program, instructions)
                if assignment is None:
                    break
                placed_here = candidate_blocks
                remaining.pop(0)
            if placed_here:
                instructions = [
                    i for b in placed_here for i in b.instructions(program)
                ]
                assignment = allocator.allocate(program, instructions)
                for block in placed_here:
                    plan.assignments.append(
                        BlockAssignment(
                            block_id=block.block_id,
                            ec_id=device_name,
                            device_names=[device_name],
                            step=position,
                            stage_assignments={device_name: assignment},
                        )
                    )
                    position += 1
        plan.compile_time_s = time.perf_counter() - start_time
        plan.served_traffic_fraction = 1.0 / max(
            1, len(self.topology.paths_between_groups(source_group, destination_group))
        )
        # the greedy search consulted exactly the devices of the chosen path
        plan.device_states = {name: self.topology.device(name).state
                              for name in sorted(path)}
        if not plan.is_complete():
            raise PlacementError(
                f"greedy single-path placement could not fit {program.name!r} "
                f"along {path}"
            )
        plan.gain = plan.served_traffic_fraction - plan.normalized_resource() * 0.25
        return plan


class ReplicateAllPlacer:
    """Replicate the entire program on the ToR of every source path."""

    def __init__(self, topology: NetworkTopology) -> None:
        self.topology = topology

    def place(self, program: IRProgram, source_groups: Sequence[str],
              destination_group: str, max_block_size: int = 16) -> PlacementPlan:
        start_time = time.perf_counter()
        block_dag = build_block_dag(program, max_block_size=max_block_size)
        ordered = block_dag.topological_order()
        plan = PlacementPlan(
            program_name=program.name, block_dag=block_dag, algorithm="replicate",
        )
        instructions = [i for b in ordered for i in b.instructions(program)]
        devices: List[Device] = []
        for group in source_groups:
            tor_name = self.topology.host_group(group).tor
            device = self.topology.device(tor_name)
            if device not in devices:
                devices.append(device)
        stage_assignments = {}
        for device in devices:
            assignment = IntraDeviceAllocator(device).allocate(program, instructions)
            if assignment is None:
                raise PlacementError(
                    f"program {program.name!r} does not fit on {device.name} for "
                    "full replication"
                )
            stage_assignments[device.name] = assignment
        for position, block in enumerate(ordered):
            plan.assignments.append(
                BlockAssignment(
                    block_id=block.block_id,
                    ec_id="+".join(d.name for d in devices),
                    device_names=[d.name for d in devices],
                    step=position,
                    stage_assignments=stage_assignments,
                    replicated=len(devices) > 1,
                )
            )
        plan.compile_time_s = time.perf_counter() - start_time
        plan.gain = 1.0 - plan.normalized_resource() * 0.25
        plan.device_states = {device.name: device.state
                              for device in sorted(devices, key=lambda d: d.name)}
        return plan
