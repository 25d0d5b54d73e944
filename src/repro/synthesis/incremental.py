"""Incremental synthesis across the whole network (paper §6 & §7.5).

The :class:`IncrementalSynthesizer` keeps one :class:`DeviceExecutable` per
device and applies per-user placement plans incrementally: adding a program
only touches the devices that host its snippets, and removing a program only
marks its snippets removed (lazy enforcement), leaving other users' traffic
undisturbed.  The monolithic mode re-synthesises every affected traffic
class from scratch, which is the baseline the Table 6 experiment compares
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.exceptions import DeploymentError, SynthesisError
from repro.ir.program import IRProgram
from repro.placement.plan import PlacementPlan
from repro.synthesis.base_program import default_base_program
from repro.synthesis.isolation import isolate_program
from repro.synthesis.merge import (
    DeviceExecutable,
    merge_into_executable,
    remove_from_executable,
)
from repro.topology.network import NetworkTopology


@dataclass
class SynthesisDelta:
    """What one add/remove operation touched — the Table 6 metrics."""

    operation: str
    program: str
    affected_devices: List[str] = field(default_factory=list)
    affected_programs: List[str] = field(default_factory=list)
    affected_pods: List[int] = field(default_factory=list)
    recompiled_devices: List[str] = field(default_factory=list)

    @property
    def num_affected_devices(self) -> int:
        return len(self.affected_devices)

    @property
    def num_affected_programs(self) -> int:
        return len(self.affected_programs)


class IncrementalSynthesizer:
    """Maintains the synthesised executables of every device in the network."""

    def __init__(self, topology: NetworkTopology,
                 base_factory=default_base_program,
                 incremental: bool = True) -> None:
        self.topology = topology
        self.incremental = incremental
        self.executables: Dict[str, DeviceExecutable] = {}
        self.user_ids: Dict[str, int] = {}
        self.plans: Dict[str, PlacementPlan] = {}
        self._next_user_id = 1
        self._base_factory = base_factory

    # ------------------------------------------------------------------ #
    def executable_for(self, device_name: str) -> DeviceExecutable:
        if device_name not in self.executables:
            if device_name not in self.topology.devices:
                raise DeploymentError(f"unknown device {device_name!r}")
            self.executables[device_name] = DeviceExecutable(
                device_name=device_name,
                base=self._base_factory(name=f"base_{device_name}"),
            )
        return self.executables[device_name]

    def _user_id(self, owner: str) -> int:
        if owner not in self.user_ids:
            self.user_ids[owner] = self._next_user_id
            self._next_user_id += 1
        return self.user_ids[owner]

    # ------------------------------------------------------------------ #
    def add_program(self, plan: PlacementPlan, *,
                    snippets: Optional[Dict[str, IRProgram]] = None
                    ) -> SynthesisDelta:
        """Synthesise *plan*'s snippets onto their devices.

        In incremental mode only the devices in the plan are touched; in
        monolithic mode every executable that shares a device or pod with the
        new program is rebuilt from scratch (the paper's MD baseline).
        *snippets* is ``plan.device_snippets()`` when the caller already
        holds it (they are only read: isolation copies); derived otherwise.
        """
        owner = plan.program_name
        if owner in self.plans:
            raise SynthesisError(f"program {owner!r} is already deployed")
        user_id = self._user_id(owner)
        if snippets is None:
            snippets = plan.device_snippets()

        delta = SynthesisDelta(operation="add", program=owner)
        affected_programs: Set[str] = set()
        affected_pods: Set[int] = set()

        for device_name, snippet in snippets.items():
            executable = self.executable_for(device_name)
            isolated = isolate_program(snippet, owner=owner, user_id=user_id)
            device = self.topology.device(device_name)
            block_steps = {
                a.block_id: a.step
                for a in plan.assignments
                if device_name in a.device_names
            }
            merge_into_executable(
                executable, isolated, owner=owner, device=device, steps=block_steps
            )
            delta.affected_devices.append(device_name)
            affected_pods.add(self.topology.pods.get(device_name, -1))
            if not self.incremental:
                # monolithic re-deployment recompiles every co-located program
                affected_programs.update(
                    u for u in executable.users() if u != owner
                )
                delta.recompiled_devices.append(device_name)

        if not self.incremental:
            # a monolithic rebuild also reinstalls the other devices of every
            # co-located program, interrupting their traffic
            for other in set(affected_programs):
                other_plan = self.plans.get(other)
                if other_plan is None:
                    continue
                for device_name in other_plan.devices_used():
                    if device_name not in delta.affected_devices:
                        delta.affected_devices.append(device_name)
                        delta.recompiled_devices.append(device_name)
                        affected_pods.add(self.topology.pods.get(device_name, -1))

        delta.affected_programs = sorted(affected_programs)
        delta.affected_pods = sorted(p for p in affected_pods if p >= 0)
        self.plans[owner] = plan
        return delta

    def rollback_add(self, owner: str) -> List[str]:
        """Undo a (possibly partial) :meth:`add_program` for *owner*.

        Used by the deployment pipeline when a later stage fails: unlike
        :meth:`remove_program` it tolerates a merge that only reached some of
        the plan's devices, scrubbing whatever was applied.  Returns the
        devices that were cleaned.
        """
        self.plans.pop(owner, None)
        cleaned: List[str] = []
        for device_name, executable in self.executables.items():
            if owner in executable.snippets:
                remove_from_executable(executable, owner, lazy=False)
                cleaned.append(device_name)
        return cleaned

    def remove_program(self, owner: str, lazy: bool = True) -> SynthesisDelta:
        """Remove *owner*'s program from every device hosting it."""
        plan = self.plans.pop(owner, None)
        if plan is None:
            raise SynthesisError(f"program {owner!r} is not deployed")
        delta = SynthesisDelta(operation="remove", program=owner)
        affected_programs: Set[str] = set()
        affected_pods: Set[int] = set()
        for device_name in plan.devices_used():
            executable = self.executables.get(device_name)
            if executable is None or owner not in executable.snippets:
                continue
            remove_from_executable(executable, owner, lazy=lazy and self.incremental)
            delta.affected_devices.append(device_name)
            affected_pods.add(self.topology.pods.get(device_name, -1))
            if not self.incremental:
                affected_programs.update(executable.users())
                delta.recompiled_devices.append(device_name)
        if not self.incremental:
            for other in set(affected_programs):
                other_plan = self.plans.get(other)
                if other_plan is None:
                    continue
                for device_name in other_plan.devices_used():
                    if device_name not in delta.affected_devices:
                        delta.affected_devices.append(device_name)
                        delta.recompiled_devices.append(device_name)
                        affected_pods.add(self.topology.pods.get(device_name, -1))
        delta.affected_programs = sorted(affected_programs)
        delta.affected_pods = sorted(p for p in affected_pods if p >= 0)
        return delta

    # ------------------------------------------------------------------ #
    def deployed_programs(self) -> List[str]:
        return sorted(self.plans)
