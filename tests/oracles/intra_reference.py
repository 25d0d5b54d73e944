"""Reference intra-device allocator: the pre-packing-table Algorithm 2.

This is the allocator ``repro.placement.intra`` shipped before the packing
table, moved here unchanged so the differential test in
``tests/test_placement_intra.py`` has an independent oracle: it re-derives
every per-instruction fact (capability class, resource demand, reads and
writes) from the :class:`Instruction` objects and reads the device's
``StageResources`` live, key by key.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.devices.base import Architecture, Device
from repro.ir.instructions import Instruction
from repro.ir.program import IRProgram
from repro.placement.intra import StageAssignment


def state_demand(program: IRProgram, state_names: Iterable[str]) -> Dict[str, float]:
    """Memory demand of the persistent states named in *state_names*."""
    return Device.memory_demand(
        Device.state_bits(program.get_state(name)) for name in state_names
    )


class ReferenceAllocator:
    """The old ``IntraDeviceAllocator``: one device, facts re-derived per call."""

    def __init__(self, device: Device) -> None:
        self.device = device

    # ------------------------------------------------------------------ #
    def allocate(
        self,
        program: IRProgram,
        instructions: Sequence[Instruction],
        commit: bool = False,
        start_stage: int = 0,
    ) -> Optional[StageAssignment]:
        """Try to place *instructions* on the device.

        Returns ``None`` when the placement is infeasible (unsupported
        capability class or insufficient resources).  With ``commit=True``
        the chosen resources are actually allocated on the device; otherwise
        the device state is left untouched (the demands in the returned
        assignment let the caller commit later).
        """
        if not instructions:
            return StageAssignment(
                device_name=self.device.name,
                stage_of_instruction={},
                stage_demands={},
                stages_used=0,
                instruction_count=0,
            )
        for instr in instructions:
            if instr.instr_class not in self.device.supported_classes:
                return None

        if self.device.architecture is Architecture.RTC:
            assignment = self._allocate_rtc(program, instructions)
        else:
            assignment = self._allocate_pipeline(program, instructions, start_stage)
        if assignment is None:
            return None
        if commit:
            for stage, demand in assignment.stage_demands.items():
                self.device.commit([(stage, demand)])
        return assignment

    def release(self, assignment: StageAssignment) -> None:
        """Release a previously committed assignment."""
        for stage, demand in assignment.stage_demands.items():
            self.device.release([(stage, demand)])

    # ------------------------------------------------------------------ #
    # pipeline devices
    # ------------------------------------------------------------------ #
    def _allocate_pipeline(
        self,
        program: IRProgram,
        instructions: Sequence[Instruction],
        start_stage: int,
    ) -> Optional[StageAssignment]:
        device = self.device
        uid_set = {instr.uid for instr in instructions}
        # local producer map to respect dependencies among the given set
        producers: Dict[str, int] = {}
        # predicate (1-bit) results are evaluated by the stage's gateway, so a
        # consumer may sit in the same stage as the comparison producing them
        # (this mirrors RMT's match/gateway + action co-location, paper Eq. 53)
        predicate_vars: Set[str] = set()
        stage_of: Dict[int, int] = {}
        trial: List[Dict[str, float]] = [
            {key: 0.0 for key in stage.capacities} for stage in device.stages
        ]
        state_placed: Set[str] = set()

        def fits(stage_index: int, demand: Dict[str, float]) -> bool:
            stage = device.stages[stage_index]
            for key, amount in demand.items():
                if amount <= 0:
                    continue
                if stage.available(key) - trial[stage_index].get(key, 0.0) < amount:
                    return False
            return True

        state_anchor: Dict[str, int] = {}
        for instr in sorted(instructions, key=lambda i: i.uid):
            demand = device.instruction_demand(instr)
            earliest = start_stage
            for name in instr.reads():
                producer_stage = producers.get(name)
                if producer_stage is not None:
                    same_stage_ok = name in predicate_vars
                    earliest = max(
                        earliest, producer_stage if same_stage_ok else producer_stage + 1
                    )
            placed = False
            for stage_index in range(earliest, device.num_stages):
                if fits(stage_index, demand):
                    stage_of[instr.uid] = stage_index
                    for key, amount in demand.items():
                        if amount > 0:
                            trial[stage_index][key] = trial[stage_index].get(key, 0.0) + amount
                    for name in instr.writes():
                        producers[name] = stage_index
                        if instr.width == 1:
                            predicate_vars.add(name)
                    placed = True
                    break
            if not placed:
                return None
            if instr.state is not None and instr.state not in state_anchor:
                state_anchor[instr.state] = stage_of[instr.uid]

        # Persistent state memory: a table/register larger than one stage's
        # memory is spread over subsequent stages (RMT table spreading,
        # paper Eq. 13), anchored at the first stage that references it.
        for state_name, anchor in state_anchor.items():
            memory = state_demand(program, [state_name])
            for key, amount in memory.items():
                remaining = amount
                for stage_index in range(anchor, device.num_stages):
                    if remaining <= 1e-12:
                        break
                    stage = device.stages[stage_index]
                    available = stage.available(key) - trial[stage_index].get(key, 0.0)
                    take = min(remaining, max(0.0, available))
                    if take > 0:
                        trial[stage_index][key] = trial[stage_index].get(key, 0.0) + take
                        remaining -= take
                if remaining > 1e-9:
                    return None

        stage_demands = {
            index: {k: v for k, v in demands.items() if v > 0}
            for index, demands in enumerate(trial)
            if any(v > 0 for v in demands.values())
        }
        stages_used = (
            max(stage_of.values()) - min(stage_of.values()) + 1 if stage_of else 0
        )
        return StageAssignment(
            device_name=device.name,
            stage_of_instruction=stage_of,
            stage_demands=stage_demands,
            stages_used=stages_used,
            instruction_count=len(instructions),
        )

    # ------------------------------------------------------------------ #
    # run-to-completion devices
    # ------------------------------------------------------------------ #
    def _allocate_rtc(
        self,
        program: IRProgram,
        instructions: Sequence[Instruction],
    ) -> Optional[StageAssignment]:
        """RTC devices only need aggregate resource checks (paper Eq. 7)."""
        device = self.device
        total: Dict[str, float] = {}
        states: Set[str] = set()
        for instr in instructions:
            for key, amount in device.instruction_demand(instr).items():
                total[key] = total.get(key, 0.0) + amount
            if instr.state is not None:
                states.add(instr.state)
        for key, amount in state_demand(program, states).items():
            total[key] = total.get(key, 0.0) + amount

        # greedily spread over islands (pseudo-stages), filling each in turn
        stage_demands: Dict[int, Dict[str, float]] = {}
        remaining = dict(total)
        for index, stage in enumerate(device.stages):
            if all(v <= 0 for v in remaining.values()):
                break
            take: Dict[str, float] = {}
            for key, amount in list(remaining.items()):
                if amount <= 0:
                    continue
                available = stage.available(key)
                taken = min(amount, available)
                if taken > 0:
                    take[key] = taken
                    remaining[key] = amount - taken
            if take:
                stage_demands[index] = take
        if any(v > 1e-9 for v in remaining.values()):
            return None
        stage_of = {instr.uid: min(stage_demands) if stage_demands else 0
                    for instr in instructions}
        return StageAssignment(
            device_name=device.name,
            stage_of_instruction=stage_of,
            stage_demands=stage_demands,
            stages_used=len(stage_demands),
            instruction_count=len(instructions),
        )
