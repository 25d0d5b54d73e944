"""Placement plans: the output of the DP and baseline placers.

A plan maps every block of the program to an equivalence class (and thus to
every member device), records the per-device stage assignments, assigns step
numbers for the replication / skip protocol of paper §6, and can materialise
per-device IR program snippets for synthesis and emulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.devices.base import AllocState
from repro.ir.program import IRProgram
from repro.placement.blocks import BlockDAG
from repro.placement.intra import StageAssignment


@dataclass
class BlockAssignment:
    """One block placed on one equivalence class of devices."""

    block_id: int
    ec_id: str
    device_names: List[str]
    step: int
    stage_assignments: Dict[str, StageAssignment] = field(default_factory=dict)
    replicated: bool = False

    @property
    def instruction_count(self) -> int:
        if not self.stage_assignments:
            return 0
        return next(iter(self.stage_assignments.values())).instruction_count


@dataclass
class PlacementPlan:
    """A complete placement of one program on the network."""

    program_name: str
    block_dag: BlockDAG
    assignments: List[BlockAssignment] = field(default_factory=list)
    gain: float = float("-inf")
    algorithm: str = "dp"
    compile_time_s: float = 0.0
    served_traffic_fraction: float = 1.0
    transfer_bits: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Name-normalised content fingerprint of the placed program, computed
    #: once per request by the search; the code generator keys on it.
    program_fingerprint: Optional[str] = None
    #: The allocation state of every device the placement search consulted
    #: (not just the devices the plan uses), as the search read it.  If
    #: every one is still the live state at commit time the plan is
    #: provably the one a sequential placement under the live topology
    #: would produce; any other state is a conflict.
    device_states: Dict[str, AllocState] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def devices_used(self) -> List[str]:
        names: List[str] = []
        for assignment in self.assignments:
            for name in assignment.device_names:
                if name not in names:
                    names.append(name)
        return names

    def device_blocks(self) -> Dict[str, List[Tuple[int, List[int]]]]:
        """``(block id, instruction uids)`` per device, in the step order
        :meth:`device_snippets` appends them in: together with the program
        and the device this is everything a snippet is built from."""
        blocks: Dict[str, List[Tuple[int, List[int]]]] = {}
        for assignment in sorted(self.assignments, key=lambda a: a.step):
            block = self.block_dag.block(assignment.block_id)
            for device in assignment.device_names:
                blocks.setdefault(device, []).append(
                    (block.block_id, block.instruction_uids))
        return blocks

    def instructions_per_device(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for assignment in self.assignments:
            block = self.block_dag.block(assignment.block_id)
            for device in assignment.device_names:
                counts[device] = counts.get(device, 0) + block.size
        return counts

    def stages_per_device(self) -> Dict[str, int]:
        stages: Dict[str, Set[int]] = {}
        for assignment in self.assignments:
            for device, stage_assignment in assignment.stage_assignments.items():
                used = stages.setdefault(device, set())
                used.update(stage_assignment.stage_of_instruction.values())
        return {device: len(indices) for device, indices in stages.items()}

    def normalized_resource(self) -> float:
        """Total instruction slots consumed across devices / program size.

        A value of 1.0 means no replication; replicating blocks on an
        equivalence class of two devices doubles their contribution, matching
        how Table 3 reports resource consumption.
        """
        total_instr = self.block_dag.total_instructions()
        if total_instr == 0:
            return 0.0
        consumed = 0
        for assignment in self.assignments:
            block = self.block_dag.block(assignment.block_id)
            consumed += block.size * max(1, len(assignment.device_names))
        return consumed / total_instr

    def communication_overhead(self) -> float:
        """Extra parameter bits crossing devices, normalised by the total
        dependency bits of the program (the h_p term of Eq. 1)."""
        total_bits = sum(
            data.get("bits", 0)
            for _, _, data in self.block_dag.graph.edges(data=True)
        )
        if total_bits == 0:
            return 0.0
        crossing = 0
        ec_of_block = {a.block_id: a.ec_id for a in self.assignments}
        for src, dst, data in self.block_dag.graph.edges(data=True):
            if ec_of_block.get(src) != ec_of_block.get(dst):
                crossing += data.get("bits", 0)
        return crossing / total_bits

    def is_complete(self) -> bool:
        assigned = {a.block_id for a in self.assignments}
        return assigned == {b.block_id for b in self.block_dag.blocks}

    # ------------------------------------------------------------------ #
    # snippet materialisation
    # ------------------------------------------------------------------ #
    def device_snippets(self) -> Dict[str, IRProgram]:
        """Build one IR snippet program per device, in step order.

        Each snippet contains the instructions of the blocks assigned to the
        device plus the state declarations those instructions reference; the
        snippet name encodes the owning user program so synthesis can merge
        and later strip it.

        Every call copies every placed instruction and nothing is memoised
        here (plans live on in ``DeployedProgram`` and, once their content
        has been seen twice, in the ``plan`` cache namespace; snippets are
        about twice the program), so a commit calls it once and hands the
        dict to synthesis, the emulator install and codegen.  All three only
        read a snippet — ``isolate_program`` copies what it rewrites, the
        runtimes and the backends never write — which is what makes the
        sharing safe.  Codegen keys a snippet on what the plan already
        knows (program fingerprint and name, device, :meth:`device_blocks`),
        never on the snippet's IR.
        """
        program = self.block_dag.program
        snippets: Dict[str, IRProgram] = {}
        ordered = sorted(self.assignments, key=lambda a: a.step)
        for assignment in ordered:
            block = self.block_dag.block(assignment.block_id)
            instructions = block.instructions(program)
            for device in assignment.device_names:
                snippet = snippets.get(device)
                if snippet is None:
                    snippet = IRProgram(f"{self.program_name}@{device}")
                    for fld in program.header_fields.values():
                        snippet.declare_header_field(fld)
                    snippets[device] = snippet
                for state_name in block.states:
                    if state_name not in snippet.states:
                        snippet.declare_state(program.get_state(state_name))
                for instr in instructions:
                    clone = instr.copy()
                    clone.owner = self.program_name
                    clone.annotations = {self.program_name}
                    snippet.append(clone)
        return snippets

    def step_table(self) -> Dict[int, int]:
        """Mapping block id -> step number (for the INC header protocol)."""
        return {a.block_id: a.step for a in self.assignments}

    def summary(self) -> Dict[str, object]:
        return {
            "program": self.program_name,
            "algorithm": self.algorithm,
            "gain": round(self.gain, 4),
            "devices": self.devices_used(),
            "instructions_per_device": self.instructions_per_device(),
            "stages_per_device": self.stages_per_device(),
            "normalized_resource": round(self.normalized_resource(), 3),
            "communication_overhead": round(self.communication_overhead(), 3),
            "compile_time_s": round(self.compile_time_s, 4),
            "complete": self.is_complete(),
        }
