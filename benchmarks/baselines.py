"""Comparison baselines of the placement search (paper Table 4, Fig. 14).

They are not part of the ClickINC workflow, so they live beside the
benchmarks and tests that compare against them.

:class:`ExhaustivePlacer` is the exhaustive (SMT-style) baseline: the
paper compares ClickINC's DP against Z3-based placement (as used by
Lyra).  Z3 is unavailable offline, so this module provides an exhaustive
branch-and-bound search over the same constraint set: it enumerates every
monotone assignment of placement units (blocks or raw instructions) to the
devices of a chain, checks the per-device feasibility with the same
intra-device packing (through :class:`IntraDeviceAllocator`), and keeps the assignment with the best Eq. 1 gain
(or the first feasible one, when ``optimize=False``, matching the paper's
observation that a satisfiability-only search is ~2x faster but produces
worse partitions).

Its runtime grows exponentially with the number of devices and placement
units, which is exactly the scaling behaviour Fig. 14(c) demonstrates.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.devices.base import Device
from repro.exceptions import PlacementError
from repro.ir.instructions import Instruction
from repro.ir.program import IRProgram
from repro.placement.blocks import Block, BlockDAG, build_block_dag
from repro.placement.intra import PackingTable, StageAssignment
from repro.placement.objective import ObjectiveWeights, PlacementObjective
from repro.placement.plan import BlockAssignment, PlacementPlan
from repro.placement.scoring import IntervalScorer


class IntraDeviceAllocator:
    """Algorithm 2 for callers that hold a bare instruction list."""

    def __init__(self, device: Device) -> None:
        self.device = device

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
        table = PackingTable(program, instructions)
        assignment = table.pack(self.device, table.select(), start_stage)
        if assignment is not None and commit:
            self.device.commit(assignment.stage_demands.items())
        return assignment

    def release(self, assignment: StageAssignment) -> None:
        """Release a previously committed assignment."""
        self.device.release(assignment.stage_demands.items())


@dataclass
class ExhaustiveResult:
    """Internal best-so-far record of the exhaustive search."""

    gain: float
    boundaries: Tuple[int, ...]
    assignments: Dict[int, StageAssignment]


class ExhaustivePlacer:
    """Place a program on a device chain by exhaustive search.

    Parameters
    ----------
    devices:
        The chain of devices the traffic traverses, in forwarding order.
    optimize:
        When True (default) the search scans the entire space and returns the
        assignment with the highest Eq. 1 gain; when False it stops at the
        first feasible assignment (satisfiability only).
    timeout_s:
        Wall-clock budget; the search raises :class:`PlacementError` if no
        feasible assignment was found within it, otherwise returns the best
        found so far.
    """

    def __init__(self, devices: Sequence[Device], optimize: bool = True,
                 timeout_s: float = 120.0) -> None:
        if not devices:
            raise PlacementError("exhaustive placer needs at least one device")
        self.devices = list(devices)
        self.optimize = optimize
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------ #
    def place(self, program: IRProgram, use_blocks: bool = True,
              max_block_size: int = 16) -> PlacementPlan:
        start_time = time.perf_counter()
        block_dag = build_block_dag(
            program,
            max_block_size=max_block_size if use_blocks else 1,
            merge=use_blocks,
        )
        ordered = block_dag.topological_order()
        num_units = len(ordered)
        num_devices = len(self.devices)

        objective = PlacementObjective(
            total_resource_units=max(1, block_dag.total_instructions() * num_devices),
            total_transfer_bits=max(
                1,
                sum(d.get("bits", 0) for _, _, d in block_dag.graph.edges(data=True)),
            ),
            weights=ObjectiveWeights.fixed(),
            adaptive=False,
        )

        # The same vectorised scorer the DP search uses (gain_row is
        # bit-identical to per-interval PlacementObjective.gain calls), so
        # the Fig. 14(c) baseline comparison measures the solvers, not two
        # different scoring code paths.  Rows are cached per interval start:
        # the boundary enumeration revisits each (start, end) pair many
        # times across assignments.
        scorer = IntervalScorer(block_dag, ordered, objective)
        gain_rows: Dict[int, List[float]] = {}

        best: Optional[ExhaustiveResult] = None
        explored = 0
        timed_out = False
        # enumerate split boundaries 0 <= b1 <= b2 <= ... <= b_{m-1} <= n:
        # device k hosts units [b_k, b_{k+1}).
        for boundaries in itertools.combinations_with_replacement(
            range(num_units + 1), num_devices - 1
        ):
            if time.perf_counter() - start_time > self.timeout_s:
                timed_out = True
                break
            explored += 1
            full = (0,) + boundaries + (num_units,)
            result = self._evaluate(
                block_dag, ordered, full, objective, scorer, gain_rows
            )
            if result is None:
                continue
            if best is None or result.gain > best.gain:
                best = result
            if not self.optimize:
                break

        elapsed = time.perf_counter() - start_time
        if best is None:
            raise PlacementError(
                "exhaustive search found no feasible placement"
                + (" (timed out)" if timed_out else "")
            )
        plan = self._materialise(program, block_dag, ordered, best, elapsed)
        plan.metadata["explored_assignments"] = explored
        plan.metadata["timed_out"] = timed_out
        return plan

    # ------------------------------------------------------------------ #
    def _evaluate(self, block_dag: BlockDAG, ordered: List[Block],
                  boundaries: Tuple[int, ...],
                  objective: PlacementObjective,
                  scorer: IntervalScorer,
                  gain_rows: Dict[int, List[float]]
                  ) -> Optional[ExhaustiveResult]:
        total_gain = 0.0
        assignments: Dict[int, StageAssignment] = {}
        num_units = len(ordered)
        for device_index, device in enumerate(self.devices):
            start, end = boundaries[device_index], boundaries[device_index + 1]
            if end == start:
                continue
            blocks = ordered[start:end]
            # feasibility still needs the concrete instruction list (the
            # intra-device allocator packs stages); only scoring is shared
            # with the DP path's scorer
            instructions = [
                i for b in blocks for i in b.instructions(block_dag.program)
            ]
            assignment = IntraDeviceAllocator(device).allocate(
                block_dag.program, instructions
            )
            if assignment is None:
                return None
            assignments[device_index] = assignment
            row = gain_rows.get(start)
            if row is None:
                row = scorer.gain_row(
                    start,
                    served_fraction=1.0,
                    weights=objective.base_weights,
                    replicas=1,
                    end_lo=start,
                    end_hi=num_units + 1,
                )
                gain_rows[start] = row
            total_gain += row[end - start]
        return ExhaustiveResult(
            gain=total_gain, boundaries=boundaries, assignments=assignments
        )

    def _materialise(self, program: IRProgram, block_dag: BlockDAG,
                     ordered: List[Block], best: ExhaustiveResult,
                     elapsed: float) -> PlacementPlan:
        plan = PlacementPlan(
            program_name=program.name,
            block_dag=block_dag,
            gain=best.gain,
            algorithm="smt" if self.optimize else "smt-sat",
            compile_time_s=elapsed,
        )
        for device_index, device in enumerate(self.devices):
            start, end = best.boundaries[device_index], best.boundaries[device_index + 1]
            for position in range(start, end):
                block = ordered[position]
                stage_assignment = best.assignments.get(device_index)
                plan.assignments.append(
                    BlockAssignment(
                        block_id=block.block_id,
                        ec_id=device.name,
                        device_names=[device.name],
                        step=position,
                        stage_assignments={device.name: stage_assignment}
                        if stage_assignment
                        else {},
                    )
                )
        return plan
