"""Reference DP search: the seed Algorithm 1 recurrence, memo-free.

This is the search ``repro.placement.dp`` shipped before the cross-epoch
memo, equivalence-class pruning and vectorised scoring, moved here so the
differential tests in ``tests/test_placement_scale.py`` and
``tests/test_program_facts.py`` have an independent oracle.  Every call
derives the program facts from scratch, evaluates each interval with one
:class:`benchmarks.baselines.IntraDeviceAllocator` per device plus an
edge walk over the block graph for its cut bits, and neither reads nor
feeds a :class:`~repro.placement.memo.PlacementMemo`.  Plan construction —
the reduced tree, the objective, materialisation, the state stamps,
commit/release — is :class:`~repro.placement.dp.DPPlacer`'s, because both
searches share it.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.baselines import IntraDeviceAllocator
from repro.exceptions import PlacementError
from repro.placement.blocks import Block, BlockDAG
from repro.placement.dp import (
    NEG_INF,
    DPPlacer,
    PlacementRequest,
    _Candidate,
    _IntervalPacker,
    _product_limited,
)
from repro.placement.facts import derive_program_facts
from repro.placement.objective import PlacementObjective
from repro.placement.plan import PlacementPlan
from repro.topology.equivalence import ReducedNode, ReducedTree


def interval_cut_bits(block_dag: BlockDAG, ordered_blocks: Sequence[Block],
                      start: int, end: int) -> int:
    """Bits on block-graph edges crossing the boundary of [start, end)."""
    inside = {block.block_id for block in ordered_blocks[start:end]}
    bits = 0
    for src, dst, data in block_dag.graph.edges(data=True):
        src_in = src in inside
        dst_in = dst in inside
        if src_in != dst_in:
            bits += data.get("bits", 0)
    return bits


class ReferencePlacer(DPPlacer):
    """The seed DP search behind :class:`DPPlacer`'s plan construction."""

    def place(self, request: PlacementRequest) -> PlacementPlan:
        timers = self.profile.timers
        start_time = time.perf_counter()
        with timers.stage("block_dag"):
            facts = self._program_facts(request)
            block_dag = facts.block_dag(request.program)
            ordered_blocks = facts.order
        with timers.stage("reduce_tree"):
            routed = self.routed_tree(request)
            tree = routed.tree
        objective = self._make_objective(block_dag, tree, request)
        packer = _IntervalPacker(facts.table, ordered_blocks)

        try:
            with timers.stage("search"):
                candidate = self._solve(
                    block_dag, ordered_blocks, tree, objective, request
                )
            if candidate is None or candidate.gain == NEG_INF:
                raise PlacementError(
                    f"no feasible placement for {request.program.name!r} on the "
                    f"paths from {list(request.source_groups)} to "
                    f"{request.destination_group!r}"
                )

            elapsed = time.perf_counter() - start_time
            with timers.stage("materialise"):
                plan = self._materialise_plan(
                    block_dag, ordered_blocks, tree, candidate, request,
                    elapsed, packer
                )
                plan.program_fingerprint = request.program_fingerprint()
                plan.device_states = routed.states()
        finally:
            counters = self.profile.counters
            counters.increment("packing_runs", by=packer.packing_runs)
            counters.increment("packed_instructions",
                               by=packer.packed_instructions)
        return plan

    def _program_facts(self, request: PlacementRequest):
        """Derived from scratch on every call: no store is read or fed."""
        return derive_program_facts(request.program,
                                    *self._facts_key(request))

    # ------------------------------------------------------------------ #
    # DP core
    # ------------------------------------------------------------------ #
    def _solve(self, block_dag: BlockDAG, ordered_blocks: Sequence[Block],
               tree: ReducedTree, objective: PlacementObjective,
               request: PlacementRequest) -> Optional[_Candidate]:
        num_blocks = len(ordered_blocks)
        root = tree.root

        client_children = [c for c in root.children if c.side == "client"]
        server_children = [c for c in root.children if c.side == "server"]

        client_tables: List[Dict[int, _Candidate]] = [
            self._client_dp(child, block_dag, ordered_blocks, objective,
                            request)
            for child in client_children
        ]
        server_tables: List[Dict[int, _Candidate]] = [
            self._server_dp(child, block_dag, ordered_blocks, objective,
                            request)
            for child in server_children
        ]

        best: Optional[_Candidate] = None
        # fold the client children over the (i_min, i_max) state space; ties
        # keep the first candidate in sorted order
        join_states: Optional[Dict[Tuple[int, int], _Candidate]] = None
        for table in client_tables:
            options = sorted(table.items())
            if join_states is None:
                join_states = {
                    (index, index): _Candidate(
                        gain=candidate.gain,
                        assignments=list(candidate.assignments),
                    )
                    for index, candidate in options
                }
                continue
            merged: Dict[Tuple[int, int], _Candidate] = {}
            for (state_lo, state_hi), below in sorted(join_states.items()):
                for index, candidate in options:
                    key = (min(state_lo, index), max(state_hi, index))
                    gain = below.gain + candidate.gain
                    existing = merged.get(key)
                    if existing is None or gain > existing.gain:
                        merged[key] = _Candidate(
                            gain=gain,
                            assignments=below.assignments + candidate.assignments,
                        )
            join_states = merged
        if join_states is None:
            # no client children: the root must host the program from block 0
            join_states = {(0, 0): _Candidate(gain=0.0)}

        for (i_min, i_max), below in sorted(join_states.items()):
            below_gain = below.gain
            below_assignments = below.assignments
            if below_gain == NEG_INF:
                continue
            for j in range(i_max, num_blocks + 1):
                root_eval = self._evaluate_interval(
                    root, (i_min, j), block_dag, ordered_blocks, objective
                )
                if root_eval is None:
                    continue
                # server side must cover [j, n) on every server child
                server_gain = 0.0
                server_assignments: List[Tuple[str, int, int]] = []
                feasible = True
                if server_tables:
                    for table in server_tables:
                        candidate = table.get(j)
                        if candidate is None or candidate.gain == NEG_INF:
                            feasible = False
                            break
                        server_gain += candidate.gain
                        server_assignments.extend(candidate.assignments)
                else:
                    feasible = j == num_blocks
                if not feasible:
                    continue
                total_gain = below_gain + root_eval + server_gain
                if best is None or total_gain > best.gain:
                    assignments = list(below_assignments)
                    if j > i_min:
                        assignments.append((root.name, i_min, j))
                    assignments.extend(server_assignments)
                    best = _Candidate(gain=total_gain, assignments=assignments)
        return best

    def _client_dp(self, node: ReducedNode, block_dag: BlockDAG,
                   ordered_blocks: Sequence[Block],
                   objective: PlacementObjective,
                   request: PlacementRequest) -> Dict[int, _Candidate]:
        """Bottom-up DP on the client sub-tree: blocks [0, i) covered at or
        below *node* → best partial candidate."""
        num_blocks = len(ordered_blocks)
        if not node.children:
            table: Dict[int, _Candidate] = {}
            for end in range(0, num_blocks + 1):
                result = self._evaluate_interval(
                    node, (0, end), block_dag, ordered_blocks, objective
                )
                if result is None:
                    if request.prune:
                        break
                    continue
                assignments = [(node.name, 0, end)] if end > 0 else []
                table[end] = _Candidate(gain=result, assignments=assignments)
            return table

        child_tables = [
            self._client_dp(child, block_dag, ordered_blocks, objective,
                            request)
            for child in node.children
        ]
        table: Dict[int, _Candidate] = {}
        for combo in _product_limited([sorted(t.items()) for t in child_tables]):
            i_values = [i for i, _ in combo]
            base_gain = sum(c.gain for _, c in combo)
            base_assignments = [a for _, c in combo for a in c.assignments]
            i_min = min(i_values)
            i_max = max(i_values)
            for end in range(i_max, num_blocks + 1):
                result = self._evaluate_interval(
                    node, (i_min, end), block_dag, ordered_blocks, objective
                )
                if result is None:
                    if request.prune:
                        break
                    continue
                total = base_gain + result
                existing = table.get(end)
                if existing is None or total > existing.gain:
                    assignments = list(base_assignments)
                    if end > i_min:
                        assignments.append((node.name, i_min, end))
                    table[end] = _Candidate(gain=total, assignments=assignments)
        return table

    def _server_dp(self, node: ReducedNode, block_dag: BlockDAG,
                   ordered_blocks: Sequence[Block],
                   objective: PlacementObjective,
                   request: PlacementRequest) -> Dict[int, _Candidate]:
        """Top-down DP on the server sub-tree: blocks [0, j) executed on
        arrival at *node* → best candidate finishing at or below it."""
        num_blocks = len(ordered_blocks)
        child_tables = [
            self._server_dp(child, block_dag, ordered_blocks, objective,
                            request)
            for child in node.children
        ]
        table: Dict[int, _Candidate] = {}
        for start in range(0, num_blocks + 1):
            best: Optional[_Candidate] = None
            for end in range(start, num_blocks + 1):
                result = self._evaluate_interval(
                    node, (start, end), block_dag, ordered_blocks, objective
                )
                if result is None:
                    if request.prune:
                        break
                    continue
                if child_tables:
                    child_gain = 0.0
                    child_assignments: List[Tuple[str, int, int]] = []
                    feasible = True
                    for child_table in child_tables:
                        candidate = child_table.get(end)
                        if candidate is None:
                            feasible = False
                            break
                        child_gain += candidate.gain
                        child_assignments.extend(candidate.assignments)
                    if not feasible:
                        continue
                    total = result + child_gain
                    assignments = (
                        [(node.name, start, end)] if end > start else []
                    ) + child_assignments
                else:
                    if end != num_blocks:
                        continue
                    total = result
                    assignments = [(node.name, start, end)] if end > start else []
                if best is None or total > best.gain:
                    best = _Candidate(gain=total, assignments=assignments)
            if best is not None:
                table[start] = best
        return table

    # ------------------------------------------------------------------ #
    # interval evaluation (Algorithm 2 per device, from scratch)
    # ------------------------------------------------------------------ #
    def _evaluate_interval(self, node: ReducedNode, interval: Tuple[int, int],
                           block_dag: BlockDAG, ordered_blocks: Sequence[Block],
                           objective: PlacementObjective) -> Optional[float]:
        """Gain of hosting *interval* on *node*, ``None`` when infeasible."""
        start, end = interval
        if end < start:
            return None
        if end == start:
            return 0.0
        blocks = ordered_blocks[start:end]
        instructions = [
            instr for block in blocks for instr in block.instructions(block_dag.program)
        ]
        devices = [self.topology.device(name) for name in node.ec.members]
        bypass_devices = [self.topology.device(name) for name in node.bypass]
        for device in devices:
            assignment = IntraDeviceAllocator(device).allocate(
                block_dag.program, instructions)
            if assignment is None and bypass_devices:
                # fall back to the bypass accelerator attached to this switch
                for bypass in bypass_devices:
                    assignment = IntraDeviceAllocator(bypass).allocate(
                        block_dag.program, instructions
                    )
                    if assignment is not None:
                        break
            if assignment is None:
                return None

        return objective.gain(
            served_fraction=node.traffic_share if node.side != "root" else 1.0,
            instruction_count=len(instructions),
            transfer_bits=interval_cut_bits(block_dag, ordered_blocks,
                                            start, end),
            weights=objective.current_weights(devices),
            replicas=len(devices),
        )
