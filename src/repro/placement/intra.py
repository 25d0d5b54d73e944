"""Intra-device instruction allocation (paper §5.4, Algorithm 2).

Algorithm 2 maps the instructions of a block interval onto the pipeline
stages (or the core pool of an RTC device) of one device such that

* every instruction lands on a device that supports its capability class,
* dependent instructions never share a stage and respect pipeline order
  (paper Eq. 5 / Eq. 52-53),
* per-stage resource capacities are respected (Eq. 6), including the memory
  of the persistent states the instructions touch, and
* the packing is compact (instructions are pushed to the earliest legal
  stage), which is the pruning preference the paper describes.

Algorithm 1 runs it for every candidate interval on every device, so the
module is built around **one packing loop fed from a packing table**:

* :class:`PackingTable` holds what is a fact of the program's *content* —
  per instruction one row ``(uid, non-zero (resource key, amount) pairs,
  read names, dst, predicate flag, state, capability class)`` and per state
  its memory demand — derived once from
  :meth:`~repro.devices.base.Device.instruction_demand` /
  :meth:`~repro.devices.base.Device.state_bits`, never per interval.  It
  keeps no reference to the program and nothing in it names the tenant.
* :class:`PackingRows` is what is a fact of one *instruction selection* (a
  block interval, or an ad-hoc list): its rows in the caller's order and in
  uid order, and the set of capability classes (one subset test against
  ``device.supported_classes`` replaces a per-instruction loop).
* what is a fact of the *device* — ``capacity − used`` per stage — comes
  from :meth:`~repro.devices.base.AllocState.stage_availability` of the
  allocation state packed against, computed once per state.

:meth:`PackingTable.pack` is the only first-fit loop in ``src/``; its inner
loop touches tuples and plain dicts only.  A table is immutable once built:
the DP search takes the table of the request's content from its
:class:`~repro.placement.facts.ProgramFacts` — shared, possibly by searches
running concurrently on other shards' placers — so what belongs to one
search (the rows of each interval, every packing outcome, the
``packing_runs`` / ``packed_instructions`` tally) lives on the search's own
``_IntervalPacker``, which :meth:`PackingTable.pack` counts into.
:class:`benchmarks.baselines.IntraDeviceAllocator` is the front for
callers that hold a bare instruction list (the exhaustive baseline) and
builds a throw-away table for it.  The previous allocator lives on as the
oracle of the differential test (``tests/oracles/intra_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from repro.devices.base import AllocState, Architecture, Device
from repro.ir.instructions import InstrClass, Instruction
from repro.ir.program import IRProgram

#: ``(uid, demand pairs, read names, dst, is_predicate, state, class)``
Row = Tuple[int, Tuple[Tuple[str, float], ...], Tuple[str, ...],
            Optional[str], bool, Optional[str], InstrClass]

_ROW_UID = itemgetter(0)


@dataclass
class StageAssignment:
    """Result of allocating a set of instructions onto one device."""

    device_name: str
    stage_of_instruction: Dict[int, int]          # uid -> stage index
    stage_demands: Dict[int, Dict[str, float]]    # stage index -> resources
    stages_used: int
    instruction_count: int

class PackingRows(NamedTuple):
    """The rows of one instruction selection, ready to pack."""

    ordered: List[Row]                 # the caller's order (RTC sums in it)
    by_uid: List[Row]                  # uid order (the first-fit visits in it)
    classes: FrozenSet[InstrClass]


class PackingTable:
    """Per-content facts Algorithm 2 packs from; read-only once built.

    *instructions* are the instructions rows are built for: the whole
    program for a placement search, the caller's list for an ad-hoc
    :meth:`IntraDeviceAllocator.allocate`.  *program* is read for the
    declarations of the states they touch and not kept.
    """

    def __init__(self, program: IRProgram,
                 instructions: Iterable[Instruction]) -> None:
        self.rows: List[Row] = []
        #: resource keys in the order ``instruction_demand`` lists them (the
        #: key order of an RTC assignment's demands)
        self.demand_keys: Tuple[str, ...] = ()
        #: per state its ``Device.state_bits`` and, from them, its memory
        #: demand as ``(key, amount)`` pairs
        self._state_bits: Dict[str, Tuple[int, int]] = {}
        self._state_memory: Dict[str, Tuple[Tuple[str, float], ...]] = {}
        for instr in instructions:
            demand = Device.instruction_demand(instr)
            if not self.demand_keys:
                self.demand_keys = tuple(demand)
            if instr.state is not None and instr.state not in self._state_bits:
                bits = Device.state_bits(program.get_state(instr.state))
                self._state_bits[instr.state] = bits
                self._state_memory[instr.state] = tuple(
                    Device.memory_demand([bits]).items()
                )
            self.rows.append((
                instr.uid,
                tuple((key, amount) for key, amount in demand.items()
                      if amount > 0),
                instr.reads(),
                instr.dst,
                # predicate (1-bit) results are evaluated by the stage's
                # gateway, so a consumer may share the producer's stage
                instr.width == 1,
                instr.state,
                instr.instr_class,
            ))
        self._by_uid: Dict[int, Row] = {row[0]: row for row in self.rows}

    def select(self, uids: Optional[Iterable[int]] = None) -> PackingRows:
        """The rows of *uids* in that order (default: every row, as built)."""
        ordered = (self.rows if uids is None
                   else [self._by_uid[uid] for uid in uids])
        return PackingRows(
            ordered=ordered,
            by_uid=sorted(ordered, key=_ROW_UID),
            classes=frozenset(row[6] for row in ordered),
        )

    # ------------------------------------------------------------------ #
    def pack(self, device: Device, rows: PackingRows, start_stage: int = 0,
             tally=None, state: Optional[AllocState] = None
             ) -> Optional[StageAssignment]:
        """Pack *rows* onto *device* in allocation *state* (default: its
        current one); ``None`` when they cannot be placed.

        Read-only on the device (the demands in the returned assignment let
        the caller commit later) and on the table.  *tally* — any object
        with integer ``packing_runs`` / ``packed_instructions`` attributes,
        owned by the caller's search — gets one run and the rows this run
        visited, feasible or not, added to it.
        """
        assignment, visited = self._first_fit(device, rows, start_stage,
                                              state or device.state)
        if tally is not None:
            tally.packing_runs += 1
            tally.packed_instructions += visited
        return assignment

    def _first_fit(self, device: Device, rows: PackingRows, start_stage: int,
                   state: AllocState
                   ) -> Tuple[Optional[StageAssignment], int]:
        """The assignment (or ``None``) and how many rows were visited."""
        if not rows.ordered:
            return StageAssignment(device.name, {}, {}, 0, 0), 0
        if not rows.classes <= device.supported_classes:
            return None, 0
        available = state.stage_availability()
        if device.architecture is Architecture.RTC:
            return self._spread_rtc(device, rows, available), len(rows.ordered)

        num_stages = len(available)
        trial: List[Dict[str, float]] = [{} for _ in range(num_stages)]
        # producer stage per variable, to respect dependencies inside the set
        producers: Dict[str, int] = {}
        predicate_vars = set()
        stage_of: Dict[int, int] = {}
        state_anchor: Dict[str, int] = {}
        visited = 0
        for uid, demand, reads, dst, is_predicate, state, _ in rows.by_uid:
            visited += 1
            earliest = start_stage
            for name in reads:
                stage = producers.get(name)
                if stage is not None:
                    if name not in predicate_vars:
                        stage += 1
                    if stage > earliest:
                        earliest = stage
            for stage in range(earliest, num_stages):
                free = available[stage]
                taken = trial[stage]
                for key, amount in demand:
                    if free.get(key, 0.0) - taken.get(key, 0.0) < amount:
                        break
                else:
                    for key, amount in demand:
                        taken[key] = taken.get(key, 0.0) + amount
                    stage_of[uid] = stage
                    if dst is not None:
                        producers[dst] = stage
                        if is_predicate:
                            predicate_vars.add(dst)
                    if state is not None and state not in state_anchor:
                        state_anchor[state] = stage
                    break
            else:
                return None, visited

        # Persistent state memory: a table/register larger than one stage's
        # memory is spread over subsequent stages (RMT table spreading,
        # paper Eq. 13), anchored at the first stage that references it.
        for state, anchor in state_anchor.items():
            for key, amount in self._state_memory[state]:
                remaining = amount
                for stage in range(anchor, num_stages):
                    if remaining <= 1e-12:
                        break
                    taken = trial[stage]
                    free = available[stage].get(key, 0.0) - taken.get(key, 0.0)
                    take = min(remaining, max(0.0, free))
                    if take > 0:
                        taken[key] = taken.get(key, 0.0) + take
                        remaining -= take
                if remaining > 1e-9:
                    return None, visited

        # stages ascending; inside a stage the capacity-key order
        stage_demands = {
            stage: {key: taken[key] for key in available[stage] if key in taken}
            for stage, taken in enumerate(trial) if taken
        }
        placed = stage_of.values()
        return StageAssignment(
            device_name=device.name,
            stage_of_instruction=stage_of,
            stage_demands=stage_demands,
            stages_used=max(placed) - min(placed) + 1,
            instruction_count=len(rows.ordered),
        ), visited

    def _spread_rtc(self, device: Device, rows: PackingRows,
                    available: List[Dict[str, float]]
                    ) -> Optional[StageAssignment]:
        """RTC devices only need aggregate resource checks (paper Eq. 7)."""
        total = dict.fromkeys(self.demand_keys, 0.0)
        states = set()
        for _, demand, _, _, _, state, _ in rows.ordered:
            for key, amount in demand:
                total[key] += amount
            if state is not None:
                states.add(state)
        memory = Device.memory_demand(self._state_bits[s] for s in states)
        for key, amount in memory.items():
            total[key] = total.get(key, 0.0) + amount

        # greedily spread over islands (pseudo-stages), filling each in turn
        stage_demands: Dict[int, Dict[str, float]] = {}
        for index, free in enumerate(available):
            if all(amount <= 0 for amount in total.values()):
                break
            take: Dict[str, float] = {}
            for key, amount in total.items():
                if amount <= 0:
                    continue
                taken = min(amount, free.get(key, 0.0))
                if taken > 0:
                    take[key] = taken
                    total[key] = amount - taken
            if take:
                stage_demands[index] = take
        if any(amount > 1e-9 for amount in total.values()):
            return None
        island = min(stage_demands) if stage_demands else 0
        return StageAssignment(
            device_name=device.name,
            stage_of_instruction={row[0]: island for row in rows.ordered},
            stage_demands=stage_demands,
            stages_used=len(stage_demands),
            instruction_count=len(rows.ordered),
        )
