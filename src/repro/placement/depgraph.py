"""Instruction dependency graph (paper §5.2, step 1).

Two kinds of dependencies are modelled:

* **Data dependencies** — instruction *j* reads a variable written by an
  earlier instruction *i* (read-after-write).  After the frontend's SSA pass
  these are the only data hazards left.
* **State-sharing dependencies** — all instructions that read or write the
  same persistent (inter-packet) state are mutually dependent, because the
  state cannot be replicated across devices without breaking consistency
  (paper Lemma B.2).  These mutual dependencies form the cycles that the
  block-construction step collapses into single blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import networkx as nx

from repro.ir.instructions import Instruction
from repro.ir.program import IRProgram


@dataclass
class DependencyGraph:
    """Directed dependency graph over instruction uids.

    ``graph`` contains a node per instruction uid; edges point from the
    producing instruction to the consuming one.  ``state_groups`` lists, for
    every persistent state, the uids that touch it (used for the mutual
    state-sharing dependencies), and ``live_out`` maps each uid to the set of
    variable names its result feeds (used to compute cross-device parameter
    transfer).
    """

    program: IRProgram
    graph: nx.DiGraph
    state_groups: Dict[str, List[int]] = field(default_factory=dict)

    def predecessors(self, uid: int) -> List[int]:
        return list(self.graph.predecessors(uid))

    def successors(self, uid: int) -> List[int]:
        return list(self.graph.successors(uid))

    def instruction(self, uid: int) -> Instruction:
        return self.graph.nodes[uid]["instruction"]

    def topological_order(self) -> List[int]:
        """A topological order of the acyclic part of the graph.

        State-sharing mutual dependencies create 2-cycles; they are condensed
        first so the order is well defined.
        """
        condensation = nx.condensation(self.graph)
        order: List[int] = []
        for scc_id in nx.topological_sort(condensation):
            members = sorted(condensation.nodes[scc_id]["members"])
            order.extend(members)
        return order


def build_dependency_graph(program: IRProgram,
                           include_state_cycles: bool = True) -> DependencyGraph:
    """Construct the dependency graph of *program*.

    Parameters
    ----------
    include_state_cycles:
        When True (default, matching the paper) instructions sharing a
        persistent state are made mutually dependent, producing cycles that
        block construction later collapses.  Benchmarks that measure the
        effect of block construction can disable this.
    """
    graph = nx.DiGraph()
    writers: Dict[str, int] = {}
    state_groups: Dict[str, List[int]] = {}

    for instr in program:
        graph.add_node(instr.uid, instruction=instr)

    for instr in program:
        # data dependencies: RAW on temporaries and guards
        for name in instr.reads():
            producer = writers.get(name)
            if producer is not None and producer != instr.uid:
                graph.add_edge(producer, instr.uid, kind="data", var=name)
        for name in instr.writes():
            writers[name] = instr.uid
        # collect state users
        if instr.state is not None:
            state_groups.setdefault(instr.state, []).append(instr.uid)

    # packet-flow ordering: drop/forward decisions depend on everything that
    # guards them, which the guard edges already capture; no extra edges.

    if include_state_cycles:
        for state, uids in state_groups.items():
            if len(uids) < 2:
                continue
            for i, a in enumerate(uids):
                for b in uids[i + 1:]:
                    graph.add_edge(a, b, kind="state", var=state)
                    graph.add_edge(b, a, kind="state", var=state)

    return DependencyGraph(program=program, graph=graph, state_groups=state_groups)


def live_variable_widths(program: IRProgram) -> Dict[Tuple[int, int], int]:
    """Bits of temporaries live across each instruction boundary.

    Returns a mapping ``(producer_uid, consumer_uid) -> width`` for every
    data dependency; the placement objective sums the widths of dependencies
    that cross a device boundary to obtain the extra parameter bytes carried
    in the INC header (the φ term of Eq. 1).
    """
    widths: Dict[Tuple[int, int], int] = {}
    producer_of: Dict[str, Instruction] = {}
    for instr in program:
        for name in instr.reads():
            producer = producer_of.get(name)
            if producer is not None:
                widths[(producer.uid, instr.uid)] = max(
                    widths.get((producer.uid, instr.uid), 0), producer.width
                )
        for name in instr.writes():
            producer_of[name] = instr
    return widths
