"""IR block DAG construction (paper §5.2, Algorithm 3).

Blocks are the placement unit: every instruction in a block is placed on the
same device, so grouping instructions shrinks the placement search space.
Construction follows the three steps of the paper:

1. build the instruction dependency graph (including state-sharing cycles),
2. collapse every cycle — instructions that share persistent state must not
   be split across devices — into one block,
3. run Kahn's topological partitioning and merge non-exclusive blocks (same
   capability kind, within the size threshold) inside a partition and across
   adjacent partitions until no merge is possible.

The result is a pure function of the program's *content* and the two block
parameters — nothing in it names the tenant.  The optimised placer therefore
keeps the blocks, the block graph and their topological order per content
(:class:`~repro.placement.facts.ProgramFacts`) and wraps them in a fresh
:class:`BlockDAG` around each request's own program — block instruction uids
are list positions, so they transfer between two compilations of one content
unchanged, and nobody mutates blocks or graph after construction.  The
instruction-level dependency graph of step 1 is a construction intermediate:
a :class:`BlockDAG` does not keep it — nothing downstream reads it, it is
51–81 KB per template program, and its nodes hold the tenant's own
instructions, so every live or cached plan would pin them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

import networkx as nx

from repro.exceptions import PlacementError
from repro.ir.instructions import InstrClass, Instruction
from repro.ir.program import IRProgram
from repro.placement.depgraph import (
    build_dependency_graph,
    live_variable_widths,
)

#: Capability-class groups considered "the same type" for merging purposes.
#: Stateless compute merges together; stateful ops merge together; table
#: lookups merge with table lookups; packet-flow with packet-flow.
_MERGE_KIND: Dict[InstrClass, str] = {
    InstrClass.BIN: "compute",
    InstrClass.BIC: "compute",
    InstrClass.BCA: "float",
    InstrClass.BAF: "compute",
    InstrClass.BSO: "stateful",
    InstrClass.BSEM: "stateful",
    InstrClass.BSNEM: "stateful",
    InstrClass.BEM: "table",
    InstrClass.BNEM: "table",
    InstrClass.BDM: "table",
    InstrClass.BBPF: "flow",
    InstrClass.BAPF: "flow",
    InstrClass.BCF: "crypto",
    InstrClass.META: "compute",
}


@dataclass
class Block:
    """A placement unit: an ordered set of mutually co-located instructions."""

    block_id: int
    instruction_uids: List[int]
    classes: FrozenSet[InstrClass]
    states: FrozenSet[str]
    kind: str

    @property
    def size(self) -> int:
        return len(self.instruction_uids)

    def instructions(self, program: IRProgram) -> List[Instruction]:
        # IRProgram.append hands out uids in list order: the uid is the index
        return [program[uid] for uid in sorted(self.instruction_uids)]


@dataclass
class BlockDAG:
    """The DAG of blocks plus the per-edge parameter-transfer costs."""

    program: IRProgram
    blocks: List[Block]
    graph: nx.DiGraph

    def __post_init__(self) -> None:
        self._by_id = {block.block_id: block for block in self.blocks}

    def block(self, block_id: int) -> Block:
        return self._by_id[block_id]

    def topological_order(self) -> List[Block]:
        """Blocks in a topological (and deterministic) execution order."""
        order = list(nx.lexicographical_topological_sort(self.graph))
        return [self._by_id[block_id] for block_id in order]

    def num_blocks(self) -> int:
        return len(self.blocks)

    def edges(self) -> List[Tuple[int, int]]:
        return list(self.graph.edges())

    def transfer_bits(self, src_block: int, dst_block: int) -> int:
        """Parameter bits that must travel from *src_block* to *dst_block*."""
        data = self.graph.get_edge_data(src_block, dst_block)
        return int(data.get("bits", 0)) if data else 0

    def total_instructions(self) -> int:
        return sum(block.size for block in self.blocks)


def build_block_dag(program: IRProgram, max_block_size: int = 16,
                    merge: bool = True) -> BlockDAG:
    """Build the block DAG of *program* (Algorithm 3).

    Parameters
    ----------
    max_block_size:
        Size threshold for merged blocks; cycles (state-sharing groups) may
        exceed it because they are inseparable.
    merge:
        When False, skip the Kahn merging steps and keep one block per
        collapsed cycle / instruction.  Used by the Fig. 14 ablation.
    """
    graph = build_dependency_graph(program).graph

    # ---- step 2: collapse cycles (strongly connected components) ----------
    condensation = nx.condensation(graph)
    block_members: Dict[int, List[int]] = {}
    for scc_id in condensation.nodes:
        block_members[scc_id] = sorted(condensation.nodes[scc_id]["members"])

    block_graph = nx.DiGraph()
    for scc_id, members in block_members.items():
        block_graph.add_node(scc_id, members=list(members))
    for src, dst in condensation.edges:
        block_graph.add_edge(src, dst)

    # merge kind of every instruction, by uid
    kind_of = {instr.uid: _MERGE_KIND[instr.instr_class] for instr in program}
    if merge:
        block_graph = _kahn_merge(kind_of, block_graph, max_block_size)

    blocks, dag = _materialise(program, block_graph, kind_of)
    return BlockDAG(program=program, blocks=blocks, graph=dag)


# --------------------------------------------------------------------------- #
# merging
# --------------------------------------------------------------------------- #
def _block_kind(kind_of: Dict[int, str], members: Iterable[int]) -> str:
    kinds = {kind_of[uid] for uid in members}
    if kinds <= {"compute"}:
        return "compute"
    if len(kinds) == 1:
        return next(iter(kinds))
    return "mixed"


def _kahn_partitions(graph: nx.DiGraph) -> List[List[int]]:
    """Kahn's algorithm partitions: repeatedly peel nodes with in-degree 0."""
    in_degree = dict(graph.in_degree())
    frontier = sorted(n for n, degree in in_degree.items() if degree == 0)
    partitions: List[List[int]] = []
    peeled = 0
    while frontier:
        partitions.append(frontier)
        peeled += len(frontier)
        released = []
        for node in frontier:
            for succ in graph.successors(node):
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    released.append(succ)
        frontier = sorted(released)
    if peeled != len(in_degree):
        raise PlacementError("block graph contains a cycle after condensation")
    return partitions


def _kahn_merge(kind_of: Dict[int, str], block_graph: nx.DiGraph,
                max_block_size: int) -> nx.DiGraph:
    """Steps 3 of Algorithm 3: merge non-exclusive blocks within and across
    adjacent Kahn partitions until a fixed point."""
    changed = True
    while changed:
        changed = False
        partitions = _kahn_partitions(block_graph)
        index_of = {}
        for index, partition in enumerate(partitions):
            for node in partition:
                index_of[node] = index

        # merge within a partition: same kind, combined size within limit,
        # and merging must not create a cycle (it cannot, within a partition).
        for partition in partitions:
            by_kind: Dict[str, List[int]] = {}
            for node in partition:
                if node not in block_graph:
                    continue
                kind = _block_kind(kind_of, block_graph.nodes[node]["members"])
                by_kind.setdefault(kind, []).append(node)
            for kind, nodes in by_kind.items():
                if kind == "mixed" or len(nodes) < 2:
                    continue
                merged = _merge_chain(block_graph, nodes, max_block_size)
                changed = changed or merged

        # merge across adjacent partitions: a node may absorb a successor in
        # the next partition when kinds match, size allows, and the successor
        # has no other predecessor outside the merged pair (keeps the DAG).
        partitions = _kahn_partitions(block_graph)
        index_of = {}
        for index, partition in enumerate(partitions):
            for node in partition:
                index_of[node] = index
        for node in list(block_graph.nodes):
            if node not in block_graph:
                continue
            node_kind = _block_kind(kind_of, block_graph.nodes[node]["members"])
            if node_kind == "mixed":
                continue
            for succ in list(block_graph.successors(node)):
                if succ not in block_graph or index_of.get(succ, -1) != index_of.get(node, -2) + 1:
                    continue
                succ_kind = _block_kind(kind_of, block_graph.nodes[succ]["members"])
                if succ_kind != node_kind:
                    continue
                combined = (
                    len(block_graph.nodes[node]["members"])
                    + len(block_graph.nodes[succ]["members"])
                )
                if combined > max_block_size:
                    continue
                other_preds = set(block_graph.predecessors(succ)) - {node}
                if any(index_of.get(p, -1) >= index_of[node] for p in other_preds):
                    continue
                _absorb(block_graph, node, succ)
                changed = True
    return block_graph


def _merge_chain(graph: nx.DiGraph, nodes: List[int],
                 max_block_size: int) -> bool:
    """Merge as many of *nodes* (same Kahn partition, same kind) as fit."""
    merged_any = False
    nodes = [n for n in nodes if n in graph]
    if len(nodes) < 2:
        return False
    base = nodes[0]
    for other in nodes[1:]:
        if other not in graph or base not in graph:
            continue
        combined = len(graph.nodes[base]["members"]) + len(graph.nodes[other]["members"])
        if combined > max_block_size:
            base = other
            continue
        _absorb(graph, base, other)
        merged_any = True
    return merged_any


def _absorb(graph: nx.DiGraph, keep: int, remove: int) -> None:
    """Merge node *remove* into node *keep*, rewiring edges."""
    graph.nodes[keep]["members"] = sorted(
        graph.nodes[keep]["members"] + graph.nodes[remove]["members"]
    )
    for pred in list(graph.predecessors(remove)):
        if pred != keep:
            graph.add_edge(pred, keep)
    for succ in list(graph.successors(remove)):
        if succ != keep:
            graph.add_edge(keep, succ)
    graph.remove_node(remove)


# --------------------------------------------------------------------------- #
# materialisation
# --------------------------------------------------------------------------- #
def _materialise(program: IRProgram, block_graph: nx.DiGraph,
                 kind_of: Dict[int, str]) -> Tuple[List[Block], nx.DiGraph]:
    transfer = live_variable_widths(program)

    # deterministic block ids in topological order of the block graph
    order = list(nx.lexicographical_topological_sort(block_graph))
    id_map = {node: index for index, node in enumerate(order)}

    blocks: List[Block] = []
    uid_to_block: Dict[int, int] = {}
    for node in order:
        members = block_graph.nodes[node]["members"]
        classes = frozenset(program[uid].instr_class for uid in members)
        states = frozenset(
            program[uid].state for uid in members
            if program[uid].state is not None
        )
        blocks.append(
            Block(
                block_id=id_map[node],
                instruction_uids=sorted(members),
                classes=classes,
                states=states,
                kind=_block_kind(kind_of, members),
            )
        )
        for uid in members:
            uid_to_block[uid] = id_map[node]

    dag = nx.DiGraph()
    for block in blocks:
        dag.add_node(block.block_id)
    for (src_uid, dst_uid), bits in transfer.items():
        src_block = uid_to_block[src_uid]
        dst_block = uid_to_block[dst_uid]
        if src_block == dst_block:
            continue
        existing = dag.get_edge_data(src_block, dst_block, default={"bits": 0})
        dag.add_edge(src_block, dst_block, bits=existing.get("bits", 0) + bits)
    for src, dst in block_graph.edges:
        a, b = id_map[src], id_map[dst]
        if a != b and not dag.has_edge(a, b):
            dag.add_edge(a, b, bits=0)
    return blocks, dag
