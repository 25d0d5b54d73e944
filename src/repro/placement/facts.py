"""What the placement search knows about a program before it sees a topology.

ClickINC sells INC as a service through parameterised templates, so the same
program *content* arrives again and again under different tenant names.
Block construction (Algorithm 3), the per-instruction rows Algorithm 2 packs
from and the interval statistics Eq. 1 is scored from are pure functions of
that content and of the two block parameters.  :class:`ProgramFacts` is that
function's value — name-blind and read-only — and
:func:`derive_program_facts` is the one place it is computed.

:meth:`DPPlacer.place <repro.placement.dp.DPPlacer.place>` looks facts up by
content in the :class:`~repro.placement.memo.ProgramFactsStore` its placement
memo owns and derives them on a miss.  Nothing tenant-specific is kept: the
:class:`~repro.placement.blocks.BlockDAG` a plan carries is re-owned with the
request's own program (:meth:`ProgramFacts.block_dag`), and the
:class:`~repro.placement.intra.PackingTable` holds no program at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import networkx as nx

from repro.ir.program import IRProgram
from repro.placement.blocks import Block, BlockDAG, build_block_dag
from repro.placement.intra import PackingTable
from repro.placement.scoring import IntervalMatrices

__all__ = ["ProgramFacts", "derive_program_facts"]


@dataclass(frozen=True)
class ProgramFacts:
    """The content-only inputs of one placement search.

    Shared between every search of the same content, possibly running
    concurrently on different shards' placers: nothing here is written after
    :func:`derive_program_facts` returns.
    """

    #: ``fingerprint_ir(program, normalize_name=True)`` of the content
    fingerprint: str
    #: Algorithm 3's blocks and block graph (a :class:`BlockDAG` minus its
    #: program), and the blocks in topological execution order
    blocks: Tuple[Block, ...]
    graph: nx.DiGraph
    order: Tuple[Block, ...]
    #: the rows and per-state memory Algorithm 2 packs from
    table: PackingTable
    #: the prefix sums and cut-bit matrix Eq. 1 rows are scored from
    matrices: IntervalMatrices

    def block_dag(self, program: IRProgram) -> BlockDAG:
        """The block DAG of *program*, whose content these facts describe."""
        return BlockDAG(program=program, blocks=list(self.blocks),
                        graph=self.graph)


def derive_program_facts(program: IRProgram, fingerprint: str,
                         max_block_size: int, merge: bool) -> ProgramFacts:
    """Derive the facts of *program*'s content (≈ 1.6 ms for a template).

    *fingerprint* is the program's name-normalised content fingerprint, which
    the caller has already computed to look the facts up.
    """
    block_dag = build_block_dag(program, max_block_size=max_block_size,
                                merge=merge)
    order = tuple(block_dag.topological_order())
    return ProgramFacts(
        fingerprint=fingerprint,
        blocks=tuple(block_dag.blocks),
        graph=block_dag.graph,
        order=order,
        table=PackingTable(program, program),
        matrices=IntervalMatrices(block_dag.graph, order),
    )
