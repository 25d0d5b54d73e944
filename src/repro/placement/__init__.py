"""Program placement (paper §5).

This package implements ClickINC's placement pipeline:

1. :mod:`repro.placement.depgraph` — instruction dependency graph, including
   the mutual dependencies between instructions sharing persistent state.
2. :mod:`repro.placement.blocks` — IR block DAG construction (Algorithm 3):
   state-sharing grouping, cycle collapse, Kahn partitioning and block
   merging under a size threshold.
3. :mod:`repro.placement.objective` — the gain function of Eq. 1 with fixed
   or adaptive weights.
4. :mod:`repro.placement.intra` — instruction-to-stage allocation within one
   device (Algorithm 2).
5. :mod:`repro.placement.dp` — the multi-path dynamic-programming allocator
   over the reduced topology tree (Algorithm 1), working from the
   per-content :mod:`repro.placement.facts` (block DAG, packing rows, scorer
   matrices) its :mod:`repro.placement.memo` keeps for repeating programs.
6. :mod:`repro.placement.plan` — the placement plan the search produces,
   including per-device program snippets and step numbers.

The comparison baselines (the exhaustive "SMT" placer of paper Table 4 /
Fig. 14) are not part of the system and live in ``benchmarks/baselines.py``.
"""

from repro.placement.depgraph import DependencyGraph, build_dependency_graph
from repro.placement.blocks import Block, BlockDAG, build_block_dag
from repro.placement.objective import ObjectiveWeights, PlacementObjective
from repro.placement.intra import StageAssignment
from repro.placement.memo import PlacementMemo
from repro.placement.plan import BlockAssignment, PlacementPlan
from repro.placement.scoring import IntervalScorer
from repro.placement.facts import ProgramFacts, derive_program_facts
from repro.placement.dp import DPPlacer, PlacementRequest

__all__ = [
    "DependencyGraph",
    "build_dependency_graph",
    "Block",
    "BlockDAG",
    "build_block_dag",
    "ObjectiveWeights",
    "PlacementObjective",
    "StageAssignment",
    "BlockAssignment",
    "PlacementMemo",
    "PlacementPlan",
    "IntervalScorer",
    "ProgramFacts",
    "derive_program_facts",
    "DPPlacer",
    "PlacementRequest",
]
