"""Vectorised interval scoring for the DP placer.

``DPPlacer._evaluate_interval`` is the search's hot path: for every
(node, interval) pair the seed implementation rebuilt the interval's
instruction list, re-walked every block-DAG edge to compute the cut bits
(O(E) per interval) and evaluated Eq. 1 one scalar at a time.  The scorer
precomputes, once per program content (:class:`IntervalMatrices`):

* a prefix-sum of per-block instruction counts, so any interval's
  instruction count is two lookups;
* the full ``cut_bits[start][end]`` matrix via range updates (each DAG edge
  contributes to two rectangles of the matrix), so cut bits are one lookup;

and evaluates Eq. 1 **row at a time**: for a fixed node and interval start,
the gains of every candidate end come from one array expression (numpy when
available, a pure-python loop otherwise).  The arithmetic replicates the
scalar :meth:`PlacementObjective.gain
<repro.placement.objective.PlacementObjective.gain>` operation order exactly
— ``w_t*h_t - w_r*h_r - w_p*h_p`` with the same int→float conversions — so
vectorised gains are bit-identical to the seed's (IEEE-754 elementwise ops
do not depend on batching), which the differential tests rely on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.placement.blocks import Block, BlockDAG
from repro.placement.objective import ObjectiveWeights, PlacementObjective

try:  # numpy is an optional accelerator; the fallback is pure python
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

__all__ = ["IntervalMatrices", "IntervalScorer"]


class IntervalMatrices:
    """Prefix sums and the cut-bit matrix of one ordered block sequence.

    A fact of the program's content alone (block sizes and block-graph edge
    bits), so the placer keeps one per content in its
    :class:`~repro.placement.facts.ProgramFacts`; read-only once built.
    """

    def __init__(self, graph, ordered_blocks: Sequence[Block],
                 use_numpy: Optional[bool] = None) -> None:
        self.num_blocks = len(ordered_blocks)
        self.use_numpy = (_np is not None) if use_numpy is None else (
            bool(use_numpy) and _np is not None
        )
        prefix = [0] * (self.num_blocks + 1)
        for index, block in enumerate(ordered_blocks):
            prefix[index + 1] = prefix[index] + block.size
        position = {
            block.block_id: index for index, block in enumerate(ordered_blocks)
        }
        # cut_bits[s][e] = parameter bits crossing the boundary of interval
        # [s, e): an edge u->v (positions pu < pv in topological order) is
        # cut exactly when one endpoint is inside, i.e. for the rectangles
        # (s <= pu, pu < e <= pv) and (pu < s <= pv, e > pv).
        n = self.num_blocks
        if self.use_numpy:
            cut = _np.zeros((n + 1, n + 1), dtype=_np.int64)
            prefix_arr = _np.asarray(prefix, dtype=_np.int64)
        else:
            cut = [[0] * (n + 1) for _ in range(n + 1)]
            prefix_arr = None
        for src, dst, data in graph.edges(data=True):
            bits = data.get("bits", 0)
            if not bits:
                continue
            pu, pv = position[src], position[dst]
            if pu > pv:
                pu, pv = pv, pu
            if self.use_numpy:
                cut[: pu + 1, pu + 1: pv + 1] += bits
                cut[pu + 1: pv + 1, pv + 1:] += bits
            else:
                for s in range(0, pu + 1):
                    row = cut[s]
                    for e in range(pu + 1, pv + 1):
                        row[e] += bits
                for s in range(pu + 1, pv + 1):
                    row = cut[s]
                    for e in range(pv + 1, n + 1):
                        row[e] += bits
        if self.use_numpy:
            cut.setflags(write=False)
            prefix_arr.setflags(write=False)
        self.cut = cut
        self.prefix = prefix
        self.prefix_arr = prefix_arr


class IntervalScorer:
    """Precomputed interval statistics + array-at-a-time Eq. 1 rows.

    *matrices* are the :class:`IntervalMatrices` of exactly
    *ordered_blocks*, when the caller already holds them; they are derived
    here otherwise.
    """

    def __init__(self, block_dag: BlockDAG, ordered_blocks: Sequence[Block],
                 objective: PlacementObjective,
                 use_numpy: Optional[bool] = None, *,
                 matrices: Optional[IntervalMatrices] = None) -> None:
        if matrices is None:
            matrices = IntervalMatrices(block_dag.graph, ordered_blocks,
                                        use_numpy)
        self.objective = objective
        self.num_blocks = matrices.num_blocks
        self.use_numpy = matrices.use_numpy
        self._cut = matrices.cut
        self._prefix = matrices.prefix
        self._prefix_arr = matrices.prefix_arr

    # ------------------------------------------------------------------ #
    # scalar lookups
    # ------------------------------------------------------------------ #
    def instruction_count(self, start: int, end: int) -> int:
        return self._prefix[end] - self._prefix[start]

    # ------------------------------------------------------------------ #
    # batched scoring
    # ------------------------------------------------------------------ #
    def gain_row(self, start: int, served_fraction: float,
                 weights: ObjectiveWeights, replicas: int,
                 end_lo: int, end_hi: int) -> List[float]:
        """Eq. 1 gains of intervals ``[start, e)`` for ``e`` in [end_lo, end_hi).

        Bit-identical to calling :meth:`PlacementObjective.gain` once per
        end (the differential tests assert this).
        """
        if end_hi <= end_lo:
            return []
        objective = self.objective
        replicas_eff = max(1, replicas)
        if self.use_numpy:
            counts = self._prefix_arr[end_lo:end_hi] - self._prefix[start]
            bits = self._cut[start, end_lo:end_hi]
            gains = (
                weights.w_t * served_fraction
                - weights.w_r * ((counts * replicas_eff)
                                 / objective.total_resource_units)
                - weights.w_p * (bits / objective.total_transfer_bits)
            )
            return gains.tolist()
        row = self._cut[start]
        prefix_start = self._prefix[start]
        return [
            objective.gain(
                served_fraction=served_fraction,
                instruction_count=self._prefix[end] - prefix_start,
                transfer_bits=row[end],
                weights=weights,
                replicas=replicas,
            )
            for end in range(end_lo, end_hi)
        ]
