"""Multi-path dynamic-programming placement (paper §5.4, Algorithm 1).

The placer works on the reduced topology tree of §5.3: the client-side
sub-tree is traversed from the source leaves up to the root, the server-side
sub-tree from the root down to the destination leaf, and the two partial
solutions are joined at the root (Eq. 2).

Because the block DAG is topologically ordered, a placement assigns each
equivalence class a *contiguous interval* of the block sequence: a path from
a source leaf to the destination executes the program front to back as the
packet travels.  The DP state is therefore "how many blocks have been placed
so far along every path through this node", and the recurrence tries every
interval the current node could host, pruning intervals whose capability or
resource requirements the node cannot satisfy (paper's constraint pruning).

Fabric-scale search adds three coordinated optimisations, each
plan-identical to the seed search, which the differential tests in
``tests/test_placement_scale.py`` keep as their oracle
(``tests/oracles/dp_reference.py``):

* **incremental DP** — feasibility checks, interval gains and whole
  sub-tree DP tables are memoised across ``place()`` calls in a
  :class:`~repro.placement.memo.PlacementMemo`.  Keys are content-addressed
  (program fingerprint + device allocation-state digests), so after a
  single device's allocation changes only the sub-solutions that consulted
  that device miss; everything else replays from the memo.
* **equivalence-class pruning** — symmetric sub-trees (e.g. the identical
  pods of a fat-tree) share one DP solve: a recursive name-blind
  :func:`~repro.topology.equivalence.subtree_signature` routes isomorphic
  sub-trees to the same stored table, replayed through an ec-id
  correspondence, so search cost grows with topology *shape* rather than
  device count.
* **vectorised scoring** — per-interval Eq. 1 gains come from
  :class:`~repro.placement.scoring.IntervalScorer` rows (precomputed cut-bit
  matrix + prefix sums, numpy when available) instead of per-interval O(E)
  edge walks.

What a search knows about the program before it sees the topology — the
block DAG of Algorithm 3, the rows Algorithm 2 packs from, the scorer's
matrices — is a function of the program's *content*, so ``place()`` takes it
from a :class:`~repro.placement.facts.ProgramFacts` looked up by content in
the memo's :class:`~repro.placement.memo.ProgramFactsStore` (derived on a
miss, admitted on second sight): a repeat tenant's ``place()`` is reduced
tree + memo replay + materialise.

Profiling hooks (:class:`~repro.obs.profiling.PlacementProfile` on
``DPPlacer.profile``) attribute wall-clock to search / scoring / validation
stages and count memo hits, for the scaling benchmarks and CI summaries.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.devices.base import AllocState
from repro.exceptions import (
    PlacementConflictError,
    PlacementError,
    StaleMemoError,
)
from repro.ir.program import IRProgram
from repro.placement.blocks import Block, BlockDAG
from repro.placement.facts import ProgramFacts, derive_program_facts
from repro.placement.intra import PackingRows, PackingTable, StageAssignment
from repro.placement.memo import INFEASIBLE, MISS, PlacementMemo
from repro.placement.objective import ObjectiveWeights, PlacementObjective
from repro.placement.plan import BlockAssignment, PlacementPlan
from repro.placement.scoring import IntervalScorer
from repro.topology.equivalence import (
    ReducedNode,
    ReducedTree,
    build_reduced_tree,
    node_content_key,
    subtree_class_ids,
    subtree_correspondence,
    subtree_signature,
)
from repro.topology.network import NetworkTopology

NEG_INF = float("-inf")

#: Most request shapes one placer keeps reduced trees for, per forwarding
#: epoch (a shape is a few sub-KB nodes; the dict is dropped when full).
ROUTED_TREE_MAX_ENTRIES = 256


@dataclass
class PlacementRequest:
    """Everything the placer needs to place one program.

    Attributes
    ----------
    program:
        The compiled IR program.
    source_groups:
        Host groups whose traffic the program must process (clients/trainers).
    destination_group:
        Host group the traffic is destined to (servers / parameter server).
    traffic_rates:
        Optional per-source traffic rates (packets per second) used to weigh
        paths; defaults to uniform.
    max_block_size:
        Block-construction size threshold.
    use_blocks:
        Disable to place individual instructions (Fig. 14 ablation).
    adaptive_weights:
        Use the adaptive weight schedule of §5.4 (Table 5 ablation).
    """

    program: IRProgram
    source_groups: Sequence[str]
    destination_group: str
    traffic_rates: Optional[Dict[str, float]] = None
    max_block_size: int = 16
    use_blocks: bool = True
    adaptive_weights: bool = True
    prune: bool = True
    _fingerprint: Optional[str] = field(default=None, init=False, repr=False,
                                        compare=False)

    def program_fingerprint(self) -> str:
        """Name-normalised content fingerprint of ``program``, computed once.

        Both the plan-cache key and the placer's content lookups start from
        it; a request lives for one deployment, during which its program
        does not change.
        """
        if self._fingerprint is None:
            from repro.core.cache import fingerprint_ir  # local: avoids an
            # import cycle (repro.core.__init__ imports the controller,
            # which imports this module)

            self._fingerprint = fingerprint_ir(self.program,
                                               normalize_name=True)
        return self._fingerprint


class RoutedTree:
    """The reduced tree of one traffic shape, and what a search over it reads.

    ``devices`` are the devices a search consults — every node's
    ``ec.members`` plus its ``bypass``, sorted by name (``consulted``) — and
    ``signature`` digests the tree's structure: ids, members, bypasses,
    sides, traffic shares and shape.  Two searches of one program content
    with equal signatures and equal allocation states on ``devices``
    return the same plan.
    """

    __slots__ = ("tree", "consulted", "devices", "signature")

    def __init__(self, tree: ReducedTree, topology: NetworkTopology) -> None:
        consulted = set()
        shape = []
        for node in tree.all_nodes():
            consulted.update(node.ec.members)
            consulted.update(node.bypass)
            shape.append((node.ec.ec_id, node.ec.layer, node.ec.dev_type,
                          tuple(node.ec.members), tuple(node.bypass),
                          node.side, repr(float(node.traffic_share)),
                          len(node.children)))
        self.tree = tree
        self.consulted: Tuple[str, ...] = tuple(sorted(consulted))
        self.devices = tuple(topology.device(name) for name in self.consulted)
        self.signature = hashlib.sha256(
            repr(shape).encode("utf-8")).hexdigest()[:32]

    def states(self) -> Dict[str, AllocState]:
        """The live allocation states of the consulted devices, in
        ``consulted`` order: the snapshot a search reads."""
        return {device.name: device.state for device in self.devices}


@dataclass
class _Candidate:
    """A partial DP solution at one node: gain + chosen intervals below it."""

    gain: float
    assignments: List[Tuple[str, int, int]] = field(default_factory=list)
    # list of (ec_id, start_block_index, end_block_index) intervals


class _IntervalPacker:
    """Algorithm 2 per (device, block interval), run at most once per search.

    Packs from the content's :class:`~repro.placement.intra.PackingTable`
    (shared and read-only) and owns what belongs to this ``place()`` call:
    the rows of each interval, every packing outcome — so plan
    materialisation reuses the assignments the search already derived and
    packs only the intervals the memo answered — and the tally of runs and
    visited rows.  It is referenced by nothing that outlives ``place()``.
    It packs against the allocation states in *states* (the search's
    snapshot), or a device's live state when it has none.
    """

    def __init__(self, table: PackingTable, ordered_blocks: Sequence[Block],
                 states: Optional[Mapping[str, AllocState]] = None) -> None:
        self.table = table
        self._states = states or {}
        self.packing_runs = 0
        self.packed_instructions = 0
        self._blocks = ordered_blocks
        self._rows: Dict[Tuple[int, int], PackingRows] = {}
        self._outcomes: Dict[Tuple[str, int, int],
                             Optional[StageAssignment]] = {}

    def rows(self, start: int, end: int) -> PackingRows:
        rows = self._rows.get((start, end))
        if rows is None:
            rows = self._rows[(start, end)] = self.table.select(
                uid
                for block in self._blocks[start:end]
                for uid in sorted(block.instruction_uids)
            )
        return rows

    def pack(self, device, start: int, end: int) -> Optional[StageAssignment]:
        key = (device.name, start, end)
        if key not in self._outcomes:
            self._outcomes[key] = self.table.pack(
                device, self.rows(start, end), tally=self,
                state=self._states.get(device.name))
        return self._outcomes[key]


class _SearchContext:
    """Per-``place()`` state of the search.

    Bundles what the DP recurrences read — the reduced tree, the block
    count, the objective, the request — with the memo handle, the
    vectorised scorer, the profiling counters, the search's interval
    packer and the per-call caches (node content digests, sub-tree
    signatures, hoisted per-node objective weights, gain rows).

    Everything it reads about the devices comes from ``states``, the
    consulted devices' allocation states taken when the search begins, never
    from the live devices: the search runs without a lock (the cross-shard
    speculative search runs while pod shards commit), and a memo key and
    its value are then read from one state by construction.  A commit that
    lands mid-search changes a live state, which the plan's validation at
    commit time sees.
    """

    def __init__(self, placer: "DPPlacer", facts: ProgramFacts,
                 block_dag: BlockDAG, routed: RoutedTree,
                 objective: PlacementObjective, request: PlacementRequest,
                 states: Mapping[str, AllocState]) -> None:
        self.topology = placer.topology
        self.memo = placer.memo
        self.counters = placer.profile.counters
        self.tree = routed.tree
        self.num_blocks = len(facts.order)
        self.objective = objective
        self.request = request
        self.states = states
        self.packer = _IntervalPacker(facts.table, facts.order, states)
        self.scorer = IntervalScorer(block_dag, facts.order, objective,
                                     matrices=facts.matrices)
        # The context digest pins everything a sub-solution's value depends
        # on besides the devices it consulted: the (name-normalised) program
        # and block parameters determine the intervals' content, and the
        # objective's normalisation constants / weight mode determine how an
        # interval's gain is computed from that content.
        context = (
            facts.fingerprint,
            request.max_block_size if request.use_blocks else 1,
            bool(request.use_blocks),
            bool(request.adaptive_weights),
            bool(request.prune),
            repr(objective.total_resource_units),
            repr(objective.total_transfer_bits),
            repr(objective.base_weights),
        )
        self.context_digest = hashlib.sha256(
            repr(context).encode("utf-8")
        ).hexdigest()[:32]
        self._signatures: Dict[int, str] = {}
        self._node_digests: Dict[int, str] = {}
        self._node_weights: Dict[int, ObjectiveWeights] = {}
        self._node_devices: Dict[int, Tuple[list, list]] = {}
        self._rows: Dict[Tuple[int, int], List[float]] = {}
        # per-place overlay over the cross-epoch memo: the root join loop
        # re-evaluates the same (node, interval) for thousands of child
        # combinations, and a plain dict probe is much cheaper than the
        # LRU-maintaining memo lookup
        self._local_evals: Dict[Tuple[int, int, int], Optional[float]] = {}

    # -- per-node caches ---------------------------------------------------
    def node_devices(self, node: ReducedNode) -> Tuple[list, list]:
        cached = self._node_devices.get(id(node))
        if cached is None:
            cached = (
                [self.topology.device(name) for name in node.ec.members],
                [self.topology.device(name) for name in node.bypass],
            )
            self._node_devices[id(node)] = cached
        return cached

    def node_weights(self, node: ReducedNode) -> ObjectiveWeights:
        # the search reads one snapshot, so the adaptive weights are a
        # per-node constant and can be hoisted
        weights = self._node_weights.get(id(node))
        if weights is None:
            weights = self.objective.current_weights(
                self.states[name] for name in node.ec.members)
            self._node_weights[id(node)] = weights
        return weights

    def node_digest(self, node: ReducedNode) -> str:
        digest = self._node_digests.get(id(node))
        if digest is None:
            digest = hashlib.sha256(
                repr(node_content_key(node, self.topology, self.states)
                     ).encode("utf-8")
            ).hexdigest()[:32]
            self._node_digests[id(node)] = digest
        return digest

    def subtree_digest(self, node: ReducedNode) -> str:
        return subtree_signature(node, self.topology, self._signatures,
                                 self.states)

    def subtree_device_names(self, node: ReducedNode) -> List[str]:
        names: List[str] = []
        seen = set()
        for sub in node.iter_nodes():
            for name in itertools.chain(sub.ec.members, sub.bypass):
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        return names

    def table_stamps(self, node: ReducedNode) -> Tuple[Tuple[str, str], ...]:
        """State digests of every device a sub-tree table consults.

        Stored alongside the table and re-checked by
        :meth:`verify_table_stamps` before a memo hit is trusted — the
        runtime guard behind the memo's content-addressing invariant.
        """
        return tuple((name, self.states[name].digest)
                     for name in self.subtree_device_names(node))

    def verify_table_stamps(self, stamps: Sequence[Tuple[str, str]],
                            node: ReducedNode) -> None:
        """Raise :class:`StaleMemoError` if a stamped device drifted.

        The memo's table keys embed every consulted device's state digest
        (via the recursive sub-tree signature), so signature equality
        implies digest equality position by position: the
        stamps were taken in the DFS pre-order of the sub-tree the table was
        derived on, and an equal signature makes that pre-order correspond
        to *node*'s own (the correspondence :meth:`remap_table` replays the
        table through).  Each stamp is therefore checked against the snapshot
        state of the local device at its position, whatever that device is
        called — symmetric reuse legitimately serves pod B a table derived
        on pod A, where a device named like one of A's may sit at another
        position.  A stamp that disagrees means the invariant was violated
        somewhere (an entry injected under a wrong key) and placing from the
        table could double-book resources, so the placer refuses instead of
        silently continuing.
        """
        stale = []
        local = self.subtree_device_names(node)
        for (_stamped, digest), name in zip(stamps, local):
            if self.states[name].digest != digest:
                stale.append(name)
        if stale:
            self.memo.counters.increment("stale_rejections", by=len(stale))
            raise StaleMemoError(
                f"memo-served sub-tree table was derived against superseded "
                f"allocation states on devices {sorted(stale)}; the memo's "
                f"content-addressing invariant was violated"
            )

    # -- interval machinery ------------------------------------------------
    def gain(self, node: ReducedNode, start: int, end: int) -> float:
        row = self._rows.get((id(node), start))
        if row is None:
            devices, _ = self.node_devices(node)
            row = self.scorer.gain_row(
                start,
                served_fraction=(
                    node.traffic_share if node.side != "root" else 1.0
                ),
                weights=self.node_weights(node),
                replicas=len(devices),
                end_lo=start,
                end_hi=self.num_blocks + 1,
            )
            self._rows[(id(node), start)] = row
            self.counters.increment("score_rows")
        self.counters.increment("scored_intervals")
        return row[end - start]

    def device_feasible(self, device, start: int, end: int) -> bool:
        """Memoised Algorithm 2 feasibility for one device and interval."""
        self.counters.increment("device_checks")
        key = (self.context_digest, start, end, device.dev_type,
               self.states[device.name].digest)
        cached = self.memo.lookup_device(key)
        if cached is not MISS:
            self.counters.increment("device_memo_hits")
            return bool(cached)
        feasible = self.packer.pack(device, start, end) is not None
        self.memo.store_device(key, feasible)
        return feasible

    def eval_interval(self, node: ReducedNode, start: int,
                      end: int) -> Optional[float]:
        """Gain of hosting blocks [start, end) on *node* (memoised), ``None``
        when infeasible."""
        if end <= start:
            return 0.0 if end == start else None
        local_key = (id(node), start, end)
        if local_key in self._local_evals:
            return self._local_evals[local_key]
        result = self._eval_interval_memo(node, start, end)
        self._local_evals[local_key] = result
        return result

    def _eval_interval_memo(self, node: ReducedNode, start: int,
                            end: int) -> Optional[float]:
        self.counters.increment("interval_evals")
        key = (self.context_digest, self.node_digest(node), start, end)
        cached = self.memo.lookup_interval(key)
        if cached is not MISS:
            self.counters.increment("interval_memo_hits")
            return None if cached is INFEASIBLE else cached
        devices, bypass_devices = self.node_devices(node)
        gain: Optional[float] = None
        for device in devices:
            feasible = self.device_feasible(device, start, end)
            if not feasible and bypass_devices:
                # fall back to the bypass accelerator attached to this switch
                feasible = any(
                    self.device_feasible(bypass, start, end)
                    for bypass in bypass_devices
                )
            if not feasible:
                break
        else:
            gain = self.gain(node, start, end)
        self.memo.store_interval(key, INFEASIBLE if gain is None else gain)
        return gain

    # -- sub-tree table reuse ----------------------------------------------
    def table_key(self, side: str, node: ReducedNode) -> Tuple:
        return (side, self.context_digest, self.subtree_digest(node))

    def remap_table(self, stored_ids: Sequence[str],
                    stored_table: Dict[int, _Candidate],
                    node: ReducedNode) -> Optional[Dict[int, _Candidate]]:
        """Replay a stored table onto an isomorphic sub-tree.

        Equal sub-tree signatures guarantee position-wise content equality
        of the DFS pre-orders, so every stored gain/interval carries over
        verbatim and only the equivalence-class ids need rewriting.  Returns
        ``None`` (caller solves from scratch) when the correspondence is
        not a clean bijection — correctness never depends on reuse.
        """
        mapping = subtree_correspondence(stored_ids, node)
        if mapping is None:
            return None
        remapped: Dict[int, _Candidate] = {}
        for index, candidate in stored_table.items():
            try:
                assignments = [
                    (mapping[ec_id], start, end)
                    for ec_id, start, end in candidate.assignments
                ]
            except KeyError:
                return None
            remapped[index] = _Candidate(gain=candidate.gain,
                                         assignments=assignments)
        return remapped


class DPPlacer:
    """ClickINC's dynamic-programming placement engine.

    Parameters
    ----------
    topology:
        The (possibly shard-view) topology to place against.
    memo:
        Cross-epoch :class:`~repro.placement.memo.PlacementMemo`; a private
        one is created when omitted.  Shared placer instances (controller,
        service waves, runtime migrations) therefore share warm sub-solutions
        automatically.
    """

    def __init__(self, topology: NetworkTopology,
                 memo: Optional[PlacementMemo] = None) -> None:
        from repro.obs.profiling import PlacementProfile  # local: avoids an
        # import cycle through repro.core.__init__

        self.topology = topology
        self.memo = memo if memo is not None else PlacementMemo()
        self.profile = PlacementProfile()
        #: ``(forwarding epoch, {request shape: RoutedTree})``
        self._routed: Tuple[object, Dict[Tuple, RoutedTree]] = (None, {})

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def place(self, request: PlacementRequest) -> PlacementPlan:
        """Compute a *speculative* placement plan for *request*.

        The search is commit-free: it reads a snapshot of the consulted
        devices' allocation states, taken when it starts, and never mutates
        them, so independent requests can be placed concurrently (controller
        shards do, from their own threads).  The returned plan records that
        snapshot; :meth:`commit` applies the plan's resources and can first
        check that every recorded state is still live (see :meth:`validate`).

        Raises :class:`~repro.exceptions.PlacementError` when no feasible
        placement exists on the devices along the requested paths.
        """
        timers = self.profile.timers
        start_time = time.perf_counter()
        with timers.stage("block_dag"):
            facts = self._program_facts(request)
            block_dag = facts.block_dag(request.program)
        with timers.stage("reduce_tree"):
            routed = self.routed_tree(request)
        objective = self._make_objective(block_dag, routed.tree, request)
        states = routed.states()
        ctx = _SearchContext(self, facts, block_dag, routed, objective,
                             request, states)

        try:
            with timers.stage("search"):
                candidate = self._solve(ctx)
            if candidate is None or candidate.gain == NEG_INF:
                raise PlacementError(
                    f"no feasible placement for {request.program.name!r} on the "
                    f"paths from {list(request.source_groups)} to "
                    f"{request.destination_group!r}"
                )

            elapsed = time.perf_counter() - start_time
            with timers.stage("materialise"):
                plan = self._materialise_plan(
                    block_dag, facts.order, routed.tree, candidate, request,
                    elapsed, ctx.packer
                )
                plan.program_fingerprint = request.program_fingerprint()
                plan.device_states = states
        finally:
            counters = self.profile.counters
            counters.increment("packing_runs", by=ctx.packer.packing_runs)
            counters.increment("packed_instructions",
                               by=ctx.packer.packed_instructions)
        return plan

    def routed_tree(self, request: PlacementRequest) -> RoutedTree:
        """The :class:`RoutedTree` of the request's traffic shape.

        Memoised per (sources, destination, rates) and
        :meth:`~repro.topology.network.NetworkTopology.forwarding_epoch`:
        the tree is a function of routing and device status only, so
        commits and releases keep it, while a status flip, link flip or
        link removal rebuilds it.  Raises
        :class:`~repro.exceptions.TopologyError` for shapes that cannot be
        reduced (unknown or unreachable groups, cyclic shapes).
        """
        epoch = self.topology.forwarding_epoch()
        cached_epoch, trees = self._routed
        if cached_epoch != epoch or len(trees) >= ROUTED_TREE_MAX_ENTRIES:
            trees = {}
            self._routed = (epoch, trees)
        rates = request.traffic_rates
        key = (tuple(request.source_groups), request.destination_group,
               tuple(sorted(rates.items())) if rates else None)
        routed = trees.get(key)
        if routed is None:
            tree = build_reduced_tree(
                self.topology,
                request.source_groups,
                request.destination_group,
                traffic_rates=rates,
            )
            routed = trees[key] = RoutedTree(tree, self.topology)
        return routed

    @staticmethod
    def _facts_key(request: PlacementRequest) -> Tuple:
        """(content fingerprint, block size, ``use_blocks``): every input
        of a :class:`ProgramFacts` derivation."""
        return (request.program_fingerprint(),
                request.max_block_size if request.use_blocks else 1,
                bool(request.use_blocks))

    def facts_admitted(self, request: PlacementRequest) -> bool:
        """Whether the request's content has been seen before: its facts
        were admitted by the memo's store (on second sight)."""
        return self.memo.program_facts.lookup(
            self._facts_key(request)) is not None

    def _program_facts(self, request: PlacementRequest) -> ProgramFacts:
        """The :class:`ProgramFacts` of the request's content.

        Looked up in the memo's store by :meth:`_facts_key` or derived and
        offered to it; the store admits on second sight.
        """
        key = self._facts_key(request)
        store = self.memo.program_facts
        facts = store.lookup(key)
        if facts is not None:
            self.profile.counters.increment("program_facts_hits")
            return facts
        self.profile.counters.increment("program_facts_derived")
        return store.offer(key, derive_program_facts(request.program, *key))

    def validate(self, plan: PlacementPlan,
                 restrict: Optional[Collection[str]] = None) -> List[str]:
        """Consulted devices whose allocation state is no longer the one
        *plan* was searched against (one ``is`` per device).

        An empty list means the plan is still exactly the one a sequential
        placement against the live topology would produce, so it can be
        committed as-is; a plan without recorded states validates
        trivially.  With *restrict*, only the named devices are checked,
        and consulted devices unknown to this placer's topology are
        skipped: a cross-shard prepare validates against each touched
        shard's own view.
        """
        with self.profile.timers.stage("validate"):
            known = self.topology.devices
            conflicts = sorted(
                name for name, state in plan.device_states.items()
                if name in known and (restrict is None or name in restrict)
                and known[name].state is not state
            )
            if restrict is None:
                # consulted devices this topology has never heard of cannot
                # be revalidated here — flag them rather than committing a
                # plan whose world we can only partially see
                conflicts.extend(sorted(
                    name for name in plan.device_states if name not in known))
            return conflicts

    def commit(self, plan: PlacementPlan, validate: bool = False) -> None:
        """Allocate the plan's resources on the topology's devices.

        With ``validate=True`` the plan's recorded device states are
        checked first and a
        :class:`~repro.exceptions.PlacementConflictError` is raised (before
        any allocation) when another commit has touched a consulted device —
        the caller should re-place sequentially against the live topology.
        Each device gets one new state, however many assignments it hosts.
        """
        if validate:
            conflicts = self.validate(plan)
            if conflicts:
                raise PlacementConflictError(
                    f"speculative plan for {plan.program_name!r} conflicts on "
                    f"devices {conflicts}; re-place against the live topology",
                    conflicts=conflicts,
                )
        for name, (demands, blocks) in _device_demands(plan).items():
            self.topology.device(name).commit(demands, plan.program_name,
                                              blocks)

    def release(self, plan: PlacementPlan) -> None:
        """Release a previously committed plan's resources."""
        for name, (demands, _) in _device_demands(plan).items():
            self.topology.device(name).release(demands, plan.program_name)

    # ------------------------------------------------------------------ #
    # DP core
    # ------------------------------------------------------------------ #
    def _make_objective(self, block_dag: BlockDAG, tree: ReducedTree,
                        request: PlacementRequest) -> PlacementObjective:
        total_instr = max(1, block_dag.total_instructions())
        candidate_devices = [
            self.topology.device(name)
            for node in tree.all_nodes()
            for name in node.ec.members
        ]
        total_resource_units = total_instr * max(1, len(candidate_devices))
        total_bits = sum(
            data.get("bits", 0) for _, _, data in block_dag.graph.edges(data=True)
        )
        weights = ObjectiveWeights.fixed()
        return PlacementObjective(
            total_resource_units=total_resource_units,
            total_transfer_bits=max(1, total_bits),
            weights=weights,
            adaptive=request.adaptive_weights,
        )

    def _solve(self, ctx: _SearchContext) -> Optional[_Candidate]:
        num_blocks = ctx.num_blocks
        root = ctx.tree.root

        client_children = [c for c in root.children if c.side == "client"]
        server_children = [c for c in root.children if c.side == "server"]

        # DFS_DP over the client-side sub-tree: for each child of the root,
        # table[i] = best partial solution covering blocks [0, i) below it.
        client_tables: List[Dict[int, _Candidate]] = [
            self._client_dp(child, ctx) for child in client_children
        ]
        # DFS_DP over the server-side sub-tree: table[j] = best solution
        # covering blocks [j, n) at and below the child.
        server_tables: List[Dict[int, _Candidate]] = [
            self._server_dp(child, ctx) for child in server_children
        ]

        best: Optional[_Candidate] = None
        # combine: client children cover [0, i_c); root hosts [min_i, j);
        # server children cover [j, n).  The join only needs each client
        # combination's minimum index, maximum index and gain total, so
        # instead of enumerating the cartesian product of the child tables
        # (exponential in the number of pods, and formerly capped — the cap
        # could starve better combinations) the children are folded one at a
        # time over the O(num_blocks^2) state space (i_min, i_max).  This is
        # exact: per state it keeps the best achievable child-gain sum, and
        # ties keep the first candidate in deterministic (sorted) order.
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
        if join_states:
            ctx.counters.increment("product_combos", by=len(join_states))

        for (i_min, i_max), below in sorted(join_states.items()):
            below_gain = below.gain
            below_assignments = below.assignments
            if below_gain == NEG_INF:
                continue
            for j in range(i_max, num_blocks + 1):
                root_gain = ctx.eval_interval(root, i_min, j)
                if root_gain is None:
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
                total_gain = below_gain + root_gain + server_gain
                if best is None or total_gain > best.gain:
                    assignments = list(below_assignments)
                    if j > i_min:
                        assignments.append((root.name, i_min, j))
                    assignments.extend(server_assignments)
                    best = _Candidate(gain=total_gain, assignments=assignments)
        return best

    def _client_dp(self, node: ReducedNode,
                   ctx: _SearchContext) -> Dict[int, _Candidate]:
        """Bottom-up DP on the client sub-tree (memoised).

        Returns a table mapping "blocks [0, i) are covered at or below this
        node" to the best partial candidate.  Traffic flows leaf → root, so a
        node's own interval sits *after* its children's intervals.
        """
        return self._memoised_table(
            "client", node, ctx, lambda: self._client_dp_table(node, ctx))

    def _memoised_table(self, side: str, node: ReducedNode,
                        ctx: _SearchContext, solve) -> Dict[int, _Candidate]:
        """Serve a sub-tree DP table from the memo, or derive and store it.

        A hit is trusted only after :meth:`_SearchContext.verify_table_stamps`
        confirms the stored table's consulted devices carry, in the search's
        snapshot, the state digests recorded at derivation time.  On a miss the
        derive runs under the memo's per-key single-flight guard, so
        concurrent users (controller shards on symmetric pods) solve each
        distinct sub-tree once: the second thread blocks, then hits on its
        re-check.
        """
        table_key = ctx.table_key(side, node)
        table = self._memo_table_hit(ctx, table_key, node)
        if table is not None:
            return table
        with ctx.memo.table_guard(table_key):
            table = self._memo_table_hit(ctx, table_key, node)
            if table is not None:
                return table
            return self._solve_and_store(ctx, table_key, node, solve)

    def _memo_table_hit(self, ctx: _SearchContext, table_key: Tuple,
                        node: ReducedNode) -> Optional[Dict[int, _Candidate]]:
        stored = ctx.memo.lookup_table(table_key)
        if stored is MISS:
            return None
        stored_ids, stored_table, stamps = stored
        ctx.verify_table_stamps(stamps, node)
        remapped = ctx.remap_table(stored_ids, stored_table, node)
        if remapped is None:
            return None
        ctx.counters.increment("subtree_memo_hits")
        return remapped

    def _solve_and_store(self, ctx: _SearchContext, table_key: Tuple,
                         node: ReducedNode, solve) -> Dict[int, _Candidate]:
        ctx.counters.increment("subtree_solves")
        table = solve()
        ctx.memo.store_table(
            table_key, (subtree_class_ids(node), table, ctx.table_stamps(node)))
        return table

    def _client_dp_table(self, node: ReducedNode,
                         ctx: _SearchContext) -> Dict[int, _Candidate]:
        num_blocks = ctx.num_blocks
        prune = ctx.request.prune
        if not node.children:
            table: Dict[int, _Candidate] = {}
            for end in range(0, num_blocks + 1):
                gain = ctx.eval_interval(node, 0, end)
                if gain is None:
                    if prune:
                        break
                    continue
                assignments = [(node.name, 0, end)] if end > 0 else []
                table[end] = _Candidate(gain=gain, assignments=assignments)
            return table

        child_tables = [self._client_dp(child, ctx) for child in node.children]
        table: Dict[int, _Candidate] = {}
        for combo in _product_limited([sorted(t.items()) for t in child_tables],
                                      counters=ctx.counters):
            i_values = [i for i, _ in combo]
            base_gain = sum(c.gain for _, c in combo)
            base_assignments = [a for _, c in combo for a in c.assignments]
            i_min = min(i_values)
            i_max = max(i_values)
            for end in range(i_max, num_blocks + 1):
                gain = ctx.eval_interval(node, i_min, end)
                if gain is None:
                    if prune:
                        break
                    continue
                total = base_gain + gain
                existing = table.get(end)
                if existing is None or total > existing.gain:
                    assignments = list(base_assignments)
                    if end > i_min:
                        assignments.append((node.name, i_min, end))
                    table[end] = _Candidate(gain=total, assignments=assignments)
        return table

    def _server_dp(self, node: ReducedNode,
                   ctx: _SearchContext) -> Dict[int, _Candidate]:
        """Top-down DP on the server sub-tree (memoised).

        Returns a table mapping "traffic arrives at this node with blocks
        [0, j) already executed" to the best candidate that finishes the
        program at or below the node.
        """
        return self._memoised_table(
            "server", node, ctx, lambda: self._server_dp_table(node, ctx))

    def _server_dp_table(self, node: ReducedNode,
                         ctx: _SearchContext) -> Dict[int, _Candidate]:
        num_blocks = ctx.num_blocks
        prune = ctx.request.prune
        child_tables = [self._server_dp(child, ctx) for child in node.children]
        table: Dict[int, _Candidate] = {}
        for start in range(0, num_blocks + 1):
            best: Optional[_Candidate] = None
            for end in range(start, num_blocks + 1):
                gain = ctx.eval_interval(node, start, end)
                if gain is None:
                    if prune:
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
                    total = gain + child_gain
                    assignments = (
                        [(node.name, start, end)] if end > start else []
                    ) + child_assignments
                else:
                    if end != num_blocks:
                        continue
                    total = gain
                    assignments = [(node.name, start, end)] if end > start else []
                if best is None or total > best.gain:
                    best = _Candidate(gain=total, assignments=assignments)
            if best is not None:
                table[start] = best
        return table

    # ------------------------------------------------------------------ #
    # plan materialisation
    # ------------------------------------------------------------------ #
    def _materialise_plan(self, block_dag: BlockDAG, ordered_blocks: Sequence[Block],
                          tree: ReducedTree, candidate: _Candidate,
                          request: PlacementRequest, elapsed: float,
                          packer: _IntervalPacker) -> PlacementPlan:
        node_by_name = {node.name: node for node in tree.all_nodes()}
        plan = PlacementPlan(
            program_name=request.program.name,
            block_dag=block_dag,
            gain=candidate.gain,
            algorithm="dp",
            compile_time_s=elapsed,
        )
        position_of = {block.block_id: idx for idx, block in enumerate(ordered_blocks)}
        for ec_id, start, end in candidate.assignments:
            node = node_by_name[ec_id]
            stage_assignments: Dict[str, StageAssignment] = {}
            used_names: List[str] = []
            for name in node.ec.members:
                # the search's own packing of this interval, or a fresh one
                # when the memo answered the feasibility question
                assignment = packer.pack(self.topology.device(name), start, end)
                if assignment is None:
                    for bypass_name in node.bypass:
                        assignment = packer.pack(
                            self.topology.device(bypass_name), start, end
                        )
                        if assignment is not None:
                            break
                if assignment is None:
                    raise PlacementError(
                        f"internal error: interval {(start, end)} no longer fits "
                        f"on {name}"
                    )
                stage_assignments[assignment.device_name] = assignment
                if assignment.device_name not in used_names:
                    used_names.append(assignment.device_name)
            for index, block in enumerate(ordered_blocks[start:end]):
                plan.assignments.append(
                    BlockAssignment(
                        block_id=block.block_id,
                        ec_id=ec_id,
                        device_names=list(used_names),
                        step=position_of[block.block_id],
                        # the stage assignment covers the whole interval, so it
                        # is attached (and later committed/released) only once
                        stage_assignments=stage_assignments if index == 0 else {},
                        replicated=len(used_names) > 1,
                    )
                )
        plan.transfer_bits = sum(
            block_dag.transfer_bits(src, dst)
            for src, dst in block_dag.edges()
        )
        plan.metadata["tree_nodes"] = [n.name for n in tree.all_nodes()]
        return plan


def _device_demands(plan: PlacementPlan
                    ) -> Dict[str, Tuple[list, List[int]]]:
    """Device -> (its stage demands, the block ids it hosts), in assignment
    order: what one commit or release applies to each device."""
    per_device: Dict[str, Tuple[list, List[int]]] = {}
    for assignment in plan.assignments:
        for name, placed in assignment.stage_assignments.items():
            demands, blocks = per_device.setdefault(name, ([], []))
            demands.extend(placed.stage_demands.items())
            blocks.append(assignment.block_id)
    return per_device


def _product_limited(tables: List[List[Tuple[int, _Candidate]]],
                     limit: int = 200000, counters=None):
    """Cartesian product over per-child DP tables with a safety cap.

    Children whose tables carry identical (index, gain) entries — symmetric
    siblings such as the equivalent pods of a fat-tree — would otherwise
    enumerate every permutation of the same multiset of choices, and the
    duplicates could crowd better combinations out of the cap.  Identical
    children are grouped and only one representative per permutation class
    is yielded (option indices non-decreasing within each group), so the
    cap is spent on distinct placements.  All permutations of a multiset
    share the same total gain, minimum and maximum index, hence the best
    candidate found is unaffected.
    """
    if not tables:
        yield []
        return
    contents = [tuple((i, c.gain) for i, c in table) for table in tables]
    groups: Dict[Tuple, List[int]] = {}
    for position, content in enumerate(contents):
        groups.setdefault(content, []).append(position)
    group_positions = list(groups.values())
    if counters is not None:
        for positions in group_positions:
            if len(positions) > 1:
                counters.increment("product_symmetric_groups")
    count = 0
    chosen: List[Optional[Tuple[int, _Candidate]]] = [None] * len(tables)

    def recurse(group_index: int):
        nonlocal count
        if count > limit:
            return
        if group_index == len(group_positions):
            count += 1
            if counters is not None:
                counters.increment("product_combos")
            yield list(chosen)
            return
        positions = group_positions[group_index]
        options = len(tables[positions[0]])
        for combo in itertools.combinations_with_replacement(
                range(options), len(positions)):
            for position, option_index in zip(positions, combo):
                chosen[position] = tables[position][option_index]
            yield from recurse(group_index + 1)

    yield from recurse(0)
