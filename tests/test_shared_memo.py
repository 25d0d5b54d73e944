"""Tests for the placement memo as a shared, in-process store.

Covers the :class:`~repro.placement.memo.PlacementMemo` store semantics
(distinct sentinels, counted lookups, per-key derivation guards), its
acceptance property — a warm memo must return plans byte-identical to a
cold one — plus the stale-table guard (:class:`~repro.exceptions.StaleMemoError`), the memo
counters surfaced through the service/coordinator summaries, and the
``ExhaustivePlacer``'s reuse of the vectorised interval scorer.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import pytest
from oracles.dp_reference import ReferencePlacer
from test_placement_scale import plan_key

from repro.core import DeployRequest, INCService
from repro.core.cache import ArtifactCache
from repro.exceptions import StaleMemoError
from repro.frontend import compile_template
from repro.lang.profile import default_profile
from repro.placement import (
    DPPlacer,
    PlacementMemo,
    PlacementRequest,
    build_block_dag,
)
from repro.placement.intra import PackingTable
from repro.placement.memo import INFEASIBLE, MISS
from repro.placement.objective import ObjectiveWeights, PlacementObjective
from repro.placement.scoring import IntervalScorer
from repro.sharding import ShardCoordinator
from repro.topology import build_fattree, build_paper_emulation_topology


def tenant_request(pod: int, user: str, depth: int = 1000) -> DeployRequest:
    """An intra-pod KVS tenant: pod<pod>(a) -> pod<pod>(b)."""
    profile = default_profile("KVS", user=user)
    profile.performance["depth"] = depth
    return DeployRequest(
        source_groups=[f"pod{pod}(a)"],
        destination_group=f"pod{pod}(b)",
        name=f"kvs_{user}",
        profile=profile,
    )


def placement_request(pod: int, name: str) -> PlacementRequest:
    """A compiled commit-free placement input for one intra-pod tenant."""
    program = compile_template(default_profile("KVS", user=name), name=name)
    return PlacementRequest(
        program=program,
        source_groups=[f"pod{pod}(a)"],
        destination_group=f"pod{pod}(b)",
    )


def plan_key(plan):
    """Byte-level identity of a placement decision."""
    return (
        plan.gain,
        tuple((a.block_id, a.ec_id, tuple(a.device_names), a.step)
              for a in plan.assignments),
        tuple(sorted((name, state.digest)
                     for name, state in plan.device_states.items())),
    )


# --------------------------------------------------------------------- #
# sentinels
# --------------------------------------------------------------------- #
class TestSentinels:
    def test_sentinels_are_distinct(self):
        assert MISS is not INFEASIBLE


# --------------------------------------------------------------------- #
# store semantics
# --------------------------------------------------------------------- #
class TestSharedMemoStore:
    def test_miss_returns_sentinel(self):
        memo = PlacementMemo()
        assert memo.lookup_interval(("absent",)) is MISS
        assert memo.counters.misses == 1

    def test_clear_empties_store(self):
        memo = PlacementMemo()
        memo.store_interval(("iv",), 1.0)
        dropped = memo.clear()
        assert dropped == 1
        assert len(memo) == 0
        assert memo.lookup_interval(("iv",)) is MISS

    def test_table_guard_refcount_cleanup(self):
        memo = PlacementMemo()
        with memo.table_guard(("tb",)):
            assert ("tb",) in memo._guards
        assert not memo._guards


# --------------------------------------------------------------------- #
# ArtifactCache namespace accounting
# --------------------------------------------------------------------- #
class TestNamespaceLen:
    def test_tracks_stores_and_invalidation(self):
        cache = ArtifactCache(max_entries=8)
        cache.store("a:1", 1)
        cache.store("a:2", 2)
        cache.store("b:1", 3)
        assert cache.namespace_len("a") == 2
        assert cache.namespace_len("b") == 1
        assert cache.namespace_len("absent") == 0

        # overwriting an existing key does not double-count
        cache.store("a:1", 10)
        assert cache.namespace_len("a") == 2

        cache.invalidate("a")
        assert cache.namespace_len("a") == 0
        assert cache.namespace_len("b") == 1
        cache.invalidate()
        assert cache.namespace_len("b") == 0

    def test_tracks_lru_eviction(self):
        cache = ArtifactCache(max_entries=2)
        cache.store("a:1", 1)
        cache.store("a:2", 2)
        cache.store("b:1", 3)   # evicts a:1
        assert cache.namespace_len("a") == 1
        assert cache.namespace_len("b") == 1


# --------------------------------------------------------------------- #
# reuse: a warm or shared memo must not change any placement
# --------------------------------------------------------------------- #
class TestWarmReuse:
    def test_sequential_reuse_is_byte_identical(self):
        """The same search against a warm memo returns the identical plan."""
        topo = build_fattree(k=4)
        request = placement_request(0, "kvs_warmref")

        cold = DPPlacer(build_fattree(k=4), memo=PlacementMemo())
        reference = plan_key(cold.place(request))

        memo = PlacementMemo()
        placer = DPPlacer(topo, memo=memo)
        first = placer.place(request)
        second = placer.place(request)
        assert plan_key(first) == reference
        assert plan_key(second) == reference


class TestSingleFlight:
    """Four shard placers search isomorphic pods at once over one memo."""

    def _solve_all(self, threaded):
        program = compile_template(default_profile("KVS", user="sf"),
                                   name="kvs_sf")
        coordinator = ShardCoordinator(build_fattree(k=4))
        placers = {shard_id: shard.controller.placer
                   for shard_id, shard in coordinator.shards.items()}
        assert len(placers) == 4
        gains = {}

        def search(shard_id):
            gains[shard_id] = placers[shard_id].place(PlacementRequest(
                program=program.rebrand(f"kvs_{shard_id}"),
                source_groups=[f"{shard_id}(a)"],
                destination_group=f"{shard_id}(b)",
            )).gain

        if threaded:
            threads = [threading.Thread(target=search, args=(shard_id,))
                       for shard_id in placers]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        else:
            for shard_id in placers:
                search(shard_id)
        solves = sum(placer.profile.counters.subtree_solves
                     for placer in placers.values())
        assert not coordinator.memo._guards
        return solves, gains, coordinator.memo.sizes()["table"]

    def test_racing_shard_threads_derive_each_table_once(self):
        serial_solves, serial_gains, serial_tables = self._solve_all(False)
        solves, gains, tables = self._solve_all(True)
        assert serial_solves > 0
        # table_guard: the second thread to want a table waits, then hits
        assert solves == serial_solves
        assert tables == serial_tables
        assert gains == serial_gains


# --------------------------------------------------------------------- #
# stale-table guard
# --------------------------------------------------------------------- #
class TestStaleGuard:
    def test_poisoned_table_raises_stale_memo_error(self):
        memo = PlacementMemo()
        placer = DPPlacer(build_fattree(k=4), memo=memo)
        request = placement_request(0, "kvs_stale")
        placer.place(request)

        # rewrite every memoised table's consultation stamps to a state the
        # live topology never had — a memo-served table must now be refused
        for key, (ids, table, stamps) in list(memo._stores["table"].items()):
            poisoned = tuple((name, "poisoned") for name, _ in stamps)
            memo.store_table(key, (ids, table, poisoned))

        with pytest.raises(StaleMemoError):
            placer.place(request)
        assert memo.counters.stale_rejections > 0


class TestMidSearchCommit:
    """A commit that lands on a consulted device while a search runs.

    The cross-shard speculative search reads the shared devices without a
    lock while pod shards commit, so a device can change between the read
    of a memo key and the store of its value.  Such an entry must not be
    stored: kept, it answers later searches of the pristine state with a
    value derived from the raced one (a sub-tree table whose stamps then
    fail the stale guard forever, or a wrong device-feasibility answer).
    """

    @staticmethod
    def request(program):
        return PlacementRequest(program=program,
                                source_groups=["pod0(a)", "pod1(a)"],
                                destination_group="pod2(b)",
                                max_block_size=8)

    @pytest.mark.parametrize("race_at", [0.0, 0.2, 0.4, 0.6, 0.7, 0.8])
    def test_entries_raced_by_a_commit_are_not_stored(
            self, monkeypatch, paper_topology, kvs_program, race_at):
        request = self.request(kvs_program)
        pack = PackingTable.pack
        packs, filled = [], []
        race_point = None

        def racing_pack(table, device, *args, **kwargs):
            packs.append(device.name)
            if len(packs) == race_point:
                # what a concurrent commit does: take every stage's room
                for index, stage in enumerate(device.stages):
                    demand = {key: stage.available(key)
                              for key in stage.capacities
                              if stage.available(key) > 0}
                    device.commit([(index, demand)])
                    filled.append((device, index, demand))
            return pack(table, device, *args, **kwargs)

        monkeypatch.setattr(PackingTable, "pack", racing_pack)
        # an undisturbed cold search counts the packs to race at
        DPPlacer(build_paper_emulation_topology()).place(request)
        race_point = max(1, int(len(packs) * race_at))
        packs.clear()
        memo = PlacementMemo()
        placer = DPPlacer(paper_topology, memo=memo)
        raced = placer.place(request)   # searches its starting snapshot
        monkeypatch.undo()
        assert filled
        # the commit is released: the fabric is back in its pre-race state
        for device, index, demand in filled:
            device.release([(index, demand)])

        expected = plan_key(ReferencePlacer(paper_topology).place(request))
        assert plan_key(raced) == expected
        for _ in range(3):
            assert plan_key(placer.place(request)) == expected
        assert memo.counters.stale_rejections == 0


# --------------------------------------------------------------------- #
# counters surfaced through the status endpoints
# --------------------------------------------------------------------- #
class TestSummaries:
    def test_service_summary_includes_memo_section(self):
        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                report = await svc.submit(tenant_request(0, "sum"))
                assert report.succeeded
                return svc.service_summary()

        summary = asyncio.run(drive())
        memo = summary["memo"]
        for field in ("hits", "shared_hits", "misses", "stale_rejections"):
            assert field in memo
        assert not [key for key in memo
                    if key.startswith("delta_") or key in (
                        "duplicate_entries", "log_entries")]
        assert "pool_generation" not in summary

    def test_coordinator_shards_share_one_memo(self):
        with ShardCoordinator(build_fattree(k=4)) as coord:
            assert coord.deploy(tenant_request(0, "sh0")).succeeded
            assert coord.deploy(tenant_request(1, "sh1")).succeeded
            # both shards' placers fed the coordinator-owned store
            counters = coord.memo.counters
            assert counters.hits + counters.shared_hits > 0
            assert "memo" in coord.coordinator_summary()


# --------------------------------------------------------------------- #
# ExhaustivePlacer scoring (shares the DP path's vectorised scorer)
# --------------------------------------------------------------------- #
class TestExhaustiveScoring:
    def test_gain_rows_match_direct_edge_walk(self):
        """The scorer rows the exhaustive search consumes equal the seed's
        per-interval objective evaluation (instruction recount + DAG edge
        walk) for every interval, under the smt objective's parameters."""
        program = compile_template(default_profile("KVS", user="sm_diff"),
                                   name="kvs_sm_diff")
        block_dag = build_block_dag(program, max_block_size=4, merge=True)
        ordered = block_dag.topological_order()
        n = len(ordered)
        num_devices = 4
        objective = PlacementObjective(
            total_resource_units=max(
                1, block_dag.total_instructions() * num_devices),
            total_transfer_bits=max(
                1,
                sum(d.get("bits", 0)
                    for _, _, d in block_dag.graph.edges(data=True)),
            ),
            weights=ObjectiveWeights.fixed(),
            adaptive=False,
        )
        scorer = IntervalScorer(block_dag, ordered, objective)
        position = {b.block_id: i for i, b in enumerate(ordered)}

        for start in range(n + 1):
            row = scorer.gain_row(
                start, served_fraction=1.0, weights=objective.base_weights,
                replicas=1, end_lo=start, end_hi=n + 1,
            )
            for end in range(start, n + 1):
                count = sum(
                    len(b.instructions(program))
                    for b in ordered[start:end]
                )
                cut_bits = sum(
                    data.get("bits", 0)
                    for src, dst, data in block_dag.graph.edges(data=True)
                    if (start <= position[src] < end)
                    != (start <= position[dst] < end)
                )
                expected = objective.gain(
                    served_fraction=1.0, instruction_count=count,
                    transfer_bits=cut_bits,
                    weights=objective.base_weights, replicas=1,
                )
                assert row[end - start] == expected
