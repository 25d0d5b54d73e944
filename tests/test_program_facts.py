"""Per-content program facts: admission on second sight, bounds, sharing."""

from __future__ import annotations

import sys
import threading

from oracles.dp_reference import ReferencePlacer
from test_placement_scale import plan_key

from repro.placement import DPPlacer, PlacementMemo, PlacementRequest
from repro.placement.memo import (
    PROGRAM_FACTS_MAX_ENTRIES,
    PROGRAM_FACTS_MAX_SEEN_ONCE,
    ProgramFactsStore,
)
from repro.sharding import ShardCoordinator
from repro.topology.fattree import build_fattree


def tenant_request(program, name, **params):
    return PlacementRequest(program=program.rebrand(name),
                            source_groups=["pod0(a)"],
                            destination_group="pod2(b)", **params)


def facts_counters(placer):
    counters = placer.profile.counters
    return counters.program_facts_derived, counters.program_facts_hits


class TestAdmissionOnSecondSight:
    def test_first_derives_second_admits_third_hits(self, paper_topology,
                                                    kvs_program):
        memo = PlacementMemo()
        placer = DPPlacer(paper_topology, memo=memo)
        store = memo.program_facts

        placer.place(tenant_request(kvs_program, "a"))
        assert facts_counters(placer) == (1, 0)
        assert store.summary() == {"entries": 0, "seen_once": 1}
        placer.place(tenant_request(kvs_program, "b"))
        assert facts_counters(placer) == (2, 0)
        assert store.summary() == {"entries": 1, "seen_once": 0}
        placer.place(tenant_request(kvs_program, "c"))
        assert facts_counters(placer) == (2, 1)

        # the block parameters are inputs of the derivation, hence of the key
        placer.place(tenant_request(kvs_program, "d", max_block_size=4))
        placer.place(tenant_request(kvs_program, "e", use_blocks=False))
        assert facts_counters(placer) == (4, 1)
        assert store.summary() == {"entries": 1, "seen_once": 2}

        # facts are not sub-solutions: outside len()/sizes(), gone on clear()
        assert len(memo) == sum(memo.sizes().values()) > 0
        assert set(memo.sizes()) == {"device", "interval", "table"}
        memo.clear()
        assert store.summary() == {"entries": 0, "seen_once": 0}

    def test_a_second_placer_on_the_same_memo_shares_the_store(
            self, paper_topology, kvs_program):
        memo = PlacementMemo()
        first = DPPlacer(paper_topology, memo=memo)
        first.place(tenant_request(kvs_program, "a"))
        first.place(tenant_request(kvs_program, "b"))
        second = DPPlacer(paper_topology, memo=memo)
        second.place(tenant_request(kvs_program, "c"))
        assert facts_counters(second) == (0, 1)

    def test_the_reference_search_neither_reads_nor_feeds_the_store(
            self, paper_topology, kvs_program):
        """The oracle stays independent of what it checks: it derives the
        facts itself and leaves the placer's memo untouched."""
        memo = PlacementMemo()
        reference = ReferencePlacer(paper_topology, memo=memo)
        for name in "abc":
            reference.place(tenant_request(kvs_program, name))
        assert facts_counters(reference) == (0, 0)
        assert memo.program_facts.summary() == {"entries": 0, "seen_once": 0}
        assert len(memo) == 0

    def test_a_never_repeating_stream_retains_nothing_and_evicts_nothing(self):
        store = ProgramFactsStore()
        store.offer("warm", "first sight")
        admitted = store.offer("warm", "second sight")
        assert store.lookup("warm") is admitted
        for index in range(1000):
            assert store.lookup(("cold", index)) is None
            store.offer(("cold", index), object())
        assert len(store) == 1
        assert store.lookup("warm") is admitted

    def test_both_bounds_hold_and_eviction_is_lru(self):
        store = ProgramFactsStore()
        for index in range(PROGRAM_FACTS_MAX_SEEN_ONCE + 500):
            store.offer(("once", index), None)
        assert store.summary() == {"entries": 0,
                                   "seen_once": PROGRAM_FACTS_MAX_SEEN_ONCE}
        # the oldest seen-once key fell off: its next sight is a first again
        store.offer(("once", 0), "again")
        assert store.lookup(("once", 0)) is None

        store = ProgramFactsStore()
        for index in range(PROGRAM_FACTS_MAX_ENTRIES):
            store.offer(index, index)
            store.offer(index, index)
        assert len(store) == PROGRAM_FACTS_MAX_ENTRIES
        assert store.lookup(0) == 0           # refreshes recency
        for index in (-1, -2):
            store.offer(index, index)
            store.offer(index, index)
        assert len(store) == PROGRAM_FACTS_MAX_ENTRIES
        assert store.lookup(0) == 0 and store.lookup(-2) == -2
        assert store.lookup(1) is None and store.lookup(2) is None

    def test_a_concurrent_second_derivation_gets_the_admitted_object(self):
        store = ProgramFactsStore()
        store.offer("key", "seen once")
        winner = store.offer("key", "admitted")
        assert store.offer("key", "lost the race") is winner == "admitted"


class TestSharedAcrossShardPlacers:
    """Four shards' placers search the same contents at once on one store."""

    #: the sides differ in (``adaptive_weights``, ``prune``), so they share
    #: the facts (whose key ignores both) but no sub-solution with each other
    #: (whose context digest covers both): what a search packs cannot depend
    #: on the interleaving.  More threads than the reference box has cores.
    SIDES = (("pod0", True, True), ("pod1", False, True),
             ("pod2", True, False), ("pod3", False, False))

    def _searches(self, coordinator, programs, threaded):
        # admit every content up front, serially, on pod0's placer
        placer = coordinator.shards["pod0"].controller.placer
        for program in programs:
            for name in ("warm_1", "warm_2"):
                placer.place(self._request("pod0", program, name,
                                           prune=False))
        outcomes = {}

        def search(shard_id, adaptive, prune):
            placer = coordinator.shards[shard_id].controller.placer
            counters = placer.profile.counters
            rows = []
            for program in programs:
                before = (counters.packing_runs, counters.packed_instructions)
                plan = placer.place(self._request(
                    shard_id, program, f"tenant_{shard_id}",
                    adaptive_weights=adaptive, prune=prune))
                rows.append((plan_key(plan),
                             counters.packing_runs - before[0],
                             counters.packed_instructions - before[1]))
            outcomes[shard_id] = (rows, counters.program_facts_hits,
                                  counters.program_facts_derived)

        if not threaded:
            for side in self.SIDES:
                search(*side)
            return outcomes
        threads = [threading.Thread(target=search, args=side)
                   for side in self.SIDES]
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
        return outcomes

    @staticmethod
    def _request(shard_id, program, name, **params):
        return PlacementRequest(program=program.rebrand(name),
                                source_groups=[f"{shard_id}(a)"],
                                destination_group=f"{shard_id}(b)", **params)

    def test_threads_get_the_serial_plans_and_their_own_packing_counts(
            self, kvs_program, mlagg_program, dqacc_program):
        programs = (kvs_program, mlagg_program, dqacc_program)
        outcomes = []
        for threaded in (False, True):
            coordinator = ShardCoordinator(build_fattree(k=4))
            try:
                outcomes.append(self._searches(coordinator, programs,
                                               threaded))
            finally:
                coordinator.close()
        serial, threaded = outcomes
        assert threaded == serial
        for rows, _hits, _derived in serial.values():
            assert all(runs > 0 and visited > 0 for _, runs, visited in rows)
        # the warm-up ran on pod0's placer; every search after it hit
        assert serial["pod0"][1:] == (len(programs), 2 * len(programs))
        for shard_id in ("pod1", "pod2", "pod3"):
            assert serial[shard_id][1:] == (len(programs), 0)
