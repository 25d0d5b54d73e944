"""Tests for the shared cross-process placement memo.

Covers the :class:`~repro.placement.memo.SharedPlacementMemo` store
semantics (delta export/apply, pickle-stable sentinels, per-key
derivation guards), the acceptance properties of the
ISSUE — cross-worker reuse must be byte-identical to private-memo plans,
persistence must survive a simulated controller restart, and a
corrupted/stale memo file must degrade to a cold solve — plus the
stale-table guard (:class:`~repro.exceptions.StaleMemoError`), the memo
counters surfaced through the service/coordinator summaries, and the
``ExhaustivePlacer``'s reuse of the vectorised interval scorer.
"""

from __future__ import annotations

import asyncio
import os
import pickle

import pytest

from repro.core import ClickINC, DeployRequest, INCService
from repro.core.cache import ArtifactCache
from repro.exceptions import StaleMemoError
from repro.frontend import compile_template
from repro.lang.profile import default_profile
from repro.placement import (
    DPPlacer,
    PlacementMemo,
    PlacementRequest,
    SharedPlacementMemo,
    build_block_dag,
)
from repro.placement.memo import INFEASIBLE, MISS
from repro.placement.objective import ObjectiveWeights, PlacementObjective
from repro.placement.scoring import IntervalScorer
from repro.sharding import ShardCoordinator
from repro.topology import build_fattree


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
        tuple(sorted(plan.device_fingerprints.items())),
    )


# --------------------------------------------------------------------- #
# sentinels (cross the process boundary inside delta blobs)
# --------------------------------------------------------------------- #
class TestSentinels:
    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(MISS)) is MISS
        assert pickle.loads(pickle.dumps(INFEASIBLE)) is INFEASIBLE

    def test_identity_survives_nesting(self):
        payload = {"entries": [(("k",), INFEASIBLE, ("d",))]}
        clone = pickle.loads(pickle.dumps(payload))
        assert clone["entries"][0][1] is INFEASIBLE

    def test_sentinels_are_distinct(self):
        assert MISS is not INFEASIBLE


# --------------------------------------------------------------------- #
# store semantics
# --------------------------------------------------------------------- #
class TestSharedMemoStore:
    def test_miss_returns_sentinel(self):
        memo = SharedPlacementMemo()
        assert memo.lookup_interval(("absent",)) is MISS
        assert memo.counters.misses == 1

    def test_delta_export_apply_round_trip(self):
        source = SharedPlacementMemo()
        source.store_device(("dev",), True, ("sw0",))
        source.store_interval(("iv",), 2.25, ("sw0", "sw1"))
        source.store_table(("tb",), ((0,), {"t": 1}, (("sw0", "fp"),)),
                           ("sw0",))
        exported = source.export_delta(0)
        assert exported is not None
        seq, blob = exported
        assert seq == source.delta_seq

        target = SharedPlacementMemo()
        applied, duplicates = target.apply_delta(blob)
        assert (applied, duplicates) == (3, 0)
        assert target.lookup_device(("dev",)) is True
        assert target.lookup_interval(("iv",)) == 2.25
        assert target.lookup_table(("tb",))[1] == {"t": 1}

        # re-applying the same blob is pure duplicate work
        applied, duplicates = target.apply_delta(blob)
        assert (applied, duplicates) == (0, 3)
        assert target.counters.duplicate_entries == 3

    def test_apply_with_record_relays(self):
        source = SharedPlacementMemo()
        source.store_interval(("iv",), 3.5, ("sw0",))
        _, blob = source.export_delta(0)

        relay = SharedPlacementMemo()
        relay.apply_delta(blob, record=True)
        relayed = relay.export_delta(0)
        assert relayed is not None

        # without record=True the merge is not re-exported
        sink = SharedPlacementMemo()
        sink.apply_delta(blob)
        assert sink.export_delta(0) is None

        downstream = SharedPlacementMemo()
        applied, _ = downstream.apply_delta(relayed[1])
        assert applied == 1
        assert downstream.lookup_interval(("iv",)) == 3.5

    def test_export_delta_at_watermark_is_none(self):
        memo = SharedPlacementMemo()
        memo.store_interval(("iv",), 1.0, ("sw0",))
        assert memo.export_delta(memo.delta_seq) is None

    def test_snapshot_round_trip(self):
        source = SharedPlacementMemo()
        source.store_device(("dev",), False, ("sw0",))
        seq, blob = source.export_snapshot()
        target = SharedPlacementMemo()
        applied, _ = target.apply_delta(blob)
        assert applied == 1
        assert target.lookup_device(("dev",)) is False
        assert seq == source.delta_seq

    def test_clear_empties_store_and_log(self):
        memo = SharedPlacementMemo()
        memo.store_interval(("iv",), 1.0, ("sw0",))
        assert memo.summary()["log_entries"] == 1
        dropped = memo.clear()
        assert dropped == 1
        assert len(memo) == 0
        assert memo.summary()["log_entries"] == 0
        assert memo.lookup_interval(("iv",)) is MISS

    def test_table_guard_refcount_cleanup(self):
        memo = SharedPlacementMemo()
        with memo.table_guard(("tb",)):
            assert ("tb",) in memo._guards
        assert not memo._guards


# --------------------------------------------------------------------- #
# ArtifactCache namespace accounting (backs the warm-plan guard)
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

    def test_tracks_invalidate_matching(self):
        cache = ArtifactCache(max_entries=8)
        cache.store("a:1", 1)
        cache.store("a:2", 2)
        assert cache.invalidate_matching("a", lambda v: v == 2) == 1
        assert cache.namespace_len("a") == 1


# --------------------------------------------------------------------- #
# cross-worker reuse: shared memo must not change any placement
# --------------------------------------------------------------------- #
class TestCrossWorkerReuse:
    def test_worker_pool_plans_match_private_memo(self):
        requests = [tenant_request(pod, f"sm{pod}") for pod in range(3)]

        shared = ClickINC(build_fattree(k=4), generate_code=False)
        try:
            reports = shared.deploy_many(requests, workers=2)
            assert all(r.succeeded for r in reports)
            got = [r.deployed.devices() for r in reports]
            # the pool shipped delta blobs back to the parent store
            assert shared.memo.counters.delta_entries_in > 0
        finally:
            shared.close()

        private = ClickINC(build_fattree(k=4), generate_code=False,
                           memo=PlacementMemo())
        try:
            ref_reports = private.deploy_many(requests, workers=2)
            assert all(r.succeeded for r in ref_reports)
        finally:
            private.close()

        assert got == [r.deployed.devices() for r in ref_reports]

    def test_sequential_reuse_is_byte_identical(self):
        """The same search against a warm memo returns the identical plan."""
        topo = build_fattree(k=4)
        request = placement_request(0, "kvs_warmref")

        cold = DPPlacer(build_fattree(k=4), memo=PlacementMemo())
        reference = plan_key(cold.place(request))

        memo = SharedPlacementMemo()
        placer = DPPlacer(topo, memo=memo)
        first = placer.place(request)
        second = placer.place(request)
        assert plan_key(first) == reference
        assert plan_key(second) == reference


# --------------------------------------------------------------------- #
# persistence
# --------------------------------------------------------------------- #
class TestPersistence:
    def test_round_trip_across_restart(self, tmp_path):
        path = str(tmp_path / "memo.bin")
        request = placement_request(0, "kvs_persist")

        memo = SharedPlacementMemo()
        placer = DPPlacer(build_fattree(k=4), memo=memo)
        reference = plan_key(placer.place(request))
        persisted = memo.save(path, placer.topology)
        assert persisted == memo.counters.persisted_entries > 0

        # simulated restart: fresh topology object, fresh memo, same file
        topo = build_fattree(k=4)
        restored_memo = SharedPlacementMemo()
        restored = restored_memo.restore(path, topo)
        assert restored == persisted
        assert restored_memo.counters.restored_entries == restored

        warm = DPPlacer(topo, memo=restored_memo)
        plan = warm.place(request)
        assert plan_key(plan) == reference
        # every sub-tree table came from the restored file
        assert warm.profile.counters.summary()["subtree_solves"] == 0

    def test_controller_restart_via_memo_path(self, tmp_path):
        path = str(tmp_path / "memo.bin")
        topo = build_fattree(k=4)

        first = ClickINC(topo, generate_code=False, memo_path=path)
        try:
            report = first.deploy_many([tenant_request(0, "mp0")],
                                       workers=1)[0]
            assert report.succeeded
        finally:
            first.close()   # best-effort save on close
        assert os.path.exists(path)

        # the restarted controller sees the same (post-commit) topology, so
        # the save-time fingerprints match and every entry is admitted
        second = ClickINC(topo, generate_code=False, memo_path=path)
        try:
            assert second.memo.counters.restored_entries > 0
            follow_up = second.deploy_many([tenant_request(1, "mp1")],
                                           workers=1)[0]
            assert follow_up.succeeded
        finally:
            second.close()

    def test_corrupted_file_cold_solves(self, tmp_path):
        path = str(tmp_path / "memo.bin")
        with open(path, "wb") as handle:
            handle.write(b"not a memo file")

        topo = build_fattree(k=4)
        memo = SharedPlacementMemo()
        assert memo.restore(path, topo) == 0
        assert memo.counters.restore_rejected == 1
        assert memo.counters.restored_entries == 0
        # the controller path takes the same fallback without raising
        controller = ClickINC(topo, generate_code=False, memo_path=path)
        try:
            assert controller.memo.counters.restore_rejected == 1
            report = controller.deploy_many([tenant_request(0, "cor")],
                                            workers=1)[0]
            assert report.succeeded
        finally:
            controller.close()

    def test_wrong_format_version_rejected(self, tmp_path):
        path = str(tmp_path / "memo.bin")
        with open(path, "wb") as handle:
            pickle.dump({"format": -1, "topology": "x", "fingerprints": {},
                         "entries": []}, handle)
        memo = SharedPlacementMemo()
        assert memo.restore(path, build_fattree(k=4)) == 0
        assert memo.counters.restore_rejected == 1

    def test_structural_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "memo.bin")
        memo = SharedPlacementMemo()
        placer = DPPlacer(build_fattree(k=4), memo=memo)
        placer.place(placement_request(0, "kvs_struct"))
        assert memo.save(path, placer.topology) > 0

        other = SharedPlacementMemo()
        assert other.restore(path, build_fattree(k=8)) == 0
        assert other.counters.restore_rejected == 1

    def test_allocation_drift_drops_only_stale_entries(self, tmp_path):
        path = str(tmp_path / "memo.bin")
        memo = SharedPlacementMemo()
        placer = DPPlacer(build_fattree(k=4), memo=memo)
        placer.place(placement_request(0, "kvs_drift"))
        persisted = memo.save(path, placer.topology)

        # the restarted fabric drifted on a pod-0 device the search consulted
        topo = build_fattree(k=4)
        topo.devices["ToR0_0"].allocate_stage(0, {"instructions": 4.0})

        restored_memo = SharedPlacementMemo()
        restored = restored_memo.restore(path, topo)
        assert 0 < restored < persisted
        # the admitted remainder still serves a cold-start placement
        plan = DPPlacer(topo, memo=restored_memo).place(
            placement_request(0, "kvs_drift")
        )
        assert plan.is_complete()


# --------------------------------------------------------------------- #
# stale-table guard
# --------------------------------------------------------------------- #
class TestStaleGuard:
    def test_poisoned_table_raises_stale_memo_error(self):
        memo = SharedPlacementMemo()
        placer = DPPlacer(build_fattree(k=4), memo=memo)
        request = placement_request(0, "kvs_stale")
        placer.place(request)

        # rewrite every memoised table's consultation stamps to a state the
        # live topology never had — a memo-served table must now be refused
        for key, (value, names) in list(memo._stores["table"].items()):
            ids, table, stamps = value
            poisoned = tuple((name, "poisoned") for name, _ in stamps)
            memo.store_table(key, (ids, table, poisoned), names)

        with pytest.raises(StaleMemoError):
            placer.place(request)
        assert memo.counters.stale_rejections > 0


# --------------------------------------------------------------------- #
# counters surfaced through the status endpoints
# --------------------------------------------------------------------- #
class TestSummaries:
    def test_service_summary_includes_memo_section(self):
        async def drive():
            async with INCService(build_fattree(k=4), workers=1) as svc:
                report = await svc.submit(tenant_request(0, "sum"))
                assert report.succeeded
                return svc.service_summary()

        summary = asyncio.run(drive())
        memo = summary["memo"]
        for field in ("hits", "misses", "delta_bytes_in", "delta_bytes_out",
                      "stale_rejections"):
            assert field in memo

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
