"""Tests for controller sharding (:mod:`repro.sharding`).

Covers the partition map, shard-local routing, the cross-shard two-phase
commit (success, aborted prepare, residue-free failure), the acceptance
property that any interleaving of concurrent intra-shard and cross-shard
submissions equals the equivalent serial schedule, runtime event routing
(an event in shard A does no work in shard B), cross-partition migration
escalation, and the sharded asyncio service.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from invariants import assert_resources_conserved, device_fingerprints

from repro.core import ClickINC, DeployRequest, INCService
from repro.core.stats import ShardCounters
from repro.devices.registry import make_device
from repro.exceptions import DeploymentError, TopologyError
from repro.lang.profile import default_profile
from repro.sharding import CROSS_SHARD, ShardCoordinator
from repro.topology import (
    HostGroup,
    NetworkTopology,
    PartitionMap,
    build_fattree,
    partition_by_pod,
    whole_fabric_partition,
)


def tenant(src_pod: int, dst_pod: int, user: str) -> DeployRequest:
    profile = default_profile("KVS", user=user)
    profile.performance["depth"] = 1000
    return DeployRequest(
        source_groups=[f"pod{src_pod}(a)"],
        destination_group=f"pod{dst_pod}(b)",
        name=f"kvs_{user}",
        profile=profile,
    )


def coordinator_devices(coord: ShardCoordinator):
    """name -> devices map of everything deployed under *coord*."""
    return {
        name: coord.controller_for(name).deployed[name].devices()
        for name in coord.deployed_programs()
    }


def failures(reports) -> str:
    """Program, stage, exception type and error of every failed report."""
    return "; ".join(
        f"{r.program_name}: {r.failed_stage} "
        f"{type(r.exception).__name__}: {r.error}"
        for r in reports if not r.succeeded)


def plan_cache_keys(controller: ClickINC):
    return sorted(k for k in controller.cache._entries if k.startswith("plan"))


def build_diamond() -> NetworkTopology:
    """client@SW0 -> {SW1 | SW2} -> SW3@server: two equal-length paths."""
    topo = NetworkTopology("diamond")
    topo.add_device(make_device("tofino", "SW0"), layer="tor", pod=0)
    topo.add_device(make_device("tofino", "SW1"), layer="agg", pod=0)
    topo.add_device(make_device("tofino", "SW2"), layer="agg", pod=1)
    topo.add_device(make_device("tofino", "SW3"), layer="tor", pod=0)
    topo.add_link("SW0", "SW1")
    topo.add_link("SW1", "SW3")
    topo.add_link("SW0", "SW2")
    topo.add_link("SW2", "SW3")
    topo.add_host_group(HostGroup(name="client", tor="SW0", role="client"))
    topo.add_host_group(HostGroup(name="server", tor="SW3", role="server"))
    return topo


# --------------------------------------------------------------------- #
# partition maps
# --------------------------------------------------------------------- #
class TestPartitionMap:
    def test_partition_by_pod_fattree(self):
        topo = build_fattree(k=4)
        part = partition_by_pod(topo)
        assert part.region_names() == ["pod0", "pod1", "pod2", "pod3"]
        assert part.is_border("Core0_0")
        assert part.region_of_device("ToR2_1") == "pod2"
        assert part.region_of_device("Core0_0") is None
        assert part.regions_of_device("Core0_0") == part.region_names()
        assert part.region_of_group(topo, "pod3(b)") == "pod3"
        assert part.regions_of_groups(
            topo, ["pod0(a)", "pod0(b)"]) == ["pod0"]
        assert part.regions_of_groups(
            topo, ["pod0(a)", "pod2(b)"]) == ["pod0", "pod2"]

    def test_shard_views_include_border(self):
        topo = build_fattree(k=4)
        views = partition_by_pod(topo).shard_views(topo)
        assert sorted(views) == ["pod0", "pod1", "pod2", "pod3"]
        for view in views.values():
            assert "Core0_0" in view.devices          # shared border
            assert len(view.devices) == 8             # 4 pod + 4 core
        assert sorted(views["pod1"].host_groups) == ["pod1(a)", "pod1(b)"]

    def test_overlapping_regions_rejected(self):
        with pytest.raises(TopologyError):
            PartitionMap(regions={"a": {"x"}, "b": {"x"}})
        with pytest.raises(TopologyError):
            PartitionMap(regions={"a": {"x"}}, border={"x"})

    def test_validate_requires_full_coverage(self):
        topo = build_fattree(k=4)
        part = PartitionMap(regions={"only": {"ToR0_0"}})
        with pytest.raises(TopologyError):
            part.validate(topo)

    def test_border_cannot_own_host_groups(self):
        topo = build_fattree(k=4)
        part = PartitionMap(
            regions={"r": set(topo.devices) - {"ToR0_0"}},
            border={"ToR0_0"},
        )
        with pytest.raises(TopologyError):
            part.region_of_group(topo, "pod0(a)")

    def test_whole_fabric_partition_is_degenerate_default(self):
        topo = build_fattree(k=4)
        part = whole_fabric_partition(topo)
        assert part.region_names() == ["fabric"]
        views = part.shard_views(topo)
        assert len(views["fabric"].devices) == len(topo.devices)


# --------------------------------------------------------------------- #
# routing + ownership
# --------------------------------------------------------------------- #
class TestRoutingAndOwnership:
    def test_intra_and_cross_routing(self):
        with ShardCoordinator(build_fattree(k=4)) as coord:
            r0 = coord.deploy(tenant(0, 0, "a"))
            rx = coord.deploy(tenant(1, 3, "x"))
            assert r0.succeeded and rx.succeeded
            assert coord.owner_of("kvs_a") == "pod0"
            assert coord.owner_of("kvs_x") == CROSS_SHARD
            pods_used = {
                coord.partition.region_of_device(d)
                for d in rx.deployed.devices()
                if coord.partition.region_of_device(d) is not None
            }
            assert pods_used == {"pod1", "pod3"}

    def test_duplicate_name_fails_validation(self):
        with ShardCoordinator(build_fattree(k=4)) as coord:
            assert coord.deploy(tenant(0, 0, "a")).succeeded
            dup = coord.deploy(tenant(1, 1, "a"))       # other shard, same name
            assert not dup.succeeded
            assert dup.failed_stage == "validation"

    def test_remove_routes_to_owner(self):
        with ShardCoordinator(build_fattree(k=4)) as coord:
            coord.deploy(tenant(0, 0, "a"))
            coord.deploy(tenant(0, 2, "x"))
            coord.remove("kvs_x")
            coord.remove("kvs_a")
            assert coord.deployed_programs() == []
            assert coord.shards["pod0"].controller.deployed == {}
            assert coord.inter.deployed == {}
            with pytest.raises(DeploymentError):
                coord.remove("kvs_a")

    def test_unknown_group_fails_per_request_not_per_batch(self):
        with ShardCoordinator(build_fattree(k=4)) as coord:
            bad = DeployRequest(source_groups=["nope(a)"],
                                destination_group="pod0(b)",
                                name="kvs_bad",
                                profile=default_profile("KVS", user="bad"))
            reports = coord.deploy_many([tenant(0, 0, "a"), bad])
            assert reports[0].succeeded
            assert not reports[1].succeeded
            assert reports[1].failed_stage == "validation"
            single = coord.deploy(bad)
            assert not single.succeeded and single.error
            # the failed name was never claimed: it stays deployable
            assert coord.owner_of("kvs_bad") is None

    def test_dispatch_crash_releases_pending_claims(self):
        with ShardCoordinator(build_fattree(k=4)) as coord:
            shard = coord.shards["pod0"]
            original = shard.controller.deploy_many
            shard.controller.deploy_many = lambda *a, **k: (_ for _ in ()).throw(
                RuntimeError("pool exploded")
            )
            with pytest.raises(RuntimeError):
                coord.deploy_wave("pod0", [tenant(0, 0, "a")])
            shard.controller.deploy_many = original
            # the claim was released, so the same name deploys cleanly
            assert coord.deploy(tenant(0, 0, "a")).succeeded

    def test_deploy_many_groups_by_shard(self):
        with ShardCoordinator(build_fattree(k=4)) as coord:
            requests = [tenant(p, p, f"u{p}") for p in range(4)]
            requests.append(tenant(0, 2, "x"))
            reports = coord.deploy_many(requests)
            assert [r.succeeded for r in reports] == [True] * 5, failures(reports)
            for pod in range(4):
                assert coord.owner_of(f"kvs_u{pod}") == f"pod{pod}"
                assert coord.shards[f"pod{pod}"].stats.deploys == 1
            assert coord.stats.cross_shard_commits == 1


# --------------------------------------------------------------------- #
# single-shard degenerate mode
# --------------------------------------------------------------------- #
class TestDegenerateSingleShard:
    def test_single_shard_matches_plain_controller(self):
        topo = build_fattree(k=4)
        coord = ShardCoordinator(topo, whole_fabric_partition(topo))
        requests = [tenant(0, 0, "a"), tenant(0, 2, "x"), tenant(1, 1, "b")]
        reports = coord.deploy_many(requests)
        assert all(r.succeeded for r in reports)
        # everything is intra-shard under one region: no 2PC involved
        assert coord.stats.cross_shard_commits == 0
        assert {coord.owner_of(r.program_name)
                for r in reports} == {"fabric"}

        plain = ClickINC(build_fattree(k=4))
        serial = {}
        for request in requests:
            run_report = plain.pipeline.run(request)
            serial[run_report.program_name] = run_report.deployed.devices()
        assert coordinator_devices(coord) == serial
        coord.close()
        plain.close()


# --------------------------------------------------------------------- #
# the cross-shard two-phase commit
# --------------------------------------------------------------------- #
class TestCrossShardCommit:
    def test_cross_commit_counts_and_epoch_stamps(self):
        with ShardCoordinator(build_fattree(k=4)) as coord:
            report = coord.deploy(tenant(0, 2, "x"))
            assert report.succeeded
            plan = coord.inter.deployed["kvs_x"].plan
            # the plan records the states of devices in exactly the two
            # touched pods (plus the shared border)
            pods = {coord.topology.pods[name] for name in plan.device_states}
            assert pods - {-1} == {0, 2}
            assert coord.stats.cross_shard_commits == 1
            assert coord.stats.aborted_prepares == 0
            assert coord.shards["pod0"].stats.cross_shard_commits == 1
            assert coord.shards["pod1"].stats.cross_shard_commits == 0

    def test_conflicting_prepare_aborts_then_replaces(self):
        """A commit racing into a touched shard between the speculative
        phase and prepare forces an abort; the commit wave re-places under
        the locks and still produces the serial schedule's placements."""
        coord = ShardCoordinator(build_fattree(k=4))

        def inject_conflict():
            coord._pre_prepare_hook = None      # fire once
            assert coord.deploy(tenant(0, 0, "racer")).succeeded

        coord._pre_prepare_hook = inject_conflict
        report = coord.deploy(tenant(0, 2, "x"))
        assert report.succeeded
        assert coord.stats.aborted_prepares == 1
        assert coord.shards["pod0"].stats.aborted_prepares == 1
        assert coord.shards["pod2"].stats.aborted_prepares == 0
        assert coord.stats.cross_shard_commits == 1

        # serial schedule: racer commits first, then the cross program
        serial = ShardCoordinator(build_fattree(k=4))
        assert serial.deploy(tenant(0, 0, "racer")).succeeded
        assert serial.deploy(tenant(0, 2, "x")).succeeded
        assert coordinator_devices(coord) == coordinator_devices(serial)
        assert_resources_conserved(coord)
        serial.close()
        coord.close()

    def test_commit_racing_a_plan_cache_hit_aborts_the_prepare(self):
        """A pod commit landing between the speculative phase's plan-key
        build and its cache lookup: the hit records the states the key was
        built from, so the prepare sees the drift, aborts and re-places."""
        coord = ShardCoordinator(build_fattree(k=4))
        # two sights of the body: the second commit's write-back stores
        # the plan, so the third cross submit hits
        for user in ("x1", "x2"):
            assert coord.deploy(tenant(0, 2, user)).succeeded
            coord.remove(f"kvs_{user}")
        cache = coord.inter.pipeline.cache
        lookup = cache.lookup
        hits = []

        def racing_lookup(key):
            if not key.startswith("plan:"):
                return lookup(key)
            cache.lookup = lookup               # fire once
            assert coord.deploy(tenant(0, 0, "racer")).succeeded
            hit, plan = lookup(key)
            hits.append(hit)
            return hit, plan

        cache.lookup = racing_lookup
        assert coord.deploy(tenant(0, 2, "x")).succeeded
        assert hits == [True]
        assert coord.stats.aborted_prepares == 1
        assert coord.shards["pod0"].stats.aborted_prepares == 1

        serial = ShardCoordinator(build_fattree(k=4))
        assert serial.deploy(tenant(0, 0, "racer")).succeeded
        assert serial.deploy(tenant(0, 2, "x")).succeeded
        assert coordinator_devices(coord) == coordinator_devices(serial)
        assert_resources_conserved(coord)
        serial.close()
        coord.close()

    def test_aborted_prepare_leaves_no_residue(self):
        """Abort + infeasible re-place: every shard's allocation state and
        plan cache stay byte-identical to the pre-attempt snapshot."""
        coord = ShardCoordinator(build_fattree(k=4))
        assert coord.deploy(tenant(0, 0, "a")).succeeded
        assert coord.deploy(tenant(2, 2, "b")).succeeded
        snapshot = {}

        def break_source_tor():
            coord._pre_prepare_hook = None
            # the status flip bumps ToR0_0's fingerprint (prepare conflict)
            # and makes pod0(a) unreachable (re-place infeasible)
            coord.topology.set_device_status("ToR0_0", "down")
            snapshot["fps"] = device_fingerprints(coord.topology)
            snapshot["plan_keys"] = {
                sid: plan_cache_keys(shard.controller)
                for sid, shard in coord.shards.items()
            }
            snapshot["inter_plan_keys"] = plan_cache_keys(coord.inter)
            snapshot["programs"] = coord.deployed_programs()

        coord._pre_prepare_hook = break_source_tor
        report = coord.deploy(tenant(0, 2, "x"))
        assert not report.succeeded
        # b, the body's second sight, stored pod2's plan: the comparison
        # below covers a non-empty cache
        assert any(snapshot["plan_keys"].values())
        assert coord.stats.aborted_prepares == 1
        assert coord.stats.cross_shard_commits == 0
        # byte-identical world: allocations, plan caches, registries
        assert device_fingerprints(coord.topology) == snapshot["fps"]
        assert {
            sid: plan_cache_keys(shard.controller)
            for sid, shard in coord.shards.items()
        } == snapshot["plan_keys"]
        assert plan_cache_keys(coord.inter) == snapshot["inter_plan_keys"]
        assert coord.deployed_programs() == snapshot["programs"]
        assert "kvs_x" not in coord.inter.deployed
        assert_resources_conserved(coord)
        coord.close()


# --------------------------------------------------------------------- #
# serial equivalence (acceptance)
# --------------------------------------------------------------------- #
class TestSerialEquivalence:
    def test_concurrent_interleavings_match_serial_schedule(self):
        """Intra-shard submissions racing on every shard plus a cross-shard
        submission produce placements identical to the serial schedule."""
        requests = [tenant(p, p, f"u{p}{i}")
                    for p in range(4) for i in range(2)]
        cross = tenant(0, 2, "x")

        coord = ShardCoordinator(build_fattree(k=4))
        with ThreadPoolExecutor(max_workers=5) as pool:
            # the intra submissions race freely (disjoint pods: every
            # interleaving is the same serial schedule); the cross program
            # commits after them, pinning the schedule to intra-then-cross
            # (a cross commit racing *into* the window is covered by the
            # aborted-prepare tests above)
            futures = [pool.submit(coord.deploy, r) for r in requests]
            reports = [f.result() for f in futures]
            cross_report = pool.submit(coord.deploy, cross).result()
        assert all(r.succeeded for r in reports), failures(reports)
        assert cross_report.succeeded
        concurrent_devices = coordinator_devices(coord)

        serial = ClickINC(build_fattree(k=4))
        serial_devices = {}
        for request in requests + [cross]:
            run_report = serial.pipeline.run(request)
            serial_devices[run_report.program_name] = (
                run_report.deployed.devices()
            )
        assert concurrent_devices == serial_devices
        assert_resources_conserved(coord)
        serial.close()
        coord.close()

    def test_deploy_many_parallel_equals_sequential(self):
        requests = [tenant(p, p, f"u{p}") for p in range(4)]
        requests.append(tenant(1, 2, "x"))
        parallel = ShardCoordinator(build_fattree(k=4))
        assert all(r.succeeded for r in parallel.deploy_many(requests))
        # the threaded shard waves against the serial schedule every other
        # equivalence test uses: one controller, one request at a time
        sequential = ClickINC(build_fattree(k=4))
        serial_devices = {}
        for request in requests:
            run_report = sequential.pipeline.run(request)
            serial_devices[run_report.program_name] = (
                run_report.deployed.devices()
            )
        assert coordinator_devices(parallel) == serial_devices
        assert_resources_conserved(parallel)
        parallel.close()
        sequential.close()


# --------------------------------------------------------------------- #
# runtime event routing (satellite)
# --------------------------------------------------------------------- #
class TestEventRouting:
    def test_fail_device_does_no_work_in_other_shards(self):
        coord = ShardCoordinator(build_fattree(k=4))
        assert coord.deploy(tenant(0, 0, "a")).succeeded
        assert coord.deploy(tenant(1, 1, "b")).succeeded
        pod1 = coord.shards["pod1"]
        states_b = {n: d.state for n, d in pod1.view.devices.items()}
        plan_keys_b = plan_cache_keys(pod1.controller)
        # b is the body's second sight (the shards share one memo), so
        # pod1 stored its plan: the snapshot below is not vacuous
        assert plan_keys_b
        devices_b = pod1.controller.deployed["kvs_b"].devices()
        fps_b = {n: pod1.view.device(n).state.digest
                 for n in devices_b}

        victim = next(d for d in
                      coord.shards["pod0"].controller.deployed["kvs_a"]
                      .devices() if d.startswith("Agg"))
        event = coord.fail_device(victim)
        assert event.migrated() == ["kvs_a"]
        assert sorted(event.shard_reports) == ["pod0"]   # pod1 never touched

        # shard B: no migration work, no state change, no cache invalidation
        assert [n for n, d in pod1.view.devices.items()
                if d.state is not states_b[n]] == []
        assert plan_cache_keys(pod1.controller) == plan_keys_b
        assert pod1.controller.deployed["kvs_b"].devices() == devices_b
        assert {n: pod1.view.device(n).state.digest
                for n in devices_b} == fps_b
        assert pod1.stats.migrations == 0
        # pod1 never even built a runtime manager for this event
        assert pod1.controller._runtime is None
        coord.close()

    def test_restore_device_resets_every_monitor_baseline(self):
        coord = ShardCoordinator(build_fattree(k=4))
        assert coord.deploy(tenant(0, 0, "a")).succeeded
        victim = next(d for d in
                      coord.shards["pod0"].controller.deployed["kvs_a"]
                      .devices() if d.startswith("Agg"))
        coord.fail_device(victim)
        assert coord.restore_device(victim)
        # every watcher adopted the recovery: no monitor re-reports it
        assert coord.inter.runtime().monitor.poll() == []
        for shard in coord.shards.values():
            if shard.controller._runtime is not None:
                assert shard.controller.runtime().monitor.poll() == []
        coord.close()

    def test_border_device_event_routes_to_every_shard(self):
        coord = ShardCoordinator(build_fattree(k=4))
        assert coord.deploy(tenant(0, 0, "a")).succeeded
        event = coord.drain_device("Core0_0")
        assert sorted(event.shard_reports) == ["pod0", "pod1", "pod2",
                                               "pod3"]
        # the intra-pod program never used the core; nothing migrates
        assert event.migrated() == []
        assert coord.restore_device("Core0_0")
        coord.close()


# --------------------------------------------------------------------- #
# cross-partition migration escalation
# --------------------------------------------------------------------- #
class TestEscalation:
    def test_unplaceable_shard_migration_escalates_to_coordinator(self):
        topo = build_diamond()
        partition = PartitionMap(
            regions={"left": {"SW0", "SW1", "SW3"}, "right": {"SW2"}}
        )
        coord = ShardCoordinator(topo, partition)
        profile = default_profile("KVS", user="m")
        profile.performance["depth"] = 1000
        request = DeployRequest(source_groups=["client"],
                                destination_group="server",
                                name="kvs_m", profile=profile)
        report = coord.deploy(request)
        assert report.succeeded
        assert coord.owner_of("kvs_m") == "left"
        assert "SW1" in report.deployed.devices()

        event = coord.fail_device("SW1")
        # the left shard's view has no surviving path, so its migration
        # rolled back; the coordinator re-homed the program via SW2
        assert event.shard_reports["left"].rolled_back
        assert event.escalated == ["kvs_m"]
        assert coord.owner_of("kvs_m") == CROSS_SHARD
        new_devices = coord.inter.deployed["kvs_m"].devices()
        assert "SW2" in new_devices and "SW1" not in new_devices
        assert "kvs_m" not in coord.shards["left"].controller.deployed
        assert_resources_conserved(coord)
        coord.close()

    @pytest.mark.parametrize("verb", ["remove", "update"])
    def test_operation_racing_an_escalation_follows_the_program(self, verb):
        """A remove/update issued while an escalation moves its program
        reads the old owner, waits for the event's locks, and then acts on
        the program where the escalation put it."""
        topo = build_diamond()
        coord = ShardCoordinator(topo, PartitionMap(
            regions={"left": {"SW0", "SW1", "SW3"}, "right": {"SW2"}}))
        profile = default_profile("KVS", user="m")
        profile.performance["depth"] = 1000
        assert coord.deploy(DeployRequest(
            source_groups=["client"], destination_group="server",
            name="kvs_m", profile=profile)).succeeded
        event_thread = threading.get_ident()
        waiting = threading.Event()

        class SignallingLock:
            """The shard lock, telling when another thread waits on it."""

            def __init__(self, lock):
                self.lock = lock

            def acquire(self, *args, **kwargs):
                if threading.get_ident() != event_thread:
                    waiting.set()
                return self.lock.acquire(*args, **kwargs)

            def release(self):
                self.lock.release()

            __enter__ = acquire

            def __exit__(self, *exc_info):
                self.release()

        left = coord.shards["left"]
        left.lock = SignallingLock(left.lock)
        outcome = {}

        def operate():
            try:
                if verb == "remove":
                    outcome["result"] = coord.remove("kvs_m")
                else:
                    outcome["result"] = coord.update(
                        "kvs_m", profile=default_profile("KVS", user="m2"))
            except Exception as exc:        # surfaced by the asserts below
                outcome["error"] = exc

        operation = threading.Thread(target=operate)
        commit_stages = coord.inter.pipeline.commit_stages

        def escalating_commit(*args, **kwargs):
            # mid-escalation: the operation reads the owner and queues
            if not operation.is_alive() and "started" not in outcome:
                outcome["started"] = True
                operation.start()
                assert waiting.wait(timeout=10)
            return commit_stages(*args, **kwargs)

        coord.inter.pipeline.commit_stages = escalating_commit
        event = coord.fail_device("SW1")
        operation.join(timeout=30)
        assert not operation.is_alive()
        assert event.escalated == ["kvs_m"]
        assert "error" not in outcome, outcome.get("error")
        if verb == "remove":
            assert coord.owner_of("kvs_m") is None
            assert coord.deployed_programs() == []
        else:
            assert outcome["result"].succeeded
            assert coord.owner_of("kvs_m") == CROSS_SHARD
            assert coord.inter.deployed["kvs_m"].report is outcome["result"]
        coord.close()


class TestOwnershipIsTheRegistries:
    def test_scripted_operations_keep_owner_and_registries_equal(self):
        """After every step of a submit/remove/update/fail/drain/restore
        script, ``owner_of`` and ``deployed_programs()`` say what the
        controllers' ``deployed`` registries hold — and inside every commit
        a step makes (migrations re-place through commits), no program
        deployed before the step reads as undeployed."""
        coord = ShardCoordinator(build_fattree(k=4))
        controllers = [s.controller for s in coord.shards.values()]
        controllers.append(coord.inter)
        before, gaps = set(), []

        def watching(commit_stages):
            def commit(*args, **kwargs):
                gaps.extend(name for name in before
                            if coord.owner_of(name) is None)
                return commit_stages(*args, **kwargs)
            return commit

        for controller in controllers:
            controller.pipeline.commit_stages = watching(
                controller.pipeline.commit_stages)

        def registries():
            owners = {}
            for controller in reversed(controllers):
                owner = next((sid for sid, s in coord.shards.items()
                              if s.controller is controller), CROSS_SHARD)
                owners.update(dict.fromkeys(controller.deployed, owner))
            return owners

        down = []

        def agg_of(name):
            down.append(next(d for d in coord.controller_for(name)
                             .deployed[name].devices() if d.startswith("Agg")))
            return down[-1]

        steps = [
            lambda: coord.deploy(tenant(0, 0, "a")),
            lambda: coord.deploy(tenant(0, 2, "x")),
            lambda: coord.deploy(tenant(1, 1, "b")),
            lambda: coord.update("kvs_a",
                                 profile=default_profile("KVS", user="a2")),
            lambda: coord.fail_device(agg_of("kvs_a")),
            lambda: coord.restore_device(down.pop()),
            lambda: coord.drain_device(agg_of("kvs_x")),
            lambda: coord.update("kvs_x",
                                 profile=default_profile("KVS", user="x2")),
            lambda: coord.remove("kvs_b"),
            lambda: coord.restore_device(down.pop()),
            lambda: coord.fail_device(agg_of("kvs_x")),
            lambda: coord.remove("kvs_x"),
            lambda: coord.restore_device(down.pop()),
            lambda: coord.deploy(tenant(2, 2, "c")),
        ]
        for step in steps:
            before = set(coord.deployed_programs())
            outcome = step()
            assert getattr(outcome, "succeeded", True), outcome
            owners = registries()
            assert coord.deployed_programs() == sorted(owners)
            assert {name: coord.owner_of(name) for name in owners} == owners
            assert gaps == []
        assert sorted(registries()) == ["kvs_a", "kvs_c"]
        coord.close()


# --------------------------------------------------------------------- #
# the sharded asyncio service
# --------------------------------------------------------------------- #
class TestShardedService:
    def test_sharded_submits_match_serial_placements(self):
        async def drive():
            async with INCService(build_fattree(k=4), sharded=True) as svc:
                # the intra submissions race across all four lanes (disjoint
                # pods: every interleaving is the same serial schedule); the
                # cross submission runs after them so the schedule it must
                # reproduce — intra first, cross last — is pinned
                reports = await asyncio.gather(
                    *(svc.submit(tenant(pod, pod, f"p{pod}"))
                      for pod in range(4)),
                )
                reports.append(await svc.submit(tenant(0, 2, "x")))
                return reports, coordinator_devices(svc.coordinator)

        reports, sharded_devices = asyncio.run(drive())
        assert all(r.succeeded for r in reports), failures(reports)

        serial = ClickINC(build_fattree(k=4))
        serial_devices = {}
        for request in [tenant(pod, pod, f"p{pod}") for pod in range(4)] + [
                tenant(0, 2, "x")]:
            run_report = serial.pipeline.run(request)
            serial_devices[run_report.program_name] = (
                run_report.deployed.devices()
            )
        assert sharded_devices == serial_devices
        serial.close()

    def test_sharded_barriers_route_to_owner(self):
        async def drive():
            async with INCService(build_fattree(k=4), sharded=True) as svc:
                await svc.submit(tenant(0, 0, "a"))
                await svc.submit(tenant(0, 2, "x"))
                await svc.remove("kvs_a")           # lane barrier (pod0)
                await svc.remove("kvs_x")           # direct (cross-owned)
                with pytest.raises(DeploymentError):
                    await svc.remove("kvs_ghost")
                return svc.service_summary()

        summary = asyncio.run(drive())
        assert summary["removed"] == 2
        assert summary["coordinator"]["cross_shard_commits"] == 1

    def test_remove_racing_unawaited_submit_serialises_behind_it(self):
        async def drive():
            async with INCService(build_fattree(k=4), sharded=True) as svc:
                report, delta = await asyncio.gather(
                    svc.submit(tenant(0, 0, "a")),
                    svc.remove("kvs_a"),
                )
                return report, delta, svc.deployed_programs()

        report, _delta, remaining = asyncio.run(drive())
        # the remove queued behind the submission in pod0's lane (the
        # serial schedule submit-then-remove), instead of raising
        assert report.succeeded
        assert remaining == []

    def test_sharded_fail_device_via_service(self):
        async def drive():
            async with INCService(build_fattree(k=4), sharded=True) as svc:
                await svc.submit(tenant(0, 0, "a"))
                victim = next(
                    d for d in svc.coordinator.shards["pod0"]
                    .controller.deployed["kvs_a"].devices()
                    if d.startswith("Agg")
                )
                event = await svc.fail_device(victim)
                return event, svc.stats.migrations

        event, migrations = asyncio.run(drive())
        assert event.migrated() == ["kvs_a"]
        assert migrations == 1

    def test_remove_racing_cross_submit_serialises_behind_it(self):
        async def drive():
            async with INCService(build_fattree(k=4), sharded=True) as svc:
                submit = asyncio.ensure_future(
                    svc.submit(tenant(0, 2, "x"))
                )
                await asyncio.sleep(0)          # submission in flight
                await svc.remove("kvs_x")       # waits for the 2PC, then
                return await submit             # removes: serial schedule

        report = asyncio.run(drive())
        assert report.succeeded

    def test_close_waits_for_direct_cross_shard_operations(self):
        async def drive():
            async with INCService(build_fattree(k=4), sharded=True) as svc:
                # the cross submit takes the direct path; close() (via the
                # context manager) must wait for it instead of releasing
                # the coordinator mid-2PC
                task = asyncio.ensure_future(
                    svc.submit(tenant(0, 2, "x"))
                )
                await asyncio.sleep(0)
                return await task

        report = asyncio.run(drive())
        assert report.succeeded

    def test_sharded_summary_surfaces_cross_shard_counters(self):
        async def drive():
            async with INCService(build_fattree(k=4), sharded=True) as svc:
                await svc.submit(tenant(1, 3, "x"))
                return svc.stats.summary()

        summary = asyncio.run(drive())
        # the service shares the coordinator's counter bag, so the
        # service-level summary reports the 2PC activity directly
        assert summary["cross_shard_commits"] == 1
        assert summary["aborted_prepares"] == 0
        assert "per_shard" in summary

    def test_rejects_kwargs_with_existing_coordinator(self):
        coord = ShardCoordinator(build_fattree(k=4))
        with pytest.raises(DeploymentError):
            INCService(coord, sharded=True)
        coord.close()


# --------------------------------------------------------------------- #
# counter plumbing (satellite)
# --------------------------------------------------------------------- #
class TestCounterPlumbing:
    def test_increment_rejects_unknown_and_non_integer_counters(self):
        counters = ShardCounters()
        assert counters.increment("deploys") == 1
        assert counters.increment("deploys", 3) == 4
        with pytest.raises(AttributeError):
            counters.increment("no_such_counter")
        with pytest.raises(AttributeError):
            counters.increment("summary")           # a method, not a counter

    def test_shard_counters_shared_with_coordinator_breakdown(self):
        with ShardCoordinator(build_fattree(k=4)) as coord:
            coord.deploy(tenant(0, 0, "a"))
            # one bag per shard, aliased into the coordinator's stats
            assert coord.stats.per_shard["pod0"] is coord.shards["pod0"].stats
            summary = coord.coordinator_summary()
            assert summary["per_shard"]["pod0"]["deploys"] == 1
            assert summary["shards"]["pod0"]["programs"] == 1
