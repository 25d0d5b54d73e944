"""Tests for the runtime operations subsystem (:mod:`repro.runtime`).

Covers the acceptance properties of the failure/maintenance/upgrade family:
killing a device migrates exactly the programs it hosted (others keep
identical plans), traffic succeeds end-to-end after recovery, an
un-placeable migration rolls back to the pre-failure committed state, and
rolling updates swap versions atomically — including through the asyncio
service, where no interleaving is observable to concurrent callers.
"""

from __future__ import annotations

import asyncio

import pytest
from invariants import assert_resources_conserved

from repro.core import ClickINC, DeployRequest, INCService
from repro.emulator.metrics import RunMetrics
from repro.emulator.traffic import KVSWorkload
from repro.exceptions import ClickINCError, DeploymentError
from repro.lang.profile import default_profile
from repro.runtime import HealthMonitor, RuntimeManager, TopologyEvent
from repro.runtime import events as ev
from repro.topology import build_fattree
from repro.topology.fattree import build_chain


def kvs_profile(user: str, depth: int = 1000):
    profile = default_profile("KVS", user=user)
    profile.performance["depth"] = depth
    return profile


def deploy_kvs(controller, pod: int, name: str):
    return controller.deploy_profile(
        kvs_profile(name), [f"pod{pod}(a)"], f"pod{pod}(b)", name=name
    )


def plan_signature(controller, name):
    deployed = controller.deployed[name]
    return deployed.devices(), dict(deployed.plan.device_states)


@pytest.fixture()
def controller():
    return ClickINC(build_fattree(k=4), generate_code=False)


# --------------------------------------------------------------------- #
# events
# --------------------------------------------------------------------- #
class TestTopologyEvents:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TopologyEvent(kind="meteor-strike", device="Agg0_0")

    def test_subject_and_migration_flags(self):
        down = TopologyEvent(kind=ev.DEVICE_DOWN, device="Agg0_0")
        assert down.subject == "Agg0_0" and down.needs_migration()
        link = TopologyEvent(kind=ev.LINK_DOWN, device="a", link=("a", "b"))
        assert link.subject == "a<->b" and not link.needs_migration()


# --------------------------------------------------------------------- #
# health monitoring
# --------------------------------------------------------------------- #
class TestHealthMonitor:
    def test_poll_emits_device_transitions_once(self):
        topo = build_fattree(k=4)
        monitor = HealthMonitor(topo)
        seen = []
        monitor.subscribe(seen.append)
        topo.set_device_status("Agg0_0", "down")
        events = monitor.poll()
        assert [e.kind for e in events] == [ev.DEVICE_DOWN]
        assert seen == events
        assert monitor.poll() == []          # state adopted, no re-report
        topo.set_device_status("Agg0_0", "up")
        assert [e.kind for e in monitor.poll()] == [ev.DEVICE_UP]

    def test_poll_emits_link_transitions_and_removals(self):
        topo = build_fattree(k=4)
        monitor = HealthMonitor(topo)
        topo.set_link_status("ToR0_0", "Agg0_0", "down")
        events = monitor.poll()
        assert [e.kind for e in events] == [ev.LINK_DOWN]
        assert events[0].link == ("Agg0_0", "ToR0_0")
        topo.remove_link("ToR0_0", "Agg0_0")
        assert [e.kind for e in monitor.poll()] == [ev.LINK_REMOVED]

    def test_observe_run_flags_hot_devices(self):
        topo = build_fattree(k=4)
        monitor = HealthMonitor(topo, overload_packet_share=0.5,
                                overload_min_packets=10)
        metrics = RunMetrics(packets_sent=100)
        metrics.per_device_packets = {"Agg0_0": 80, "ToR0_0": 5}
        events = monitor.observe_run(metrics)
        assert [e.device for e in events] == ["Agg0_0"]
        assert events[0].kind == ev.DEVICE_OVERLOAD
        assert events[0].detail["packets"] == 80

    def test_attach_feeds_monitor_from_emulator_runs(self, controller):
        deploy_kvs(controller, 0, "kvs_a")
        monitor = HealthMonitor(controller.topology,
                                overload_packet_share=0.0,
                                overload_min_packets=1)
        monitor.attach(controller.emulator)
        workload = KVSWorkload("pod0(a)", "pod0(b)", num_keys=50)
        packets = workload.packets(20)
        for packet in packets:
            packet.owner = "kvs_a"
        controller.run_traffic(packets)
        assert monitor.event_counts().get(ev.DEVICE_OVERLOAD, 0) > 0


# --------------------------------------------------------------------- #
# live migration
# --------------------------------------------------------------------- #
class TestDeviceFailureMigration:
    def test_kills_migrate_exactly_the_hosted_programs(self, controller):
        for pod in range(4):
            deploy_kvs(controller, pod, f"kvs{pod}")
        manager = controller.runtime()
        victim = "Agg0_0"
        hosted = manager.owners_on_device(victim)
        assert hosted == ["kvs0"]
        untouched_before = {
            name: plan_signature(controller, name)
            for name in controller.deployed_programs()
            if name not in hosted
        }
        report = manager.fail_device(victim)
        assert report.succeeded and report.migrated == hosted
        # exactly k migrated; the other n-k keep identical plans/fingerprints
        untouched_after = {
            name: plan_signature(controller, name)
            for name in controller.deployed_programs()
            if name not in hosted
        }
        assert untouched_after == untouched_before
        for name in hosted:
            assert victim not in controller.deployed[name].devices()
        assert_resources_conserved(controller)

    def test_traffic_succeeds_end_to_end_after_recovery(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        controller.runtime().fail_device("Agg0_0")
        workload = KVSWorkload("pod0(a)", "pod0(b)", num_keys=100)
        packets = workload.packets(60)
        for packet in packets:
            packet.owner = "kvs0"
        metrics = controller.run_traffic(packets)
        finished = (metrics.packets_delivered + metrics.packets_reflected
                    + metrics.packets_dropped_innetwork)
        assert finished == 60
        assert "Agg0_0" not in metrics.per_device_packets

    def test_unplaceable_migration_rolls_back(self):
        controller = ClickINC(build_chain(3), generate_code=False)
        controller.deploy_profile(kvs_profile("u"), ["client"], "server",
                                  name="kvs")
        before = plan_signature(controller, "kvs")
        manager = controller.runtime()
        report = manager.fail_device("SW1")     # the only path -> unplaceable
        assert report.rolled_back and not report.succeeded
        assert report.migrated == []
        # pre-failure committed state: same plan object, same devices, and
        # every layer holds the program again
        assert plan_signature(controller, "kvs") == before
        assert "kvs" in controller.synthesizer.plans
        assert "kvs" in controller.emulator.deployments
        assert manager.stats.rollbacks == 1
        assert_resources_conserved(controller)

    def test_drain_carries_state_to_new_devices(self, controller):
        deployed = deploy_kvs(controller, 0, "kvs0")
        emulator = controller.emulator
        # find a state held on a device the drain will move it off
        device_name, state_name = next(
            (device, sorted(snippet.states)[0])
            for device, snippet in deployed.plan.device_snippets().items()
            if snippet.states
        )
        emulator.runtimes[device_name].state.reg_write(state_name, 5, 777)
        report = controller.runtime().drain_device(device_name)
        assert report.succeeded and report.migrated == ["kvs0"]
        new_plan = controller.deployed["kvs0"].plan
        assert device_name not in new_plan.devices_used()
        carried = [
            emulator.runtimes[d].state.reg_read(state_name, 5)
            for d, snippet in new_plan.device_snippets().items()
            if state_name in snippet.states
        ]
        assert 777 in carried

    def test_failed_device_state_is_lost(self, controller):
        deployed = deploy_kvs(controller, 0, "kvs0")
        emulator = controller.emulator
        device_name, state_name = next(
            (device, sorted(snippet.states)[0])
            for device, snippet in deployed.plan.device_snippets().items()
            if snippet.states
        )
        emulator.runtimes[device_name].state.reg_write(state_name, 5, 777)
        report = controller.runtime().fail_device(device_name)
        assert report.succeeded
        new_plan = controller.deployed["kvs0"].plan
        carried = [
            emulator.runtimes[d].state.reg_read(state_name, 5)
            for d, snippet in new_plan.device_snippets().items()
            if state_name in snippet.states
        ]
        assert 777 not in carried

    def test_link_failure_replaces_programs_spanning_it(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        manager = controller.runtime()
        affected = manager.owners_on_link("ToR0_0", "Agg0_0")
        assert affected == ["kvs0"]
        report = manager.fail_link("ToR0_0", "Agg0_0")
        assert report.succeeded
        # the re-placed program still serves traffic on the surviving paths
        workload = KVSWorkload("pod0(a)", "pod0(b)", num_keys=50)
        packets = workload.packets(20)
        for packet in packets:
            packet.owner = "kvs0"
        metrics = controller.run_traffic(packets)
        assert (metrics.packets_delivered + metrics.packets_reflected
                + metrics.packets_dropped_innetwork) == 20

    def test_restore_device_returns_it_to_service(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        manager = controller.runtime()
        manager.fail_device("Agg0_0")
        assert controller.topology.down_devices() == ["Agg0_0"]
        assert manager.restore_device("Agg0_0") is True
        assert controller.topology.down_devices() == []
        # the recovery is observable on the event stream
        assert manager.monitor.event_counts().get(ev.DEVICE_UP, 0) == 1
        assert manager.restore_device("Agg0_0") is False   # no duplicate event
        assert manager.monitor.event_counts().get(ev.DEVICE_UP, 0) == 1
        paths = controller.topology.paths_between_groups("pod0(a)", "pod0(b)")
        assert any("Agg0_0" in path for path in paths)

    def test_poll_discovered_failure_auto_migrates(self, controller):
        deploy_kvs(controller, 1, "kvs1")
        manager = controller.runtime()
        controller.topology.set_device_status("Agg1_0", "down")
        manager.monitor.poll()
        report = manager.migration_log[-1]
        assert report is not None and report.migrated == ["kvs1"]
        assert "Agg1_0" not in controller.deployed["kvs1"].devices()

    def test_migrating_unknown_registration_raises(self, controller):
        manager = controller.runtime()
        with pytest.raises(DeploymentError):
            manager._migrate(["ghost"], trigger="manual", subject="x",
                             state_lost=False, skip_devices=())

    def test_failed_removal_during_migration_rolls_back(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        deploy_kvs(controller, 0, "kvs0b")
        manager = controller.runtime()
        before = {name: plan_signature(controller, name)
                  for name in controller.deployed_programs()}
        # make the second removal blow up mid-phase-1
        original_remove = controller.pipeline.remove

        def flaky_remove(name, deployed, lazy=True):
            if name == "kvs0b":
                raise RuntimeError("synthetic removal failure")
            return original_remove(name, deployed, lazy=lazy)

        controller.pipeline.remove = flaky_remove
        try:
            report = manager.migrate_device("Agg0_0", trigger="manual")
        finally:
            controller.pipeline.remove = original_remove
        assert report.rolled_back
        assert "removal failed" in report.error
        # both tenants are back in the pre-migration committed state
        assert {name: plan_signature(controller, name)
                for name in controller.deployed_programs()} == before
        assert set(controller.emulator.deployments) == {"kvs0", "kvs0b"}
        assert_resources_conserved(controller)

    def test_fail_link_emits_event(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        manager = controller.runtime()
        manager.fail_link("ToR0_0", "Agg0_0")
        assert manager.monitor.event_counts().get(ev.LINK_DOWN, 0) == 1
        event = [e for e in manager.monitor.events if e.kind == ev.LINK_DOWN][-1]
        assert event.link == ("Agg0_0", "ToR0_0")

    def test_runtime_accessor_reconfigures_auto_migrate(self, controller):
        manager = controller.runtime()
        assert manager.auto_migrate is True
        assert controller.runtime() is manager              # no clobber
        assert manager.auto_migrate is True
        assert controller.runtime(auto_migrate=False) is manager
        assert manager.auto_migrate is False
        controller.runtime()                                # None: untouched
        assert manager.auto_migrate is False

    def test_auto_migrate_off_leaves_reaction_to_the_caller(self, controller):
        deploy_kvs(controller, 1, "kvs1")
        manager = RuntimeManager(controller, auto_migrate=False)
        controller.topology.set_device_status("Agg1_0", "down")
        events = manager.monitor.poll()
        assert [e.kind for e in events] == [ev.DEVICE_DOWN]
        assert not manager.migration_log             # nothing happened
        report = manager.migrate_device("Agg1_0", trigger=ev.DEVICE_DOWN,
                                        state_lost=True)
        assert report.migrated == ["kvs1"]


# --------------------------------------------------------------------- #
# rolling updates
# --------------------------------------------------------------------- #
class TestRollingUpdates:
    def test_update_swaps_version_and_keeps_registration(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        old_program = controller.deployed["kvs0"].plan.block_dag.program
        report = controller.update_program(
            "kvs0", profile=kvs_profile("v2", depth=500))
        assert report.succeeded
        new_deployed = controller.deployed["kvs0"]
        assert new_deployed.plan.block_dag.program is not old_program
        assert controller.deployed_programs() == ["kvs0"]
        assert "kvs0" in controller.emulator.deployments

    def test_update_carries_compatible_state(self, controller):
        deployed = deploy_kvs(controller, 0, "kvs0")
        emulator = controller.emulator
        device_name, state_name = next(
            (device, sorted(snippet.states)[0])
            for device, snippet in deployed.plan.device_snippets().items()
            if snippet.states
        )
        emulator.runtimes[device_name].state.reg_write(state_name, 2, 55)
        controller.update_program("kvs0", profile=kvs_profile("v2"))
        new_plan = controller.deployed["kvs0"].plan
        carried = [
            emulator.runtimes[d].state.reg_read(state_name, 2)
            for d, snippet in new_plan.device_snippets().items()
            if state_name in snippet.states
        ]
        assert 55 in carried

    def test_failed_update_reinstalls_old_version(self, controller):
        deploy_kvs(controller, 0, "kvs0")
        before = plan_signature(controller, "kvs0")
        with pytest.raises(ClickINCError):
            controller.update_program(
                "kvs0", source="this is not a valid program (")
        assert plan_signature(controller, "kvs0") == before
        assert "kvs0" in controller.emulator.deployments
        assert "kvs0" in controller.synthesizer.plans

    def test_update_unknown_program_raises(self, controller):
        with pytest.raises(DeploymentError):
            controller.update_program("ghost", profile=kvs_profile("x"))


# --------------------------------------------------------------------- #
# the asyncio service: barriers and serial equivalence
# --------------------------------------------------------------------- #
def tenant_request(pod: int, user: str) -> DeployRequest:
    return DeployRequest(
        source_groups=[f"pod{pod}(a)"],
        destination_group=f"pod{pod}(b)",
        name=f"kvs_{user}",
        profile=kvs_profile(user),
    )


def run(coro):
    return asyncio.run(coro)


class TestServiceRuntimeOps:
    def test_update_is_a_wave_barrier_no_interleaving_observable(self):
        """Concurrent submit/remove around an update see old or new, never
        a half-updated network: the post-drain state equals the serial
        schedule's."""
        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                await svc.submit(tenant_request(0, "a"))
                results = await asyncio.gather(
                    svc.submit(tenant_request(1, "b")),
                    svc.update("kvs_a", profile=kvs_profile("a2", depth=500)),
                    svc.submit(tenant_request(2, "c")),
                    svc.remove("kvs_b"),
                )
                await svc.drain()
                return results, {
                    name: svc.controller.deployed[name].devices()
                    for name in svc.controller.deployed_programs()
                }, svc.service_summary()

        results, deployed, summary = run(drive())
        assert results[1].succeeded            # the update report
        assert sorted(deployed) == ["kvs_a", "kvs_c"]
        assert summary["updates"] == 1
        # the runtime manager's accounting agrees with the service's
        assert summary["runtime"]["updates"] == 1

        # serial reference: same operations in admission order
        serial = ClickINC(build_fattree(k=4))
        serial.deploy_profile(kvs_profile("a"), ["pod0(a)"], "pod0(b)",
                              name="kvs_a")
        serial.deploy_profile(kvs_profile("b"), ["pod1(a)"], "pod1(b)",
                              name="kvs_b")
        serial.update_program("kvs_a", profile=kvs_profile("a2", depth=500))
        serial.deploy_profile(kvs_profile("c"), ["pod2(a)"], "pod2(b)",
                              name="kvs_c")
        serial.remove("kvs_b")
        assert deployed == {
            name: serial.deployed[name].devices()
            for name in serial.deployed_programs()
        }

    def test_fail_device_barrier_migrates_and_counts(self):
        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                await asyncio.gather(
                    *(svc.submit(tenant_request(pod, f"p{pod}"))
                      for pod in range(3))
                )
                report = await svc.fail_device("Agg0_0")
                return report, svc.service_summary(), {
                    name: svc.controller.deployed[name].devices()
                    for name in svc.controller.deployed_programs()
                }

        report, summary, deployed = run(drive())
        assert report.succeeded and report.migrated() == ["kvs_p0"]
        assert summary["migrations"] == 1
        assert summary["runtime"]["migrations"] == 1
        assert "Agg0_0" not in deployed["kvs_p0"]
        assert all("Agg0_0" not in devices for devices in deployed.values())

    def test_drain_device_barrier(self):
        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                await svc.submit(tenant_request(0, "a"))
                report = await svc.drain_device("Agg0_0")
                return report

        report = run(drive())
        assert report.succeeded and report.migrated() == ["kvs_a"]

    def test_failed_wave_counter(self):
        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                good = await svc.submit(tenant_request(0, "a"))
                dup = await svc.submit(tenant_request(0, "a"))   # name clash
                return good, dup, svc.service_summary()

        good, dup, summary = run(drive())
        assert good.succeeded and not dup.succeeded
        assert summary["failed_waves"] == 1


# --------------------------------------------------------------------- #
# stale-plan hygiene across failures
# --------------------------------------------------------------------- #
class TestFailureInvalidatesSpeculation:
    def test_speculative_plan_from_before_failure_conflicts(self, controller):
        deploy_kvs(controller, 1, "warm")     # pod1: disjoint from the victim
        request = controller.pipeline.placement_request(
            controller.deployed["warm"].plan.block_dag.program.rebrand("w2"),
            DeployRequest(
                source_groups=["pod0(a)"], destination_group="pod0(b)",
                name="w2",
                program=controller.deployed["warm"].plan.block_dag.program,
            ),
        )
        plan = controller.placer.place(request)
        assert controller.placer.validate(plan) == []
        controller.topology.set_device_status("Agg0_0", "down")
        conflicts = controller.placer.validate(plan)
        assert "Agg0_0" in conflicts

    def test_plan_cache_misses_after_status_change(self, controller):
        key_before = controller.pipeline.plan_cache_key(
            controller.pipeline.placement_request(
                controller.compiler.compile_profile(kvs_profile("k")),
                DeployRequest(source_groups=["pod0(a)"],
                              destination_group="pod0(b)", name="k",
                              profile=kvs_profile("k")),
            )
        )
        controller.topology.set_device_status("Agg0_0", "down")
        key_after = controller.pipeline.plan_cache_key(
            controller.pipeline.placement_request(
                controller.compiler.compile_profile(kvs_profile("k")),
                DeployRequest(source_groups=["pod0(a)"],
                              destination_group="pod0(b)", name="k",
                              profile=kvs_profile("k")),
            )
        )
        assert key_before != key_after
