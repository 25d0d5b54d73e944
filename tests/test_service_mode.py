"""One service mode: every :class:`INCService` runs over a shard coordinator.

``INCService(topology)`` serves the whole fabric as one shard, and a
partition with one region and no border is the fabric itself: the
coordinator builds one controller over the topology, which is both the only
shard's controller and ``coordinator.inter``.  These tests pin that
construction and the behaviour the default stack shares with the sharded
one — duplicate names refused at the claim, unknown host groups refused at
routing, device events serialised on the coordinator's locks and reported
as a :class:`ShardedEventReport`, the ``fabric`` lane label.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core import ClickINC, DeployRequest, INCService
from repro.emulator.network import NetworkEmulator
from repro.gateway import Gateway, TenantRegistry
from repro.lang.profile import default_profile
from repro.obs import Observability
from repro.runtime.events import DEVICE_DOWN, DEVICE_UP
from repro.runtime.manager import RuntimeManager
from repro.sharding import ShardCoordinator, ShardedEventReport
from repro.topology import build_fattree, whole_fabric_partition


def tenant_request(pod: int, user: str) -> DeployRequest:
    profile = default_profile("KVS", user=user)
    profile.performance["depth"] = 1000
    return DeployRequest(source_groups=[f"pod{pod}(a)"],
                         destination_group=f"pod{pod}(b)",
                         name=f"kvs_{user}", profile=profile)


def unroutable_request() -> DeployRequest:
    return DeployRequest(source_groups=["nowhere(a)"],
                         destination_group="pod0(b)", name="kvs_lost",
                         profile=default_profile("KVS", user="lost"))


@pytest.fixture
def constructions(monkeypatch):
    """Count ``ClickINC`` and ``NetworkEmulator`` constructions."""
    counts = {ClickINC: 0, NetworkEmulator: 0}
    for cls in counts:
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


# --------------------------------------------------------------------- #
# construction: a one-region partition is the fabric
# --------------------------------------------------------------------- #
def test_default_service_builds_one_controller(constructions):
    svc = INCService(build_fattree(k=4))
    assert constructions == {ClickINC: 1, NetworkEmulator: 1}
    coord = svc.coordinator
    assert sorted(coord.shards) == ["fabric"]
    assert coord.inter is coord.shards["fabric"].controller
    assert svc.controller is coord.inter
    assert coord.inter.topology is coord.topology      # not a subview


def test_whole_fabric_coordinator_builds_one_controller(constructions):
    topology = build_fattree(k=4)
    with ShardCoordinator(topology,
                          whole_fabric_partition(topology)) as coord:
        assert constructions == {ClickINC: 1, NetworkEmulator: 1}
        assert coord.inter is coord.shards["fabric"].controller


def test_sharded_service_keeps_a_separate_inter_controller(constructions):
    coord = INCService(build_fattree(k=4), sharded=True).coordinator
    assert constructions == {ClickINC: 5, NetworkEmulator: 5}
    assert all(shard.controller is not coord.inter
               for shard in coord.shards.values())


# --------------------------------------------------------------------- #
# serving an existing controller
# --------------------------------------------------------------------- #
def test_service_over_controller_removes_a_synchronous_deploy():
    controller = ClickINC(build_fattree(k=4))
    controller.deploy_profile(
        default_profile("KVS", user="sync"),
        source_groups=["pod0(a)"], destination_group="pod0(b)",
        name="kvs_sync",
    )

    async def drive():
        async with INCService(controller) as svc:
            assert svc.coordinator.inter is controller
            assert svc.coordinator.owner_of("kvs_sync") == "fabric"
            await svc.remove("kvs_sync")
            return svc.deployed_programs()

    assert asyncio.run(drive()) == []
    assert controller.deployed_programs() == []


# --------------------------------------------------------------------- #
# the behaviour the default stack now shares with the sharded one
# --------------------------------------------------------------------- #
def test_duplicate_name_is_refused_at_the_claim():
    async def drive():
        async with INCService(build_fattree(k=4)) as svc:
            first = await svc.submit(tenant_request(0, "a"))
            return first, await svc.submit(tenant_request(1, "a"))

    first, dup = asyncio.run(drive())
    assert first.succeeded
    assert not dup.succeeded and dup.failed_stage == "validation"
    assert dup.stages == []                     # no stage ran


def test_unknown_host_group_fails_at_routing():
    async def drive():
        async with INCService(build_fattree(k=4)) as svc:
            assert svc.lane_of(unroutable_request()) is None
            return await svc.submit(unroutable_request())

    report = asyncio.run(drive())
    assert not report.succeeded and report.failed_stage == "validation"


def test_unknown_host_group_is_400_on_the_default_gateway_stack():
    body = json.dumps({"name": "p", "app": "KVS",
                       "source_groups": ["nowhere"],
                       "destination_group": "pod0(b)"}).encode()

    async def drive():
        async with INCService(build_fattree(k=4)) as service:
            registry = TenantRegistry()
            registry.register("acme", api_key="k-acme", weight=1.0)
            gateway = Gateway(service, registry)
            try:
                return await gateway.handle(
                    "POST", "/v1/programs",
                    {"Authorization": "Bearer k-acme"}, body)
            finally:
                await gateway.close()

    status, _headers, payload = asyncio.run(drive())
    assert status == 400 and payload["error"] == "bad_request"


def test_fail_device_migrates_once_and_restore_refreshes_once(monkeypatch):
    restores = []
    restore = RuntimeManager.restore_device
    monkeypatch.setattr(RuntimeManager, "restore_device",
                        lambda self, name: restores.append(name)
                        or restore(self, name))

    async def drive():
        async with INCService(build_fattree(k=4)) as svc:
            await svc.submit(tenant_request(0, "a"))
            event = await svc.fail_device("Agg0_0")
            restored = svc.coordinator.restore_device("Agg0_0")
            monitor = svc.controller.runtime().monitor
            return event, restored, svc.service_summary(), \
                monitor.event_counts()

    event, restored, summary, events = asyncio.run(drive())
    assert isinstance(event, ShardedEventReport)
    assert event.succeeded and event.migrated() == ["kvs_a"]
    assert sorted(event.shard_reports) == ["fabric"]
    assert event.cross_report is None and event.escalated == []
    assert summary["migrations"] == 1
    assert summary["runtime"]["migrations"] == 1
    assert events[DEVICE_DOWN] == 1
    assert restored and restores == ["Agg0_0"]
    assert events[DEVICE_UP] == 1


def test_device_events_hold_the_coordinator_locks(monkeypatch):
    svc = INCService(build_fattree(k=4))
    coord = svc.coordinator
    held = []
    drain = RuntimeManager.drain_device

    def recording(self, name):
        held.append((coord._inter_lock._is_owned(),
                     coord.shards["fabric"].lock._is_owned()))
        return drain(self, name)

    monkeypatch.setattr(RuntimeManager, "drain_device", recording)

    async def drive():
        async with svc:
            await svc.submit(tenant_request(0, "a"))
            return await svc.drain_device("Agg0_0")

    assert asyncio.run(drive()).migrated() == ["kvs_a"]
    assert held == [(True, True)]


def test_admission_lane_is_labelled_fabric():
    obs = Observability()

    async def drive():
        async with INCService(build_fattree(k=4), obs=obs) as svc:
            assert svc.lane_of(tenant_request(0, "a")) == "fabric"
            await svc.submit(tenant_request(0, "a"))
            return obs.registry.render()

    text = asyncio.run(drive())
    assert 'clickinc_admission_wait_seconds_count{lane="fabric"} 1' in text
    assert 'clickinc_shard_deploys_total{shard="fabric"} 1' in text
