"""Tests for the wire-level gateway (:mod:`repro.gateway`).

Covers the wire schema, API-key authentication, the quota ledger (including
exhaustion *mid-wave*), the weighted-fair admission scheduler's edge cases —
zero-weight tenants, backpressure release after drain, shedding never
touching dispatched work — per-submission deadlines down to the cross-shard
two-phase commit, and one real HTTP round trip.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.core.service import INCService
from repro.gateway import (
    Gateway,
    GatewayHTTPServer,
    Tenant,
    TenantQuota,
    TenantRegistry,
    WeightedFairScheduler,
    WireError,
)
from repro.gateway import server as server_module
from repro.gateway.scheduler import AdmissionTicket
from repro.topology import build_fattree


def run(coro):
    return asyncio.run(coro)


def submit_body(name: str, pod: int = 0, app: str = "KVS", **extra) -> bytes:
    payload = {
        "name": name,
        "app": app,
        "source_groups": [f"pod{pod}(a)"],
        "destination_group": f"pod{pod}(b)",
    }
    payload.update(extra)
    return json.dumps(payload).encode()


def make_registry(**tenants) -> TenantRegistry:
    """``make_registry(a=(weight, quota), ...)`` with key ``k-<id>``."""
    registry = TenantRegistry()
    for tenant_id, (weight, quota) in tenants.items():
        registry.register(tenant_id, api_key=f"k-{tenant_id}", weight=weight,
                          quota=quota or TenantQuota())
    return registry


def auth(tenant_id: str):
    return {"Authorization": f"Bearer k-{tenant_id}"}


async def make_gateway(registry=None, *, sharded=True, **gw_kwargs):
    service = INCService(build_fattree(k=4), sharded=sharded)
    await service.__aenter__()
    gateway = Gateway(
        service, registry or make_registry(acme=(1.0, None)), **gw_kwargs
    )
    return service, gateway


async def close_gateway(service, gateway):
    await gateway.close()
    await service.close()


# --------------------------------------------------------------------- #
# wire schema
# --------------------------------------------------------------------- #
class TestWireSchema:
    def _handle(self, body, path="/v1/programs", method="POST"):
        async def drive():
            service, gateway = await make_gateway()
            try:
                return await gateway.handle(method, path, auth("acme"), body)
            finally:
                await close_gateway(service, gateway)

        return run(drive())

    def test_invalid_json_is_400(self):
        status, _, payload = self._handle(b"{nope")
        assert status == 400 and payload["error"] == "bad_request"

    def test_bad_program_name_is_400(self):
        status, _, payload = self._handle(submit_body("no/slashes"))
        assert status == 400 and "name" in payload["message"]

    def test_unknown_app_is_400(self):
        status, _, payload = self._handle(submit_body("p", app="NotAnApp"))
        assert status == 400 and "app" in payload["message"]

    def test_app_and_source_are_mutually_exclusive(self):
        body = json.loads(submit_body("p"))
        body["source"] = "program x() {}"
        status, _, payload = self._handle(json.dumps(body).encode())
        assert status == 400 and "exactly one" in payload["message"]

    def test_nonpositive_deadline_is_400(self):
        status, _, payload = self._handle(submit_body("p", deadline_s=0))
        assert status == 400 and "deadline_s" in payload["message"]

    def test_missing_source_groups_is_400(self):
        body = {"name": "p", "app": "KVS", "destination_group": "pod0(b)"}
        status, _, payload = self._handle(json.dumps(body).encode())
        assert status == 400 and "source_groups" in payload["message"]

    def test_unroutable_groups_are_400(self):
        status, _, payload = self._handle(
            submit_body("p", source_groups=["nowhere"]))
        assert status == 400

    def test_deeply_nested_source_fails_at_the_frontend(self):
        body = json.loads(submit_body("p"))
        del body["app"]
        body["source"] = "x = " + "-" * 5000 + "1"
        status, _, payload = self._handle(json.dumps(body).encode())
        assert status == 200
        assert payload["succeeded"] is False
        assert payload["failed_stage"] == "frontend"
        assert "nests too deeply" in payload["error"]
        assert "recursion" not in payload["error"]


# --------------------------------------------------------------------- #
# authentication
# --------------------------------------------------------------------- #
class TestAuth:
    def test_key_lookup_paths(self):
        async def drive():
            service, gateway = await make_gateway()
            try:
                results = []
                for headers in (
                    {},                                  # no credentials
                    {"X-API-Key": "wrong"},              # unknown key
                    {"x-api-key": "k-acme"},             # case-insensitive
                    {"AUTHORIZATION": "Bearer k-acme"},  # bearer form
                ):
                    status, _, payload = await gateway.handle(
                        "GET", "/v1/programs", headers)
                    results.append((status, payload))
                return results
            finally:
                await close_gateway(service, gateway)

        results = run(drive())
        assert [status for status, _ in results] == [401, 401, 200, 200]

    def test_admin_endpoints_require_admin_key(self):
        async def drive():
            service, gateway = await make_gateway(admin_key="adm")
            try:
                denied = await gateway.handle("POST", "/v1/drain",
                                              auth("acme"))
                granted = await gateway.handle("POST", "/v1/drain",
                                               {"X-Admin-Key": "adm"})
                return denied[0], granted[0]
            finally:
                await close_gateway(service, gateway)

        assert run(drive()) == (403, 200)


# --------------------------------------------------------------------- #
# program lifecycle over the wire
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_submit_list_update_remove_roundtrip(self):
        async def drive():
            service, gateway = await make_gateway()
            try:
                headers = auth("acme")
                status, _, report = await gateway.handle(
                    "POST", "/v1/programs", headers, submit_body("kvs0"))
                assert status == 200 and report["succeeded"]
                assert report["program"] == "kvs0" and report["devices"]
                # the controller sees the tenant-prefixed name only
                assert "acme.kvs0" in service.deployed_programs()

                _, _, listing = await gateway.handle(
                    "GET", "/v1/programs", headers)
                assert listing == {"programs": ["kvs0"]}

                status, _, updated = await gateway.handle(
                    "POST", "/v1/programs/kvs0/update", headers,
                    json.dumps({"app": "KVS",
                                "performance": {"depth": 2000}}).encode())
                assert status == 200 and updated["succeeded"]

                status, _, removed = await gateway.handle(
                    "DELETE", "/v1/programs/kvs0", headers)
                assert status == 200 and removed == {"removed": "kvs0"}
                assert "acme.kvs0" not in service.deployed_programs()
            finally:
                await close_gateway(service, gateway)

        run(drive())

    def test_duplicate_name_is_409(self):
        async def drive():
            service, gateway = await make_gateway()
            try:
                await gateway.handle("POST", "/v1/programs", auth("acme"),
                                     submit_body("kvs0"))
                status, _, payload = await gateway.handle(
                    "POST", "/v1/programs", auth("acme"), submit_body("kvs0"))
                return status, payload["error"]
            finally:
                await close_gateway(service, gateway)

        assert run(drive()) == (409, "conflict")

    def test_tenants_cannot_see_each_others_programs(self):
        registry = make_registry(acme=(1.0, None), umbrella=(1.0, None))

        async def drive():
            service, gateway = await make_gateway(registry)
            try:
                await gateway.handle("POST", "/v1/programs", auth("acme"),
                                     submit_body("kvs0"))
                # same wire name deploys fine for the other tenant ...
                status, _, report = await gateway.handle(
                    "POST", "/v1/programs", auth("umbrella"),
                    submit_body("kvs0", pod=1))
                assert status == 200 and report["succeeded"]
                # ... and neither can remove (or even observe) the other's
                status, _, _ = await gateway.handle(
                    "DELETE", "/v1/programs/kvs0", auth("umbrella"))
                assert status == 200
                _, _, listing = await gateway.handle(
                    "GET", "/v1/programs", auth("acme"))
                assert listing == {"programs": ["kvs0"]}
            finally:
                await close_gateway(service, gateway)

        run(drive())

    def test_failed_update_is_reported_and_keeps_the_old_version(self):
        """An update the fabric cannot place answers like a failed submit
        (``200``, ``succeeded: false``), and the old version stays."""
        async def drive():
            service, gateway = await make_gateway()
            try:
                headers = auth("acme")
                await gateway.handle("POST", "/v1/programs", headers,
                                     submit_body("kvs0"))
                coordinator = service.coordinator
                old = coordinator.controller_for(
                    "acme.kvs0").deployed["acme.kvs0"]
                too_deep = json.dumps({
                    "app": "KVS", "performance": {"depth": 10 ** 7}}).encode()
                tor = coordinator.topology.host_group("pod0(a)").tor
                replies = [await gateway.handle(
                    "POST", "/v1/programs/kvs0/update", headers, too_deep)]
                await service.drain_device(tor)
                replies.append(await gateway.handle(
                    "POST", "/v1/programs/kvs0/update", headers,
                    json.dumps({"app": "KVS"}).encode()))
                for status, _, report in replies:
                    assert status == 200
                    assert report["program"] == "kvs0"
                    assert report["succeeded"] is False
                    assert report["failed_stage"] == "placement"
                    assert report["error"]
                _, _, listing = await gateway.handle(
                    "GET", "/v1/programs", headers)
                assert listing == {"programs": ["kvs0"]}
                assert coordinator.controller_for(
                    "acme.kvs0").deployed["acme.kvs0"] is old
            finally:
                await close_gateway(service, gateway)

        run(drive())

    def test_delete_does_not_wait_behind_queued_submits(self):
        """A wire ``DELETE`` goes to the service directly: it does not queue
        behind other tenants' submits waiting in the gateway scheduler."""
        registry = make_registry(
            a=(1.0, None), b=(1.0, TenantQuota(max_in_flight=6)))

        async def drive():
            service, gateway = await make_gateway(registry, wave=1)
            try:
                await gateway.handle("POST", "/v1/programs", auth("a"),
                                     submit_body("kvs0"))
                queued = [asyncio.ensure_future(gateway.handle(
                    "POST", "/v1/programs", auth("b"),
                    submit_body(f"p{i}", pod=1,
                                performance={"depth": 1000})))
                    for i in range(6)]
                await asyncio.sleep(0)      # every submit is enqueued
                status, _, removed = await gateway.handle(
                    "DELETE", "/v1/programs/kvs0", auth("a"))
                assert (status, removed) == (200, {"removed": "kvs0"})
                assert not queued[-1].done()
                for status, _, report in await asyncio.gather(*queued):
                    assert status == 200 and report["succeeded"]
            finally:
                await close_gateway(service, gateway)

        run(drive())


# --------------------------------------------------------------------- #
# quotas
# --------------------------------------------------------------------- #
class TestQuota:
    def test_quota_exhaustion_mid_wave_admits_exactly_the_quota(self):
        """Four concurrent submissions against max_programs=2: exactly two
        commit, no matter how the compile wave interleaves — reservations
        are taken before queueing, so the third submission already sees the
        first two."""
        registry = make_registry(
            acme=(1.0, TenantQuota(max_programs=2, max_in_flight=4)))

        async def drive():
            service, gateway = await make_gateway(registry)
            try:
                results = await asyncio.gather(
                    *(gateway.handle("POST", "/v1/programs", auth("acme"),
                                     submit_body(f"p{i}", pod=i % 4))
                      for i in range(4))
                )
                statuses = sorted(status for status, _, _ in results)
                _, _, listing = await gateway.handle(
                    "GET", "/v1/programs", auth("acme"))
                _, _, status_page = await gateway.handle(
                    "GET", "/v1/status", auth("acme"))
                return statuses, listing, status_page["counters"]
            finally:
                await close_gateway(service, gateway)

        statuses, listing, counters = run(drive())
        assert statuses == [200, 200, 403, 403]
        assert len(listing["programs"]) == 2
        assert counters["committed"] == 2
        assert counters["rejected_quota"] == 2

    def test_in_flight_ceiling(self):
        registry = make_registry(
            acme=(1.0, TenantQuota(max_programs=8, max_in_flight=1)))

        async def drive():
            service, gateway = await make_gateway(registry)
            try:
                first = asyncio.ensure_future(gateway.handle(
                    "POST", "/v1/programs", auth("acme"), submit_body("p0")))
                await asyncio.sleep(0)  # reserve before the second arrives
                status, _, payload = await gateway.handle(
                    "POST", "/v1/programs", auth("acme"),
                    submit_body("p1", pod=1))
                assert (status, payload["error"]) == (403, "quota_exceeded")
                status, _, _ = await first
                assert status == 200
            finally:
                await close_gateway(service, gateway)

        run(drive())

    def test_device_quota_blocks_until_removal(self):
        registry = make_registry(
            acme=(1.0, TenantQuota(max_programs=8, max_devices=2)))

        async def drive():
            service, gateway = await make_gateway(registry)
            try:
                status, _, report = await gateway.handle(
                    "POST", "/v1/programs", auth("acme"), submit_body("p0"))
                assert status == 200 and len(report["devices"]) >= 2
                status, _, payload = await gateway.handle(
                    "POST", "/v1/programs", auth("acme"),
                    submit_body("p1", pod=1))
                assert (status, payload["error"]) == (403, "quota_exceeded")
                await gateway.handle("DELETE", "/v1/programs/p0",
                                     auth("acme"))
                status, _, _ = await gateway.handle(
                    "POST", "/v1/programs", auth("acme"),
                    submit_body("p1", pod=1))
                assert status == 200
            finally:
                await close_gateway(service, gateway)

        run(drive())


    def test_device_usage_follows_updates(self):
        """``usage.devices`` is what the tenant's programs occupy now: an
        update that moves a program to fewer devices is counted as such."""
        async def drive():
            service, gateway = await make_gateway()
            try:
                headers = auth("acme")
                body = json.dumps({
                    "name": "kvs0", "app": "KVS",
                    "source_groups": ["pod0(a)", "pod1(a)"],
                    "destination_group": "pod2(b)"}).encode()
                _, _, report = await gateway.handle(
                    "POST", "/v1/programs", headers, body)
                _, _, page = await gateway.handle(
                    "GET", "/v1/status", headers)
                assert page["usage"]["devices"] == len(report["devices"])
                _, _, updated = await gateway.handle(
                    "POST", "/v1/programs/kvs0/update", headers,
                    json.dumps({"app": "DQAcc"}).encode())
                assert updated["succeeded"]
                assert len(updated["devices"]) < len(report["devices"])
                _, _, page = await gateway.handle(
                    "GET", "/v1/status", headers)
                assert page["usage"]["devices"] == len(updated["devices"])
            finally:
                await close_gateway(service, gateway)

        run(drive())


# --------------------------------------------------------------------- #
# the weighted-fair scheduler (stub dispatch: no pipeline involved)
# --------------------------------------------------------------------- #
class _Recorder:
    """Stub dispatch: records service order, optionally gated."""

    def __init__(self):
        self.order = []
        self.gate = asyncio.Event()
        self.gate.set()

    async def __call__(self, ticket):
        await self.gate.wait()
        self.order.append(ticket.tenant.tenant_id)
        return "ok"


def make_tenant(tenant_id: str, weight: float) -> Tenant:
    return Tenant(tenant_id=tenant_id, api_key=f"k-{tenant_id}",
                  weight=weight)


async def settle():
    for _ in range(10):
        await asyncio.sleep(0)


class TestWeightedFairScheduler:
    def test_drr_serves_proportionally_to_weights(self):
        async def drive():
            recorder = _Recorder()
            sched = WeightedFairScheduler(recorder, capacity=0, wave=7)
            a, b, c = (make_tenant(t, w)
                       for t, w in (("a", 4.0), ("b", 2.0), ("c", 1.0)))
            futures = []
            for tenant, count in ((a, 12), (b, 6), (c, 3)):
                futures.extend(sched.enqueue("lane", tenant, object())
                               for _ in range(count))
            await asyncio.gather(*futures)
            await sched.close()
            return recorder.order

        order = run(drive())
        assert len(order) == 21
        # each 7-wide DRR round serves exactly 4:2:1
        for start in range(0, 21, 7):
            window = order[start:start + 7]
            assert (window.count("a"), window.count("b"),
                    window.count("c")) == (4, 2, 1)

    def test_narrow_wave_does_not_starve_light_tenants(self):
        """With a wave *narrower* than a full DRR round (weights 4:2:1 need
        7 serves), the rotation must persist across batches — restarting it
        every batch would let the heavy tenant's fresh grant fill every
        wave and starve the rest.  Cumulative service at full-round
        multiples is exact regardless of the wave width."""
        async def drive():
            recorder = _Recorder()
            sched = WeightedFairScheduler(recorder, capacity=0, wave=4)
            a, b, c = (make_tenant(t, w)
                       for t, w in (("a", 4.0), ("b", 2.0), ("c", 1.0)))
            futures = []
            for tenant, count in ((a, 12), (b, 6), (c, 3)):
                futures.extend(sched.enqueue("lane", tenant, object())
                               for _ in range(count))
            await asyncio.gather(*futures)
            await sched.close()
            return recorder.order

        order = run(drive())
        for rounds in (1, 2, 3):
            window = order[:7 * rounds]
            assert (window.count("a"), window.count("b"),
                    window.count("c")) == (4 * rounds, 2 * rounds, rounds)

    def test_zero_weight_tenant_is_best_effort_only(self):
        async def drive():
            recorder = _Recorder()
            sched = WeightedFairScheduler(recorder, capacity=0, wave=4)
            weighted = make_tenant("w", 1.0)
            zero = make_tenant("z", 0.0)
            futures = [sched.enqueue("lane", zero, object())
                       for _ in range(3)]
            futures += [sched.enqueue("lane", weighted, object())
                        for _ in range(2)]
            await asyncio.gather(*futures)
            await sched.close()
            return recorder.order

        order = run(drive())
        # despite enqueueing first, the zero-weight tenant only fills
        # capacity the weighted tenant left unused
        assert order == ["w", "w", "z", "z", "z"]

    def test_backpressure_when_lane_is_full(self):
        async def drive():
            recorder = _Recorder()
            recorder.gate.clear()      # nothing dispatches
            sched = WeightedFairScheduler(recorder, capacity=2, wave=2)
            tenant = make_tenant("a", 1.0)
            futures = [sched.enqueue("lane", tenant, object())
                       for _ in range(2)]
            with pytest.raises(WireError) as excinfo:
                sched.enqueue("lane", tenant, object())
            err = excinfo.value
            recorder.gate.set()
            await asyncio.gather(*futures)
            await sched.close()
            return err

        err = run(drive())
        assert err.status == 429 and err.code == "backpressure"
        assert err.retry_after and err.retry_after > 0

    def test_backpressure_releases_after_drain(self):
        async def drive():
            recorder = _Recorder()
            recorder.gate.clear()
            sched = WeightedFairScheduler(recorder, capacity=2, wave=2)
            tenant = make_tenant("a", 1.0)
            futures = [sched.enqueue("lane", tenant, object())
                       for _ in range(2)]
            with pytest.raises(WireError):
                sched.enqueue("lane", tenant, object())
            recorder.gate.set()
            await sched.drain()        # every admitted ticket resolved
            assert all(f.done() for f in futures)
            late = sched.enqueue("lane", tenant, object())
            result = await late
            await sched.close()
            return result

        assert run(drive()) == "ok"

    def test_heavier_tenant_sheds_lightest_queued_ticket(self):
        async def drive():
            recorder = _Recorder()
            recorder.gate.clear()
            sched = WeightedFairScheduler(recorder, capacity=2, wave=2)
            light = make_tenant("light", 0.0)
            heavy = make_tenant("heavy", 2.0)
            light_futures = [sched.enqueue("lane", light, object())
                             for _ in range(2)]
            heavy_future = sched.enqueue("lane", heavy, object())
            # the light tenant's newest ticket was shed with 503 ...
            with pytest.raises(WireError) as excinfo:
                await light_futures[1]
            assert excinfo.value.status == 503
            assert excinfo.value.code == "shed"
            assert light.counters.shed == 1
            recorder.gate.set()
            # ... its older ticket and the heavy tenant's still serve
            assert await light_futures[0] == "ok"
            assert await heavy_future == "ok"
            await sched.close()

        run(drive())

    def test_equal_weight_tenants_never_shed_each_other(self):
        async def drive():
            recorder = _Recorder()
            recorder.gate.clear()
            sched = WeightedFairScheduler(recorder, capacity=1, wave=1)
            a, b = make_tenant("a", 1.0), make_tenant("b", 1.0)
            future = sched.enqueue("lane", a, object())
            with pytest.raises(WireError) as excinfo:
                sched.enqueue("lane", b, object())
            assert excinfo.value.code == "backpressure"
            recorder.gate.set()
            await future
            await sched.close()

        run(drive())

    def test_shedding_never_touches_dispatched_work(self):
        async def drive():
            recorder = _Recorder()
            recorder.gate.clear()
            sched = WeightedFairScheduler(recorder, capacity=1, wave=1)
            light = make_tenant("light", 0.0)
            heavy = make_tenant("heavy", 2.0)
            dispatched = sched.enqueue("lane", light, object())
            await settle()             # pump pops it; blocked in dispatch
            queued = sched.enqueue("lane", light, object())
            heavy_future = sched.enqueue("lane", heavy, object())
            with pytest.raises(WireError) as excinfo:
                await queued           # the queued ticket was shed ...
            assert excinfo.value.code == "shed"
            recorder.gate.set()
            # ... but the dispatched one runs to completion
            assert await dispatched == "ok"
            assert await heavy_future == "ok"
            await sched.close()

        run(drive())


# --------------------------------------------------------------------- #
# deadlines
# --------------------------------------------------------------------- #
class TestDeadlines:
    def test_deadline_expired_while_queued_is_504(self):
        async def drive():
            service, gateway = await make_gateway()
            tenant = gateway.registry.get("acme")
            try:
                gateway.ledger.reserve(tenant, "late")
                ticket = AdmissionTicket(
                    tenant=tenant, request=object(), lane="default",
                    future=asyncio.get_running_loop().create_future(),
                    deadline=time.monotonic() - 1.0,
                )
                with pytest.raises(WireError) as excinfo:
                    await gateway._dispatch(ticket)
                assert excinfo.value.status == 504
                assert tenant.counters.deadline_expired == 1
                usage = gateway.ledger.usage_summary(tenant)
                assert usage["in_flight"] == 0   # reservation released
            finally:
                await close_gateway(service, gateway)

        run(drive())

    def test_service_wave_fast_fails_expired_admissions(self):
        from tests.test_service import tenant_request

        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                report = await svc.submit(tenant_request(0, "late"),
                                          deadline=time.monotonic() - 1.0)
                return report, svc.stats.summary()

        report, summary = run(drive())
        assert not report.succeeded
        assert report.failed_stage == "deadline"
        assert summary["deadline_expired"] == 1

    def test_deadline_between_prepare_and_commit_aborts_2pc(self):
        """A deadline passing in the window between a clean prepare vote and
        the commit wave aborts the 2PC residue-free: the submitter gets 504,
        nothing is deployed anywhere, and the same name resubmits cleanly."""
        async def drive():
            service, gateway = await make_gateway()
            coord = service.coordinator
            coord._post_prepare_hook = lambda: time.sleep(0.08)
            body = submit_body("xpod", source_groups=["pod1(a)", "pod2(a)"],
                               destination_group="pod3(b)", app="MLAgg",
                               deadline_s=0.05)
            try:
                status, _, payload = await gateway.handle(
                    "POST", "/v1/programs", auth("acme"), body)
                assert status == 504
                assert payload["error"] == "deadline_expired"
                assert coord.stats.deadline_aborts == 1
                # residue-free: no shard holds any piece of the program
                for shard in coord.shards.values():
                    assert not shard.controller.deployed_programs()
                tenant = gateway.registry.get("acme")
                assert tenant.counters.deadline_expired == 1
                assert gateway.ledger.usage_summary(tenant)["in_flight"] == 0
                # the claim was released too: the name is reusable at once
                coord._post_prepare_hook = None
                status, _, report = await gateway.handle(
                    "POST", "/v1/programs", auth("acme"), body)
                assert status == 200 and report["succeeded"]
            finally:
                await close_gateway(service, gateway)

        run(drive())

    def test_deadline_before_prepare_aborts_without_taking_locks(self):
        async def drive():
            service, gateway = await make_gateway()
            coord = service.coordinator
            coord._pre_prepare_hook = lambda: time.sleep(0.08)
            body = submit_body("xpod", source_groups=["pod1(a)", "pod2(a)"],
                               destination_group="pod3(b)", app="MLAgg",
                               deadline_s=0.05)
            try:
                status, _, payload = await gateway.handle(
                    "POST", "/v1/programs", auth("acme"), body)
                assert status == 504
                assert payload["error"] == "deadline_expired"
                assert coord.stats.deadline_aborts == 1
            finally:
                await close_gateway(service, gateway)

        run(drive())


# --------------------------------------------------------------------- #
# the HTTP layer
# --------------------------------------------------------------------- #
class TestHTTPServer:
    def test_keep_alive_roundtrips_over_a_real_socket(self):
        async def drive():
            service, gateway = await make_gateway()
            try:
                async with GatewayHTTPServer(gateway, port=0) as http:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", http.port)
                    responses = []
                    for request in (
                        ("GET", "/v1/programs", b""),
                        ("GET", "/v1/status", b""),
                    ):
                        method, path, body = request
                        writer.write(
                            f"{method} {path} HTTP/1.1\r\n"
                            f"Authorization: Bearer k-acme\r\n"
                            f"Content-Length: {len(body)}\r\n"
                            f"\r\n".encode() + body)
                        await writer.drain()
                        status_line = await reader.readline()
                        headers = {}
                        while True:
                            line = await reader.readline()
                            if line in (b"\r\n", b"\n"):
                                break
                            name, _, value = line.decode().partition(":")
                            headers[name.strip().lower()] = value.strip()
                        payload = json.loads(await reader.readexactly(
                            int(headers["content-length"])))
                        responses.append((status_line.split()[1], payload))
                    writer.close()
                    return responses
            finally:
                await close_gateway(service, gateway)

        responses = run(drive())
        assert responses[0] == (b"200", {"programs": []})
        assert responses[1][0] == b"200"
        assert responses[1][1]["tenant"] == "acme"

    @staticmethod
    async def answered_then_closed(bad_head: str):
        """Send *bad_head* (plus auth and the blank line) on one connection
        and a plain list request on the next; each reply is ``(status, head
        lower-cased, JSON body)``, read to the EOF the server must send."""

        async def exchange(port, head):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write((head + "Authorization: Bearer k-acme\r\n"
                          "Connection: close\r\n\r\n").encode())
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5)  # to EOF
            writer.close()
            reply_head, _, body = raw.partition(b"\r\n\r\n")
            return reply_head.split()[1], reply_head.lower(), json.loads(body)

        service, gateway = await make_gateway()
        try:
            async with GatewayHTTPServer(gateway, port=0) as http:
                bad = await exchange(http.port, bad_head)
                good = await exchange(
                    http.port, "GET /v1/programs HTTP/1.1\r\n")
                return bad, good
        finally:
            await close_gateway(service, gateway)

    @pytest.mark.parametrize("length, status, error", [
        ("abc", b"400", "bad_request"),
        ("-1", b"400", "bad_request"),
        ("over-the-cap", b"413", "payload_too_large"),
    ])
    def test_bad_content_length_is_answered_then_closed(self, length, status,
                                                        error):
        """A non-integer, negative or oversized Content-Length gets its
        status (no body is ever buffered), the connection is closed, and
        the server keeps serving the next connection."""
        from repro.gateway.server import MAX_BODY_BYTES

        if length == "over-the-cap":
            length = str(MAX_BODY_BYTES + 1)

        (bad_status, bad_head, bad_payload), good = run(
            self.answered_then_closed("GET /v1/programs HTTP/1.1\r\n"
                                      f"Content-Length: {length}\r\n"))
        assert bad_status == status
        assert bad_payload["error"] == error
        assert b"connection: close" in bad_head
        assert good[0] == b"200" and good[2] == {"programs": []}

    @pytest.mark.parametrize("head", [
        "GET /v1/programs HTTP/1.1\r\nX-Big: " + "a" * 70000 + "\r\n",
        "GET /v1/programs?" + "a" * 70000 + " HTTP/1.1\r\n",
        "GET /v1/programs HTTP/1.1\r\n" + "".join(  # 99 + the helper's 2
            f"X-H{i}: v\r\n" for i in range(99)),
    ], ids=["header-line", "request-line", "header-count"])
    def test_oversized_head_is_answered_then_closed(self, head):
        """A request or header line past the stream limit, or a 101st
        header, gets 431 (not a dead connection task), the connection is
        closed, and the server keeps serving the next connection."""
        (bad_status, bad_head, bad_payload), good = run(
            self.answered_then_closed(head))
        assert bad_status == b"431"
        assert bad_payload["error"] == "request_header_fields_too_large"
        assert b"connection: close" in bad_head
        assert good[0] == b"200" and good[2] == {"programs": []}

    @staticmethod
    async def with_server(exchange):
        """Run ``exchange(port)`` against a fresh gateway server."""
        service, gateway = await make_gateway()
        try:
            async with GatewayHTTPServer(gateway, port=0) as http:
                return await exchange(http.port)
        finally:
            await close_gateway(service, gateway)

    @pytest.mark.parametrize("partial", [
        "GET /v1/prog",
        "GET /v1/programs HTTP/1.1\r\nAuthorization: Bearer k-acme\r\n",
        "POST /v1/programs HTTP/1.1\r\nAuthorization: Bearer k-acme\r\n"
        "Content-Length: 10\r\n\r\n{\"na",
    ], ids=["request-line", "headers", "body"])
    def test_stalled_request_gets_408_then_eof(self, monkeypatch, partial):
        """A client that stops mid-request is answered 408 once the bound
        from the request's first byte passes, and the connection closes."""
        monkeypatch.setattr(server_module, "REQUEST_READ_TIMEOUT_S", 0.2)

        async def exchange(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(partial.encode())
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5)  # to EOF
            writer.close()
            return raw

        raw = run(self.with_server(exchange))
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split()[1] == b"408"
        assert b"connection: close" in head.lower()
        assert json.loads(body)["error"] == "request_timeout"

    def test_idle_keep_alive_connection_is_not_timed_out(self, monkeypatch):
        """The bound starts at a request's first byte: a connection idle for
        longer than it between requests is still served."""
        monkeypatch.setattr(server_module, "REQUEST_READ_TIMEOUT_S", 0.2)

        async def exchange(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await asyncio.sleep(0.3)
            writer.write(b"GET /v1/programs HTTP/1.1\r\n"
                         b"Authorization: Bearer k-acme\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            return raw

        raw = run(self.with_server(exchange))
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split()[1] == b"200"
        assert json.loads(body) == {"programs": []}
