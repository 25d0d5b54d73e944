"""Tests for the asyncio service runtime (:mod:`repro.core.service`).

Covers the admission-queue semantics — wave batching, remove() serialised
through the commit phase, drain-on-close — and the acceptance property that
any async interleaving of submit/remove produces placements identical to the
equivalent serial schedule.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import ClickINC, DeployRequest, INCService
from repro.exceptions import DeploymentError
from repro.lang.profile import default_profile
from repro.sharding import ShardCoordinator
from repro.topology import build_fattree


def tenant_request(pod: int, user: str) -> DeployRequest:
    profile = default_profile("KVS", user=user)
    profile.performance["depth"] = 1000
    return DeployRequest(
        source_groups=[f"pod{pod}(a)"],
        destination_group=f"pod{pod}(b)",
        name=f"kvs_{user}",
        profile=profile,
    )


def deployed_devices(controller: ClickINC):
    """name -> devices map of everything deployed on *controller*."""
    return {
        name: controller.deployed[name].devices()
        for name in controller.deployed_programs()
    }


def run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------------- #
# basic service API
# --------------------------------------------------------------------- #
class TestServiceBasics:
    def test_gathered_submits_match_serial_placements(self):
        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                reports = await asyncio.gather(
                    *(svc.submit(tenant_request(pod, f"p{pod}"))
                      for pod in range(3))
                )
                return reports, deployed_devices(svc.controller)

        reports, got = run(drive())
        assert all(r.succeeded for r in reports)

        serial = ClickINC(build_fattree(k=4))
        serial.deploy_many(
            [tenant_request(pod, f"p{pod}") for pod in range(3)]
        )
        assert got == deployed_devices(serial)

    def test_concurrent_submits_batch_into_waves(self):
        async def drive():
            async with INCService(build_fattree(k=4),
                                  max_wave=8) as svc:
                await asyncio.gather(
                    *(svc.submit(tenant_request(pod, f"w{pod}"))
                      for pod in range(4))
                )
                return svc.stats.summary()

        summary = run(drive())
        assert summary["submitted"] == 4
        # gathered submissions coalesce: strictly fewer waves than requests
        assert summary["waves"] < 4
        assert summary["max_wave"] >= 2

    def test_submit_failure_is_reported_not_raised(self):
        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                bad = DeployRequest(
                    source_groups=["pod0(a)"], destination_group="pod0(b)",
                    name="bad", source="this is ( not a program",
                )
                ok = tenant_request(1, "ok")
                return await asyncio.gather(svc.submit(bad), svc.submit(ok))

        bad_report, ok_report = run(drive())
        assert not bad_report.succeeded
        assert bad_report.failed_stage == "frontend"
        assert ok_report.succeeded

    def test_remove_unknown_program_raises(self):
        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                with pytest.raises(DeploymentError):
                    await svc.remove("never_deployed")

        run(drive())

    def test_service_over_existing_controller_shares_state(self):
        controller = ClickINC(build_fattree(k=4))
        controller.deploy_profile(
            default_profile("KVS", user="sync"),
            source_groups=["pod0(a)"], destination_group="pod0(b)",
            name="kvs_sync",
        )

        async def drive():
            async with INCService(controller) as svc:
                await svc.submit(tenant_request(1, "async"))
                await svc.remove("kvs_sync")
                return svc.deployed_programs()

        deployed = run(drive())
        assert deployed == ["kvs_async"]
        assert controller.deployed_programs() == ["kvs_async"]
        controller.close()


# --------------------------------------------------------------------- #
# interleavings: remove() serialised through the commit phase
# --------------------------------------------------------------------- #
class TestInterleavings:
    def test_submit_racing_remove_is_serial_equivalent(self):
        """A submission admitted before a removal of a program sharing its
        devices must commit against the un-removed topology — exactly the
        serial schedule [deploy a, deploy b, remove a]."""
        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                await svc.submit(tenant_request(0, "a"))
                # admission order is creation order: submit(b) enqueues
                # before remove(a), so b commits while a still holds pod-0
                # resources even though both run "concurrently"
                submit_b = asyncio.ensure_future(
                    svc.submit(tenant_request(0, "b"))
                )
                remove_a = asyncio.ensure_future(svc.remove("kvs_a"))
                report_b, _ = await asyncio.gather(submit_b, remove_a)
                return report_b, deployed_devices(svc.controller)

        report_b, got = run(drive())
        assert report_b.succeeded

        serial = ClickINC(build_fattree(k=4))
        serial.deploy_many([tenant_request(0, "a")])
        serial.deploy_many([tenant_request(0, "b")])
        serial.remove("kvs_a")
        assert got == deployed_devices(serial)

    def test_remove_admitted_first_frees_capacity_for_later_submit(self):
        """The mirrored order — remove(a) admitted before submit(b) — must
        produce the serial schedule [deploy a, remove a, deploy b]."""
        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                await svc.submit(tenant_request(0, "a"))
                remove_a = asyncio.ensure_future(svc.remove("kvs_a"))
                submit_b = asyncio.ensure_future(
                    svc.submit(tenant_request(0, "b"))
                )
                _, report_b = await asyncio.gather(remove_a, submit_b)
                return report_b, deployed_devices(svc.controller)

        report_b, got = run(drive())
        assert report_b.succeeded

        serial = ClickINC(build_fattree(k=4))
        serial.deploy_many([tenant_request(0, "a")])
        serial.remove("kvs_a")
        serial.deploy_many([tenant_request(0, "b")])
        assert got == deployed_devices(serial)

    def test_mixed_traffic_matches_equivalent_serial_schedule(self):
        """A longer script of interleaved submits and removes, admitted in a
        known order, must reproduce the serial schedule's placements."""
        script = [
            ("submit", tenant_request(0, "s0")),
            ("submit", tenant_request(1, "s1")),
            ("remove", "kvs_s0"),
            ("submit", tenant_request(0, "s2")),
            ("submit", tenant_request(2, "s3")),
            ("remove", "kvs_s1"),
        ]

        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                futures = []
                for kind, payload in script:
                    if kind == "submit":
                        futures.append(
                            asyncio.ensure_future(svc.submit(payload))
                        )
                    else:
                        futures.append(
                            asyncio.ensure_future(svc.remove(payload))
                        )
                await asyncio.gather(*futures)
                return deployed_devices(svc.controller)

        got = run(drive())

        serial = ClickINC(build_fattree(k=4))
        for kind, payload in script:
            if kind == "submit":
                serial.deploy_many([payload])
            else:
                serial.remove(payload)
        assert got == deployed_devices(serial)


# --------------------------------------------------------------------- #
# the plan cache through the service
# --------------------------------------------------------------------- #
class TestServicePlanCache:
    def test_plan_cache_hit_on_resubmission_after_remove(self):
        """A committed plan is stored under its content address;
        re-submitting after a removal restores the keyed state and must hit
        warm (the acceptance criterion)."""
        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                first = await asyncio.gather(
                    svc.submit(tenant_request(0, "a")),
                    svc.submit(tenant_request(1, "b")),
                    svc.submit(tenant_request(2, "c")),
                )
                assert all(r.succeeded for r in first)
                await svc.remove("kvs_c")
                resubmit, _ = await asyncio.gather(
                    svc.submit(tenant_request(2, "c2")),
                    svc.submit(tenant_request(3, "d")),
                )
                return first, resubmit

        first, resubmit = run(drive())
        assert not any(r.stage("placement").cache_hit for r in first)
        assert resubmit.succeeded
        assert resubmit.stage("placement").cache_hit


# --------------------------------------------------------------------- #
# lifecycle: drain-on-close
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_close_drains_queued_submissions(self):
        async def drive():
            svc = INCService(build_fattree(k=4))
            futures = [
                asyncio.ensure_future(svc.submit(tenant_request(pod, f"d{pod}")))
                for pod in range(3)
            ]
            # let the submissions reach the admission queue, then close
            await asyncio.sleep(0)
            await svc.close()
            reports = await asyncio.gather(*futures)
            return reports, svc.deployed_programs()

        reports, deployed = run(drive())
        assert all(r.succeeded for r in reports)
        assert deployed == ["kvs_d0", "kvs_d1", "kvs_d2"]

    def test_submit_after_close_raises(self):
        async def drive():
            svc = INCService(build_fattree(k=4))
            async with svc:
                await svc.submit(tenant_request(0, "one"))
            with pytest.raises(DeploymentError):
                await svc.submit(tenant_request(1, "late"))

        run(drive())

    def test_close_is_idempotent(self):
        async def drive():
            svc = INCService(build_fattree(k=4))
            async with svc:
                await svc.submit(tenant_request(0, "x"))
            await svc.close()
            await svc.close()

        run(drive())

    def test_owned_controller_is_closed_on_close(self, monkeypatch):
        """A service that built its coordinator closes it (and with it its
        controllers); one handed a controller leaves closing to its owner."""
        closed = []
        for cls in (ShardCoordinator, ClickINC):
            def counting_close(self, _close=cls.close):
                closed.append(self)
                _close(self)
            monkeypatch.setattr(cls, "close", counting_close)

        async def drive():
            async with INCService(build_fattree(k=4)) as svc:
                await svc.submit(tenant_request(0, "own"))
            owned = svc
            controller = ClickINC(build_fattree(k=4))
            async with INCService(controller) as svc:
                await svc.submit(tenant_request(0, "lent"))
            return owned, svc

        owned, borrowed = run(drive())
        assert owned.coordinator in closed
        assert owned.controller in closed
        assert borrowed.coordinator not in closed
        assert borrowed.controller not in closed
