#!/usr/bin/env python3
"""The asyncio service runtime: mixed deploy / remove traffic.

An `INCService` is ClickINC as an always-on service: tenants submit and
remove programs concurrently through an asyncio API.  Submissions that queue
while a wave runs form the next wave (compiled first, committed in admission
order); removals are serialised through the commit phase, so every
interleaving produces exactly the placements of the equivalent serial
schedule.  Committed plans are stored in the plan cache under the allocation
state they were placed against — re-submitting a tenant after a removal is
served from the cache without re-running the placement search.

Run with:  PYTHONPATH=src python examples/async_service.py
"""

import asyncio

from repro.core import DeployRequest, INCService
from repro.lang.profile import default_profile
from repro.topology import build_fattree


def tenant(pod: int, user: str, app: str = "KVS") -> DeployRequest:
    """One intra-pod tenant: pod<pod>(a) -> pod<pod>(b)."""
    return DeployRequest(
        source_groups=[f"pod{pod}(a)"],
        destination_group=f"pod{pod}(b)",
        name=f"{app.lower()}_{user}",
        profile=default_profile(app, user=user),
    )


async def main() -> None:
    async with INCService(build_fattree(k=8), max_wave=8) as svc:
        # --- a burst of concurrent submissions: one wave -------------------
        print("submitting 6 tenants concurrently...")
        reports = await asyncio.gather(
            *(svc.submit(tenant(pod, f"u{pod}")) for pod in range(6))
        )
        for report in reports:
            print(
                f"  {report.program_name:10s} ok={report.succeeded} "
                f"devices={report.deployed.devices()}"
            )

        # --- plan cache: resubmission hits warm ---------------------------
        # removing the last-committed tenant restores exactly the allocation
        # state its stored plan was keyed under, so the
        # equivalent re-submission is served from the plan cache without
        # re-running the placement search.
        print("\nremove kvs_u5, then re-submit an equivalent pod-5 tenant...")
        await svc.remove("kvs_u5")
        report = await svc.submit(tenant(5, "u5b"))
        placement = report.stage("placement")
        print(
            f"  {report.program_name}: placement cache_hit="
            f"{placement.cache_hit} (stored plan)"
        )

        # --- mixed traffic: removals racing new submissions --------------
        # admission order rules: kvs_u0 is removed before kvs_new is
        # admitted, so the new tenant may reuse the freed capacity —
        # exactly as the equivalent serial schedule would.
        print("\nremoving kvs_u0 / kvs_u1 while submitting a new tenant...")
        await asyncio.gather(
            svc.remove("kvs_u0"),
            svc.remove("kvs_u1"),
            svc.submit(tenant(0, "new")),
        )
        print("  deployed now:", ", ".join(svc.deployed_programs()))

        await svc.drain()
        print("\nservice stats:", svc.service_summary())


if __name__ == "__main__":
    asyncio.run(main())
