"""Sustained-throughput benchmark for the asyncio service runtime.

Two service-shaped measurements on top of :class:`repro.core.INCService`:

1. **Plan-cache reuse across a remove / re-submit cycle** — the content is
   seen once (the cache admits a plan on its content's second sight), then
   waves of disjoint tenants are submitted concurrently, every tenant is
   removed, and equivalent tenants are re-submitted: each re-submission's
   consulted devices are back in the state a stored plan was keyed on (the
   removals restored it), so all of them must be placement cache hits.  The
   whole script also yields the sustained operations-per-second figure.

2. **Interleaved equivalence** — a mixed submit/remove script admitted
   through the async API must produce placements identical to the
   equivalent serial schedule.

Shape to preserve: 100% plan-cache hits on ordered re-submission; identical
placements under interleaving.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict

from benchmarks.conftest import print_table, tenant_request
from repro.core import ClickINC, INCService
from repro.topology import build_fattree

#: Pods in the benchmark fat-tree (k=8 -> pods 0..7).
POD_COUNT = 8

#: Tenants submitted concurrently per wave, and the number of waves.
WAVE_SIZE = 2
WAVES = 3


async def _drive_sustained() -> Dict[str, object]:
    total_ops = 0
    run_start = time.perf_counter()
    async with INCService(build_fattree(k=POD_COUNT)) as svc:
        # the content's first sight, which stores no plan
        assert (await svc.submit(tenant_request(0, "prime"))).succeeded
        await svc.remove("kvs_prime")
        total_ops += 2
        # phase 1: concurrent waves of disjoint tenants
        for wave_index in range(WAVES):
            pods = range(WAVE_SIZE * wave_index, WAVE_SIZE * (wave_index + 1))
            reports = await asyncio.gather(*(
                svc.submit(tenant_request(pod, f"w{wave_index}p{pod}"))
                for pod in pods))
            assert all(r.succeeded for r in reports)
            total_ops += WAVE_SIZE

        # phase 2: remove everything, then re-submit equivalent tenants in
        # admission order — every commit happens against a state some
        # stored plan was keyed on, so placements come from the plan cache
        deployed = list(svc.deployed_programs())
        for name in deployed:
            await svc.remove(name)
        total_ops += len(deployed)
        hits = 0
        for pod in range(len(deployed)):
            report = await svc.submit(tenant_request(pod, f"r{pod}"))
            assert report.succeeded
            if report.stage("placement").cache_hit:
                hits += 1
        total_ops += len(deployed)
    sustained_s = time.perf_counter() - run_start
    return {
        "resubmit_hits": hits,
        "resubmit_n": len(deployed),
        "sustained_ops": total_ops,
        "sustained_s": sustained_s,
        "sustained_rps": total_ops / sustained_s,
    }


async def _drive_interleaved() -> Dict[str, object]:
    script = [
        ("submit", 0, "i0"),
        ("submit", 1, "i1"),
        ("remove", None, "kvs_i0"),
        ("submit", 0, "i2"),
        ("submit", 2, "i3"),
        ("remove", None, "kvs_i1"),
    ]
    async with INCService(build_fattree(k=4)) as svc:
        futures = []
        for kind, pod, payload in script:
            if kind == "submit":
                futures.append(
                    asyncio.ensure_future(
                        svc.submit(tenant_request(pod, payload))
                    )
                )
            else:
                futures.append(asyncio.ensure_future(svc.remove(payload)))
        await asyncio.gather(*futures)
        got = {
            name: svc.controller.deployed[name].devices()
            for name in svc.deployed_programs()
        }

    serial = ClickINC(build_fattree(k=4))
    for kind, pod, payload in script:
        if kind == "submit":
            serial.deploy_many([tenant_request(pod, payload)])
        else:
            serial.remove(payload)
    ref = {
        name: serial.deployed[name].devices()
        for name in serial.deployed_programs()
    }
    return {"n_ops": len(script), "identical_placements": got == ref}


def run_all() -> Dict[str, object]:
    return {
        "sustained": asyncio.run(_drive_sustained()),
        "interleaved": asyncio.run(_drive_interleaved()),
    }


def test_async_service(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    sustained = results["sustained"]
    print_table(
        "INCService — submit waves, remove all, re-submit",
        ["wave size", "waves", "resubmit hits", "ops", "ops/s"],
        [
            (
                WAVE_SIZE,
                WAVES,
                f"{sustained['resubmit_hits']}/{sustained['resubmit_n']}",
                sustained["sustained_ops"],
                f"{sustained['sustained_rps']:.2f}",
            )
        ],
    )
    interleaved = results["interleaved"]
    print_table(
        "INCService — interleaved submit/remove vs serial schedule",
        ["ops", "identical to serial"],
        [(interleaved["n_ops"], interleaved["identical_placements"])],
    )

    assert sustained["resubmit_hits"] == sustained["resubmit_n"], (
        "re-submissions after remove must hit the plan cache"
    )
    assert interleaved["identical_placements"]
