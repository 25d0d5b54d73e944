"""Gateway QoS benchmark (wire-level multi-tenant gateway PR).

Two scenarios on the 4-pod fat-tree, all tenants contending for the same
admission lane (pod0), driven end-to-end through ``Gateway.handle`` — the
same code path the HTTP server serves:

1. **Weighted fairness under saturation** — tenants with weights 4:2:1
   burst proportional backlogs into one lane and the benchmark records the
   *dispatch* order (the deficit-round-robin output).  Over full DRR
   rounds the served shares must match the configured weights; the gate
   bounds the worst per-tenant share error.  The wave is deliberately
   narrower than a full round, so this also exercises the cross-batch
   rotation state (a scheduler that restarts its round every batch lets
   the heavy tenant starve the rest — a bug this benchmark would catch).

2. **Overload: backpressure + load-shedding** — a zero-weight tenant
   first *commits* a program, then fills the bounded lane; weighted
   tenants burst into the full queue.  The storm must shed the
   zero-weight tenant's queued tickets (503) and push back the rest
   (429 + Retry-After), and — the property the gate cares about — **no
   committed program is ever dropped**: everything that answered 200
   is still deployed after the storm, including the pre-storm commit.

Shape to preserve: dispatch shares within ``max_gateway_share_error`` of
the weights; at least one shed and one backpressure rejection under
overload; ``dropped_committed == 0`` always.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

# allow `python benchmarks/bench_gateway_qos.py` from the repository root
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.conftest import print_table  # noqa: E402
from repro.core.service import INCService
from repro.gateway import Gateway, TenantQuota, TenantRegistry
from repro.topology import build_fattree

#: (tenant, weight, burst size) for the fairness scenario — bursts are
#: proportional to weights so every tenant stays backlogged through the
#: measurement window.
FAIRNESS_TENANTS: Tuple[Tuple[str, float, int], ...] = (
    ("a", 4.0, 16), ("b", 2.0, 8), ("c", 1.0, 4),
)

#: Dispatches measured: 3 full DRR rounds of the 4+2+1 weight total.
FAIRNESS_WINDOW = 21

#: Scheduler wave for the fairness run — narrower than the 7-serve round.
FAIRNESS_WAVE = 4

#: Bounded lane capacity for the overload scenario.
OVERLOAD_CAPACITY = 6


def _registry(tenants) -> TenantRegistry:
    registry = TenantRegistry()
    unlimited = TenantQuota(max_programs=0, max_devices=0, max_in_flight=0)
    for tenant_id, weight, _count in tenants:
        registry.register(tenant_id, api_key=f"k-{tenant_id}", weight=weight,
                          quota=unlimited)
    return registry


def _submit_body(name: str) -> bytes:
    return json.dumps({
        "name": name,
        "app": "KVS",
        "source_groups": ["pod0(a)"],
        "destination_group": "pod0(b)",
        "performance": {"depth": 1000},
    }).encode()


def _auth(tenant_id: str) -> Dict[str, str]:
    return {"X-API-Key": f"k-{tenant_id}"}


def _log_dispatches(gateway: Gateway) -> List[str]:
    """Record the scheduler's dispatch order (= the DRR output)."""
    log: List[str] = []
    inner = gateway.scheduler._dispatch

    async def logging_dispatch(ticket):
        log.append(ticket.tenant.tenant_id)
        return await inner(ticket)

    gateway.scheduler._dispatch = logging_dispatch
    return log


# --------------------------------------------------------------------- #
# scenario 1: weighted fairness under saturation
# --------------------------------------------------------------------- #
async def _drive_fairness() -> Dict[str, object]:
    registry = _registry(FAIRNESS_TENANTS)
    async with INCService(build_fattree(k=4), sharded=True) as service:
        gateway = Gateway(service, registry, queue_capacity=0,
                          wave=FAIRNESS_WAVE)
        dispatch_log = _log_dispatches(gateway)

        async def submit_then_remove(tenant_id: str, index: int) -> str:
            name = f"{tenant_id}_p{index}"
            status, _, payload = await gateway.handle(
                "POST", "/v1/programs", _auth(tenant_id), _submit_body(name))
            if status == 200 and payload.get("succeeded"):
                # free pod0 capacity (and the quota slot) for the backlog
                await gateway.handle("DELETE", f"/v1/programs/{name}",
                                     _auth(tenant_id))
                return "committed"
            return str(payload.get("error") or payload.get("failed_stage"))

        started = time.perf_counter()
        tasks = [
            asyncio.ensure_future(submit_then_remove(tenant_id, index))
            for tenant_id, _weight, count in FAIRNESS_TENANTS
            for index in range(count)
        ]
        outcomes = await asyncio.gather(*tasks)
        elapsed = time.perf_counter() - started
        await gateway.close()

    window = dispatch_log[:FAIRNESS_WINDOW]
    total_weight = sum(weight for _tid, weight, _count in FAIRNESS_TENANTS)
    shares, share_error = {}, 0.0
    for tenant_id, weight, _count in FAIRNESS_TENANTS:
        share = window.count(tenant_id) / len(window)
        shares[tenant_id] = share
        share_error = max(share_error, abs(share - weight / total_weight))
    return {
        "tenants": [(tid, w, n) for tid, w, n in FAIRNESS_TENANTS],
        "wave": FAIRNESS_WAVE,
        "window": len(window),
        "shares": shares,
        "share_error": share_error,
        "committed": outcomes.count("committed"),
        "submitted": len(outcomes),
        "failures": len(outcomes) - outcomes.count("committed"),
        "elapsed_s": elapsed,
        "rps": len(outcomes) / elapsed if elapsed else 0.0,
    }


# --------------------------------------------------------------------- #
# scenario 2: overload — backpressure, shedding, nothing committed lost
# --------------------------------------------------------------------- #
async def _drive_overload() -> Dict[str, object]:
    tenants = (("z", 0.0, 6), ("a", 4.0, 8), ("b", 2.0, 4), ("c", 1.0, 4))
    registry = _registry(tenants)
    async with INCService(build_fattree(k=4), sharded=True) as service:
        gateway = Gateway(service, registry,
                          queue_capacity=OVERLOAD_CAPACITY, wave=2)

        # the zero-weight tenant commits one program before the storm; the
        # storm must not touch it (shedding only ever hits *queued* work)
        status, _, payload = await gateway.handle(
            "POST", "/v1/programs", _auth("z"), _submit_body("z_keep"))
        assert status == 200 and payload["succeeded"], payload

        async def submit(tenant_id: str, index: int) -> Tuple[str, str, int]:
            name = f"{tenant_id}_s{index}"
            status, _, payload = await gateway.handle(
                "POST", "/v1/programs", _auth(tenant_id), _submit_body(name))
            if status == 200 and payload.get("succeeded"):
                return tenant_id, name, 200
            return tenant_id, name, status

        tasks = [
            asyncio.ensure_future(submit(tenant_id, index))
            for tenant_id, _weight, count in tenants
            for index in range(count)
        ]
        results = await asyncio.gather(*tasks)
        await gateway.handle("POST", "/v1/drain",
                             {"X-Admin-Key": "unused"})  # 403: not admin

        # every 200 must still be deployed: committed work is never dropped
        listings = {}
        for tenant_id, _weight, _count in tenants:
            _, _, listing = await gateway.handle(
                "GET", "/v1/programs", _auth(tenant_id))
            listings[tenant_id] = set(listing["programs"])
        dropped = [
            name for tenant_id, name, status in results
            if status == 200 and name not in listings[tenant_id]
        ]
        keep_survived = "z_keep" in listings["z"]

        statuses = [status for _tid, _name, status in results]
        counters = {
            tid: registry.get(tid).counters.summary()
            for tid, _weight, _count in tenants
        }
        await gateway.close()

    return {
        "capacity": OVERLOAD_CAPACITY,
        "offered": len(results),
        "committed": statuses.count(200),
        "backpressure": statuses.count(429),
        "shed": statuses.count(503),
        "dropped_committed": len(dropped),
        "precommitted_survived": keep_survived,
        "counters": counters,
    }


def run_fairness() -> Dict[str, object]:
    return asyncio.run(_drive_fairness())


def run_overload() -> Dict[str, object]:
    return asyncio.run(_drive_overload())


def run_all() -> Dict[str, object]:
    return {"fairness": run_fairness(), "overload": run_overload()}


def test_gateway_qos(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    fairness = results["fairness"]
    print_table(
        f"weighted-fair dispatch shares — first {fairness['window']}"
        f" dispatches, wave {fairness['wave']}",
        ["tenant", "weight", "offered", "share", "target"],
        [
            (tid, w, n, f"{fairness['shares'][tid]:.3f}",
             f"{w / sum(x[1] for x in fairness['tenants']):.3f}")
            for tid, w, n in fairness["tenants"]
        ],
    )
    print_table(
        "gateway under overload (bounded lane, zero-weight tenant filling)",
        ["offered", "capacity", "committed", "429 backpressure", "503 shed",
         "dropped committed", "pre-storm commit survived"],
        [
            (
                results["overload"]["offered"],
                results["overload"]["capacity"],
                results["overload"]["committed"],
                results["overload"]["backpressure"],
                results["overload"]["shed"],
                results["overload"]["dropped_committed"],
                results["overload"]["precommitted_survived"],
            )
        ],
    )

    assert fairness["failures"] == 0
    assert fairness["share_error"] <= 0.10, (
        f"dispatch share error {fairness['share_error']:.3f} exceeds 10%"
    )
    overload = results["overload"]
    assert overload["backpressure"] >= 1
    assert overload["shed"] >= 1
    assert overload["dropped_committed"] == 0
    assert overload["precommitted_survived"]


if __name__ == "__main__":
    print(json.dumps(run_all(), indent=2, default=str))
