#!/usr/bin/env python3
"""Drive the multi-tenant gateway over a real HTTP socket.

Boots the whole stack in-process — sharded `INCService` on a 4-pod
fat-tree, `Gateway`, `GatewayHTTPServer` on an ephemeral port — then
talks to it exactly like an external client would, with stdlib
`urllib`: submit (template and deadline variants), list, status,
rolling update, remove, and the admission-control error paths (quota,
duplicate name).

The wire protocol is documented in docs/api.md.

Run with:  PYTHONPATH=src python examples/gateway_client.py
"""

import asyncio
import json
import urllib.error
import urllib.request

from repro.core.service import INCService
from repro.gateway import Gateway, GatewayHTTPServer, TenantQuota, TenantRegistry
from repro.topology import build_fattree


def request(base: str, method: str, path: str, api_key: str, payload=None):
    """One HTTP round trip; returns (status, decoded JSON body)."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Authorization": f"Bearer {api_key}"},
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


async def main() -> None:
    registry = TenantRegistry()
    registry.register("acme", api_key="k-acme", weight=4.0)
    registry.register("batch", api_key="k-batch", weight=0.0,
                      quota=TenantQuota(max_programs=1))

    async with INCService(build_fattree(k=4), sharded=True) as service:
        gateway = Gateway(service, registry, admin_key="s3cret")
        async with GatewayHTTPServer(gateway, port=0) as http:
            base = f"http://127.0.0.1:{http.port}"
            print(f"gateway listening on {base}/v1/\n")
            loop = asyncio.get_running_loop()

            def call(method, path, api_key="k-acme", payload=None):
                # urllib blocks, so round trips run off the event loop
                return loop.run_in_executor(
                    None, request, base, method, path, api_key, payload)

            # -- deploy a template app (intra-pod: one shard, no 2PC) ----
            status, report = await call("POST", "/v1/programs", payload={
                "name": "kvs0", "app": "KVS",
                "source_groups": ["pod0(a)"], "destination_group": "pod0(b)",
                "performance": {"depth": 4000},
            })
            print(f"deploy kvs0        -> {status}"
                  f" on {len(report['devices'])} devices"
                  f" in {report['total_s']}s")

            # -- a cross-pod deploy with a deadline: runs the 2PC --------
            status, report = await call("POST", "/v1/programs", payload={
                "name": "agg0", "app": "MLAgg",
                "source_groups": ["pod1(a)", "pod2(a)"],
                "destination_group": "pod3(b)",
                "deadline_s": 30.0,
            })
            print(f"deploy agg0 (2PC)  -> {status}"
                  f" spanning {len(report['devices'])} devices")

            # -- the error paths every client must handle ----------------
            status, body = await call("POST", "/v1/programs", payload={
                "name": "kvs0", "app": "KVS",
                "source_groups": ["pod0(a)"], "destination_group": "pod0(b)",
            })
            print(f"duplicate name     -> {status} {body['error']}")

            for index in range(2):  # quota: batch may hold one program
                status, body = await call(
                    "POST", "/v1/programs", api_key="k-batch", payload={
                        "name": f"job{index}", "app": "KVS",
                        "source_groups": ["pod1(a)"],
                        "destination_group": "pod1(b)",
                    })
                label = body.get("error", "committed")
                print(f"batch job{index}         -> {status} {label}")

            # -- rolling update: atomic old -> new swap ------------------
            status, report = await call(
                "POST", "/v1/programs/kvs0/update", payload={
                    "app": "KVS", "performance": {"depth": 8000},
                })
            print(f"update kvs0        -> {status}"
                  f" succeeded={report['succeeded']}"
                  f" cache_hits={report.get('cache_hits')}")

            # -- per-tenant status ---------------------------------------
            status, page = await call("GET", "/v1/status")
            print(f"status acme        -> committed="
                  f"{page['counters']['committed']}"
                  f" usage={page['usage']['programs']} programs")

            # -- cleanup -------------------------------------------------
            for name in ("kvs0", "agg0"):
                status, body = await call("DELETE", f"/v1/programs/{name}")
                print(f"remove {name:<12}-> {status}")
            await gateway.close()


if __name__ == "__main__":
    asyncio.run(main())
