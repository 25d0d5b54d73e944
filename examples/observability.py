#!/usr/bin/env python3
"""End-to-end telemetry walk-through: metrics, traces, events.

Boots a sharded `INCService` behind a `Gateway` on a 4-pod fat-tree,
submits one intra-pod and one cross-shard deployment, then pulls the
three telemetry surfaces the way an operator would:

* `GET /v1/metrics` — the Prometheus exposition (admin-keyed),
* `GET /v1/traces` + `GET /v1/traces/<id>` — the completed request
  traces, including the Chrome trace-event export of the cross-shard
  submission (gateway queue -> compile -> 2PC -> install),
* the structured event log, streamed to a JSONL file.

The same hub is also usable without any gateway — see the second half,
which traces a plain `ClickINC.deploy_many` wave directly.

Run with:  PYTHONPATH=src python examples/observability.py
"""

import asyncio
import json
import tempfile

from repro.core import ClickINC
from repro.core.pipeline import DeployRequest
from repro.core.service import INCService
from repro.gateway import Gateway, TenantRegistry
from repro.lang.profile import default_profile
from repro.obs import Observability
from repro.topology import build_fattree, build_paper_emulation_topology

ADMIN = {"X-Admin-Key": "s3cret"}


def submit_body(name, source_groups, destination_group):
    return json.dumps({
        "name": name, "app": "KVS",
        "source_groups": source_groups,
        "destination_group": destination_group,
    }).encode()


async def gateway_walkthrough() -> None:
    obs = Observability()
    registry = TenantRegistry()
    tenant = registry.register("acme", weight=1.0)
    auth = {"Authorization": f"Bearer {tenant.api_key}"}

    async with INCService(build_fattree(k=4), sharded=True,
                          obs=obs) as service:
        gateway = Gateway(service, registry, admin_key="s3cret", obs=obs)

        # one intra-pod submission, one cross-shard (2PC) submission
        for name, src, dst in (
            ("kvs_intra", ["pod0(a)"], "pod0(b)"),
            ("kvs_cross", ["pod0(a)", "pod1(a)"], "pod2(b)"),
        ):
            status, _h, report = await gateway.handle(
                "POST", "/v1/programs", auth, submit_body(name, src, dst))
            print(f"submitted {name}: {status}"
                  f" succeeded={report['succeeded']}")

        status, headers, text = await gateway.handle(
            "GET", "/v1/metrics", ADMIN)
        print(f"\n/v1/metrics -> {status} ({headers['Content-Type']})")
        for line in text.splitlines():
            if line.startswith(("clickinc_2pc", "clickinc_tenant",
                                "clickinc_admission_wait_seconds_count")):
                print(f"  {line}")

        _s, _h, listing = await gateway.handle("GET", "/v1/traces", ADMIN)
        print(f"\n/v1/traces -> {len(listing['traces'])} completed traces")
        for summary in listing["traces"]:
            print(f"  {summary['trace_id']}  {summary['name']}"
                  f"  spans={summary['spans']}  status={summary['status']}")

        # the cross-shard trace, as Chrome trace-event JSON
        cross = listing["traces"][0]
        _s, _h, chrome = await gateway.handle(
            "GET", f"/v1/traces/{cross['trace_id']}", ADMIN)
        names = sorted({e["name"] for e in chrome["traceEvents"]
                        if e["ph"] == "X"})
        print(f"\nchrome export of {cross['trace_id']}:"
              f" {len(chrome['traceEvents'])} events")
        print(f"  span names: {', '.join(names)}")
        print("  (load the JSON in chrome://tracing or Perfetto)")

        await gateway.close()


def standalone_walkthrough(events_path: str) -> None:
    """The same hub without any gateway: trace a plain controller wave,
    then drain a device so the event log has a migration to show."""
    obs = Observability()
    obs.events.set_path(events_path)
    requests = [
        DeployRequest(
            source_groups=[f"pod{i}(a)"], destination_group=f"pod{i}(b)",
            name=f"kvs_wave{i}", profile=default_profile("KVS"),
            trace=obs.tracer.start_trace("deploy", program=f"kvs_wave{i}"),
        )
        for i in range(3)
    ]
    with ClickINC(build_paper_emulation_topology(), obs=obs) as controller:
        reports = controller.deploy_many(requests)
        for request, report in zip(requests, reports):
            obs.tracer.finish(request.trace,
                              status="ok" if report.succeeded else "error")
        done = obs.tracer.get(requests[0].trace.trace_id)
        stages = [span.name for span in done["spans"]]
        print(f"\nstandalone wave: {len(obs.tracer.summaries())} traces,"
              f" first trace's spans {stages}")

        # drain a hosting device: the migration + topology events land in
        # the JSONL stream and the health gauges move
        manager = controller.runtime()
        devices = reports[0].deployed.devices()
        # drain an aggregation switch: a ToR drain would leave its host
        # group unreachable and the migration would (correctly) roll back
        victim = next((d for d in devices if not d.startswith("ToR")),
                      devices[0])
        migration = manager.drain_device(victim)
        print(f"drained {victim}: migrated {migration.migrated}")
    obs.events.close()
    lines = open(events_path).read().splitlines()
    print(f"\nevent log ({events_path}): {len(lines)} events")
    for line in lines:
        record = json.loads(line)
        print(f"  {record['event']}: "
              + ", ".join(f"{k}={v}" for k, v in record.items()
                          if k not in ("ts", "event")))
    text = obs.registry.render()
    for line in text.splitlines():
        if line.startswith(("clickinc_health", "clickinc_unavailable",
                            "clickinc_runtime_migrations_total",
                            "clickinc_migration_recovery_seconds_count")):
            print(f"  {line}")


def main() -> None:
    asyncio.run(gateway_walkthrough())
    with tempfile.NamedTemporaryFile(suffix=".jsonl") as handle:
        standalone_walkthrough(handle.name)


if __name__ == "__main__":
    main()
